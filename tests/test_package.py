"""Package surface: every exported name resolves, so a deletion cannot
leave a dead export behind, and the package states one version."""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import cbayes

MODULES = [cbayes] + [importlib.import_module(f"cbayes.{m.name}") for m in pkgutil.iter_modules(cbayes.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_version_matches_package():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == cbayes.__version__
