"""Package surface: every exported name resolves, so a deletion cannot
leave a dead export behind."""

import importlib
import pkgutil

import pytest

import cbayes

MODULES = [cbayes] + [importlib.import_module(f"cbayes.{m.name}") for m in pkgutil.iter_modules(cbayes.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing
