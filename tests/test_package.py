"""Package surface: every exported name resolves, so a deletion cannot
leave a dead export behind, the package states one version, and the
benchmark's tracer still finds every method it wraps."""

import importlib
import pkgutil
import subprocess
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


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps methods it reads from each class's own
    # namespace (vars(cls)[name]): the models' apply*, the potentials'
    # evaluate*, ProductPrior.sample and each law's sample, so moving one
    # into a base class breaks every traced benchmark run
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = f"import sys\nsys.path.insert(0, {str(perfbench)!r})\nimport tracing\ntracing.install(tracing.Tracer())\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
