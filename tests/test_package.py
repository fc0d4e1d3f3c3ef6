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
    # perfbench/tracing.py wraps the methods its table names from each
    # class's own namespace (vars(cls)[name]): the models' apply*, the
    # potentials' evaluate* and ProductPrior.sample, so moving one of them
    # into a base class breaks every traced benchmark run; it also wraps
    # sample on each Distribution1D class that defines one, which is
    # Distribution1D alone, so every law's draws are traced through the
    # one inherited Distribution1D.sample
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = f"import sys\nsys.path.insert(0, {str(perfbench)!r})\nimport tracing\ntracing.install(tracing.Tracer())\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("law", ["IID(Laplace(0.0, 1.0))", "Hierarchical(Gamma(2.0, 1.0), Gaussian(0.0, 1.0))"])
def test_benchmark_tracer_records_law_sample_calls(law):
    # the benchmark's span-coverage check fails a traced run that records
    # no measures1d.*.sample call, so the block fill must go through the
    # laws' sample method, on whichever thread fills the columns
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        f"import sys\nsys.path.insert(0, {str(perfbench)!r})\nimport tracing\n"
        "tracer = tracing.Tracer()\ntracing.install(tracer)\n"
        "from cbayes.measures1d import Gamma, Gaussian, Laplace\n"
        "from cbayes.series_prior import AlgebraicFourier, FourierCircle, Hierarchical, IID, SeriesPrior\n"
        "from cbayes.series_prior import sample_coefficients\n"
        f"prior = SeriesPrior(FourierCircle(), AlgebraicFourier(1.0), {law})\n"
        "sample_coefficients(prior, 8, 20000, 0)\n"
        "stats = tracer.take()['stats']\n"
        "calls = sum(r[0] for n, r in stats.items() if n.startswith('measures1d.') and n.endswith('.sample'))\n"
        "print(calls)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 1
