"""Package surface: every exported name resolves, so a deletion cannot
leave a dead export behind, and has a caller, so no public name outlives
its last use; the package states one version, the README's
minimal example runs, and the benchmark's tracer still finds every method
it wraps."""

import importlib
import importlib.util
import inspect
import pkgutil
import re
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


def test_every_public_name_has_a_caller():
    # each package export is used by the library, the benchmark, the tools
    # or the acceptance tests: named somewhere besides its own def or class
    # line and its __all__ entry (unit tests do not count as callers)
    root = Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "cbayes").glob("*.py") if p.name != "__init__.py"]
    files += [*(root / "perfbench").glob("*.py"), *(root / "tools").glob("*.py"), root / "tests" / "test_acceptance.py"]
    text = "\n".join(p.read_text() for p in files)
    unused = []
    for name in cbayes.__all__:
        own = re.compile(rf'^\s*(?:(?:def|class)\s+{re.escape(name)}\b.*|"{re.escape(name)}",)$', re.M)
        if not re.search(rf"\b{re.escape(name)}\b", own.sub("", text)):
            unused.append(name)
    assert not unused


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_version_matches_package():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == cbayes.__version__


def test_readme_example_runs():
    # the first python block of the README, as a reader would paste it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_readme_library_tour_has_a_row_per_module():
    # one row for each module file, and none for a module that is gone,
    # but the package's entry points and cli, which has its own section
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    tour = readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    rows = {line.split("`")[1] for line in tour.splitlines() if line.startswith("| `cbayes.")}
    modules = {f"cbayes.{p.stem}" for p in (root / "src" / "cbayes").glob("*.py")}
    assert rows == modules - {"cbayes.__init__", "cbayes.__main__", "cbayes.cli"}
    assert "\n## CLI\n" in readme


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


# the public functions whose spans perfbench/run.py reads; a traced run
# fails its span-coverage check when one of them records nothing
TRACED_FUNCTIONS = (
    "series_prior.sample_coefficients",
    "streams.substream",
    "likelihood.assumption_audit",
    "posterior.hellinger_from_potentials",
    "posterior.total_variation_from_potentials",
    "posterior.hellinger",
    "posterior.total_variation",
    "posterior.normalization",
    "posterior.map_estimate_l1",
    *(f"experiments.run_{name}" for name in cbayes.EXPERIMENT_NAMES),
)


def test_benchmark_tracing_targets_are_where_the_tracer_looks():
    # in process and without install(): the tracer takes each method of its
    # table from the class's own vars, Distribution1D.sample included, and
    # wraps only module-level public functions defined in their own module
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, classes in tracing.METHODS.items():
        mod = importlib.import_module(f"cbayes.{layer}")
        for cname, meths in classes.items():
            assert all(m in vars(getattr(mod, cname)) for m in meths), (layer, cname)
    assert "sample" in vars(cbayes.measures1d.Distribution1D)
    for target in TRACED_FUNCTIONS:
        layer, name = target.split(".")
        assert layer in tracing.LAYERS
        mod = importlib.import_module(f"cbayes.{layer}")
        fn = vars(mod).get(name)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, target
