"""Verification suites end to end, report reproducibility, and the CLI.

Each suite must pass its own verdicts at default configuration, rerun
byte-identically from the embedded config, and export points in the
stable CSV schema.  CLI commands are exercised in process through click's
test runner; one subprocess test covers the installed console script.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from cbayes import (
    EXPERIMENT_NAMES,
    default_config,
    experiments,
    run_experiment,
    series_prior,
)
from cbayes.cli import main
from cbayes.config import model_from_json, prior_from_json
from cbayes.experiments import _synthetic_data, _truncation_distances, all_verdicts_pass, report_points_csv
from cbayes.likelihood import GaussianAdditive
from cbayes.posterior import hellinger_from_potentials

REPORT_CACHE = {}


def cached_report(name):
    if name not in REPORT_CACHE:
        REPORT_CACHE[name] = run_experiment(name)
    return REPORT_CACHE[name]


# -------------------------------------------------------------------- suites


def test_experiment_names_frozen():
    assert EXPERIMENT_NAMES == (
        "stability", "consistency", "convexity", "metrics", "audit", "map_demo",
    )


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_suite_passes_at_default_config(name):
    report = cached_report(name)
    failed = [k for k, v in report["verdicts"].items() if not v["passed"]]
    assert not failed, f"{name} failed verdicts: {failed}"


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_report_schema(name):
    report = cached_report(name)
    assert report["experiment"] == name
    assert set(report) == {"experiment", "config", "points", "fits", "verdicts", "provenance"}
    for p in report["points"]:
        assert set(p) == {"x", "value", "stderr", "method", "effort", "label"}
    for v in report["verdicts"].values():
        assert set(v) == {"passed", "observed", "tolerance"}
        assert isinstance(v["passed"], bool)
    prov = report["provenance"]
    assert set(prov) == {"config_hash", "seed", "versions"}
    assert len(prov["config_hash"]) == 64
    # the whole report must be plain JSON
    json.dumps(report)


def test_rerun_from_embedded_config_is_byte_identical():
    first = cached_report("stability")
    again = run_experiment("stability", first["config"])
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_seed_override_changes_measurements():
    base = run_experiment("metrics", {"effort": 3000, "num_pairs": 3, "quad_effort": 400})
    moved = run_experiment("metrics", {"effort": 3000, "num_pairs": 3, "quad_effort": 400},
                           seed=99)
    assert moved["config"]["seed"] == 99
    assert json.dumps(base["points"]) != json.dumps(moved["points"])


def test_unknown_config_key_rejected():
    with pytest.raises(ValueError):
        run_experiment("stability", {"effrt": 100})
    for retired in ({"n_ref": 128}, {"drop_smallest": True}):  # consistency's fixed settings
        with pytest.raises(ValueError, match="unknown config keys"):
            run_experiment("consistency", retired)
    with pytest.raises(ValueError):
        run_experiment("nonsense")


LINEAR_MODEL = {"kind": "linear", "matrix": [[1.0, 0.3], [0.2, 1.0]]}
LAPLACE_SERIES = default_config("consistency")["prior"]
EXPLICIT_256 = {"kind": "explicit", "values": [(1.0 + p * p) ** -1.25 for p in range(256)]}  # the truncation window
EXPLICIT_3 = {"kind": "explicit", "values": [1.0, 0.5, 0.25]}  # shorter than every suite's window
PRODUCT_PRIOR = {"kind": "product", "dists": [LAPLACE_SERIES["law"]["dist"]]}


@pytest.mark.parametrize("name,config,key", [
    ("stability", {"deltas": [0.01]}, "deltas"),
    ("stability", {"deltas": [0.0, 0.01]}, "deltas"),
    ("stability", {"model": LINEAR_MODEL}, "model"),
    ("consistency", {"n_grid": [2, 4]}, "n_grid"),
    ("consistency", {"n_grid": [2, 4], "model": LINEAR_MODEL}, "model"),
    ("metrics", {"model": LINEAR_MODEL}, "model"),
    ("map_demo", {"weights": []}, "weights"),
    ("map_demo", {"weights": [0.1, 0.0]}, "weights"),
    # the tail-sum oracle needs algebraic Fourier weights and one iid law
    ("consistency", {"effort": 2000, "prior": dict(LAPLACE_SERIES, schedule=EXPLICIT_256)}, "prior"),
    ("consistency", {"effort": 2000, "prior": dict(LAPLACE_SERIES, schedule={"kind": "algebraic_sequence", "s": 1.25})},
     "prior"),
    ("consistency", {"effort": 2000, "prior": default_config("consistency")["hierarchical_prior"]}, "prior"),
    ("consistency", {"effort": 2000, "prior": PRODUCT_PRIOR}, "prior"),
    # a sample stderr needs two draws
    *[(name, {"effort": effort}, "effort") for name in ("stability", "consistency", "convexity", "metrics")
      for effort in (0, 1)],
    ("consistency", {"n_grid": [0, 2, 4, 8]}, "n_grid"),
    ("consistency", {"n_grid": [2, 4, 8, 256]}, "n_grid"),
    # a prior the suite cannot draw at the model window
    *[(name, {key: prior}, key) for name, key in (("stability", "prior"), ("metrics", "prior"),
                                                   ("consistency", "hierarchical_prior"))
      for prior in (PRODUCT_PRIOR, dict(LAPLACE_SERIES, schedule=EXPLICIT_3))],
    # with no pair, all([]) would pass the sandwich and gap verdicts
    ("metrics", {"effort": 2000, "num_pairs": 0}, "num_pairs"),
    ("metrics", {"effort": 2000, "quad_effort": 0}, "quad_effort"),
    ("audit", {"num_samples": 9}, "num_samples"),
    *[(name, {key: {"kind": "bogus"}}, key) for name, key in (("stability", "prior"), ("consistency", "prior"),
                                                              ("consistency", "hierarchical_prior"),
                                                              ("metrics", "prior"))],
    # refused before any draw, not by a math domain error or a library message
    *[(name, {"sigma2": sigma2}, "sigma2") for name in ("stability", "consistency", "metrics")
      for sigma2 in (0.0, -4.0, math.nan)],
    ("consistency", {"tail_cutoff": 32}, "tail_cutoff"),
    ("consistency", {"tail_cutoff": 8}, "tail_cutoff"),
    *[("convexity", {"lam": lam}, "lam") for lam in (0.0, 1.0, 1.5, math.nan)],
    ("audit", {"radius": 0.0}, "radius"),
    ("audit", {"radius": -1.0}, "radius"),
    ("stability", {"deltas": [0.01, math.nan, 0.1]}, "deltas"),
    ("stability", {"deltas": [0.01, math.inf]}, "deltas"),
    # map_demo: zip would cut a short list, a repeat would overwrite, and
    # an outside position or an empty design would fail late
    ("map_demo", {"truth_values": [1.5, -2.0]}, "truth_values"),
    ("map_demo", {"truth_values": [1.5, -2.0, 1.0, 0.5]}, "truth_values"),
    ("map_demo", {"truth_positions": [0, 3, 3]}, "truth_positions"),
    ("map_demo", {"truth_positions": [0, 3, 8]}, "truth_positions"),
    ("map_demo", {"truth_positions": [-1, 3, 6]}, "truth_positions"),
    ("map_demo", {"rows": 0}, "rows"),
    ("map_demo", {"cols": 0}, "cols"),
    # refused before any solve, not after 200000 ISTA iterations or by a library message
    *[("map_demo", {"noise_sigma": s}, "noise_sigma") for s in (math.nan, math.inf, -0.1)],
    *[("map_demo", {"weights": [0.5, w]}, "weights") for w in (math.nan, math.inf)],
    *[("map_demo", {"truth_values": [1.5, v, 1.0]}, "truth_values") for v in (math.nan, math.inf)],
    # at 0 the random pairs are identical and judge nothing; at NaN the run dies late
    *[("metrics", {"effort": 2000, "pair_scale": s}, "pair_scale") for s in (0.0, -0.5, math.nan, math.inf)],
    # with no additive-Gaussian potential, all([]) would pass gaussian_unflagged
    ("audit", {"potentials": []}, "potentials"),
    ("audit", {"potentials": [{"kind": "multiplicative_uniform", "y": 1.0, "dim": 4}]}, "potentials"),
    # with no data every weight kills the estimate, and the kill weight is 0
    ("map_demo", {"truth_values": [0.0, 0.0, 0.0], "noise_sigma": 0.0}, "noise_sigma"),
    ("map_demo", {"truth_positions": [], "truth_values": [], "noise_sigma": 0.0}, "noise_sigma"),
    # a perturbation the estimator cannot resolve gives d_H = 0, whose log the slope fit needs
    ("stability", {"effort": 2000, "deltas": [1e-9, 1e-8]}, "deltas"),
])
def test_unrunnable_config_rejected_naming_the_key(name, config, key):
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        run_experiment(name, config)


def test_default_config_returns_fresh_copies():
    a = default_config("stability")
    a["effort"] = -1
    assert default_config("stability")["effort"] != -1


def test_points_csv_schema():
    report = cached_report("consistency")
    csv = report_points_csv(report)
    lines = csv.strip().splitlines()
    assert lines[0] == "x,value,stderr,method,effort"
    assert len(lines) == 1 + len(report["points"])
    for ln in lines[1:]:
        x, value, stderr, method, effort = ln.split(",")
        float(x), float(value), float(stderr), int(effort)
        assert method


def test_stability_report_details():
    report = cached_report("stability")
    zero = [p for p in report["points"] if p["x"] == 0.0]
    assert zero and all(p["value"] == 0.0 for p in zero)
    assert 0.8 <= report["fits"]["slope"] <= 1.2
    assert report["fits"]["ratio_spread"] < 3.0
    assert report["verdicts"]["zero_perturbation_exact"]["passed"]


def test_consistency_report_details():
    report = cached_report("consistency")
    assert -2.6 <= report["fits"]["slope"] <= -1.5
    assert abs(report["fits"]["projection_slope"] - (-2.0)) <= 0.1
    # distances shrink by orders of magnitude across the window sweep
    vals = [p["value"] for p in report["points"] if p["label"] == "laplace"]
    assert vals[0] > 10 * vals[-1]
    assert report["verdicts"]["hierarchical_monotone"]["passed"]


@pytest.mark.parametrize("n_grid", [[32, 16, 8, 4, 2], [2, 2, 4, 8, 16, 32]])
def test_consistency_fits_drop_the_smallest_level(n_grid):
    # both slope fits drop level 2, however n_grid lists it
    base = run_experiment("consistency", {"effort": 2000})
    assert run_experiment("consistency", {"effort": 2000, "n_grid": n_grid})["fits"] == base["fits"]


def test_truncation_distances_never_hold_the_coefficient_matrix():
    cfg = default_config("consistency")
    prior, model = prior_from_json(cfg["prior"]), model_from_json(cfg["model"])
    phi = GaussianAdditive(model, 4.0, _synthetic_data(prior, model, 4.0, 0, "consistency"))
    effort, n_ref = 20000, model.truncation
    tracemalloc.start()
    try:
        pairs = _truncation_distances(prior, phi, cfg["n_grid"], effort, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [N for N, _ in pairs] == [2, 4, 8, 16, 32, 128]
    assert pairs[-1][1].value == 0.0
    # one (effort, 2 * n_ref) coefficient matrix is 39 MB
    assert peak < effort * 2 * n_ref * 8


def test_truncation_distances_equal_the_pairwise_estimates(monkeypatch):
    # one batch call per half; every level's report has the bits of the
    # pairwise estimate on the same reference and level potentials
    cfg = default_config("consistency")
    prior, model = prior_from_json(cfg["prior"]), model_from_json(cfg["model"])
    phi = GaussianAdditive(model, 4.0, _synthetic_data(prior, model, 4.0, 0, "consistency"))
    batch, calls = experiments.hellinger_from_reference, []

    def recorded(p_ref, pots):
        calls.append((p_ref.copy(), pots.copy()))
        return batch(p_ref, pots)

    monkeypatch.setattr(experiments, "hellinger_from_reference", recorded)
    pairs = _truncation_distances(prior, phi, cfg["n_grid"], 5000, 0)
    (p_ref, pots), = calls
    assert [rep for _, rep in pairs] == [hellinger_from_potentials(p_ref, p) for p in pots]
    assert pairs[-1][1].value == 0.0 and all(rep.value > 0.0 for _, rep in pairs[:-1])


SMALL_CHUNK = 256 * 1237  # 1237 rows (an odd count) at window 256, 9896 at 32, 19792 at 16


@pytest.mark.parametrize("name, config", [
    ("stability", None),
    ("consistency", {"effort": 5000}),
    ("metrics", None),
])
def test_reports_invariant_under_block_size(monkeypatch, name, config):
    # The suites reduce column-major blocks with BLAS products; the report
    # must not depend on where the blocks are cut.
    base = cached_report(name) if config is None else run_experiment(name, config)
    effort = base["config"]["effort"]
    window = 2 * base["config"]["model"]["truncation"]
    rows = SMALL_CHUNK // window
    assert effort // rows >= 4 and effort % rows != 0  # many blocks, a short last one
    monkeypatch.setattr(series_prior, "_CHUNK_VALUES", SMALL_CHUNK)
    small = run_experiment(name, config)
    assert json.dumps(small, sort_keys=True) == json.dumps(base, sort_keys=True)


def test_residual_suites_do_not_depend_on_the_blas_thread_count():
    # stability and metrics form every perturbed potential by a matrix-vector
    # product on the residual buffer; a threaded BLAS must not move its bits
    code = (
        "import json\n"
        "from cbayes import run_experiment\n"
        "for name, cfg in (('stability', {'effort': 30000}), ('metrics', {'effort': 30000, 'quad_effort': 50})):\n"
        "    print(json.dumps(run_experiment(name, cfg), sort_keys=True, indent=2))\n"
    )
    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_min_ess_verdict_has_a_tenfold_margin_at_the_defaults():
    for name in ("stability", "consistency", "metrics"):
        verdict = cached_report(name)["verdicts"]["min_ess"]
        assert verdict["passed"] and verdict["observed"] >= 10000.0, name


def test_min_ess_verdict_flags_a_tiny_noise_variance():
    # at sigma2 = 1e-3 a handful of prior draws carry all the weight
    report = run_experiment("stability", {"sigma2": 1e-3, "effort": 20000})
    verdict = report["verdicts"]["min_ess"]
    assert not verdict["passed"] and verdict["observed"] < 1000.0


@pytest.mark.parametrize("seed", [5, 7, 8])
def test_map_demo_kkt_certificate_holds_where_the_true_support_is_missed(seed):
    # at these seeds no grid weight recovers the true support, which depends
    # on the random design, yet every estimate's own support is certified
    report = run_experiment("map_demo", seed=seed)
    assert report["fits"]["true_support_weights"] == 0
    verdict = report["verdicts"]["kkt_certified"]
    active, inactive = verdict["observed"]
    assert verdict["passed"] and active <= 1e-6 and inactive < 1.0


def test_map_demo_duality_gap_catches_an_inexact_solve(monkeypatch):
    solve = experiments.map_estimate_l1

    def off_by_1e4(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, estimate=res.estimate + 1e-4)

    monkeypatch.setattr(experiments, "map_estimate_l1", off_by_1e4)
    verdict = run_experiment("map_demo")["verdicts"]["duality_gap_certified"]
    assert not verdict["passed"] and verdict["observed"] > 1e-8


def test_audit_report_details():
    report = cached_report("audit")
    verdicts = report["verdicts"]
    assert verdicts["multiplicative_flagged"]["observed"] == ["bounded_above", "lower_bound"]


def test_map_demo_report_details():
    report = cached_report("map_demo")
    assert report["fits"]["max_duality_gap"] < 1e-8
    # heavier penalties can only shrink the support
    support = sorted(
        (p for p in report["points"] if p["label"] == "support_size"),
        key=lambda p: p["x"],
    )
    sizes = [p["value"] for p in support]
    assert sizes == sorted(sizes, reverse=True)
    assert report["fits"]["kill_weight"] > support[-1]["x"]
    assert report["verdicts"]["zero_at_large_weight"]["passed"]
    assert report["verdicts"]["zero_at_large_weight"]["observed"] == 0.0


# ----------------------------------------------------------------------- CLI


def invoke(args, **kw):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kw)


def test_cli_run_passing_suite(tmp_path):
    out = tmp_path / "report.json"
    csv = tmp_path / "points.csv"
    res = invoke(["run", "audit", "--out", str(out), "--csv", str(csv)])
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert all_verdicts_pass(report)
    assert csv.read_text().startswith("x,value,stderr,method,effort\n")
    assert "PASS audit.gaussian_unflagged" in res.output
    assert "FAIL" not in res.output


def test_cli_run_failing_suite_exits_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    # two-node quadrature cannot meet the closed-form tolerance
    cfg.write_text(json.dumps({"quad_effort": 2, "effort": 2000, "num_pairs": 2}))
    out = tmp_path / "report.json"
    res = invoke(["run", "metrics", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 1
    assert "FAIL metrics.hellinger_quadrature_oracle" in res.output


def test_cli_run_writes_report_to_stdout(tmp_path):
    res = invoke(["run", "map_demo"])
    assert res.exit_code == 0
    body = res.output[: res.output.rindex("}") + 1]
    report = json.loads(body)
    assert report["experiment"] == "map_demo"


def test_cli_run_rejects_unknown_experiment():
    res = CliRunner().invoke(main, ["run", "bogus"])
    assert res.exit_code == 2


def test_cli_sample_prior_deterministic(tmp_path):
    a = invoke(["sample-prior", "--level", "4", "--seed", "3"])
    b = invoke(["sample-prior", "--level", "4", "--seed", "3"])
    assert a.exit_code == 0
    assert a.output == b.output
    lines = a.output.strip().splitlines()
    assert lines[0] == "index,coefficient"
    assert len(lines) == 9
    assert "np." not in a.output


def test_cli_sample_prior_accepts_prior_file(tmp_path):
    prior = {
        "kind": "series",
        "basis": {"kind": "fourier_circle"},
        "schedule": {"kind": "algebraic_fourier", "s": 2.0},
        "law": {"kind": "iid", "dist": {"kind": "gaussian", "params": {"m": 0.0, "sigma": 1.0}}},
        "dilation": 1.0,
    }
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(prior))
    out = tmp_path / "field.csv"
    res = invoke(["sample-prior", "--prior", str(path), "--level", "2",
                  "--seed", "0", "--out", str(out)])
    assert res.exit_code == 0
    assert out.read_text().startswith("index,coefficient\n")


def test_cli_hellinger_matches_library(tmp_path):
    from cbayes import (
        AlgebraicMultipliers, DeconvolutionModel, GaussianAdditive,
        PosteriorSpec, equispaced_points, hellinger,
    )
    from cbayes.config import potential_to_json, prior_from_json, prior_to_json
    from cbayes.measures1d import Laplace
    from cbayes.series_prior import AlgebraicFourier, FourierCircle, IID, SeriesPrior

    prior = SeriesPrior(FourierCircle(), AlgebraicFourier(1.25), IID(Laplace(0.0, 1.0)))
    model = DeconvolutionModel(AlgebraicMultipliers(1.0), equispaced_points(8), 8)
    ya = np.linspace(-0.5, 0.5, 8)
    pa = GaussianAdditive(model, 4.0, ya)
    pb = GaussianAdditive(model, 4.0, ya + 0.1)

    prior_path = tmp_path / "prior.json"
    pa_path = tmp_path / "pa.json"
    pb_path = tmp_path / "pb.json"
    prior_path.write_text(json.dumps(prior_to_json(prior)))
    pa_path.write_text(json.dumps(potential_to_json(pa)))
    pb_path.write_text(json.dumps(potential_to_json(pb)))

    res = invoke(["hellinger", "--prior", str(prior_path),
                  "--potential-a", str(pa_path), "--potential-b", str(pb_path),
                  "--level", "8", "--effort", "5000", "--seed", "2"])
    assert res.exit_code == 0
    value = float(res.output.split()[0])
    direct = hellinger(PosteriorSpec(prior, pa, 8), PosteriorSpec(prior, pb, 8),
                       effort=5000, seed=2)
    assert value == direct.value


def test_cli_map_matches_library(tmp_path):
    from cbayes import map_estimate_l1

    prob = {"matrix": [[1.0, 0.4], [0.3, 1.0]], "y": [1.2, -0.5],
            "sigma": 1.0, "lam": 2.0}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(prob))
    res = invoke(["map", "--problem", str(path)])
    assert res.exit_code == 0
    est = [float(v) for v in res.output.strip().splitlines()[0].split(",")]
    direct = map_estimate_l1(np.asarray(prob["matrix"]), np.asarray(prob["y"]),
                             prob["sigma"], prob["lam"])
    assert np.allclose(est, direct.estimate, atol=1e-12)
    # one solver, so no --solver option
    assert CliRunner().invoke(main, ["map", "--problem", str(path), "--solver", "cd"]).exit_code == 2


def test_cli_map_refuses_nan_sigma(tmp_path):
    # json.load reads the NaN literal; the solver refuses it before iterating
    path = tmp_path / "problem.json"
    path.write_text('{"matrix": [[1.0, 0.4], [0.3, 1.0]], "y": [1.2, -0.5], "sigma": NaN, "lam": 2.0}')
    res = CliRunner().invoke(main, ["map", "--problem", str(path)])
    assert res.exit_code != 0
    assert isinstance(res.exception, ValueError)
    assert str(res.exception) == "sigma must lie in (0, inf)"


SMALL_EFFORTS = {
    "stability": {"effort": 2000},
    "consistency": {"effort": 2000},
    "convexity": {"effort": 2000},
    "metrics": {"effort": 2000},
    "audit": {"num_samples": 50},
    "map_demo": {},
}
ESTIMATOR_SETUP = (
    "import numpy as np\n"
    "from cbayes import GaussianAdditive, PosteriorSpec, config, posterior\n"
    "prior = config.prior_from_json({'kind': 'series', 'basis': {'kind': 'fourier_circle'},\n"
    "    'schedule': {'kind': 'algebraic_fourier', 's': 1.0}, 'law': {'kind': 'hierarchical',\n"
    "    'scale': {'kind': 'gamma', 'params': {'k': 2.0, 'lam': 1.0}},\n"
    "    'mode': {'kind': 'gaussian', 'params': {'m': 0.0, 'sigma': 1.0}}}, 'dilation': 1.0})\n"
    "model = config.model_from_json({'kind': 'deconvolution', 'multipliers': {'algebraic': 1.0},\n"
    "    'observation_points': [j / 8 for j in range(8)], 'truncation': 8})\n"
    "a, b = (PosteriorSpec(prior, GaussianAdditive(model, 1.0, np.full(8, y)), 8) for y in (0.0, 0.5))\n"
)
ESTIMATOR_CALLS = (
    "posterior.hellinger(a, b, effort=2000)",
    "posterior.total_variation(a, b, effort=2000)",
    "posterior.normalization(a, 2000)",
    "posterior.posterior_mean(a, 2000)",
)


def test_suites_leave_scipy_integrate_unimported():
    # Each suite and each estimator call in a fresh process loads none of
    # scipy.integrate, scipy.special and scipy.linalg: the CDFs and the
    # Gauss-Legendre rule are numpy, and only dense noise needs scipy.linalg.
    codes = [f"from cbayes import run_experiment\nrun_experiment({n!r}, {c!r})\n" for n, c in SMALL_EFFORTS.items()]
    codes += [ESTIMATOR_SETUP + call + "\n" for call in ESTIMATOR_CALLS]
    tail = "import sys\nprint([m for m in ('scipy.integrate', 'scipy.special', 'scipy.linalg') if m in sys.modules])\n"
    procs = [subprocess.Popen([sys.executable, "-c", code + tail], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for code in codes]
    for code, proc in zip(codes, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.strip() == "[]", code


def test_python_m_cbayes_lists_commands():
    proc = subprocess.run([sys.executable, "-m", "cbayes", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sample-prior" in proc.stdout


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "cbayes.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sample-prior" in proc.stdout
    # the entry point exists only after `pip install -e .`
    proc = subprocess.run(["cbayes", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sample-prior" in proc.stdout
