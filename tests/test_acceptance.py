"""Acceptance run: one test per headline guarantee, at its stated
tolerance and time budget.

Each test either drives the relevant library call directly against a
closed-form oracle or runs one of the packaged experiment suites at its
default configuration and checks the recorded verdicts.  Suite runs are
cached module-wide so the reproducibility test can replay them from
their embedded configs.
"""

import json
import math
import time

import numpy as np

from cbayes import (
    CustomPotential,
    PosteriorSpec,
    ProductPrior,
    SeriesPrior,
    estimate_exp_moment,
    hellinger,
    map_estimate_l1,
    run_experiment,
)
from cbayes.experiments import EXPERIMENT_NAMES
from cbayes.measures1d import (
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    Logistic,
    Uniform,
    check_log_concavity,
    quantile_interval,
)
from cbayes.series_prior import (
    AbstractOrthonormal,
    AlgebraicFourier,
    ExplicitSchedule,
    FourierCircle,
    IID,
)

# first run of each suite is timed; the cache lets the reproducibility
# test replay every suite from its embedded config without paying twice
_SUITES: dict[str, tuple[dict, float]] = {}


def suite(name):
    if name not in _SUITES:
        start = time.monotonic()
        report = run_experiment(name)
        _SUITES[name] = (report, time.monotonic() - start)
    return _SUITES[name]


def test_c01_log_concavity_battery():
    # every shipped family, five parameter settings each, tol 1e-8, < 10 s
    start = time.monotonic()
    battery = {
        "gaussian": [Gaussian(m, s) for m, s in [(0, 1), (2, 0.5), (-3, 2), (0, 0.1), (1, 10)]],
        "exponential": [Exponential(lam) for lam in (0.2, 0.5, 1.0, 2.0, 10.0)],
        "laplace": [Laplace(m, s) for m, s in [(0, 1), (1, 0.5), (-2, 3), (0, 0.2), (5, 1)]],
        "logistic": [Logistic(m, s) for m, s in [(0, 1), (2, 0.5), (-1, 3), (0, 0.05), (4, 2)]],
        "gamma": [Gamma(k, lam) for k, lam in [(1, 1), (1.5, 2), (2, 1), (3, 0.5), (7.5, 1)]],
        "uniform": [Uniform(a, b) for a, b in [(0, 1), (-1, 1), (2, 5), (-0.5, 0.5), (0, 10)]],
    }
    assert len(battery) == 6 and all(len(v) == 5 for v in battery.values())
    for dists in battery.values():
        for d in dists:
            lo, hi = quantile_interval(d, 1e-10, 1.0 - 1e-10)
            rep = check_log_concavity(d, np.linspace(lo, hi, 2001), tol=1e-8)
            assert rep.passed, f"{d}: worst second difference {rep.max_second_difference}"
    assert time.monotonic() - start < 10.0


def test_c02_convexity_inequality():
    # 1-D and 2-D marginal boxes on all families, plus the Laplace
    # interval pair with a closed-form strict gap and an equality case
    report, elapsed = suite("convexity")
    verdicts = report["verdicts"]
    for name in (
        "all_1d_marginals",
        "all_2d_marginals",
        "posterior_marginal",
        "product_cdf_oracle",
        "laplace_strict_oracle",
        "laplace_equality_oracle",
    ):
        assert verdicts[name]["passed"], name
    # closed forms behind the quoted six-decimal oracles
    strict_lhs = 0.5 * (1.0 - math.exp(-2.0))
    strict_rhs = math.sqrt((1.0 - math.exp(-1.0)) * 0.5 * (math.exp(-1.0) - math.exp(-3.0)))
    equality = 0.5 * math.exp(-1.0) * (1.0 - math.exp(-1.0))
    assert abs(strict_lhs - 0.432332) < 5e-6
    assert abs(strict_rhs - 0.317072) < 5e-6
    assert abs(equality - 0.116269) < 5e-6
    lhs_mc, rhs_mc = verdicts["laplace_strict_oracle"]["observed"]
    assert abs(lhs_mc - strict_lhs) < 5e-3 and abs(rhs_mc - strict_rhs) < 5e-3
    assert lhs_mc > rhs_mc
    eq_lhs, eq_rhs = verdicts["laplace_equality_oracle"]["observed"]
    assert abs(eq_lhs - equality) < 4e-3 and abs(eq_rhs - equality) < 4e-3
    assert report["config"]["effort"] == 100000
    assert elapsed < 60.0


def test_c03_hellinger_closed_form_oracle():
    # N(1,1) vs N(0,1): d_H = sqrt(1 - exp(-1/8)); quadrature within
    # 1e-4, Monte Carlo within 3 stderr at 1e5 samples, < 30 s
    start = time.monotonic()
    target = math.sqrt(1.0 - math.exp(-0.125))
    # quoted reference value carries rounded intermediates; exact is 0.3427872
    assert abs(target - 0.342782) < 1e-5
    prior = ProductPrior((Gaussian(0.0, 1.0),))
    flat = PosteriorSpec(
        prior, CustomPotential(lambda u: 0.0, dim=1, batch_fn=lambda c: np.zeros(len(c)))
    )
    tilt = PosteriorSpec(
        prior,
        CustomPotential(lambda u: 0.5 - float(u[0]), dim=1, batch_fn=lambda c: 0.5 - c[:, 0]),
    )
    quad = hellinger(tilt, flat, method="quadrature", effort=400)
    assert abs(quad.value - target) < 1e-4
    mc = hellinger(tilt, flat, method="prior_mc", effort=100000, seed=0)
    assert abs(mc.value - target) <= 3.0 * mc.stderr
    assert time.monotonic() - start < 30.0


def test_c04_metric_sandwich():
    # d_H^2 <= d_TV <= sqrt(2) d_H on 20 random posterior pairs,
    # each side within 3 combined stderr, < 2 min
    report, elapsed = suite("metrics")
    assert report["config"]["num_pairs"] == 20
    assert report["verdicts"]["sandwich_lower"]["passed"]
    assert report["verdicts"]["sandwich_upper"]["passed"]
    assert elapsed < 120.0


def test_c05_stability_in_data():
    # deconvolution posterior at window 16: d_H/delta ratio spread < 3
    # over delta in [1e-3, 1e-1] and fitted slope in [0.8, 1.2],
    # paired seeds at 1e5 samples, < 5 min
    report, elapsed = suite("stability")
    cfg = report["config"]
    assert cfg["model"]["truncation"] == 16
    assert min(cfg["deltas"]) == 1e-3 and max(cfg["deltas"]) == 0.1
    assert cfg["effort"] == 100000
    assert report["fits"]["ratio_spread"] < 3.0
    assert 0.8 <= report["fits"]["slope"] <= 1.2
    for name in ("ratio_bounded", "slope_in_window", "zero_perturbation_exact"):
        assert report["verdicts"][name]["passed"], name
    assert elapsed < 300.0


def test_c06_discretization_consistency():
    # d_H(level N, level 128) over N in {2..32}: log-log slope in
    # [-2.6, -1.5]; deterministic projection-error slope -2 +- 0.1
    # against the tail-sum oracle, < 5 min
    report, elapsed = suite("consistency")
    cfg = report["config"]
    assert cfg["n_grid"] == [2, 4, 8, 16, 32]
    assert cfg["model"]["truncation"] == 128
    assert -2.6 <= report["fits"]["slope"] <= -1.5
    assert abs(report["fits"]["projection_slope"] + 2.0) <= 0.1
    for name in (
        "rate_slope_in_window",
        "projection_slope_near_rate",
        "reference_self_distance_exact",
        "hierarchical_monotone",
    ):
        assert report["verdicts"][name]["passed"], name
    assert elapsed < 300.0


def test_c07_assumption_audit():
    # additive Gaussian potentials report zero violations; the
    # multiplicative-noise potential is flagged on the lower bound and
    # the bounded-above checks, < 30 s
    report, elapsed = suite("audit")
    assert report["verdicts"]["gaussian_unflagged"]["passed"]
    flagged = report["verdicts"]["multiplicative_flagged"]
    assert flagged["passed"]
    assert flagged["observed"] == ["bounded_above", "lower_bound"]
    assert elapsed < 30.0


def test_c08_map_l1_link():
    # scalar soft-threshold closed form exact to 1e-10; ten random
    # 5x10 instances each solved to within 1e-8 of the minimum, as the
    # Lasso duality gap certifies, < 30 s
    start = time.monotonic()
    res = map_estimate_l1(np.eye(1), [2.0], sigma=1.0, lam=1.0)
    assert abs(res.estimate[0] - 1.0) < 1e-10
    gen = np.random.default_rng(2718)
    for _ in range(10):
        A = gen.normal(size=(5, 10)) / math.sqrt(5.0)
        y = gen.normal(size=5)
        lam = float(gen.uniform(0.5, 4.0))
        ista = map_estimate_l1(A, y, sigma=1.0, lam=lam)
        # P(z) minus the dual at theta = min(1, w / |A^T r|_inf) r, r = y - A z,
        # bounds P(z) - min P
        weight = 1.0 / lam
        r = y - A @ ista.estimate
        theta = r * (weight / max(float(np.max(np.abs(A.T @ r))), weight))
        primal = 0.5 * float(r @ r) + weight * float(np.sum(np.abs(ista.estimate)))
        dual = 0.5 * float(y @ y) - 0.5 * float((y - theta) @ (y - theta))
        assert primal - dual <= 1e-8
    assert time.monotonic() - start < 30.0


def test_c09_exponential_moment_diagnostic():
    # E exp(eps ||u||) for the decaying Laplace series stabilizes at
    # eps = 0.1 (doubling drift < 0.02 at 1e5 samples); the divergent
    # single-mode unit-rate Laplace case at eps = 2 is flagged, < 1 min
    start = time.monotonic()
    prior = SeriesPrior(FourierCircle(), AlgebraicFourier(1.25), IID(Laplace(0.0, 1.0)))
    rep = estimate_exp_moment(prior, eps=0.1, N=64, num_samples=100000, seed=0)
    assert rep.doubling_drift < 0.02
    assert not rep.flagged
    ones = AbstractOrthonormal(lambda n, x: np.ones_like(x))
    single = SeriesPrior(ones, ExplicitSchedule((1.0,)), IID(Laplace(0.0, 1.0)))
    divergent = estimate_exp_moment(single, eps=2.0, N=1, num_samples=100000, seed=0)
    assert divergent.flagged
    assert time.monotonic() - start < 60.0


def test_c10_reports_byte_identical():
    # every suite replayed from its embedded config and seed gives a
    # byte-identical report
    for name in EXPERIMENT_NAMES:
        first, _ = suite(name)
        again = run_experiment(name, first["config"])
        assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True), name
