"""Posterior construction, metric estimators, MAP solvers.

Closed-form Gaussian pairs pin the estimators: tilting a standard normal
prior by the linear potential 1/2 - u gives N(1,1) against N(0,1), whose
Hellinger and total-variation distances are known exactly.  The MAP
solver is checked against the scalar soft-threshold rule, certified by
the Lasso duality gap, and held bit for bit to a reference copy of its
plain loop.
"""

import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbayes import (
    CustomPotential,
    DeconvolutionModel,
    GaussianAdditive,
    LinearModel,
    PosteriorSpec,
    ProductPrior,
    SeriesPrior,
    equispaced_points,
    hellinger,
    map_estimate_l1,
    normalization,
    total_variation,
    weighted_probability,
)
from cbayes import posterior, series_prior, streams
from cbayes.measures1d import Exponential, Gamma, Gaussian, Laplace, Logistic, Uniform
from cbayes.posterior import (
    MetricReport,
    _gap_check_core,
    _paired_metrics,
    hellinger_from_potentials,
    hellinger_from_reference,
    posterior_mean,
    total_variation_from_potentials,
)
from cbayes.series_prior import AlgebraicFourier, FourierCircle, Hierarchical, IID, sample_coefficients

STD_PRIOR = ProductPrior((Gaussian(0.0, 1.0),))


def flat_spec():
    zero = CustomPotential(lambda u: 0.0, dim=1, batch_fn=lambda c: np.zeros(len(c)))
    return PosteriorSpec(STD_PRIOR, zero)


def tilt_spec():
    # exp(-(1/2 - u)) * N(0,1) density is the N(1,1) density: Z = 1
    tilt = CustomPotential(
        lambda u: 0.5 - float(u[0]), dim=1, batch_fn=lambda c: 0.5 - c[:, 0]
    )
    return PosteriorSpec(STD_PRIOR, tilt)


def series_pair(delta=0.0, n=8):
    prior = SeriesPrior(FourierCircle(), AlgebraicFourier(1.25), IID(Laplace(0.0, 1.0)))
    model = DeconvolutionModel(AlgebraicFourier(1.0), equispaced_points(8), n)
    y = np.array([0.5, -0.25, 0.75, -0.5, 0.25, -0.75, 1.0, -1.0])
    phi1 = GaussianAdditive(model, 4.0, y)
    phi2 = GaussianAdditive(model, 4.0, y + delta * np.eye(8)[0])
    return PosteriorSpec(prior, phi1, n), PosteriorSpec(prior, phi2, n)


HELLINGER_TILT = math.sqrt(1.0 - math.exp(-0.125))
TV_TILT = 2.0 * (0.5 * math.erfc(-0.5 / math.sqrt(2.0))) - 1.0  # 2*cdf(1/2) - 1


# -------------------------------------------------------------- construction


def test_posterior_spec_validation():
    with pytest.raises(ValueError):
        PosteriorSpec(STD_PRIOR, CustomPotential(lambda u: 0.0, dim=3))
    prior = SeriesPrior(FourierCircle(), AlgebraicFourier(1.0), IID(Laplace()))
    with pytest.raises(ValueError):
        PosteriorSpec(prior, CustomPotential(lambda u: 0.0, dim=4))  # N missing
    with pytest.raises(TypeError):
        PosteriorSpec(Laplace(), CustomPotential(lambda u: 0.0, dim=1))
    spec = PosteriorSpec(prior, CustomPotential(lambda u: 0.0, dim=4), N=2)
    assert spec.dim == 4


def test_product_prior_validation_and_sampling():
    with pytest.raises(ValueError):
        ProductPrior(())
    with pytest.raises(TypeError):
        ProductPrior((Gaussian(), "nope"))
    p = ProductPrior((Gaussian(0.0, 1.0), Laplace(0.0, 2.0)))
    a = p.sample(100, seed=1)
    assert a.shape == (100, 2)
    assert a.flags.f_contiguous
    assert np.array_equal(a, p.sample(100, seed=1))
    for j, d in enumerate(p.dists):
        ref = d.sample((streams.substream(1, streams.COEFFS, j, 0),), np.empty((100, 1), order="F"))
        assert a[:, j].tobytes() == ref.tobytes()


@pytest.mark.parametrize("rows", [1000, 4097, 100001])
def test_linear_potential_bits_do_not_depend_on_layout(rows):
    # ProductPrior draws are column-major; the batched potential of the
    # convexity suite's posterior case must not see the layout
    phi = GaussianAdditive(LinearModel(np.array([[1.0, 0.3], [0.2, 1.0]])), 1.0, np.array([0.5, -0.3]))
    c = ProductPrior((Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))).sample(rows, seed=3)
    assert phi.evaluate_many(c).tobytes() == phi.evaluate_many(np.ascontiguousarray(c)).tobytes()


# ------------------------------------------------------------- normalization


def test_normalization_flat_potential_is_one():
    rep = normalization(flat_spec(), num_samples=2000, seed=0)
    assert rep.value == 1.0
    assert rep.stderr == 0.0
    assert rep.ess == pytest.approx(2000.0)


def test_normalization_conjugate_oracle():
    # E exp(-u^2/2) under N(0,1) is 1/sqrt(2)
    phi = GaussianAdditive(LinearModel(np.eye(1)), 1.0, [0.0])
    spec = PosteriorSpec(STD_PRIOR, phi)
    rep = normalization(spec, num_samples=100000, seed=1)
    assert rep.value == pytest.approx(1.0 / math.sqrt(2.0), abs=3 * rep.stderr)
    assert rep.stderr < 2e-3


def test_normalization_series_self_oracle():
    # moderate-effort estimate agrees with a 10x-effort oracle run
    spec, _ = series_pair()
    rep = normalization(spec, num_samples=20000, seed=3)
    oracle = normalization(spec, num_samples=1000000, seed=4)
    combined = math.hypot(rep.stderr, oracle.stderr)
    assert rep.value == pytest.approx(oracle.value, abs=3 * combined)


def test_normalization_validation():
    with pytest.raises(ValueError):
        normalization(flat_spec(), num_samples=500)
    sunk = PosteriorSpec(STD_PRIOR, CustomPotential(
        lambda u: 1e6, dim=1, batch_fn=lambda c: np.full(len(c), 1e6)))
    rep = normalization(sunk, num_samples=1000)
    # exp(-1e6) underflows; its logarithm does not
    assert rep.value == 0.0 and rep.log_value == -1e6 and rep.ess == pytest.approx(1000.0)
    void = PosteriorSpec(STD_PRIOR, CustomPotential(
        lambda u: math.inf, dim=1, batch_fn=lambda c: np.full(len(c), np.inf)))
    with pytest.raises(RuntimeError):
        normalization(void, num_samples=1000)


# ------------------------------------------------------------------- metrics


def test_hellinger_identical_pair_exactly_zero():
    spec1, spec2 = series_pair(delta=0.0)
    rep = hellinger(spec1, spec2, effort=5000)
    assert rep.value == 0.0 and rep.stderr == 0.0
    tv = total_variation(spec1, spec2, effort=5000)
    assert tv.value == 0.0 and tv.stderr == 0.0
    # on the quadrature grid too, though sqrt(s) * sqrt(s) rounds apart from s
    bowl = CustomPotential(lambda u: 0.3 * u[0] ** 2 + u[1], dim=2, batch_fn=lambda c: 0.3 * c[:, 0] ** 2 + c[:, 1])
    for spec in (tilt_spec(), PosteriorSpec(ProductPrior((Laplace(0.0, 1.0), Gamma(2.0, 1.0))), bowl)):
        rep = hellinger(spec, spec, method="quadrature", effort=64)
        assert (rep.value, rep.clamped) == (0.0, False)


def test_hellinger_tilt_quadrature_oracle():
    rep = hellinger(flat_spec(), tilt_spec(), method="quadrature", effort=400)
    assert rep.value == pytest.approx(HELLINGER_TILT, abs=1e-6)
    assert rep.stderr == 0.0
    assert rep.method == "quadrature"


def test_hellinger_tilt_monte_carlo_oracle():
    rep = hellinger(flat_spec(), tilt_spec(), method="prior_mc", effort=100000, seed=0)
    assert rep.value == pytest.approx(HELLINGER_TILT, abs=3 * rep.stderr)
    assert 0.0 < rep.stderr < 0.01


def test_hellinger_variance_pair_quadrature_oracle():
    # extra quadratic potential turns the posterior into N(0, v):
    # affinity of N(0,1) and N(0,v) is sqrt(sqrt(v)*2/(1+v))
    v = 0.5
    extra = 0.5 * (1.0 / v - 1.0)
    phi = CustomPotential(
        lambda u: extra * float(u[0]) ** 2, dim=1,
        batch_fn=lambda c: extra * c[:, 0] ** 2,
    )
    spec = PosteriorSpec(STD_PRIOR, phi)
    rep = hellinger(flat_spec(), spec, method="quadrature", effort=400)
    s1, s2 = 1.0, math.sqrt(v)
    affinity = math.sqrt(2.0 * s1 * s2 / (s1 * s1 + s2 * s2))
    assert rep.value == pytest.approx(math.sqrt(1.0 - affinity), abs=1e-6)


def test_total_variation_tilt_oracles():
    quad = total_variation(flat_spec(), tilt_spec(), method="quadrature", effort=1600)
    assert quad.value == pytest.approx(TV_TILT, abs=1e-4)
    mc = total_variation(flat_spec(), tilt_spec(), method="prior_mc", effort=100000, seed=0)
    assert mc.value == pytest.approx(TV_TILT, abs=3 * mc.stderr)


def test_metric_sandwich_on_series_pair():
    # d_H^2 <= d_TV <= sqrt(2) d_H within Monte Carlo resolution
    spec1, spec2 = series_pair(delta=0.35)
    dh = hellinger(spec1, spec2, effort=50000, seed=5)
    tv = total_variation(spec1, spec2, effort=50000, seed=5)
    assert dh.value**2 <= tv.value + 3 * (tv.stderr + 2 * dh.value * dh.stderr)
    assert tv.value <= math.sqrt(2) * dh.value + 3 * (tv.stderr + math.sqrt(2) * dh.stderr)


def test_metric_input_validation():
    spec1, _ = series_pair()
    other = PosteriorSpec(
        SeriesPrior(FourierCircle(), AlgebraicFourier(1.0), IID(Laplace())),
        spec1.potential, 8,
    )
    with pytest.raises(ValueError):
        hellinger(spec1, other)
    with pytest.raises(ValueError):
        hellinger(spec1, spec1, method="bogus")
    with pytest.raises(ValueError):
        hellinger_from_potentials(np.zeros(3), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        total_variation_from_potentials(np.zeros(3), np.zeros(4))


def test_quadrature_needs_explicit_low_dimensional_laws():
    hier = SeriesPrior(FourierCircle(), AlgebraicFourier(1.0),
                       Hierarchical(Gamma(2.0, 1.0), Gaussian(0.0, 1.0)))
    phi = CustomPotential(lambda u: 0.0, dim=2, batch_fn=lambda c: np.zeros(len(c)))
    spec = PosteriorSpec(hier, phi, N=1)
    with pytest.raises(ValueError):
        hellinger(spec, spec, method="quadrature")
    wide = PosteriorSpec(ProductPrior((Gaussian(),) * 3),
                         CustomPotential(lambda u: 0.0, dim=3,
                                         batch_fn=lambda c: np.zeros(len(c))))
    with pytest.raises(ValueError):
        total_variation(wide, wide, method="quadrature")


# each law, and its law times w written out as a law of the same family
SCALED_LAWS = [
    (Gaussian(0.3, 1.0), lambda w: Gaussian(0.3 * w, w)),
    (Exponential(1.5), lambda w: Exponential(1.5 / w)),
    (Laplace(0.0, 1.0), lambda w: Laplace(0.0, w)),
    (Logistic(-0.2, 0.5), lambda w: Logistic(-0.2 * w, 0.5 * w)),
    (Gamma(2.0, 1.0), lambda w: Gamma(2.0, w)),
    (Uniform(-1.0, 2.0), lambda w: Uniform(-w, 2.0 * w)),
]


@pytest.mark.parametrize("law, scaled", SCALED_LAWS, ids=[str(law) for law, _ in SCALED_LAWS])
def test_series_prior_quadrature_scales_the_unit_law_nodes(law, scaled):
    # an IID series prior's grid is the unit law's nodes times
    # SeriesPrior.weights, with the unit law's node weights: the law of w X
    # stated outright moves its nodes and weights only by rounding
    model = LinearModel(np.array([[1.0, 0.4], [-0.3, 1.0]]))
    phi1, phi2 = GaussianAdditive(model, 0.5, [0.8, -0.2]), GaussianAdditive(model, 0.5, [0.1, 0.6])
    for s in (1.25, 0.0):
        prior = SeriesPrior(FourierCircle(), AlgebraicFourier(s), IID(law))
        product = ProductPrior(tuple(scaled(float(w)) for w in prior.weights(1)))
        if s == 0.0:  # every weight is 1, and the grid is the product prior's own, bit for bit
            product = ProductPrior((law, law))
        for metric in (hellinger, total_variation):
            got = metric(PosteriorSpec(prior, phi1, N=1), PosteriorSpec(prior, phi2, N=1), method="quadrature")
            want = metric(PosteriorSpec(product, phi1), PosteriorSpec(product, phi2), method="quadrature")
            assert got.value > 0
            if s == 0.0:
                assert got.value == want.value
            else:
                assert got.value == pytest.approx(want.value, rel=1e-12, abs=0.0)


def test_underflow_raises_instead_of_dividing_by_zero():
    # exp(-1e6) underflows, but the weights are formed after subtracting
    # each array's minimum: two constant potentials are one posterior
    huge = np.full(2000, 1e6)
    for metric in (hellinger_from_potentials, total_variation_from_potentials):
        rep = metric(huge, huge + 1.0)
        assert rep.value == 0.0 and rep.stderr == 0.0
        # only a potential that is +inf everywhere has no weight at all
        with pytest.raises(RuntimeError, match="every weight underflowed"):
            metric(np.full(2000, np.inf), huge)
        for bad in (np.nan, -np.inf):
            with pytest.raises(ValueError):
                metric(np.r_[huge[:-1], bad], huge)


def test_quadrature_underflow_raises_like_monte_carlo():
    # exp(-1e4) is 0.0 at every node and every draw, exp(-inf) everywhere too
    sunk = PosteriorSpec(STD_PRIOR, CustomPotential(
        lambda u: 1e4, dim=1, batch_fn=lambda c: np.full(len(c), 1e4)))
    void = PosteriorSpec(STD_PRIOR, CustomPotential(
        lambda u: math.inf, dim=1, batch_fn=lambda c: np.full(len(c), np.inf)))
    for metric in (hellinger, total_variation):
        for method in ("quadrature", "prior_mc"):
            for a, b in ((sunk, flat_spec()), (flat_spec(), sunk)):
                assert metric(a, b, method=method, effort=50).value == pytest.approx(0.0, abs=1e-12)
            for a, b in ((void, flat_spec()), (flat_spec(), void)):
                with pytest.raises(RuntimeError, match="every weight underflowed"):
                    metric(a, b, method=method, effort=50)


def roadmap_pair(sigma2):
    # Laplace s=1.25, N=8 deconvolution, data 3*G(u) for the seed-5 field
    # and that data scaled by 1.01
    prior = SeriesPrior(FourierCircle(), AlgebraicFourier(1.25), IID(Laplace(0.0, 1.0)))
    model = DeconvolutionModel(AlgebraicFourier(1.0), equispaced_points(8), 8)
    y = 3.0 * model.apply(sample_coefficients(prior, 8, 1, seed=5)[0])
    return (PosteriorSpec(prior, GaussianAdditive(model, sigma2, y), 8),
            PosteriorSpec(prior, GaussianAdditive(model, sigma2, 1.01 * y), 8))


@pytest.mark.parametrize("sigma2", [1e-3, 1e-4])
def test_small_noise_estimates_stay_finite(sigma2):
    # on all 20,000 draws exp(-Phi) is below 1e-220 at 1e-3, so its square
    # and Z1*Z2 underflow, and it underflows outright at 1e-4
    spec1, spec2 = roadmap_pair(sigma2)
    dh = hellinger(spec1, spec2, effort=20000, seed=0)
    assert math.isfinite(dh.value) and math.isfinite(dh.stderr) and 0.0 <= dh.value <= 1.0
    z = normalization(spec1, num_samples=20000, seed=0)
    assert math.isfinite(z.value) and math.isfinite(z.stderr) and math.isfinite(z.log_value)
    assert z.ess >= 1.0
    assert z.value == pytest.approx(math.exp(z.log_value), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("sigma2, ess", [(4.0, 15.69), (2.0, 8.89), (1e-3, 1.0)])
def test_metric_reports_carry_the_smaller_ess(sigma2, ess):
    # at 1e-3 one draw carries all the weight and d_H reads 0.0 +- 3.4e-23;
    # the ESS is what shows the sample cannot support that number
    spec1, spec2 = roadmap_pair(sigma2)
    z1 = normalization(spec1, num_samples=20000, seed=0)
    z2 = normalization(spec2, num_samples=20000, seed=0)
    for metric in (hellinger, total_variation):
        rep = metric(spec1, spec2, effort=20000, seed=0)
        assert rep.ess == min(z1.ess, z2.ess)
        assert rep.ess == pytest.approx(ess, abs=0.01)
        assert metric(tilt_spec(), flat_spec(), method="quadrature", effort=64).ess is None


def test_ess_does_not_depend_on_the_blas_thread_count():
    # the suites report the ESS in their min_ess verdicts; a threaded BLAS
    # dot product would make those bytes depend on OPENBLAS_NUM_THREADS
    code = (
        "import numpy as np\n"
        "from cbayes.posterior import hellinger_from_potentials\n"
        "gen = np.random.default_rng(3)\n"
        "p1, p2 = gen.exponential(size=(2, 200001)) * 4.0\n"
        "print(repr(hellinger_from_potentials(p1, p2).ess))\n"
    )
    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout.strip())
    assert len(outs) == 1


_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def potential_pairs(draw):
    n = draw(st.integers(2, 40))
    values = st.lists(st.floats(-20.0, 50.0), min_size=n, max_size=n)
    return np.array(draw(values)), np.array(draw(values))


@_PROPERTY
@given(potential_pairs())
def test_mc_distances_symmetric_bounded_and_zero_on_identical(pair):
    p1, p2 = pair
    for metric in (hellinger_from_potentials, total_variation_from_potentials):
        ab, ba = metric(p1, p2), metric(p2, p1)
        assert ab.value == ba.value and ab.stderr == ba.stderr
        assert 0.0 <= ab.value <= 1.0
        same = metric(p1, p1.copy())
        assert same.value == 0.0 and same.stderr == 0.0


@_PROPERTY
@given(potential_pairs(), st.integers(-2000, 2000), st.integers(-2000, 2000))
def test_mc_distances_invariant_under_constant_shifts(pair, c1, c2):
    # quarter-integer potentials plus integer shifts add exactly, and shifts
    # beyond +-745 underflow or overflow exp(-Phi) unless the weights are
    # formed in the log domain
    p1, p2 = (np.round(4.0 * p) / 4.0 for p in pair)
    for metric in (hellinger_from_potentials, total_variation_from_potentials):
        base, moved = metric(p1, p2), metric(p1 + c1, p2 + c2)
        assert moved.value == pytest.approx(base.value, rel=1e-12, abs=0.0)
        assert moved.stderr == pytest.approx(base.stderr, rel=1e-12, abs=0.0)


def hellinger_formula(p1, p2):
    # the one form: weights s = exp(-(p - min p)) and the integrand
    # sqrt(s1) * sqrt(s2); identical weights are exactly 0
    s1, s2 = np.exp(-(p1 - np.min(p1))), np.exp(-(p2 - np.min(p2)))
    if np.array_equal(s1, s2):
        return 0.0, 0.0
    sT = np.sqrt(s1) * np.sqrt(s2)
    Z1, Z2, T = float(np.mean(s1)), float(np.mean(s2)), float(np.mean(sT))
    g = T / math.sqrt(Z1 * Z2)
    value = math.sqrt(max(1.0 - g, 0.0))
    a, b, c = 1.0 / math.sqrt(Z1 * Z2), -g / (2.0 * Z1), -g / (2.0 * Z2)
    se_g = math.sqrt(float(np.var(a * sT + (b * s1 + c * s2), ddof=1)) / len(p1))
    return value, se_g / (2.0 * value) if value > 1e-12 else math.sqrt(se_g)


def three_exp_hellinger(p1, p2):
    """The integrand's older form exp(-(q1 + q2) / 2), q the shifted
    potentials, as a report; it rounds apart from sqrt(s1) * sqrt(s2)."""
    q1, q2 = p1 - np.min(p1), p2 - np.min(p2)
    s1, s2, sT = np.exp(-q1), np.exp(-q2), np.exp(-0.5 * (q1 + q2))
    Z1, Z2, T = float(np.mean(s1)), float(np.mean(s2)), float(np.mean(sT))
    g = T / math.sqrt(Z1 * Z2)
    value = math.sqrt(max(1.0 - g, 0.0))
    a, b, c = 1.0 / math.sqrt(Z1 * Z2), -g / (2.0 * Z1), -g / (2.0 * Z2)
    se_g = math.sqrt(float(np.var(a * sT + (b * s1 + c * s2), ddof=1)) / len(p1))
    stderr = se_g / (2.0 * value) if value > 1e-12 else math.sqrt(se_g)
    return MetricReport(value, stderr, "prior_mc", len(p1), g > 1.0, min(kong_ess(p1), kong_ess(p2)))


def total_variation_formula(p1, p2):
    s1, s2 = np.exp(-(p1 - np.min(p1))), np.exp(-(p2 - np.min(p2)))
    Z1, Z2 = float(np.mean(s1)), float(np.mean(s2))
    diff = s1 / Z1 - s2 / Z2
    sign = np.sign(diff)
    c1 = -float(np.mean(sign * s1)) / (2.0 * Z1 * Z1)
    c2 = float(np.mean(sign * s2)) / (2.0 * Z2 * Z2)
    infl = 0.5 * np.abs(diff) + (c1 * s1 + c2 * s2)
    return 0.5 * float(np.mean(np.abs(diff))), float(np.std(infl, ddof=1) / math.sqrt(len(p1)))


def kong_ess(p):
    s = np.exp(-(p - np.min(p)))
    return float(np.sum(s)) ** 2 / float(np.sum(s * s))


@_PROPERTY
@given(potential_pairs())
def test_mc_reductions_match_formulas_and_leave_inputs(pair):
    # the reductions work in place on their own buffers only: stability
    # reuses one potential array 56 times and metrics passes each pair to
    # three functions
    p1, p2 = pair
    kept1, kept2 = p1.copy(), p2.copy()
    for metric, formula in ((hellinger_from_potentials, hellinger_formula),
                            (total_variation_from_potentials, total_variation_formula)):
        for a, b in ((p1, p2), (p1, p1)):
            rep = metric(a, b)
            value, stderr = formula(a, b)
            assert (rep.value, rep.stderr) == (min(value, 1.0), stderr)
            assert rep.ess == pytest.approx(min(kong_ess(a), kong_ess(b)), rel=1e-12)
            if metric is hellinger_from_potentials and not np.array_equal(a, b):
                assert_same_estimate(rep, three_exp_hellinger(a, b))
            assert np.array_equal(p1, kept1) and np.array_equal(p2, kept2)


@st.composite
def reference_and_potentials(draw):
    n = draw(st.integers(2, 40))
    p0 = np.array(draw(st.lists(st.floats(-20.0, 50.0), min_size=n, max_size=n)))
    k = draw(st.integers(1, 4))
    deltas = [np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))) for _ in range(k)]
    return p0, [p0 + d for d in deltas]


def assert_same_estimate(rep, other):
    # Two forms of the Hellinger integrand, sqrt(s1) * sqrt(s2) and
    # exp(-(q1 + q2) / 2), round differently.  d_H^2 = 1 - g then moves by
    # a few ulps, so value^2 agrees to 1e-13 absolute; once d_H >= 1e-3 that
    # leaves value and stderr within 1e-7 relative.  Below the 1e-13 band
    # the sign of 1 - g, and so the clamp flag, is rounding noise.
    assert abs(rep.value**2 - other.value**2) <= 1e-13
    if other.value >= 1e-3:
        assert rep.value == pytest.approx(other.value, rel=1e-7, abs=0.0)
        assert rep.stderr == pytest.approx(other.stderr, rel=1e-7, abs=0.0)
    if max(rep.value, other.value) ** 2 > 1e-13:
        assert rep.clamped == other.clamped
    assert rep.ess == pytest.approx(other.ess, rel=1e-12)
    assert (rep.method, rep.effort) == (other.method, other.effort)


@_PROPERTY
@given(reference_and_potentials())
def test_hellinger_from_reference_equals_the_pairwise_estimates(case):
    # one per-potential routine: the batch, the pairwise call and the
    # swapped pairwise call agree in every field, floats exactly
    p0, pots = case
    kept = [p0.copy()] + [p.copy() for p in pots]
    reps = hellinger_from_reference(p0, iter(pots))
    assert len(reps) == len(pots)
    for rep, p in zip(reps, pots):
        assert rep == hellinger_from_potentials(p0, p) == hellinger_from_potentials(p, p0)
    # no input is written
    assert all(np.array_equal(a, b) for a, b in zip([p0] + pots, kept))


def test_hellinger_from_reference_is_exactly_zero_on_the_reference_weights():
    # the reference itself, and potentials that leave every value of it
    # unchanged, have the reference's own weights: d_H and its stderr are 0
    c, p0, p1 = shared_draws(*series_pair(delta=0.2), 5000, 3)
    same_weights = [p0, p0 + (-0.0), p0 + 1e-300]
    zero, signed_zero, absorbed, moved = hellinger_from_reference(p0, same_weights + [p1])
    same = hellinger_from_potentials(p0, p0)
    for rep in (zero, signed_zero, absorbed):
        assert (rep.value, rep.stderr, rep.clamped) == (0.0, 0.0, False)
        assert rep.ess == same.ess
    assert moved == hellinger_from_potentials(p0, p1)
    assert moved.value > 0.0


def nine_potentials(p0, p1):
    # the reference, its signed-zero and its absorbed shift give exactly 0,
    # the others move every weight, by one data shift's size or another
    yield p0
    yield p0 + (-0.0)
    yield p0 + 1e-300
    for scale in (0.01, 0.1, 0.3, 1.0, -0.5, 2.0):
        yield p0 + scale * (p1 - p0)


def test_hellinger_from_reference_on_two_threads_equals_one_thread():
    # each estimate is computed wholly by one thread, so its bits and its
    # place in the list do not depend on which thread took it, even with
    # thread switches every microsecond
    c, p0, p1 = shared_draws(*series_pair(delta=0.4), 20000, 5)
    with mock.patch.object(posterior, "_share_work", series_prior._one_thread):
        want = hellinger_from_reference(p0, nine_potentials(p0, p1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [hellinger_from_reference(p0, nine_potentials(p0, p1)) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert [rep.value for rep in want[:3]] == [0.0] * 3 and all(rep.value > 0 for rep in want[3:])
    for reps in got:
        assert reps == want  # the dataclass compares every field, floats exactly


class PotentialError(Exception):
    pass


@pytest.mark.parametrize("where", ["iterator", "other thread"])
def test_hellinger_from_reference_raises_once_and_leaves_no_thread(where):
    # the thread that does not fail is slowed down, so a call that raised
    # without waiting for the other thread would leave it running
    c, p0, p1 = shared_draws(*series_pair(delta=0.4), 2000, 5)
    caller, core, taken = threading.current_thread(), posterior._hellinger_core, []

    def potentials():
        for k in range(40):
            if where == "iterator" and k == 6:
                raise PotentialError("iterator")
            taken.append(k)
            yield p0 + (k + 1) / 40 * (p1 - p0)

    def slowed_core(*args):
        if threading.current_thread() is not caller:
            if where == "other thread":
                raise PotentialError("other thread")
        else:
            time.sleep(0.005)
        return core(*args)

    baseline = threading.active_count()
    with mock.patch.object(posterior, "_hellinger_core", slowed_core):
        with pytest.raises(PotentialError, match=where):
            hellinger_from_reference(p0, potentials())
    assert threading.active_count() == baseline
    assert len(taken) < 40  # neither thread went on taking potentials


def test_hellinger_from_reference_holds_at_most_two_potentials():
    # besides the reference's two arrays (weights and their square root)
    # and each thread's three buffers, at most two potentials are alive:
    # one per thread, the next one made only once its thread has dropped
    # the last
    n, k = 100000, 10
    rng = np.random.default_rng(3)
    p0, base = 5.0 * rng.standard_normal(n), rng.standard_normal(n)
    hellinger_from_reference(p0[:10], [p0[:10] + base[:10]])  # first-call costs outside the measurement

    def potential(j):
        # one array made, none held after it is handed over (a generator
        # would keep its last yield alive while it makes the next)
        p = base * (0.01 * (j + 1))
        p += p0
        return p

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reps = hellinger_from_reference(p0, map(potential, range(k)))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(reps) == k and all(rep.value > 0 for rep in reps)
    vector = 8 * n
    # array_equal's boolean array is n bytes per thread
    assert peak < (2 + 2 * 3 + 2) * vector + 2 * n + 65536


def test_hellinger_from_reference_refuses_bad_arrays():
    p0 = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError, match="equal-length"):
        hellinger_from_reference(p0, [np.zeros(49)])
    with pytest.raises(ValueError, match="equal-length"):
        hellinger_from_reference(p0, [np.zeros((50, 1))])
    with pytest.raises(ValueError):
        hellinger_from_reference(p0, [np.r_[np.zeros(49), np.nan]])
    assert hellinger_from_reference(p0, []) == []


# ---------------------------------------------------------- mode quadrature


def consistency_setup(key, seed, sigma2):
    from cbayes.config import model_from_json, prior_from_json
    from cbayes.experiments import _synthetic_data, default_config

    cfg = default_config("consistency")
    prior, model = prior_from_json(cfg[key]), model_from_json(cfg["model"])
    tag = "consistency" if key == "prior" else "consistency_hierarchical"
    return prior, GaussianAdditive(model, sigma2, _synthetic_data(prior, model, sigma2, seed, tag)), cfg["n_grid"]


def gaussian_closed_form(prior, phi, levels):
    # under a Gaussian iid prior both posteriors are Gaussian, and with the
    # eigenvalues 1 + d of S0^-1 S1 = I + (P0 - P1) S1 (P the precisions),
    # 1 - d_H^2 = prod_d (1 - (d / (2 + d))^2)^(1/4) exp(-dm' ((S0 + S1) / 2)^-1 dm / 8);
    # forming d from P0 - P1, the tail columns' Gram over sigma2, keeps the
    # log-determinants from cancelling to 1e-9 of d_H^2 ~ 1e-6
    G, y, sigma2, n_ref = phi.model.design_matrix(), phi.y, phi.noise, phi.model.truncation
    gamma = prior.weights(n_ref) * prior.law.dist.sigma

    def gaussian_posterior(p):
        Gp = G.copy()
        Gp[:, p:] = 0.0
        gram = Gp.T @ Gp / sigma2
        cov = np.linalg.inv(np.diag(gamma**-2) + gram)
        return cov @ Gp.T @ y / sigma2, cov, gram

    m0, S0, gram0 = gaussian_posterior(2 * n_ref)
    out = []
    for N in levels:
        m1, S1, gram1 = gaussian_posterior(2 * N)
        d = np.linalg.eigvals((gram0 - gram1) @ S1).real
        Sa, dm = 0.5 * (S0 + S1), m1 - m0
        log_bc = 0.25 * np.sum(np.log1p(-((d / (2.0 + d)) ** 2))) - 0.125 * dm @ np.linalg.solve(Sa, dm)
        out.append(math.sqrt(max(-math.expm1(log_bc), 0.0)))
    return out


@pytest.mark.parametrize("sigma2, scale, nodes", [
    (0.5, 1.0, 3209311), (1.0, 1.0, 1608321), (4.0, 1.0, 402753), (4.0, 10.0, 1608321), (4.0, 30.0, None),
    (4.0, 100.0, None),
])
def test_exact_truncation_distances_match_the_gaussian_closed_form(sigma2, scale, nodes):
    # data drawn from a Gaussian iid prior of this scale.  A fixed step of
    # 0.02 read scale 30's N = 1 distance 3e-9 relatively off, and no value
    # at scale 100.  Scale 10 meets the aliasing bound at half that step;
    # at 30 and 100 no step within the node cap does, for levels whose
    # windows explain little of the data, and the prior is refused
    from cbayes.experiments import _synthetic_data

    prior = SeriesPrior(FourierCircle(), AlgebraicFourier(1.0), IID(Gaussian(0.0, scale)))
    model = DeconvolutionModel(AlgebraicFourier(0.5), equispaced_points(8), 8)
    phi = GaussianAdditive(model, sigma2, _synthetic_data(prior, model, sigma2, 0, "closed_form"))
    if nodes is None:
        with pytest.raises(ValueError, match="^prior leaves a data mode's integral unresolved") as info:
            posterior.hellinger_truncations_exact(prior, phi, [1, 2, 4, 6])
        assert info.value.subject == "prior"
        return
    pairs = posterior.hellinger_truncations_exact(prior, phi, [1, 2, 4, 6])
    assert [N for N, _ in pairs] == [1, 2, 4, 6, 8]
    for (N, rep), value in zip(pairs, gaussian_closed_form(prior, phi, [1, 2, 4, 6, 8])):
        assert rep.value == pytest.approx(value, rel=1e-12, abs=1e-15), N
        assert (rep.stderr, rep.method, rep.effort) == (0.0, "mode_quadrature", nodes)
        assert (rep.clamped, rep.ess) == (False, None)
    assert pairs[-1][1].value == 0.0  # the reference level, exactly


def lattice_step(effort, sigma2):
    """The step of the mode lattice with this many nodes at sigma2."""
    h, n, nodes = posterior._mode_lattice(sigma2)
    while nodes < effort:
        h, n = h / 2, 2 * n
        nodes = (4 * n + 1) * (2 * n + 1)
    assert nodes == effort
    return h


@pytest.mark.parametrize("key", ["prior", "hierarchical_prior"])
@pytest.mark.parametrize("seed", [5, 17])
@pytest.mark.parametrize("sigma2", [1.0, 4.0, 16.0])
def test_exact_truncation_distances_converge_in_the_lattice(monkeypatch, key, seed, sigma2):
    # half the step the aliasing bound chose and 1.25 times the range move
    # no distance by 1e-9 relatively
    prior, phi, n_grid = consistency_setup(key, seed, sigma2)
    base = posterior.hellinger_truncations_exact(prior, phi, n_grid)
    monkeypatch.setattr(posterior, "_MODE_STEP", lattice_step(base[0][1].effort, sigma2) / 2)
    monkeypatch.setattr(posterior, "_MODE_NODES", posterior._MODE_NODES * 8)  # room for the finer lattice
    monkeypatch.setattr(posterior, "_MODE_TAIL", posterior._MODE_TAIL * 1.25**2)
    fine = posterior.hellinger_truncations_exact(prior, phi, n_grid)
    assert fine[0][1].effort > 2 * base[0][1].effort
    for (N, a), (_, b) in zip(base, fine):
        assert a.value == pytest.approx(b.value, rel=1e-9, abs=0.0), N
    assert base[-1][1].value == fine[-1][1].value == 0.0


@pytest.mark.parametrize("key", ["prior", "hierarchical_prior"])
def test_mode_lattice_step_follows_a_wide_noise(monkeypatch, key):
    # at sigma2 = 1000 the u-sum's Gaussian, of sd 1 / (2 sigma), sets the
    # step below _MODE_STEP; with the step at 0.02 the values move by 3e-6
    prior, phi, n_grid = consistency_setup(key, 5, 1000.0)
    assert posterior._mode_lattice(1000.0)[0] < posterior._MODE_STEP
    base = posterior.hellinger_truncations_exact(prior, phi, n_grid)
    monkeypatch.setattr(posterior, "_MODE_TAIL", posterior._MODE_TAIL * 4.0)  # twice the range, half the step
    fine = posterior.hellinger_truncations_exact(prior, phi, n_grid)
    for (N, a), (_, b) in zip(base, fine):
        assert a.value == pytest.approx(b.value, rel=1e-8, abs=0.0), N


def test_exact_truncation_distances_refuse_what_they_cannot_compute():
    prior, phi, n_grid = consistency_setup("prior", 0, 4.0)
    skewed = DeconvolutionModel(AlgebraicFourier(0.0), [0.0, 0.1, 0.3, 0.35, 0.6, 0.7, 0.8, 0.95], 128)
    with pytest.raises(ValueError, match="^model must have mode-aligned columns"):
        posterior.hellinger_truncations_exact(prior, GaussianAdditive(skewed, 4.0, phi.y), n_grid)
    with pytest.raises(ValueError, match="^sigma2 must be a scalar"):
        posterior.hellinger_truncations_exact(prior, GaussianAdditive(phi.model, 4.0 * np.eye(8), phi.y), n_grid)
    h, n, nodes = posterior._mode_lattice(0.05)
    assert nodes > posterior._MODE_NODES
    with pytest.raises(ValueError, match="^sigma2 is too small: its mode lattice at sigma2 = 0.05 needs"):
        posterior.hellinger_truncations_exact(prior, GaussianAdditive(phi.model, 0.05, phi.y), n_grid)
    logistic = SeriesPrior(FourierCircle(), AlgebraicFourier(1.25), IID(Logistic(0.0, 1.0)))
    with pytest.raises(ValueError, match="^prior must have a law with a closed-form characteristic function") as info:
        posterior.hellinger_truncations_exact(logistic, phi, n_grid)
    assert isinstance(info.value.__cause__, NotImplementedError)


def test_mode_lattice_is_summed_in_slices_at_the_smallest_accepted_sigma2():
    # sigma2 = 0.0956 is just inside the node cap (0.0955 is not); one 2-D
    # kernel over the whole lattice would hold 134 MB, a row slice 512 KB
    assert posterior._mode_lattice(0.0955)[2] > posterior._MODE_NODES
    h, n, nodes = posterior._mode_lattice(0.0956)
    assert nodes <= posterior._MODE_NODES and nodes * 8 > 120 << 20
    prior, phi, n_grid = consistency_setup("prior", 0, 0.0956)
    tracemalloc.start()
    try:
        pairs = posterior.hellinger_truncations_exact(prior, phi, n_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20
    assert pairs[0][1].effort == nodes and pairs[-1][1].value == 0.0
    assert all(a.value > b.value for (_, a), (_, b) in zip(pairs[:-1], pairs[1:]))


def test_paired_metrics_share_weights_and_equal_the_public_estimates():
    # metrics forms each posterior's weights once for Hellinger, TV and the
    # gap check; each report equals the public function's in every field
    c, p1, p2 = shared_draws(*series_pair(delta=0.3), 20000, 4)
    hv = c[:, 0]
    dh, tv, gap = _paired_metrics(p1.copy(), p2.copy(), hv, hv * hv)
    assert dh == hellinger_from_potentials(p1, p2)
    assert tv == total_variation_from_potentials(p1, p2)
    assert gap == gap_check(hv, p1, p2, dh)
    # identical potentials: every distance and the gap are exactly zero
    dh, tv, gap = _paired_metrics(p1.copy(), p1.copy(), hv, hv * hv)
    assert (dh.value, dh.stderr, tv.value, tv.stderr, gap.gap) == (0.0,) * 5


@pytest.mark.parametrize("n", [0, 1])
def test_estimators_refuse_fewer_than_two_draws(n):
    # a sample stderr needs two draws; with one, numpy warned and returned
    # NaN, and with none it raised from inside a reduction
    p = np.zeros(n)
    calls = (
        lambda: hellinger_from_potentials(p, p),
        lambda: total_variation_from_potentials(p, p),
        lambda: _paired_metrics(p.copy(), p.copy(), p, p),
        lambda: hellinger_from_reference(p, [p]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="at least 2 draws"):
                call()


@_PROPERTY
@given(st.floats(-2.0, 2.0), st.floats(0.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 2.0))
def test_quadrature_metric_sandwich(a1, b1, a2, b2):
    # d_H^2 <= d_TV <= sqrt(2) d_H for the posteriors exp(-a u - b u^2) N(0, 1)
    def spec(a, b):
        return PosteriorSpec(STD_PRIOR, CustomPotential(
            lambda u: a * u[0] + b * u[0] ** 2, dim=1,
            batch_fn=lambda c: a * c[:, 0] + b * c[:, 0] ** 2))

    s1, s2 = spec(a1, b1), spec(a2, b2)
    dh = hellinger(s1, s2, method="quadrature", effort=200).value
    tv = total_variation(s1, s2, method="quadrature", effort=200).value
    assert dh * dh <= tv + 1e-9
    assert tv <= math.sqrt(2.0) * dh + 1e-9


# ------------------------------------------------------- posterior summaries


def shared_draws(spec1, spec2, num_samples, seed):
    c = spec1.prior_samples(num_samples, seed)
    return c, spec1.potential.evaluate_many(c), spec2.potential.evaluate_many(c)


def gap_check(hv, p1, p2, dh):
    """The expectation-gap check of hv on two potential arrays: the core on
    the weights exp(-(p - min p)) and their totals."""
    s1, s2 = (np.exp(-(p - np.min(p))) for p in (p1, p2))
    return _gap_check_core(hv, hv * hv, s1, float(np.sum(s1)), s2, float(np.sum(s2)), dh)


def test_expectation_gap_check_constant_function():
    c, p1, p2 = shared_draws(*series_pair(delta=0.2), 20000, 0)
    rep = gap_check(np.ones(len(c)), p1, p2, hellinger_from_potentials(p1, p2))
    assert rep.gap == pytest.approx(0.0, abs=1e-14)
    assert rep.passed


def test_expectation_gap_check_first_coefficient():
    c, p1, p2 = shared_draws(*series_pair(delta=0.3), 50000, 1)
    rep = gap_check(c[:, 0], p1, p2, hellinger_from_potentials(p1, p2))
    assert rep.passed
    assert rep.gap <= rep.bound + rep.slack
    assert rep.hellinger > 0.0


def test_expectation_gap_check_indicator_below_tv():
    # |P1(B) - P2(B)| is at most the total variation distance
    c, p1, p2 = shared_draws(*series_pair(delta=0.3), 50000, 2)
    inside = ((c[:, 0] > -0.5) & (c[:, 0] < 0.5)).astype(float)
    rep = gap_check(inside, p1, p2, hellinger_from_potentials(p1, p2))
    assert rep.passed
    tv = total_variation_from_potentials(p1, p2)
    assert rep.gap <= tv.value + 3 * tv.stderr


def test_expectation_gap_check_refuses_mismatched_shapes():
    # (n, 1) potentials or test-function values used to broadcast to (n, n)
    # and report gap 0 and a pass; a short hv raised numpy's broadcast error
    c, p1, p2 = shared_draws(*series_pair(delta=0.3), 2000, 1)
    hv = c[:, 0]
    assert _paired_metrics(p1.copy(), p2.copy(), hv, hv * hv)[2].gap > 0.0
    for h, u1, u2 in ((hv, p1[:, None], p2[:, None]), (hv[:, None], p1, p2), (hv[:-1], p1, p2), (hv, p1, p2[:-1])):
        with pytest.raises(ValueError, match="equal-length"):
            _paired_metrics(u1.copy(), u2.copy(), h, h * h)


def test_weighted_probability_tilt_oracle():
    # posterior is N(1,1): P([0, 2]) = 2 cdf(1) - 1
    rep = weighted_probability(tilt_spec(), [0.0], [2.0], num_samples=100000, seed=0)
    target = 0.6826894921370859
    assert rep.value == pytest.approx(target, abs=4 * rep.stderr)
    assert rep.ess > 10000


def test_weighted_probability_validation():
    with pytest.raises(ValueError):
        weighted_probability(tilt_spec(), [0.0, 1.0], [2.0], num_samples=2000)
    with pytest.raises(ValueError):
        weighted_probability(tilt_spec(), [2.0], [0.0], num_samples=2000)
    with pytest.raises(ValueError):
        weighted_probability(tilt_spec(), [[0.0], [1.0]], [[2.0], [3.0], [4.0]], num_samples=2000)
    with pytest.raises(ValueError):
        weighted_probability(tilt_spec(), [[2.0], [1.0]], [[3.0], [0.0]], num_samples=2000)


def test_weighted_probability_refuses_a_nan_bound():
    # a NaN bound holds no draw, which read as probability 0 with stderr 0
    for lower, upper in (([math.nan], [1.0]), ([0.0], [math.nan]), ([[0.0], [math.nan]], [[1.0], [2.0]])):
        with pytest.raises(ValueError, match="NaN"):
            weighted_probability(tilt_spec(), lower, upper, num_samples=2000)
    # infinite bounds stay legal: the whole line holds every draw
    rep = weighted_probability(tilt_spec(), [-math.inf], [math.inf], num_samples=2000)
    assert (rep.value, rep.stderr) == (1.0, 0.0)


def test_weighted_probability_stacked_boxes_share_one_draw():
    calls = []

    def batch(c):
        calls.append(len(c))
        return 0.5 * (c[:, 0] - 0.3) ** 2 + 0.2 * np.abs(c[:, 1])

    phi = CustomPotential(lambda u: float(batch(np.asarray(u)[None, :])[0]), dim=2, batch_fn=batch)
    spec = PosteriorSpec(ProductPrior((Gaussian(0.0, 1.0), Laplace(0.0, 1.0))), phi)
    lower = np.array([[-1.0, -1.0], [0.5, 0.5], [-0.25, -0.25]])
    upper = np.array([[0.0, 0.0], [1.5, 1.5], [0.75, 0.75]])
    reps = weighted_probability(spec, lower, upper, num_samples=5000, seed=4)
    assert calls == [5000]
    assert len(reps) == 3
    for lo, hi, rep in zip(lower, upper, reps):
        single = weighted_probability(spec, lo, hi, num_samples=5000, seed=4)
        assert repr(single) == repr(rep)
        assert np.array([single.value, single.stderr, single.ess]).tobytes() == (
            np.array([rep.value, rep.stderr, rep.ess]).tobytes()
        )


def test_posterior_mean_tilt_oracle():
    means, errs = posterior_mean(tilt_spec(), num_samples=100000, seed=3)
    assert means[0] == pytest.approx(1.0, abs=4 * errs[0])


# ----------------------------------------------------------------------- MAP


def test_map_scalar_soft_threshold_exact():
    res = map_estimate_l1(np.eye(1), [2.0], sigma=1.0, lam=1.0)
    assert abs(res.estimate[0] - 1.0) < 1e-10
    assert res.objective == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("y,w", [(2.0, 0.5), (-3.0, 1.0), (0.4, 1.0), (1.0, 0.25)])
def test_map_scalar_matches_shrinkage_rule(y, w):
    # identity design: the minimizer is sign(y) * max(|y| - w, 0)
    res = map_estimate_l1(np.eye(1), [y], sigma=1.0, lam=1.0 / w)
    target = math.copysign(max(abs(y) - w, 0.0), y)
    assert abs(res.estimate[0] - target) < 1e-10


def test_map_penalty_above_kill_weight_gives_zero():
    gen = np.random.default_rng(12)
    A = gen.normal(size=(4, 6))
    y = gen.normal(size=4)
    kill = float(np.max(np.abs(A.T @ y)))
    res = map_estimate_l1(A, y, sigma=1.0, lam=1.0 / (1.05 * kill))
    assert np.array_equal(res.estimate, np.zeros(6))


def test_map_zero_matrix_short_circuits():
    res = map_estimate_l1(np.zeros((3, 4)), [1.0, 2.0, 3.0], sigma=1.0, lam=1.0)
    assert np.array_equal(res.estimate, np.zeros(4))
    assert res.iterations == 0


def test_map_validation_and_nonconvergence():
    with pytest.raises(ValueError):
        map_estimate_l1(np.eye(2), [1.0], sigma=1.0, lam=1.0)
    # refused up front, before any iteration or the SVD of A
    for sigma, lam, message in ((0.0, 1.0, "sigma"), (math.nan, 1.0, "sigma"), (math.inf, 1.0, "sigma"),
                                (-1.0, 1.0, "sigma"), (1.0, -1.0, "lam"), (1.0, 0.0, "lam"),
                                (1.0, math.nan, "lam")):
        with pytest.raises(ValueError, match=message):
            map_estimate_l1(np.eye(2), [1.0, 2.0], sigma=sigma, lam=lam)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            map_estimate_l1([[1.0, bad], [0.0, 1.0]], [1.0, 2.0], sigma=1.0, lam=1.0)
        with pytest.raises(ValueError, match="finite"):
            map_estimate_l1(np.eye(2), [1.0, bad], sigma=1.0, lam=1.0)
    A = np.random.default_rng(1).normal(size=(5, 8))
    with pytest.raises(RuntimeError):  # met only when an iterate repeats exactly, which 3 steps do not reach
        map_estimate_l1(A, np.ones(5), sigma=1.0, lam=1.0, tol=5e-324, max_iter=3)


def test_map_refuses_a_tol_that_is_not_positive():
    # a NaN tol is never met: the solver ran max_iter iterations and then
    # raised "did not converge"; now no iterate is taken
    steps = []
    real = posterior._soft
    with mock.patch.object(posterior, "_soft", lambda *a: steps.append(a) or real(*a)):
        for tol in (math.nan, 0.0, -1e-10):
            with pytest.raises(ValueError, match="tol"):
                map_estimate_l1(np.eye(2), [1.0, 2.0], sigma=1.0, lam=1.0, tol=tol, max_iter=50)
    assert steps == []


# Reference copies of the plain solver loops: the residual recomputed for
# the objective and the gradient, numpy soft thresholds on every scalar.
# The shipped ISTA solver must reproduce its reference's iterates bit for
# bit; the coordinate-descent reference is the certificate test's
# independent second minimizer.


def _reference_soft(x, a):
    return np.sign(x) * np.maximum(np.abs(x) - a, 0.0)


def _reference_objective(A, y, z, weight):
    r = A @ z - y
    return 0.5 * float(r @ r) + weight * float(np.sum(np.abs(z)))


def _reference_ista(A, y, weight, tol):
    t = 1.0 / float(np.linalg.norm(A, 2)) ** 2
    z = np.zeros(A.shape[1])
    history = [_reference_objective(A, y, z, weight)]
    for it in range(200000):
        z_new = _reference_soft(z - t * (A.T @ (A @ z - y)), t * weight)
        history.append(_reference_objective(A, y, z_new, weight))
        delta = float(np.max(np.abs(z_new - z)))
        z = z_new
        if delta < tol:
            return z, it + 1, np.asarray(history)
    raise AssertionError("reference ISTA did not converge")


def _reference_cd(A, y, weight, tol):
    n = A.shape[1]
    colsq = np.sum(A * A, axis=0)
    z = np.zeros(n)
    r = y.copy()
    history = [_reference_objective(A, y, z, weight)]
    for sweep in range(10000):
        delta = 0.0
        for j in range(n):
            if colsq[j] == 0.0:
                continue
            rho = float(A[:, j] @ r) + colsq[j] * z[j]
            new = float(_reference_soft(np.asarray(rho), weight)) / colsq[j]
            if new != z[j]:
                r -= A[:, j] * (new - z[j])
                delta = max(delta, abs(new - z[j]))
                z[j] = new
        history.append(_reference_objective(A, y, z, weight))
        if delta < tol:
            return z, sweep + 1, np.asarray(history)
    raise AssertionError("reference coordinate descent did not converge")


def _lasso_problem(seed, zero_column=False):
    # the map_demo design: 12 x 8 Gaussian matrix, three-sparse truth
    gen = np.random.default_rng(seed)
    A = gen.normal(size=(12, 8)) / math.sqrt(12.0)
    if zero_column:
        A[:, 5] = 0.0
    truth = np.zeros(8)
    truth[[0, 3, 6]] = [1.5, -2.0, 1.0]
    return A, A @ truth + 0.1 * gen.normal(size=12)


@pytest.mark.parametrize("seed,zero_column", [(0, False), (7, False), (21, True)])
@pytest.mark.parametrize("weight", [1e-3, 0.05, 1.0])
def test_map_solvers_match_reference_loops_bit_for_bit(seed, zero_column, weight):
    A, y = _lasso_problem(seed, zero_column)
    lam = 1.0 / weight
    res = map_estimate_l1(A, y, sigma=1.0, lam=lam, tol=1e-12)
    z, iterations, history = _reference_ista(A, y, 1.0 / lam, 1e-12)
    assert res.iterations == iterations
    assert res.estimate.tobytes() == z.tobytes()
    assert res.objective == history[-1]


def _duality_gap(A, y, z, weight):
    # P(z) minus the Lasso dual at theta = min(1, weight / |A^T r|_inf) r,
    # r = y - A z, as run_map_demo forms it; at least P(z) - min P
    r = y - A @ z
    theta = r * (weight / max(float(np.max(np.abs(A.T @ r))), weight))
    dual = 0.5 * float(y @ y) - 0.5 * float((y - theta) @ (y - theta))
    return _reference_objective(A, y, z, weight) - dual


def _certificate_cases():
    gen = np.random.default_rng(2718)  # the C08 instances, with their ISTA and CD tolerances
    for _ in range(10):
        A = gen.normal(size=(5, 10)) / math.sqrt(5.0)
        y = gen.normal(size=5)
        yield A, y, 1.0 / float(gen.uniform(0.5, 4.0)), 1e-10, 1e-12
    for seed, zero_column in ((0, False), (7, False), (21, True)):  # map_demo's tolerances
        A, y = _lasso_problem(seed, zero_column)
        for weight in (1e-3, 0.05, 1.0):
            yield A, y, weight, 1e-12, 1e-14


def test_map_duality_gap_certifies_the_minimizer():
    for A, y, weight, tol, tol_cd in _certificate_cases():
        lam = 1.0 / weight
        ista = map_estimate_l1(A, y, sigma=1.0, lam=lam, tol=tol)
        cd_objective = _reference_cd(A, y, 1.0 / lam, tol_cd)[2][-1]
        gap = _duality_gap(A, y, ista.estimate, 1.0 / lam)
        # the gap bounds ISTA's excess over any other point, CD's minimizer included
        assert ista.objective - cd_objective - 1e-15 <= gap <= 1e-8
        # and it catches a solve that is off by 1e-4
        assert _duality_gap(A, y, ista.estimate + 1e-4, 1.0 / lam) > 1e-8
