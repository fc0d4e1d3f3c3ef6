"""One-dimensional log-concave laws: densities, CDFs, sampling, convexity.

External oracles are the scipy.stats closed forms; sampling is checked
against the package's own CDFs by Kolmogorov-Smirnov at the 1% level
(critical value 1.6276/sqrt(n)), which is valid once the CDFs themselves
are pinned to scipy.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st

from cbayes import measures1d, streams
from cbayes import (
    Distribution1D,
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    Logistic,
    Uniform,
    check_log_concavity,
    interval_probability,
)
from cbayes.forward_models import DeconvolutionModel
from cbayes.measures1d import (
    abs_mean,
    quantile_interval,
    second_moment,
)
from cbayes.series_prior import AlgebraicFourier, ExplicitSchedule

KS_CRIT_1PCT = 1.6276


def draws(d, gen, n):
    """n draws of the law d from the one generator gen, as a group of one."""
    return d.sample((gen,), np.empty((n, 1), order="F"))[:, 0]

ALL_DISTS = [
    Gaussian(0.0, 1.0),
    Gaussian(2.0, 0.5),
    Gaussian(-3.0, 2.0),
    Exponential(1.0),
    Exponential(0.25),
    Laplace(0.0, 1.0),
    Laplace(1.5, 0.5),
    Logistic(0.0, 1.0),
    Logistic(-1.0, 2.0),
    Gamma(1.0, 1.0),
    Gamma(2.0, 1.0),
    Gamma(4.5, 2.0),
    Uniform(0.0, 1.0),
    Uniform(-2.0, 3.0),
]


def scipy_frozen(d: Distribution1D):
    if isinstance(d, Gaussian):
        return st.norm(d.m, d.sigma)
    if isinstance(d, Exponential):
        return st.expon(scale=1.0 / d.lam)
    if isinstance(d, Laplace):
        return st.laplace(d.m, d.sigma)
    if isinstance(d, Logistic):
        return st.logistic(d.m, d.s)
    if isinstance(d, Gamma):
        return st.gamma(d.k, scale=d.lam)
    if isinstance(d, Uniform):
        return st.uniform(d.a, d.b - d.a)
    raise TypeError(d)


def interior_grid(d: Distribution1D, n: int = 400) -> np.ndarray:
    lo, hi = quantile_interval(d, 1e-6, 1.0 - 1e-6)
    return np.linspace(lo, hi, n)


@pytest.mark.parametrize("d", ALL_DISTS, ids=str)
def test_density_matches_scipy(d):
    ref = scipy_frozen(d)
    x = interior_grid(d)
    assert np.allclose(d.density(x), ref.pdf(x), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("d", ALL_DISTS, ids=str)
def test_cdf_matches_scipy(d):
    ref = scipy_frozen(d)
    x = interior_grid(d)
    assert np.allclose(d.cdf(x), ref.cdf(x), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("d", ALL_DISTS, ids=str)
def test_log_density_consistent_with_density(d):
    x = interior_grid(d)
    with np.errstate(divide="ignore"):
        assert np.allclose(d.log_density(x), np.log(d.density(x)), rtol=1e-10, atol=1e-10)


# one law per family, with its support edges and points outside its support
EDGE_POINTS = [
    (Gaussian(0.5, 2.0), [0.5]),
    (Exponential(3.0), [0.0, -1.0]),
    (Laplace(-1.0, 0.5), [-1.0]),
    (Logistic(0.0, 1.5), [0.0]),
    (Gamma(1.0, 0.5), [0.0, -1.0]),
    (Uniform(-1.0, 4.0), [-1.0, 4.0, -2.0, 5.0]),
]


@pytest.mark.parametrize("d,edges", EDGE_POINTS, ids=[str(d) for d, _ in EDGE_POINTS])
def test_scalar_or_array_returns_and_density_is_exp_log_density(d, edges):
    for f in (d.density, d.log_density, d.cdf):
        assert type(f(0.25)) is float
        assert type(f(np.array(0.25))) is float
        for shape in [(5,), (2, 3)]:
            out = f(np.linspace(-0.5, 1.5, math.prod(shape)).reshape(shape))
            assert isinstance(out, np.ndarray) and out.shape == shape
    lo, hi = d.support()
    for x in edges + [0.25, 1.5]:
        assert d.density(x) == np.exp(d.log_density(x)), x
        if not lo <= x <= hi:
            assert d.density(x) == 0.0


@pytest.mark.parametrize("d", ALL_DISTS, ids=str)
def test_nan_input_gives_nan_and_leaves_other_values_alone(d):
    # points on both sides of the support and at its finite edges
    x = np.array([p for p in (-3.0, 0.0, 0.25, 1.5, 5.0) + d.support() if math.isfinite(p)])
    with_nan = np.insert(x, [0, 2, len(x)], np.nan)
    nan = np.isnan(with_nan)
    for f in (d.density, d.log_density, d.cdf):
        assert math.isnan(f(math.nan)) and type(f(math.nan)) is float
        out = f(with_nan)
        assert np.all(np.isnan(out[nan]))
        assert out[~nan].tobytes() == f(x).tobytes()


@pytest.mark.parametrize("d", ALL_DISTS, ids=str)
def test_sampling_ks_against_own_cdf(d):
    n = 4000
    gen = np.random.default_rng(2024)
    x = draws(d, gen, n)
    assert x.shape == (n,)
    stat = st.kstest(x, lambda t: np.asarray(d.cdf(t), dtype=float)).statistic
    assert stat < KS_CRIT_1PCT / math.sqrt(n)


@pytest.mark.parametrize("d", ALL_DISTS, ids=str)
def test_sampling_stays_in_support(d):
    gen = np.random.default_rng(7)
    x = draws(d, gen, 1000)
    lo, hi = d.support()
    assert np.all(x >= lo) and np.all(x <= hi)


def test_sample_scalar_and_determinism():
    # a single draw is a (1, 1) group, the first of a longer call's draws
    d = Laplace(0.0, 1.0)
    one = d.sample((np.random.default_rng(9),), np.empty((1, 1), order="F"))
    assert one.shape == (1, 1)
    a = draws(d, np.random.default_rng(9), 16)
    b = draws(d, np.random.default_rng(9), 16)
    assert np.array_equal(a, b) and one[0, 0] == a[0]


# ------------------------------------------------------------ bit references
# Each sampler against its formula written out, compared byte for byte so
# that a faster evaluation order cannot move a bit (signed zeros included).

SIZES = (1, 7, 4097)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class EdgeUniforms:
    """Generator stand-in whose uniforms cycle through edge values."""

    VALUES = np.array([0.0, 0.5, 1.0 - 2.0**-53, 2.0**-53, 0.25, 0.75, 0.999])

    def random(self, shape=None, out=None):
        if out is not None:
            out[...] = np.resize(self.VALUES, out.size).reshape(out.shape)
            return out
        n = int(np.prod(shape))
        return np.resize(self.VALUES, n).reshape(shape)


@pytest.mark.parametrize("k", range(1, 11))
@pytest.mark.parametrize("lam", [1.0, 0.37])
def test_integer_gamma_sample_bit_reference(k, lam):
    d = Gamma(float(k), lam)
    for n in SIZES:
        u = np.random.default_rng(k).random((n, k))
        assert same_bits(draws(d, np.random.default_rng(k), n), lam * np.sum(-np.log1p(-u), axis=1))
    u = EdgeUniforms().random((len(EdgeUniforms.VALUES), k))
    assert same_bits(draws(d, EdgeUniforms(), len(u)), lam * np.sum(-np.log1p(-u), axis=1))


@pytest.mark.parametrize("m, sigma", [(0.0, 1.0), (-1.5, 0.3)])
def test_gaussian_sample_bit_reference(m, sigma):
    d = Gaussian(m, sigma)
    for gen_of in (lambda: np.random.default_rng(3), lambda: streams.substream(3, streams.COEFFS, 5, 0)):
        for n in SIZES:
            assert same_bits(draws(d, gen_of(), n), m + sigma * gen_of().standard_normal(n))


@pytest.mark.parametrize("k, lam", [(1.5, 2.0), (2.5, 1.0), (7.5, 0.37)])
def test_noninteger_gamma_sample_bit_reference(k, lam):
    d = Gamma(k, lam)
    for gen_of in (lambda: np.random.default_rng(5), lambda: streams.substream(5, streams.COEFFS, 2, 1)):
        for n in SIZES:
            assert same_bits(draws(d, gen_of(), n), lam * gen_of().standard_gamma(k, n))


@pytest.mark.parametrize("m, sigma", [(0.0, 1.0), (2.0, 0.7)])
def test_laplace_sample_bit_reference(m, sigma):
    d = Laplace(m, sigma)
    for gen_of in (lambda: np.random.default_rng(4), EdgeUniforms):
        for n in SIZES:
            q = gen_of().random(n) - 0.5
            ref = m - sigma * np.sign(q) * np.log(np.maximum(1.0 - 2.0 * np.abs(q), np.finfo(float).tiny))
            assert same_bits(draws(d, gen_of(), n), ref)


@pytest.mark.parametrize("lam", [1.0, 0.25])
def test_exponential_sample_bit_reference(lam):
    d = Exponential(lam)
    for gen_of in (lambda: np.random.default_rng(6), EdgeUniforms):
        for n in SIZES:
            assert same_bits(draws(d, gen_of(), n), -np.log1p(-gen_of().random(n)) / lam)


@pytest.mark.parametrize("m, s", [(0.0, 1.0), (-1.0, 2.0)])
def test_logistic_sample_bit_reference(m, s):
    d = Logistic(m, s)
    for gen_of in (lambda: np.random.default_rng(8), EdgeUniforms):
        for n in SIZES:
            u = np.maximum(gen_of().random(n), np.finfo(float).tiny)
            assert same_bits(draws(d, gen_of(), n), m + s * np.log(u / (1.0 - u)))


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.0, 3.0)])
def test_uniform_sample_bit_reference(a, b):
    d = Uniform(a, b)
    for gen_of in (lambda: np.random.default_rng(10), EdgeUniforms):
        for n in SIZES:
            assert same_bits(draws(d, gen_of(), n), a + (b - a) * gen_of().random(n))


OUT_DISTS = [
    Gaussian(-1.5, 0.3),
    Exponential(0.25),
    Laplace(2.0, 0.7),
    Logistic(-1.0, 2.0),
    Gamma(3.0, 0.37),
    Gamma(9.0, 1.0),
    Gamma(2.5, 2.0),
    Uniform(-2.0, 3.0),
]


@pytest.mark.parametrize("d", OUT_DISTS, ids=str)
def test_sample_into_block_column_returns_out_with_same_bits(d):
    for n in SIZES:
        block = np.full((n, 3), 7.0, order="F")
        col = block[:, 1:2]  # a column slice of an F-order block is F-contiguous
        got = d.sample((streams.substream(4, streams.COEFFS, 1, 0),), col)
        assert got is col
        assert same_bits(block[:, 1], draws(d, streams.substream(4, streams.COEFFS, 1, 0), n))
        assert np.all(block[:, [0, 2]] == 7.0)
    # a stream continued into buffers gives the draws of one call
    gen = streams.substream(4, streams.COEFFS, 2, 0)
    parts = np.empty((12, 1), order="F")
    d.sample((gen,), parts[:5])
    d.sample((gen,), parts[5:])
    assert same_bits(parts[:, 0], draws(d, streams.substream(4, streams.COEFFS, 2, 0), 12))
    # one form only: a 1-D out and a bare generator are refused
    with pytest.raises(ValueError):
        d.sample((np.random.default_rng(0),), np.empty(4))
    with pytest.raises(ValueError):
        d.sample(np.random.default_rng(0), np.empty((4, 1), order="F"))


@pytest.mark.parametrize("d", OUT_DISTS, ids=str)
def test_group_draws_equal_per_generator_draws(d):
    # a tuple of generators fills one column each with one transform over
    # the group; Gamma(9) sums its (n, 9) uniforms through np.sum
    for n in SIZES:
        for width in (1, 5):
            gens = tuple(streams.substream(4, streams.COEFFS, j, 0) for j in range(width))
            block = np.full((n, width + 2), 7.0, order="F")
            slab = block[:, 1 : width + 1]
            assert d.sample(gens, slab) is slab
            for j in range(width):
                assert same_bits(slab[:, j], draws(d, streams.substream(4, streams.COEFFS, j, 0), n))
            assert np.all(block[:, [0, width + 1]] == 7.0)
    # each generator continues its stream across group calls
    gens = tuple(streams.substream(4, streams.COEFFS, j, 0) for j in range(3))
    head, tail = np.empty((5, 3), order="F"), np.empty((7, 3), order="F")
    d.sample(gens, head)
    d.sample(gens, tail)
    parts = np.concatenate([head, tail])
    for j in range(3):
        assert same_bits(parts[:, j], draws(d, streams.substream(4, streams.COEFFS, j, 0), 12))


def test_gamma_shape_below_one_rejected():
    with pytest.raises(ValueError):
        Gamma(0.5, 1.0)


@pytest.mark.parametrize("make", [
    lambda: Gaussian(math.nan, 1.0),
    lambda: Gaussian(0.0, math.inf),
    lambda: Laplace(math.nan, 1.0),
    lambda: Exponential(math.inf),
    lambda: Logistic(math.nan, 1.0),
    lambda: Gamma(math.inf, 1.0),
    lambda: Gamma(2.0, math.inf),
    lambda: Uniform(-math.inf, 0.0),
    lambda: ExplicitSchedule((math.inf, 1.0)),
    lambda: AlgebraicFourier(math.inf),
    lambda: DeconvolutionModel(AlgebraicFourier(1.0), [0.0, math.nan], 2),
    lambda: DeconvolutionModel(AlgebraicFourier(1.0), [0.0, math.inf], 2),
], ids=["gaussian-m-nan", "gaussian-sigma-inf", "laplace-m-nan", "exponential-lam-inf", "logistic-m-nan",
        "gamma-k-inf", "gamma-lam-inf", "uniform-a-inf", "explicit-inf", "algebraic-inf", "point-nan",
        "point-inf"])
def test_non_finite_parameters_are_refused_at_construction(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Exponential(-1.0)
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        Logistic(0.0, -2.0)


# ---------------------------------------------------------------- convexity


LOG_CONCAVITY_BATTERY = {
    "gaussian": [Gaussian(m, s) for m, s in [(0, 1), (2, 0.5), (-3, 2), (0, 0.1), (1, 10)]],
    "exponential": [Exponential(lam) for lam in (0.2, 0.5, 1.0, 2.0, 10.0)],
    "laplace": [Laplace(m, s) for m, s in [(0, 1), (1, 0.5), (-2, 3), (0, 0.2), (5, 1)]],
    "logistic": [Logistic(m, s) for m, s in [(0, 1), (2, 0.5), (-1, 3), (0, 0.05), (4, 2)]],
    "gamma": [Gamma(k, lam) for k, lam in [(1, 1), (1.5, 2), (2, 1), (3, 0.5), (7.5, 1)]],
    "uniform": [Uniform(a, b) for a, b in [(0, 1), (-1, 1), (2, 5), (-0.5, 0.5), (0, 10)]],
}


@pytest.mark.parametrize(
    "d",
    [d for batch in LOG_CONCAVITY_BATTERY.values() for d in batch],
    ids=str,
)
def test_log_concavity_battery(d):
    lo, hi = quantile_interval(d, 1e-10, 1.0 - 1e-10)
    rep = check_log_concavity(d, np.linspace(lo, hi, 2001), tol=1e-8)
    assert rep.passed, f"{d}: worst second difference {rep.max_second_difference}"
    assert rep.num_checked > 0


def test_log_concavity_battery_is_complete():
    assert set(LOG_CONCAVITY_BATTERY) == {
        "gaussian", "exponential", "laplace", "logistic", "gamma", "uniform",
    }
    assert all(len(v) == 5 for v in LOG_CONCAVITY_BATTERY.values())


def test_log_concavity_rejects_convex_bump():
    # x^4 has convex log density near zero, must fail
    class Quartic(Gaussian):
        def log_density(self, x):
            return np.asarray(x, dtype=float) ** 4

    rep = check_log_concavity(Quartic(), np.linspace(-1, 1, 101), tol=1e-8)
    assert not rep.passed


def test_log_concavity_grid_validation():
    d = Gaussian()
    with pytest.raises(ValueError):
        check_log_concavity(d, [0.0, 1.0])
    with pytest.raises(ValueError):
        check_log_concavity(d, [0.0, 1.0, 0.5])


def test_log_concavity_skips_points_outside_support():
    rep = check_log_concavity(Uniform(0.0, 1.0), np.linspace(-0.5, 1.5, 101), tol=1e-8)
    assert rep.passed
    assert rep.num_skipped > 0


def test_interval_probability_gaussian_oracle():
    # P(|Z| <= 1) for the standard normal
    assert interval_probability(Gaussian(), -1.0, 1.0) == pytest.approx(
        0.6826894921370859, abs=1e-12
    )
    with pytest.raises(ValueError):
        interval_probability(Gaussian(), 1.0, -1.0)


def test_interval_convexity_laplace_strict_oracle():
    # A=[-1,1], B=[1,3], lam=1/2 on Laplace(0,1): C=[0,2]
    d = Laplace(0.0, 1.0)
    lhs = interval_probability(d, 0.0, 2.0)
    rhs = math.sqrt(interval_probability(d, -1.0, 1.0) * interval_probability(d, 1.0, 3.0))
    assert lhs == pytest.approx(0.5 * (1.0 - math.exp(-2.0)), abs=1e-12)
    e = math.exp(-1.0)
    assert rhs == pytest.approx(math.sqrt((1.0 - e) * 0.5 * (e - math.exp(-3.0))), abs=1e-12)
    assert lhs == pytest.approx(0.432332, abs=1e-6)
    # quoted reference value carries rounded intermediates; exact is 0.3170747
    assert rhs == pytest.approx(0.317072, abs=5e-6)
    assert lhs > rhs


def test_interval_convexity_equality_case():
    # A = B = C makes both sides mu(A); value pinned to the exponential flank mass
    mass = interval_probability(Laplace(0.0, 1.0), 1.0, 2.0)
    target = 0.5 * math.exp(-1.0) * (1.0 - math.exp(-1.0))
    assert mass == pytest.approx(target, abs=1e-12)
    assert target == pytest.approx(0.116269, abs=5e-6)


@pytest.mark.parametrize("d", ALL_DISTS, ids=str)
def test_interval_convexity_holds_on_random_boxes(d):
    # mu(lam*A + (1-lam)*B) >= mu(A)^lam * mu(B)^(1-lam) on interval masses
    gen = np.random.default_rng(11)
    lo, hi = quantile_interval(d, 1e-4, 1.0 - 1e-4)
    for _ in range(25):
        a = np.sort(gen.uniform(lo, hi, 2))
        b = np.sort(gen.uniform(lo, hi, 2))
        lam = gen.uniform(0.05, 0.95)
        c = lam * a + (1.0 - lam) * b
        lhs = interval_probability(d, *c)
        rhs = interval_probability(d, *a) ** lam * interval_probability(d, *b) ** (1.0 - lam)
        assert lhs >= rhs - 1e-12


@pytest.mark.parametrize("d", ALL_DISTS, ids=str)
def test_quantile_interval_brackets_mass(d):
    lo, hi = quantile_interval(d, 1e-9, 1.0 - 1e-9)
    assert d.cdf(lo) <= 1e-9 + 1e-12
    assert d.cdf(hi) >= 1.0 - 1e-9 - 1e-12
    assert lo < hi


def quantile_interval_200(d, p_lo, p_hi):
    """quantile_interval with its fixed 200 bisection steps and no early stop."""
    lo, hi = d.support()

    def solve(p):
        a, b = lo, hi
        if not math.isfinite(a):
            a = -1.0
            while d.cdf(a) > p and a > -1e12:
                a *= 2.0
        if not math.isfinite(b):
            b = 1.0
            while d.cdf(b) < p and b < 1e12:
                b *= 2.0
        for _ in range(200):
            mid = 0.5 * (a + b)
            if d.cdf(mid) < p:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    return solve(p_lo), solve(p_hi)


@pytest.mark.parametrize("p_lo, p_hi", [(1e-12, 1.0 - 1e-12), (1e-15, 1.0 - 1e-15)])
@pytest.mark.parametrize("d", ALL_DISTS + [Gamma(9.0, 0.37)], ids=str)
def test_quantile_interval_stops_early_with_the_200_step_bits(d, p_lo, p_hi, monkeypatch):
    # the posterior quadrature grid asks for the 1e-12 pair, the moment
    # helpers for the 1e-15 one
    want = np.array(quantile_interval_200(d, p_lo, p_hi))
    calls = []
    cdf = type(d).cdf
    monkeypatch.setattr(type(d), "cdf", lambda self, x: calls.append(x) or cdf(self, x))
    assert np.array(quantile_interval(d, p_lo, p_hi)).tobytes() == want.tobytes()
    assert len(calls) < 2 * 100  # two solves, each a few doublings and about 60 steps


def test_gauss_legendre_rule_is_cached_and_small():
    measures1d._gauss_legendre.cache_clear()
    tracemalloc.start()
    try:
        x, w = measures1d._gauss_legendre(1600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # numpy's leggauss solves a dense 1600 x 1600 eigenproblem: about 20 MB
    assert peak < 5e6
    assert measures1d._gauss_legendre(1600)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    # exact on low-degree monomials up to rounding: both this rule and
    # numpy's leggauss(1600) miss the integral of x^2 by 2e-13 to 5e-13
    for k in range(0, 12):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(np.sum(w * x**k)) == pytest.approx(exact, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("d", ALL_DISTS, ids=str)
def test_moment_helpers_match_quadrature(d):
    ref = scipy_frozen(d)
    e_abs = ref.expect(lambda x: abs(x))
    e_sq = ref.expect(lambda x: x * x)
    assert abs_mean(d) == pytest.approx(e_abs, rel=1e-6, abs=1e-9)
    assert second_moment(d) == pytest.approx(e_sq, rel=1e-6, abs=1e-9)


# ------------------------------------------- numpy CDFs and rule against scipy


def test_gaussian_cdf_matches_ndtr_in_both_tails():
    from scipy.special import ndtr

    z = np.linspace(-14.0, 8.0, 2201)
    for m, sigma in ((0.0, 1.0), (-1.5, 0.25)):
        x = m + sigma * z
        ref = ndtr((x - m) / sigma)
        assert np.max(np.abs(Gaussian(m, sigma).cdf(x) - ref) / ref) <= 1e-13
    # the lower tail that quantile_interval bisects: 0.5 + 0.5 erf(z/sqrt 2)
    # keeps only the absolute accuracy 1e-16 there
    assert Gaussian(0.0, 1.0).cdf(-8.0) == pytest.approx(float(ndtr(-8.0)), rel=1e-13)
    assert isinstance(Gaussian(0.0, 1.0).cdf(-8.0), float)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_integer_gamma_cdf_matches_gammainc(k):
    from scipy.special import gammainc

    lam = 2.0  # a power of two, so x / lam gives back t exactly
    t = np.concatenate([k * np.logspace(-16.0, 0.0, 400), np.linspace(0.0, 6.0 * k + 40.0, 400)])
    got = Gamma(float(k), lam).cdf(lam * t)
    ref = gammainc(k, t)
    tiny = ref > 0.0
    assert np.all(got[~tiny] == 0.0)
    assert np.max(np.abs(got[tiny] - ref[tiny]) / ref[tiny]) <= 1e-13
    assert np.any((ref > 1e-16) & (ref < 1e-14))  # probabilities near 1e-15 are covered
    assert Gamma(float(k), lam).cdf(np.inf) == 1.0
    assert isinstance(Gamma(float(k), lam).cdf(1.0), float)


@pytest.mark.parametrize("n", [2, 20, 256, 1600])
def test_gauss_legendre_matches_roots_legendre(n):
    from scipy.special import roots_legendre

    x, w = measures1d._gauss_legendre(n)
    xr, wr = roots_legendre(n)
    assert np.max(np.abs(x - xr)) <= 1e-15
    assert abs(float(np.sum(w)) - 2.0) <= 1e-12

    def worst_even_moment_error(x, w):
        # the rule integrates x^d exactly for every even d <= 2n - 2
        worst, power, sq = 0.0, np.ones_like(x), x * x
        for d in range(0, 2 * n - 1, 2):
            worst = max(worst, abs(float(np.sum(w * power)) - 2.0 / (d + 1)))
            power *= sq
        return worst

    # scipy's two-node rule is exact; allow rounding of a few ulp there
    assert worst_even_moment_error(x, w) <= max(worst_even_moment_error(xr, wr), 4 * np.finfo(float).eps)
