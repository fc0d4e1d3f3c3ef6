"""Potentials: quadratic misfits, the multiplicative example, audits.

The Gaussian potential is pinned by direct closed-form evaluation and by
its polarization identity (quadratic functions have data-independent
second differences).  The audit must flag exactly the designed failure
modes of the multiplicative potential and nothing on the quadratic one.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbayes import (
    AlgebraicFourier,
    CustomPotential,
    DeconvolutionModel,
    GaussianAdditive,
    LinearModel,
    MultiplicativeUniform,
    assumption_audit,
    equispaced_points,
)


def small_gaussian_potential():
    A = np.array([[1.0, 0.3, -0.2], [0.1, 0.9, 0.4]])
    y = np.array([0.5, -1.0])
    return GaussianAdditive(LinearModel(A), 0.25, y), A, y


# ------------------------------------------------------------- closed forms


def test_gaussian_potential_scalar_noise_closed_form():
    phi, A, y = small_gaussian_potential()
    u = np.array([0.2, -0.4, 1.1])
    expected = 0.5 * np.sum((A @ u - y) ** 2) / 0.25
    assert phi.evaluate(u) == pytest.approx(expected, abs=1e-12)


def test_gaussian_potential_examples():
    # residual zero gives zero; 1-D u=0 against y=2 gives 2
    phi, A, y = small_gaussian_potential()
    u = np.linalg.lstsq(A, y, rcond=None)[0]
    assert phi.evaluate(u) == pytest.approx(0.0, abs=1e-18)
    one = GaussianAdditive(LinearModel(np.eye(1)), 1.0, [2.0])
    assert one.evaluate([0.0]) == pytest.approx(2.0, abs=1e-14)


def test_gaussian_potential_dense_covariance():
    A = np.array([[1.0, 0.5], [0.0, 1.0]])
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    y = np.array([1.0, -0.5])
    phi = GaussianAdditive(LinearModel(A), cov, y)
    u = np.array([0.7, 0.1])
    r = A @ u - y
    expected = 0.5 * r @ np.linalg.solve(cov, r)
    assert phi.evaluate(u) == pytest.approx(expected, abs=1e-12)


def test_gaussian_potential_batch_matches_scalar():
    phi, _, _ = small_gaussian_potential()
    batch = np.random.default_rng(0).normal(size=(6, 3))
    vals = phi.evaluate_many(batch)
    assert np.allclose(vals, [phi.evaluate(u) for u in batch], atol=1e-13)


def test_gaussian_potential_polarization_identity():
    # for quadratic Phi: Phi(u+v) + Phi(u-v) - 2 Phi(u) = v^T A^T W A v
    phi, A, _ = small_gaussian_potential()
    W = np.eye(2) / 0.25
    gen = np.random.default_rng(1)
    for _ in range(10):
        u, v = gen.normal(size=3), gen.normal(size=3)
        lhs = phi.evaluate(u + v) + phi.evaluate(u - v) - 2 * phi.evaluate(u)
        rhs = (A @ v) @ W @ (A @ v)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_gaussian_potential_data_swap():
    phi, A, _ = small_gaussian_potential()
    u = np.array([0.3, 0.3, -0.3])
    for y2 in ([1.5, 0.5], [-0.2, 7.0], [0.0, 0.0]):
        assert phi.evaluate_with_data(u, y2) == GaussianAdditive(phi.model, phi.noise, y2).evaluate(u)


@pytest.mark.parametrize("sigma2", [1.0, 4.0])
def test_misfit_scalar_noise_matches_plain_formula(sigma2):
    # the plain formula, with the squared residual columns added left to right
    model = DeconvolutionModel(AlgebraicFourier(1.0), equispaced_points(8), 8)
    gen = np.random.default_rng(5)
    y = gen.normal(size=8)
    phi = GaussianAdditive(model, sigma2, y)
    fwd = model.apply_many(gen.normal(size=(500, model.dim)))
    sq = (fwd - y) ** 2
    expected = sq[:, 0].copy()
    for j in range(1, 8):
        expected += sq[:, j]
    assert np.array_equal(phi.misfit(fwd, y), 0.5 * expected / sigma2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 300),
    width=st.integers(1, 300) | st.sampled_from([7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 257]),
    order=st.sampled_from("CF"),
    dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=3, width=129, order="F", dense=False, seed=0)
@example(rows=2, width=300, order="C", dense=True, seed=1)
def test_misfit_matches_column_sum_bit_for_bit(rows, width, order, dense, seed):
    # scalar noise adds the squared residual columns left to right at every
    # row count and layout; dense noise sums each whitened row with np.sum.
    # Orders differ only on terms of very different sizes.  The data may be
    # one vector or one row per forward output.
    gen = np.random.default_rng(seed)
    fwd = np.asarray(gen.normal(size=(rows, width)) * np.exp(gen.uniform(-15.0, 15.0, (rows, width))), order=order)
    y = gen.normal(size=width)
    if dense:
        B = gen.normal(size=(width, width))
        phi = GaussianAdditive(LinearModel(np.eye(width)), B @ B.T + width * np.eye(width), y)
        white, s2 = phi._white, 1.0
    else:
        phi = GaussianAdditive(LinearModel(np.eye(width)), 0.37, y)
        white, s2 = None, 0.37
    before = fwd.copy(order="A")
    ys = gen.normal(size=(rows, width))

    def expected(f, data):
        r = f - data
        if white is not None:
            r = r @ white.T
            return 0.5 * np.sum(r * r, axis=-1) / s2
        sq = r * r
        total = sq[..., 0].copy()
        for j in range(1, width):
            total += sq[..., j]
        return 0.5 * total / s2

    assert np.array_equal(phi.misfit(fwd, y), expected(np.ascontiguousarray(fwd), y))
    assert np.array_equal(phi.misfit(fwd, ys), expected(np.ascontiguousarray(fwd), ys))
    assert np.array_equal(fwd, before)
    # a single residual vector is summed by np.sum, as in the 1-D path
    r = fwd[0] - y
    if white is not None:
        r = r @ white.T
    assert np.array_equal(phi.misfit(fwd[0], y), 0.5 * np.sum(r * r) / s2)


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("order", "CF")
def test_misfit_delta_is_the_shifted_data_difference(dense, order):
    # Phi(u; y + s) - Phi(u; y) from the residual alone, for a dense shift,
    # a shift along one data coordinate and a zero shift, on a 2-D batch and
    # on one residual vector.  The direct difference of two misfits loses
    # up to a few ulps of the misfits themselves, so the two forms agree to
    # 1e-12 relative to 1 + Phi(u; y) + Phi(u; y + s).
    gen = np.random.default_rng(11)
    model = DeconvolutionModel(AlgebraicFourier(1.0), equispaced_points(8), 8)
    y = gen.normal(size=8)
    B = gen.normal(size=(8, 8))
    phi = GaussianAdditive(model, B @ B.T + np.eye(8) if dense else 0.7, y)
    fwd = np.asarray(model.apply_many(gen.normal(size=(400, model.dim))), order=order)
    res = fwd - y
    kept = res.copy(order="A")
    for s in (gen.normal(size=8), 0.3 * np.eye(8)[5], np.zeros(8)):
        direct0, direct1 = phi.misfit(fwd, y), phi.misfit(fwd, y + s)
        delta = phi.misfit_delta(res, s)
        assert delta.shape == (400,)
        assert np.all(np.abs(delta - (direct1 - direct0)) <= 1e-12 * (1.0 + direct0 + direct1))
        one = phi.misfit_delta(res[7], s)
        assert np.ndim(one) == 0
        assert abs(one - (direct1[7] - direct0[7])) <= 1e-12 * (1.0 + direct0[7] + direct1[7])
    assert np.array_equal(res, kept)
    assert not np.any(phi.misfit_delta(res, np.zeros(8)))
    with pytest.raises(ValueError):
        phi.misfit_delta(res, np.zeros(7))


@pytest.mark.parametrize("order", "CF")
def test_misfit_of_residuals_against_zero_data_keeps_the_bits(order):
    # the suites subtract the data from their forward buffer in place and
    # take misfit(r, 0): fwd - y - 0 is fwd - y exactly
    gen = np.random.default_rng(12)
    model = DeconvolutionModel(AlgebraicFourier(1.0), equispaced_points(8), 8)
    phi = GaussianAdditive(model, 4.0, gen.normal(size=8))
    fwd = np.asarray(model.apply_many(gen.normal(size=(300, model.dim))), order=order)
    expected = phi.misfit(fwd, phi.y)
    fwd -= phi.y
    assert np.array_equal(phi.misfit(fwd, np.zeros(8)), expected)


def test_misfit_dense_covariance_matches_solve():
    gen = np.random.default_rng(6)
    B = gen.normal(size=(4, 4))
    cov = B @ B.T + 0.5 * np.eye(4)
    A = gen.normal(size=(4, 3))
    y = gen.normal(size=4)
    phi = GaussianAdditive(LinearModel(A), cov, y)
    coeffs = gen.normal(size=(50, 3))
    fwd = coeffs @ A.T
    expected = [0.5 * r @ np.linalg.solve(cov, r) for r in fwd - y]
    assert np.allclose(phi.misfit(fwd, y), expected, rtol=0.0, atol=1e-12)
    assert np.allclose(phi.evaluate_many(coeffs), expected, rtol=0.0, atol=1e-12)
    y2 = gen.normal(size=4)
    r = A @ coeffs[0] - y2
    assert phi.evaluate_with_data(coeffs[0], y2) == pytest.approx(0.5 * r @ np.linalg.solve(cov, r), abs=1e-12)


def test_dense_covariance_loads_scipy_linalg_when_built():
    # scalar noise needs only numpy; a dense covariance imports scipy.linalg
    # on construction and then evaluates as before
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from cbayes import GaussianAdditive, LinearModel\n"
        "before = 'scipy.linalg' in sys.modules\n"
        "cov = np.array([[2.0, 0.5], [0.5, 1.0]])\n"
        "phi = GaussianAdditive(LinearModel(np.eye(2)), cov, [0.0, 0.0])\n"
        "u = np.array([1.0, -1.0])\n"
        "ok = abs(phi.evaluate(u) - 0.5 * u @ np.linalg.solve(cov, u)) <= 1e-14\n"
        "print(before, 'scipy.linalg' in sys.modules, ok)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


def test_dense_covariance_must_be_symmetric_to_relative_1e12():
    model = LinearModel(np.eye(2))
    # within numpy's default allclose rtol, but not symmetric
    with pytest.raises(ValueError):
        GaussianAdditive(model, np.array([[1.0, 0.5], [0.500004, 1.0]]), [0.0, 0.0])
    scale = 1e6
    near = scale * np.array([[1.0, 0.5], [0.5 * (1.0 + 1e-14), 1.0]])
    assert GaussianAdditive(model, near, [0.0, 0.0]).evaluate([1.0, -1.0]) > 0.0


def test_gaussian_potential_projection_masks_input():
    model = DeconvolutionModel(AlgebraicFourier(1.0), equispaced_points(4), 4)
    y = np.array([0.1, 0.2, -0.1, 0.0])
    full = GaussianAdditive(model, 1.0, y)
    proj = GaussianAdditive(model, 1.0, y, 2)
    u = np.random.default_rng(2).normal(size=model.dim)
    mask = np.zeros(model.dim)
    mask[model.window_positions(2)] = 1.0
    assert proj.evaluate(u) == pytest.approx(full.evaluate(u * mask), abs=1e-13)


def test_gaussian_potential_validation():
    model = LinearModel(np.eye(2))
    with pytest.raises(ValueError):
        GaussianAdditive(model, 1.0, [1.0, 2.0, 3.0])
    for s2 in (-1.0, float("nan"), float("inf")):  # NaN fails 0 < s2; inf would make the potential 0
        with pytest.raises(ValueError, match="noise variance"):
            GaussianAdditive(model, s2, [1.0, 2.0])
    with pytest.raises(ValueError):
        GaussianAdditive(model, np.array([[1.0, 0.5], [0.4, 1.0]]), [1.0, 2.0])
    with pytest.raises(ValueError):
        GaussianAdditive(model, 1.0, [1.0, 2.0]).evaluate_with_data([0.0, 0.0], [1.0])


@pytest.mark.parametrize("y", [[math.nan, 0.1], [math.inf, 0.1], [0.1, -math.inf]], ids=["nan", "inf", "-inf"])
def test_gaussian_potential_refuses_non_finite_data(y):
    # an infinite datum would make every value inf, a NaN one every value NaN
    phi = GaussianAdditive(LinearModel(np.eye(2)), 1.0, [0.0, 0.0])
    with pytest.raises(ValueError, match="data must be finite"):
        GaussianAdditive(LinearModel(np.eye(2)), 1.0, y)
    with pytest.raises(ValueError, match="data must be finite"):
        phi.evaluate_with_data([0.0, 0.0], y)
    with pytest.raises(ValueError, match="data must be finite"):
        phi.misfit_delta(np.zeros(2), y)
    with pytest.raises(ValueError, match="data must be finite"):
        phi.evaluate_with_data(np.zeros((2, 2)), [[0.0, 0.0], y])


# ---------------------------------------------------------- multiplicative


def test_multiplicative_uniform_values():
    phi = MultiplicativeUniform(1.0, dim=4)
    e_inv = np.array([math.exp(-1.0), 0.0, 0.0, 0.0])
    assert phi.evaluate(e_inv) == pytest.approx(-1.0, abs=1e-14)
    assert phi.evaluate(np.array([2.0, 0.0, 0.0, 0.0])) == math.inf
    assert phi.evaluate(np.zeros(4)) == -math.inf
    on_boundary = np.array([1.0, 0.0, 0.0, 0.0])
    assert phi.evaluate(on_boundary) == math.inf


def test_multiplicative_uniform_batch():
    phi = MultiplicativeUniform(1.0, dim=2)
    batch = np.array([[0.5, 0.0], [3.0, 0.0]])
    vals = phi.evaluate_many(batch)
    assert vals[0] == pytest.approx(math.log(0.5))
    assert vals[1] == math.inf


def test_custom_potential_wraps_callables():
    phi = CustomPotential(lambda u: float(np.sum(u**2)), dim=3)
    assert phi.dim == 3 and phi.data_dim == 0
    assert phi.evaluate(np.array([1.0, 2.0, 0.0])) == pytest.approx(5.0)
    batch = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    assert np.allclose(phi.evaluate_many(batch), [1.0, 4.0])
    fast = CustomPotential(
        lambda u: float(np.sum(u**2)), dim=3,
        batch_fn=lambda b: np.sum(b**2, axis=1),
    )
    assert np.allclose(fast.evaluate_many(batch), [1.0, 4.0])


# ------------------------------------------------------------------- audit


def test_audit_gaussian_additive_clean():
    phi, _, y = small_gaussian_potential()
    rep = assumption_audit(phi, r=1.0, num_samples=400, seed=0)
    assert rep.lower_bound_ok
    assert rep.violations == ()
    # the quadratic is nonnegative, so the empirical minimum is >= 0
    assert rep.empirical_M >= 0.0
    assert math.isfinite(rep.empirical_K_r)
    assert math.isfinite(rep.empirical_L_r)
    assert rep.empirical_C is not None


def test_audit_gaussian_far_data_not_flagged_lower_bound():
    # Phi >= 0; with data far from G(0) the halving sequence falls by more
    # than 15 toward Phi(0), by drops that halve at each step
    model = DeconvolutionModel(AlgebraicFourier(1.0), equispaced_points(8), 8)
    y = 10.0 * np.array([0.5, -0.25, 0.75, -0.5, 0.25, -0.75, 1.0, -1.0])
    phi = GaussianAdditive(model, 0.1, y)
    for seed in range(20):
        rep = assumption_audit(phi, r=1.0, num_samples=200, seed=seed)
        assert rep.lower_bound_ok
        assert rep.violations == ()


def test_audit_gaussian_identity_lipschitz_bound():
    # |grad Phi| = |u - y| <= r + |y| on the ball for the identity model
    y = np.array([0.25])
    phi = GaussianAdditive(LinearModel(np.eye(1)), 1.0, y)
    rep = assumption_audit(phi, r=1.0, num_samples=2000, seed=3)
    assert rep.empirical_L_r <= 1.0 + float(np.linalg.norm(y)) + 1e-9


def test_audit_multiplicative_flags_exact_set():
    phi = MultiplicativeUniform(1.0, dim=4)
    rep = assumption_audit(phi, r=1.0, num_samples=400, seed=0)
    assert not rep.lower_bound_ok
    assert set(rep.violations) == {"lower_bound", "bounded_above"}


def test_audit_validation():
    phi = MultiplicativeUniform(1.0, dim=2)
    with pytest.raises(ValueError):
        assumption_audit(phi, r=0.0, num_samples=100, seed=0)
    with pytest.raises(ValueError):
        assumption_audit(phi, r=1.0, num_samples=5, seed=0)


def test_audit_refuses_a_nan_radius():
    # every probe at a NaN radius is NaN, which would read as a clean report on nothing
    phi = GaussianAdditive(LinearModel(np.eye(2)), 1.0, [0.5, -0.3])
    with pytest.raises(ValueError, match="radius must be positive"):
        assumption_audit(phi, math.nan, 100, 0)


def test_audit_refuses_an_infinite_radius():
    # at r = inf the ball's points are infinite: empirical_M = inf and
    # empirical_L_r = NaN read as a bounded_above violation of the potential
    phi = GaussianAdditive(LinearModel(np.eye(2)), 1.0, [0.5, -0.3])
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        assumption_audit(phi, math.inf, 100, 0)


def test_audit_deterministic():
    phi = MultiplicativeUniform(1.0, dim=3)
    a = assumption_audit(phi, r=1.0, num_samples=200, seed=7)
    b = assumption_audit(phi, r=1.0, num_samples=200, seed=7)
    assert a == b


# Reference copy of the scalar-loop audit: one evaluate or
# evaluate_with_data call per probe point and per pair.  The shipped audit
# batches the ball, Lipschitz and data-continuity probes; its flags must
# match and its constants agree to rounding.


def _scalar_loop_audit(phi, r, num_samples, seed):
    from cbayes import streams
    from cbayes.likelihood import _ball_points

    dim = phi.dim
    violations = []
    gen = streams.substream(seed, streams.PROBES, 10)
    lower_ok = True
    all_finite_vals = []
    for d in _ball_points(dim, 8, 1.0, gen, on_sphere=True):
        vals = [v for v in (phi.evaluate(r * (2.0**-j) * d) for j in range(41)) if math.isfinite(v)]
        all_finite_vals.extend(vals)
        if len(vals) >= 6:
            drops = -np.diff(vals[-5:])
            if vals[-1] < vals[0] - 15.0 and np.all(drops > 0) and drops[-1] >= 0.5 * drops[0]:
                lower_ok = False
    if not lower_ok:
        violations.append("lower_bound")
    us = _ball_points(dim, num_samples, r, streams.substream(seed, streams.PROBES, 11), on_sphere=False)
    data_dim = getattr(phi, "data_dim", 0)
    has_data = data_dim > 0 and hasattr(phi, "evaluate_with_data")
    if has_data:
        ys = _ball_points(data_dim, num_samples, r, streams.substream(seed, streams.PROBES, 12), on_sphere=False)
        vals = np.asarray([phi.evaluate_with_data(u, yv) for u, yv in zip(us, ys)])
    else:
        vals = np.asarray([phi.evaluate(u) for u in us])
    if np.any(np.isposinf(vals)):
        violations.append("bounded_above")
    finite = vals[np.isfinite(vals)]
    all_finite_vals.extend(finite.tolist())
    M = float(np.min(all_finite_vals)) if all_finite_vals else math.inf
    K = float(np.max(finite)) if len(finite) else -math.inf
    pairs = _ball_points(dim, 2 * num_samples, r, streams.substream(seed, streams.PROBES, 13), on_sphere=False)
    ratios = []
    for a, b in zip(pairs[:num_samples], pairs[num_samples:]):
        va, vb = phi.evaluate(a), phi.evaluate(b)
        du = float(np.linalg.norm(a - b))
        if math.isfinite(va) and math.isfinite(vb) and du > 0:
            ratios.append(abs(va - vb) / du)
    L = float(np.max(ratios)) if ratios else math.nan
    C = None
    if has_data:
        y_pairs = _ball_points(data_dim, 2 * num_samples, r, streams.substream(seed, streams.PROBES, 14),
                               on_sphere=False)
        log_ratios = []
        for u, ya, yb in zip(us, y_pairs[:num_samples], y_pairs[num_samples:]):
            va, vb = phi.evaluate_with_data(u, ya), phi.evaluate_with_data(u, yb)
            dy = float(np.linalg.norm(ya - yb))
            if math.isfinite(va) and math.isfinite(vb) and dy > 0 and va != vb:
                log_ratios.append(math.log(abs(va - vb) / dy))
        C = float(np.max(log_ratios)) if log_ratios else None
    return lower_ok, M, K, L, C, tuple(violations)


def _audit_potentials():
    model = DeconvolutionModel(AlgebraicFourier(1.0), equispaced_points(8), 8)
    y = np.array([0.5, -0.25, 0.75, -0.5, 0.25, -0.75, 1.0, -1.0])
    A = np.array([[1.0, 0.3, -0.2], [0.1, 0.9, 0.4], [0.0, -0.5, 1.2]])
    cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
    return {
        "scalar_noise": GaussianAdditive(model, 4.0, y, 3),
        "dense_noise": GaussianAdditive(LinearModel(A), cov, [0.5, -1.0, 0.2]),
        "multiplicative": MultiplicativeUniform(1.0, dim=4),
        # unbounded on part of the ball, with no batch function
        "custom": CustomPotential(lambda u: float(u @ u) if u[0] < 0.5 else math.inf, dim=3),
    }


@pytest.mark.parametrize("name", ["scalar_noise", "dense_noise", "multiplicative", "custom"])
@pytest.mark.parametrize("seed", [0, 7])
def test_audit_matches_scalar_loop_oracle(name, seed):
    phi = _audit_potentials()[name]
    rep = assumption_audit(phi, r=1.0, num_samples=300, seed=seed)
    lower_ok, M, K, L, C, violations = _scalar_loop_audit(phi, 1.0, 300, seed)
    assert rep.lower_bound_ok == lower_ok
    assert rep.violations == violations
    for got, want in ((rep.empirical_M, M), (rep.empirical_K_r, K), (rep.empirical_L_r, L)):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0, nan_ok=True)
    if C is None:
        assert rep.empirical_C is None
    else:
        assert rep.empirical_C == pytest.approx(C, rel=1e-12, abs=0.0)
    # the designed failure modes are seen
    if name == "multiplicative":
        assert set(violations) == {"lower_bound", "bounded_above"}
    if name == "custom":
        assert violations == ("bounded_above",) and C is None


@pytest.mark.parametrize("name", ["scalar_noise", "dense_noise", "multiplicative"])
def test_evaluate_with_data_batch_matches_rows(name):
    phi = _audit_potentials()[name]
    gen = np.random.default_rng(11)
    coeffs = 0.4 * gen.normal(size=(64, phi.dim))
    ys = gen.normal(size=(64, phi.data_dim))
    if name == "multiplicative":
        ys = np.abs(ys) + 0.2
    got = phi.evaluate_with_data(coeffs, ys)
    want = np.asarray([phi.evaluate_with_data(c, yv) for c, yv in zip(coeffs, ys)])
    assert got.shape == (64,)
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)
    assert np.array_equal(got[~finite], want[~finite])
    if name == "multiplicative":
        assert 0 < np.sum(finite) < 64
    with pytest.raises(ValueError):
        phi.evaluate_with_data(coeffs, ys[:-1])
    with pytest.raises(ValueError):
        phi.evaluate_with_data(coeffs, ys[:, :1] if phi.data_dim > 1 else np.ones((64, 2)))
    with pytest.raises(ValueError):
        phi.evaluate_with_data(coeffs, ys[0])


class _CountingPotential:
    """Forwards to a potential and counts its scalar and batched calls."""

    def __init__(self, phi):
        self.phi, self.dim, self.data_dim = phi, phi.dim, phi.data_dim
        self.scalar, self.batched = 0, 0

    def evaluate(self, coeffs):
        self.scalar += 1
        return self.phi.evaluate(coeffs)

    def evaluate_many(self, coeffs):
        self.batched += 1
        return self.phi.evaluate_many(coeffs)

    def evaluate_with_data(self, coeffs, y):
        if np.ndim(coeffs) == 2:
            self.batched += 1
        else:
            self.scalar += 1
        return self.phi.evaluate_with_data(coeffs, y)


@pytest.mark.parametrize("name", ["scalar_noise", "multiplicative"])
def test_audit_call_count_is_rays_plus_constant(name):
    # only the 8 rays of 41 halvings go through scalar calls; the ball,
    # Lipschitz and data-continuity probes are a few batched calls
    phi = _CountingPotential(_audit_potentials()[name])
    assumption_audit(phi, r=1.0, num_samples=2000, seed=0)
    assert phi.scalar <= 8 * 41
    assert phi.batched <= 3
