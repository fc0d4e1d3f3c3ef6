"""Finite-dimensional posteriors and distances between them.

A posterior here is a reweighting of a coefficient prior: density
proportional to exp(-Phi(c)) against the prior on the window.  Distances
between two posteriors built over the same prior are estimated with a
common-reference scheme: one batch of prior draws feeds both potentials,
so a pair with identical potentials has distance exactly zero and paired
comparisons share their sampling noise.

Hellinger estimates use the weights s_i = exp(-(Phi_i - min Phi_i)),
T = E sqrt(s1) sqrt(s2) and Z_i = E s_i, with d_H = sqrt(1 - T / sqrt(Z1
Z2)); the standard error comes from the delta method through (T, Z1, Z2).
Total variation averages the absolute difference of the two normalized
weights; its standard error uses the influence function of the ratio
statistic.  Both metrics also have a deterministic tensor Gauss-Legendre
path for priors with at most two independent coordinates; its rule is
measures1d's cached one, and its Hellinger integrand is the same sqrt(s1)
sqrt(s2).

Weights are formed in the log domain, by one routine (_weights): each
potential array has its minimum subtracted before exponentiating, so the
largest weight is exactly 1 and no finite potential underflows whole.  The
distances and every self-normalized estimate are unchanged by the shift; a
potential that is +inf everywhere is refused, and a NaN or -inf one is an
error.  The estimators on shared draws take equal-length vectors of at
least two draws, as a sample standard error needs.

Each such estimator is a private core on already formed weights, their
totals and the smaller Kong ESS, so one set of weights serves several
estimates.  hellinger_from_reference forms one reference potential's
weights and their square root once for any number of other potentials,
each then costing one _weights and one sqrt; hellinger_from_potentials is
its one-potential case, with the same bits, and the metrics suite's random
pairs form each posterior's weights once for Hellinger, total variation
and the expectation-gap check.  Both run on two threads
(series_prior._share_work): the caller's and one other each take the next
potential, or pair, once done with the last, so at most two are read at a
time.  Each estimate is computed wholly by one thread, with the operations
in the same order, in that thread's own draw-sized buffers, which the cores
write through out= arguments instead of making temporaries; so its bits do
not depend on which thread computes it.

hellinger_truncations_exact computes, with no sampling, the distances
between the posterior at a deconvolution model's truncation and at its
window truncations, for a series prior with a closed-form characteristic
function (cf) and scalar noise sigma2.  It rests on the model's data
modes (DeconvolutionModel.data_modes): with the design's column k equal
to a_k Q[:, j(k)], Q with orthonormal columns, the potential is, up to
a constant, sum_j (w_j - y~_j)^2 / (2 sigma2) with y~ = Q' y and w_j =
sum_{k: j(k) = j} a_k u_k, and the modes' w_j are independent under the
prior, each with the cf psi_j(t) = prod_k phi(|a_k| gamma_k t) of its
coefficients' law phi and weights gamma_k.  A truncation splits each
w_j into its window part A and tail part B.  Writing v = 2 sigma2, per
mode

    Z_N = sqrt(sigma2 / 2 pi) int psi_A(t) exp(-sigma2 t^2 / 2) cos(t y~_j) dt,
    T = (v / 2 pi) int int psi_A(t) psi_B(u) exp(-v ((t - u)^2 + u^2) / 2) cos(t y~_j) dt du,

and Z_ref is Z_N with psi_A psi_B for psi_A; then log BC = sum_j (log T -
log Z_N / 2 - log Z_ref / 2) and d_H = sqrt(-expm1(log BC)).  The
integrands are smooth and their Gaussian factors decay fast, so the
trapezoid rule on a lattice of step h converges exponentially
(Trefethen and Weideman, SIAM Rev. 2014), and the truncated range drops
exp(-40) of the Gaussian weight.  The rule's error is aliasing: as a
function of y~_j each of Z_N, Z_ref and T is a symmetric unimodal
density-like function, and the lattice adds its values at y~_j + 2 pi
k / h for every k; for |y~_j| < pi / h they sum to at most the lattice
sum at y~_j = pi / h, which the routine computes alongside.  Where that
bound exceeds 1e-10 of an integral, the step is halved, up to a node
cap.  The consistency suite's Laplace half stays at step 0.02, and its
hierarchical half, whose Gamma-scale tails are heavier, goes to 0.01;
halving the step again and stretching the range by 1.25 moves its
distances by under 1e-10 relatively.  A prior that spreads a mode so
widely, or data so far into a truncated posterior's tail, that no
lattice within the cap meets the bound is refused: a Gaussian iid prior
of scale 10 on an 8-point, truncation-8 model matches the closed form
to 1e-12, and one of scale 15 or more is refused.

Also here: normalization constants with importance-sampling diagnostics,
and l1-penalized MAP estimates by proximal gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .measures1d import Distribution1D, _gauss_legendre, quantile_interval
from .series_prior import SeriesPrior, _share_work, coefficient_weights, sample_coefficients

__all__ = [
    "ProductPrior",
    "PosteriorSpec",
    "NormalizationReport",
    "normalization",
    "MetricReport",
    "hellinger",
    "hellinger_from_potentials",
    "hellinger_from_reference",
    "hellinger_truncations_exact",
    "total_variation",
    "total_variation_from_potentials",
    "ProbabilityReport",
    "weighted_probability",
    "posterior_mean",
    "MapResult",
    "map_estimate_l1",
]


@dataclass(frozen=True)
class ProductPrior:
    """Finitely many independent coordinates with explicit 1-D laws."""

    dists: tuple

    def __post_init__(self):
        dists = tuple(self.dists)
        if not dists:
            raise ValueError("at least one coordinate law is required")
        for d in dists:
            if not isinstance(d, Distribution1D):
                raise TypeError("coordinate laws must be 1-D distributions")
        object.__setattr__(self, "dists", dists)

    @property
    def dim(self) -> int:
        return len(self.dists)

    def coefficient_laws(self):
        return list(self.dists)

    def sample(self, num_samples: int, seed: int) -> np.ndarray:
        """Column-major (num_samples, dim) draws: coordinate j's sampler
        fills column j in place from its own stream."""
        out = np.empty((num_samples, self.dim), order="F")
        for j, d in enumerate(self.dists):
            d.sample(streams.substream(seed, streams.COEFFS, j, 0), out=out[:, j])
        return out


@dataclass(frozen=True, eq=False)
class PosteriorSpec:
    """Prior on a coefficient window plus a potential on that window."""

    prior: object
    potential: object
    N: int | None = None

    def __post_init__(self):
        if isinstance(self.prior, ProductPrior):
            dim = self.prior.dim
            if self.N is not None and self.N != dim:
                raise ValueError("N must equal the product prior dimension")
            object.__setattr__(self, "N", dim)
        elif isinstance(self.prior, SeriesPrior):
            if self.N is None:
                raise ValueError("series priors need a window level N")
            dim = len(self.prior.basis.window_indices(self.N))
        else:
            raise TypeError("prior must be a SeriesPrior or a ProductPrior")
        pdim = getattr(self.potential, "dim", dim)
        if pdim != dim:
            raise ValueError(f"potential expects {pdim} coefficients, window has {dim}")
        object.__setattr__(self, "_dim", dim)

    @property
    def dim(self) -> int:
        return self._dim

    def prior_samples(self, num_samples: int, seed: int) -> np.ndarray:
        if isinstance(self.prior, ProductPrior):
            return self.prior.sample(num_samples, seed)
        return sample_coefficients(self.prior, self.N, num_samples, seed)

    def coefficient_laws(self):
        if isinstance(self.prior, ProductPrior):
            return self.prior.coefficient_laws()
        return self.prior.coefficient_laws(self.N)


def _same_reference(spec1: PosteriorSpec, spec2: PosteriorSpec):
    if spec1.prior != spec2.prior or spec1.N != spec2.N:
        raise ValueError("both posteriors must share the same prior and window")


_UNDERFLOW = "effective sample size zero: every weight underflowed"


def _low(p: np.ndarray) -> float:
    """The minimum of a potential array.

    Refuses a potential that is +inf everywhere (every weight is zero) and
    one with a NaN or -inf value (no finite shift exists).
    """
    low = float(np.min(p))
    if math.isnan(low) or low == -math.inf:
        raise ValueError("potential values must not be NaN or -inf")
    if low == math.inf:
        raise RuntimeError(_UNDERFLOW)
    return low


def _draw_vectors(*arrays) -> list:
    """The arrays as float vectors of one length, one value per shared
    draw, and at least 2 draws, as a sample standard error needs."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if any(a.ndim != 1 or a.shape != arrays[0].shape for a in arrays):
        raise ValueError("potential arrays must be equal-length vectors")
    if len(arrays[0]) < 2:
        raise ValueError("at least 2 draws are needed for a standard error")
    return arrays


def _weights(p: np.ndarray, s=None, tmp=None) -> tuple:
    """The weights s = exp(-(p - min p)) of the potential array p, written
    into s when given (p itself, say), their total, Kong's effective sample
    size (sum s)^2 / sum s^2, with s^2 written into tmp when given, and the
    shift min p (_low).  This is the package's one exponential of a
    potential.  Both sums are numpy's, not BLAS's: a threaded dot product
    would make the suites' min_ess verdicts, which report the ESS, depend on
    the BLAS thread count."""
    low = _low(p)
    s = np.subtract(low, p, out=s)  # -(p - low), to the bit
    np.exp(s, out=s)
    total = float(np.sum(s))
    return s, total, total * total / float(np.sum(np.multiply(s, s, out=tmp))), low


def _sample_var(x: np.ndarray) -> float:
    """np.var(x, ddof=1), with its bits, computed over x."""
    n = len(x)
    x -= np.sum(x) / n
    x *= x
    return float(np.sum(x)) / (n - 1)


def _weighted_draws(spec: PosteriorSpec, num_samples: int, seed: int) -> tuple:
    """Prior draws c and the weights of their potential (_weights): w, its
    total, Kong's effective sample size and the shift min Phi; the true
    weights are w * exp(-min Phi)."""
    c = spec.prior_samples(num_samples, seed)
    return (c, *_weights(spec.potential.evaluate_many(c)))


@dataclass(frozen=True)
class NormalizationReport:
    value: float
    stderr: float
    ess: float
    num_samples: int
    log_value: float


def normalization(spec: PosteriorSpec, num_samples: int = 20000, seed: int = 0) -> NormalizationReport:
    """Monte Carlo normalization constant E_prior exp(-Phi).

    log_value is its logarithm, finite even where value underflows to 0.
    """
    if num_samples < 1000:
        raise ValueError("num_samples must be at least 1000")
    _, w, total, ess, low = _weighted_draws(spec, num_samples, seed)
    mean = total / num_samples
    with np.errstate(over="ignore"):
        scale = float(np.exp(-low))
    stderr = math.sqrt(_sample_var(w)) * scale / math.sqrt(num_samples)
    return NormalizationReport(mean * scale, stderr, ess, num_samples, math.log(mean) - low)


@dataclass(frozen=True)
class MetricReport:
    value: float
    stderr: float
    method: str
    effort: int
    clamped: bool = False
    # Kong's effective sample size of the thinner of the two posteriors on
    # prior draws; None on the quadrature grid
    ess: float | None = None


def _resolve_effort(method: str, effort: int | None) -> int:
    if effort is not None:
        return int(effort)
    return 20000 if method == "prior_mc" else 200


def _quadrature_grid(spec: PosteriorSpec, nodes: int):
    laws = spec.coefficient_laws()
    if laws is None:
        raise ValueError("quadrature needs independent coordinate laws")
    if len(laws) > 2:
        raise ValueError("quadrature supports at most two coordinates")
    x, w = _gauss_legendre(nodes)
    axes = []
    for d in laws:
        a, b = quantile_interval(d, 1e-12, 1.0 - 1e-12)
        pts = 0.5 * (b - a) * (x + 1.0) + a
        wts = 0.5 * (b - a) * w * d.density(pts)
        axes.append((pts, wts))
    if len(axes) == 1:
        points = axes[0][0][:, None]
        weights = axes[0][1]
    else:
        p0, w0 = axes[0]
        p1, w1 = axes[1]
        g0, g1 = np.meshgrid(p0, p1, indexing="ij")
        points = np.stack([g0.ravel(), g1.ravel()], axis=1)
        weights = np.outer(w0, w1).ravel()
    return points, weights


def _paired_potentials(spec1: PosteriorSpec, spec2: PosteriorSpec, method: str, effort: int | None, seed: int):
    """Front half of hellinger and total_variation: the shared-reference
    and method checks, the effort default, and both potentials on one
    batch of prior draws or on the quadrature grid.

    Returns (p1, p2, grid, effort).  grid is None on prior draws; on the
    quadrature grid it is (node weights, s1, s2, Z1, Z2) with s_i the
    shifted weights exp(-(p_i - min p_i)) and Z_i their integrals.
    """
    _same_reference(spec1, spec2)
    if method not in ("prior_mc", "quadrature"):
        raise ValueError("method must be 'prior_mc' or 'quadrature'")
    effort = _resolve_effort(method, effort)
    if method == "prior_mc":
        c = spec1.prior_samples(effort, seed)
        return spec1.potential.evaluate_many(c), spec2.potential.evaluate_many(c), None, effort
    points, weights = _quadrature_grid(spec1, effort)
    p1 = spec1.potential.evaluate_many(points)
    p2 = spec2.potential.evaluate_many(points)
    s1, s2 = _weights(p1)[0], _weights(p2)[0]
    Z1 = float(np.sum(weights * s1))
    Z2 = float(np.sum(weights * s2))
    return p1, p2, (weights, s1, s2, Z1, Z2), effort


def hellinger(
    spec1: PosteriorSpec,
    spec2: PosteriorSpec,
    method: str = "prior_mc",
    effort: int | None = None,
    seed: int = 0,
) -> MetricReport:
    """Hellinger distance between two posteriors over a common prior.

    On prior draws it is hellinger_from_potentials on one shared batch; on
    the quadrature grid the node weights integrate the same integrand
    sqrt(s1) * sqrt(s2) of the two posteriors' weights, and identical
    weights give exactly 0 on both."""
    p1, p2, grid, effort = _paired_potentials(spec1, spec2, method, effort, seed)
    if grid is None:
        return hellinger_from_potentials(p1, p2)
    weights, s1, s2, Z1, Z2 = grid
    sT = np.sqrt(s1)
    sT *= np.sqrt(s2)
    # identical weights are one posterior: the distance is exactly zero
    raw = 0.0 if np.array_equal(s1, s2) else 1.0 - float(np.sum(weights * sT)) / math.sqrt(Z1 * Z2)
    return MetricReport(math.sqrt(max(raw, 0.0)), 0.0, method, effort, raw < 0)


def hellinger_from_potentials(p1: np.ndarray, p2: np.ndarray) -> MetricReport:
    """Hellinger estimate from two potential arrays evaluated on one
    shared batch of reference draws: hellinger_from_reference(p1, [p2])[0],
    computed on the caller's thread, with its bits; swapping p1 and p2
    moves no bit."""
    p1, p2 = _draw_vectors(p1, p2)
    return _hellinger_to(_reference(p1), p2)


def hellinger_from_reference(p0: np.ndarray, potentials) -> list:
    """One MetricReport per potential array p in potentials: the Hellinger
    estimate between the posteriors of the potential arrays p0 and p on
    one shared batch of reference draws.

    The reference weights s0 = exp(-(p0 - min p0)), sqrt(s0), their total
    and ESS are formed once; each p then takes one _weights and one sqrt,
    and its estimate equals hellinger_from_potentials(p0, p) bit for bit.
    A p with the reference's own weights (p0 itself, or p0 plus a constant
    too small to move any value) gives value and stderr exactly 0.
    potentials may be an iterator: the caller's thread and one other each
    take the next array from it once done with their last (see
    _share_work), so at most two arrays are read at a time, and no input
    is written.  Each estimate is computed wholly by one thread, in that
    thread's own three draw-sized buffers, so its bits do not depend on
    which thread computes it.
    """
    (p0,) = _draw_vectors(p0)
    ref = _reference(p0)

    def distance(p, own):
        return _hellinger_to(ref, _draw_vectors(p0, p)[1], own)

    return _share_work(distance, potentials, lambda: tuple(np.empty(len(p0)) for _ in range(3)))


def _reference(p0: np.ndarray) -> tuple:
    """The weights s0 of the potential array p0 (_weights), their total,
    Kong's ESS and sqrt(s0): what every distance from p0 reads."""
    s0, t0, ess0, _ = _weights(p0)
    return s0, t0, ess0, np.sqrt(s0)


def _hellinger_to(ref: tuple, p: np.ndarray, own=(None, None, None)) -> MetricReport:
    """Hellinger estimate between the reference posterior ref (_reference)
    and the posterior of the potential array p, on the same draws, through
    the draw-sized buffers in own, overwritten, or new ones; p is only
    read."""
    s, sT, lin = own
    s, t, ess, _ = _weights(p, s, sT)
    return _hellinger_core(ref, s, t, ess, sT, lin, s)


def _hellinger_core(ref: tuple, s, t, ess, sT=None, lin=None, tmp=None) -> MetricReport:
    """Hellinger estimate between the reference posterior ref = (s0, t0,
    ess0, sqrt(s0)) and the posterior of weights s, with total t and Kong
    ESS ess, on one shared batch of draws, its integrand sqrt(s) * sqrt(s0)
    formed in sT.  The draw-sized buffers sT, lin and tmp are overwritten,
    or made when None; lin may be sqrt(s0)'s, which is read before lin is
    written, and tmp may be s itself, which then ends as s * c; the rest
    of ref and s are only read."""
    s0, t0, ess0, root0 = ref
    n = len(s)
    ess = min(ess0, ess)
    if np.array_equal(s, s0):
        # identical weights are one posterior: the distance is exactly zero
        return MetricReport(0.0, 0.0, "prior_mc", n, False, ess)
    sT = np.sqrt(s, out=sT)
    sT *= root0
    Z1, Z2, T = t0 / n, t / n, float(np.mean(sT))
    g = T / math.sqrt(Z1 * Z2)
    raw = 1.0 - g
    value = math.sqrt(max(raw, 0.0))
    # delta method through the three sample means: the variance of the
    # linearized statistic a*sT + (b*s0 + c*s), summed so that swapping the
    # two posteriors moves no bit
    a, b, c = 1.0 / math.sqrt(Z1 * Z2), -g / (2.0 * Z1), -g / (2.0 * Z2)
    lin = np.multiply(s0, b, out=lin)
    lin += np.multiply(s, c, out=tmp)
    sT *= a
    sT += lin
    se_g = math.sqrt(_sample_var(sT) / n)
    stderr = se_g / (2.0 * value) if value > 1e-12 else math.sqrt(se_g)
    return MetricReport(value, stderr, "prior_mc", n, raw < 0, ess)


# the mode-quadrature lattice of hellinger_truncations_exact: its first
# step, the Gaussian tail exp(-_MODE_TAIL) at its end, the cap on its 2-D
# nodes, the largest aliasing bound accepted, relative to the integral it
# bounds, and the values per slice of its sums (512 KB: slices of 8 MB,
# the size of a coefficient block, raised the consistency suite's peak
# RSS by 2 MB)
_MODE_STEP = 0.02
_MODE_TAIL = 40.0
_MODE_NODES = 1 << 24
_MODE_ALIAS = 1e-10
_MODE_SLICE_VALUES = 1 << 16


class _ModeRefusal(ValueError):
    """hellinger_truncations_exact cannot compute the distances; subject
    names the input at fault ("model", "sigma2" or "prior") and what
    completes the sentence that begins with it."""

    def __init__(self, subject: str, what: str):
        super().__init__(f"{subject} {what}")
        self.subject, self.what = subject, what


def _mode_lattice(sigma2: float) -> tuple:
    """(h, n, nodes) for noise variance sigma2: the lattices are t = h *
    (-2n, ..., 2n) and u = h * (-n, ..., n), with h*n >= T where
    exp(-sigma2 T^2 / 2) = exp(-_MODE_TAIL), and nodes = len(t) * len(u)
    is the size of the 2-D sum.  h is _MODE_STEP, or less where the
    trapezoid rule on the u-sum's Gaussian exp(-2 sigma2 (u - t/2)^2),
    whose error is exp(-pi^2 / (2 sigma2 h^2)), would exceed
    exp(-_MODE_TAIL): h <= pi / (sigma sqrt(2 _MODE_TAIL)), which binds
    above sigma2 = 308."""
    root = math.sqrt(2.0 * _MODE_TAIL)
    sigma = math.sqrt(sigma2)
    h = min(_MODE_STEP, math.pi / (sigma * root))
    n = math.ceil(root / sigma / h)
    return h, n, (4 * n + 1) * (2 * n + 1)


def hellinger_truncations_exact(prior: SeriesPrior, phi, n_grid) -> list:
    """[(N, MetricReport)] over the levels sorted(set(n_grid) | {n_ref}):
    the Hellinger distance between the posteriors of the potential phi
    (GaussianAdditive on a DeconvolutionModel, scalar noise sigma2) at
    its model's truncation n_ref and at each window truncation N, over
    the series prior, by mode quadrature (see the module docstring).

    The lattice starts at _mode_lattice(sigma2) and halves its step,
    keeping its range, while a mode's aliasing bound exceeds _MODE_ALIAS.
    Each report has method "mode_quadrature", stderr 0 and effort the
    2-D lattice's node count.  A level whose tail holds no nonzero column
    (n_ref itself) has potential phi's own and gives exactly 0.  Raises
    _ModeRefusal, a ValueError naming its subject, when the model has no
    data modes ("model"), the noise is not scalar or sigma2 needs more
    than _MODE_NODES lattice nodes ("sigma2"), or the prior's law has no
    closed-form cf or leaves an integral unresolved at _MODE_NODES
    ("prior").
    """
    model, n_ref = phi.model, phi.model.truncation
    modes = model.data_modes()
    if modes is None:
        raise _ModeRefusal("model", "must have mode-aligned columns (equispaced observation points)")
    if np.ndim(phi.noise) != 0:
        raise _ModeRefusal("sigma2", "must be a scalar for mode quadrature")
    try:
        prior.law._log_cf(np.zeros(1))
    except NotImplementedError as exc:
        raise _ModeRefusal("prior", "must have a law with a closed-form characteristic function (laplace or"
                           " gaussian centred at 0, or gamma(k=2) scales of gaussian(m=0) modes)") from exc
    sigma2 = float(phi.noise)
    h, n, nodes = _mode_lattice(sigma2)
    if nodes > _MODE_NODES:
        raise _ModeRefusal("sigma2", f"is too small: its mode lattice at sigma2 = {sigma2!r} needs {nodes}"
                           f" nodes, above the cap of {_MODE_NODES}")
    Q, mode_of, a = modes
    y = Q.T @ phi.y
    levels = sorted(set(int(N) for N in n_grid) | {n_ref})
    ends = [len(model.window_positions(N)) for N in levels]
    scales = np.abs(a) * (prior.dilation * coefficient_weights(prior.basis, prior.schedule, n_ref))
    while (log_bc := _mode_log_bc(prior.law, sigma2, y, mode_of, scales, ends, h, n)) is None:
        h, n = h / 2, 2 * n
        nodes = (4 * n + 1) * (2 * n + 1)
        if nodes > _MODE_NODES:
            raise _ModeRefusal("prior", f"leaves a data mode's integral unresolved within the mode lattice's"
                               f" cap of {_MODE_NODES} nodes (too wide a mode, or data too far in a"
                               f" truncated posterior's tail)")
    out = []
    for v in log_bc:
        raw = -math.expm1(v)
        out.append(MetricReport(math.sqrt(raw) if raw > 0 else 0.0, 0.0, "mode_quadrature", nodes, raw < 0))
    return list(zip(levels, out))


def _mode_log_bc(law, sigma2: float, y, mode_of, scales, ends, h: float, n: int):
    """log BC at each window end of ends on the lattice (h, n) of
    _mode_lattice, or None when, for some level and mode, Z_N or T has an
    aliasing bound above _MODE_ALIAS of itself or |y_j| >= pi / h.

    Each of Z_N, Z_ref and T is, as a function of y_j, a symmetric unimodal
    function: the noise's Gaussian convolved with the law of A, of A + B,
    or, for T, of A + B/2 reweighted by exp(-B^2 / (8 sigma2)).  The
    lattice sum at y_j adds its values at y_j + 2 pi k / h, and for |y_j| <
    pi / h those other values sum to at most the lattice sum at y = pi / h,
    where cos(t y) is (-1)^k at t = k h.
    """
    t = h * np.arange(-2 * n, 2 * n + 1)
    if np.any(np.abs(y) * h >= math.pi):
        return None

    # each mode's sum of its coefficients' log-cfs, on t >= 0 and then
    # mirrored: one cf per coefficient, added in column order, a slice of
    # coefficients at a time; the window part of level i is the running
    # sum at ends[i] (windows are prefixes)
    half = t[2 * n :]
    rows = max(1, _MODE_SLICE_VALUES // len(half))
    run = np.zeros((len(y), len(half)))
    window, start = [], 0
    for end in ends:
        ks = start + np.flatnonzero(scales[start:end])
        for lo in range(0, len(ks), rows):
            k = ks[lo : lo + rows]
            np.add.at(run, mode_of[k], law._log_cf(np.multiply.outer(scales[k], half)))
        window.append(np.concatenate([run[:, :0:-1], run], axis=1))
        start = end
    full = window[-1]  # ends[-1] is n_ref's: the whole window

    # per mode j, with psi_A = exp(window part), beta = psi_B - 1 = expm1(tail
    # part), g(t) = exp(-sigma2 t^2 / 2) and c_j(t) = cos(t y_j):
    #   Z_N = sqrt(sigma2 / 2 pi) h sum_t psi_A g c_j,
    #   Z_ref = Z_N + sqrt(sigma2 / 2 pi) h sum_t psi_A beta g c_j,
    #   T = Z_N + (sigma2 / pi) h^2 sum_t psi_A c_j sum_u beta(u) exp(-sigma2 ((t - u)^2 + u^2)),
    # since at beta = 0 the u-sum is the Gaussian integral sqrt(sigma2 / 2 pi) g(t)
    cos = np.cos(np.multiply.outer(y, t))
    sign = np.resize([1.0, -1.0], len(t))  # cos(t pi / h), as t / h = -2n, ..., 2n
    gauss = np.exp(-0.5 * sigma2 * t * t)
    u = t[n : 3 * n + 1]
    psi_a = [np.exp(w) for w in window]
    beta = [np.expm1(full - w) for w in window]

    # the inner u-sums of every (level, mode) column at once, one row slice
    # of the kernel at a time
    tails = np.concatenate([b[:, n : 3 * n + 1] for b in beta]).T
    inner = np.empty((len(t), tails.shape[1]))
    rows = max(1, _MODE_SLICE_VALUES // len(u))
    for lo in range(0, len(t), rows):
        kern = np.subtract.outer(t[lo : lo + rows], u)
        kern *= kern
        kern += u * u
        kern *= -sigma2
        inner[lo : lo + rows] = np.exp(kern, out=kern) @ tails

    m, out = len(y), []
    scale_t = h * math.sqrt(2.0 * sigma2 / math.pi)  # T's u-sum part, in units of Z_N's sum
    for i, (psi, tail) in enumerate(zip(psi_a, beta)):
        zg = psi * gauss
        z_alias = zg @ sign
        zg *= cos
        z = np.sum(zg, axis=1)
        kernel = inner[:, i * m : (i + 1) * m].T
        t_alias = z_alias + scale_t * ((psi * kernel) @ sign)
        # log BC = sum_j log(T / sqrt(Z_N Z_ref)), from the two small ratios
        # (T - Z_N) / Z_N and (Z_ref - Z_N) / Z_N: the direct logs cancel to
        # about 1e-15 absolute, a visible fraction of d_H^2 ~ 1e-7
        psi *= cos
        psi *= kernel
        t_part = scale_t * np.sum(psi, axis=1)
        if not (np.all(np.abs(z_alias) <= _MODE_ALIAS * z) and np.all(np.abs(t_alias) <= _MODE_ALIAS * (z + t_part))):
            return None
        z_ratio = np.sum(zg * tail, axis=1) / z
        out.append(float(np.sum(np.log1p(t_part / z) - 0.5 * np.log1p(z_ratio))))
    return out


def total_variation(
    spec1: PosteriorSpec,
    spec2: PosteriorSpec,
    method: str = "prior_mc",
    effort: int | None = None,
    seed: int = 0,
) -> MetricReport:
    """Total variation distance sup_A |mu1(A) - mu2(A)|."""
    p1, p2, grid, effort = _paired_potentials(spec1, spec2, method, effort, seed)
    if grid is None:
        return total_variation_from_potentials(p1, p2)
    weights, s1, s2, Z1, Z2 = grid
    value = 0.5 * float(np.sum(weights * np.abs(s1 / Z1 - s2 / Z2)))
    return MetricReport(min(value, 1.0), 0.0, method, effort, value > 1.0)


def total_variation_from_potentials(p1: np.ndarray, p2: np.ndarray) -> MetricReport:
    """Total variation estimate from two potential arrays evaluated on
    one shared batch of reference draws."""
    p1, p2 = _draw_vectors(p1, p2)
    s1, t1, ess1, _ = _weights(p1)
    s2, t2, ess2, _ = _weights(p2)
    return _total_variation_core(s1, t1, s2, t2, min(ess1, ess2))


def _total_variation_core(s1, t1, s2, t2, ess, out=(None, None, None)) -> MetricReport:
    """Total variation estimate from the weights of two posteriors on one
    shared batch of draws, their totals and the smaller Kong ESS; s1 and
    s2 are only read, and the draw-sized buffers in out, used when
    given, are overwritten."""
    n = len(s1)
    Z1, Z2 = t1 / n, t2 / n
    # diff = s1/Z1 - s2/Z2; absdiff holds s2/Z2 until it takes |diff|
    diff, absdiff = np.divide(s1, Z1, out=out[0]), np.divide(s2, Z2, out=out[1])
    diff -= absdiff
    np.abs(diff, out=absdiff)
    value = 0.5 * float(np.mean(absdiff))
    # influence function of the statistic, normalizers held as sample means:
    # 0.5*|diff| + (c1*s1 + c2*s2)
    sign = np.sign(diff, out=diff)
    c1 = -float(np.mean(np.multiply(sign, s1, out=out[2]))) / (2.0 * Z1 * Z1)
    c2 = float(np.mean(np.multiply(sign, s2, out=sign))) / (2.0 * Z2 * Z2)
    lin = np.multiply(s1, c1, out=sign)
    lin += np.multiply(s2, c2, out=out[2])
    absdiff *= 0.5
    absdiff += lin
    stderr = math.sqrt(_sample_var(absdiff)) / math.sqrt(n)
    return MetricReport(min(value, 1.0), stderr, "prior_mc", n, value > 1.0, ess)


def _snis(values: np.ndarray, weights: np.ndarray, total: float, out=None):
    """Self-normalized estimate of E values and its standard error, with
    total the (nonzero) sum of the weights, through one draw-sized
    buffer, out when given."""
    x = np.multiply(weights, values, out=out)
    est = float(np.sum(x)) / total
    np.subtract(values, est, out=x)
    x *= weights
    x *= x
    return est, math.sqrt(float(np.sum(x))) / total


@dataclass(frozen=True)
class GapCheckReport:
    gap: float
    bound: float
    hellinger: float
    slack: float
    passed: bool


def _gap_check_core(hv, hv2, s1, t1, s2, t2, dh: MetricReport, out=None) -> GapCheckReport:
    """Check |E1 h - E2 h| <= 2 sqrt(E1 h^2 + E2 h^2) * d_H on one shared
    batch of draws, h given by its value hv and its square hv2 per draw,
    from the weights s1 and s2 of the two posteriors, their totals and dh,
    the Hellinger estimate on the same batch; the draw-sized buffer out,
    used when given, is overwritten.

    Both expectations are self-normalized importance estimates.  The slack
    term is three combined standard errors, so a pass means the inequality
    holds up to Monte Carlo resolution.
    """
    e1, se1 = _snis(hv, s1, t1, out)
    e2, se2 = _snis(hv, s2, t2, out)
    h1 = float(np.sum(np.multiply(s1, hv2, out=out))) / t1
    root = math.sqrt(max(h1 + float(np.sum(np.multiply(s2, hv2, out=out))) / t2, 0.0))
    gap = abs(e1 - e2)
    bound = 2.0 * root * dh.value
    slack = 3.0 * (se1 + se2 + 2.0 * root * dh.stderr)
    return GapCheckReport(gap, bound, dh.value, slack, gap <= bound + slack)


def _paired_metrics(u1: np.ndarray, u2: np.ndarray, hv: np.ndarray, hv2: np.ndarray, out=None) -> tuple:
    """Hellinger, total variation and the expectation-gap check of hv, with
    hv2 = hv * hv, for the potential arrays u1 and u2 (both overwritten by
    their weights) on one shared batch of draws, from each posterior's
    weights formed once; each report has the bits of the public function's
    (hellinger_from_potentials(u1, u2), say).  out holds three draw-sized
    buffers, overwritten, or is None for new ones; with u1 and u2 they hold
    every draw-sized array the three estimates make."""
    u1, u2, hv, hv2 = _draw_vectors(u1, u2, hv, hv2)
    x, y, z = out if out is not None else [np.empty(len(hv)) for _ in range(3)]
    s1, t1, ess1, _ = _weights(u1, u1, x)
    s2, t2, ess2, _ = _weights(u2, u2, x)
    dh = _hellinger_core((s1, t1, ess1, np.sqrt(s1, out=x)), s2, t2, ess2, y, x, z)
    tv = _total_variation_core(s1, t1, s2, t2, min(ess1, ess2), (x, y, z))
    return dh, tv, _gap_check_core(hv, hv2, s1, t1, s2, t2, dh, x)


@dataclass(frozen=True)
class ProbabilityReport:
    value: float
    stderr: float
    ess: float


def weighted_probability(
    spec: PosteriorSpec,
    lower,
    upper,
    num_samples: int = 20000,
    seed: int = 0,
) -> ProbabilityReport | list[ProbabilityReport]:
    """Posterior probability of the axis box [lower, upper].

    lower and upper are (dim,) vectors for one ProbabilityReport, or
    (k, dim) arrays for a list of k reports from one prior draw and one
    evaluate_many call, each the single-box report's bits.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.ndim not in (1, 2) or lower.shape != upper.shape or lower.shape[-1] != spec.dim:
        raise ValueError("box bounds must be (dim,) or (k, dim) arrays matching the window dimension")
    if np.any(lower > upper):
        raise ValueError("box bounds must be ordered")
    c, w, total, ess, _ = _weighted_draws(spec, num_samples, seed)
    reps = []
    for lo, hi in zip(np.atleast_2d(lower), np.atleast_2d(upper)):
        inside = np.all((c >= lo) & (c <= hi), axis=1).astype(float)
        reps.append(ProbabilityReport(*_snis(inside, w, total), ess))
    return reps if lower.ndim == 2 else reps[0]


def posterior_mean(spec: PosteriorSpec, num_samples: int = 20000, seed: int = 0):
    """Self-normalized posterior mean of the coefficients, with stderrs."""
    c, w, total, _, _ = _weighted_draws(spec, num_samples, seed)
    means = np.empty(spec.dim)
    errs = np.empty(spec.dim)
    for j in range(spec.dim):
        means[j], errs[j] = _snis(c[:, j], w, total)
    return means, errs


@dataclass(frozen=True, eq=False)
class MapResult:
    estimate: np.ndarray
    objective: float
    iterations: int


def _soft(x: np.ndarray, a: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - a, 0.0)


def _l1_objective(r, z, weight):
    """0.5 ||r||^2 + weight ||z||_1 for the residual r = A z - y."""
    return 0.5 * float(r @ r) + weight * float(np.abs(z).sum())


def map_estimate_l1(A, y, sigma: float, lam: float, tol: float = 1e-10, max_iter: int = 200000) -> MapResult:
    """Minimize 0.5 ||Az - y||^2 + (sigma^2 / lam) ||z||_1 by proximal
    gradient steps with the fixed step 1 / ||A||_2^2."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[0] != len(y):
        raise ValueError("matrix and data shapes do not match")
    if not (np.isfinite(A).all() and np.isfinite(y).all()):
        raise ValueError("matrix and data must be finite")
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must lie in (0, inf)")
    if not lam > 0:
        raise ValueError("lam must be positive")
    weight = sigma * sigma / lam
    L = float(np.linalg.norm(A, 2)) ** 2
    z = np.zeros(A.shape[1])
    r = A @ z - y  # each iterate's residual feeds the next gradient, the last one the objective
    if L == 0.0:
        return MapResult(z, _l1_objective(r, z, weight), 0)
    t = 1.0 / L
    threshold = t * weight
    for it in range(max_iter):
        z_new = _soft(z - t * (A.T @ r), threshold)
        r = A @ z_new - y
        delta = float(np.abs(z_new - z).max())
        z = z_new
        if delta < tol:
            return MapResult(z, _l1_objective(r, z, weight), it + 1)
    raise RuntimeError(f"proximal gradient did not converge in {max_iter} iterations")
