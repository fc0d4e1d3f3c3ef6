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

Also here: normalization constants with importance-sampling diagnostics,
and l1-penalized MAP estimates (proximal gradient, or cyclic coordinate
descent on the same objective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .measures1d import Distribution1D, _gauss_legendre, quantile_interval
from .series_prior import SeriesPrior, _share_work, sample_coefficients

__all__ = [
    "ProductPrior",
    "PosteriorSpec",
    "NormalizationReport",
    "normalization",
    "MetricReport",
    "hellinger",
    "hellinger_from_potentials",
    "hellinger_from_reference",
    "total_variation",
    "total_variation_from_potentials",
    "GapCheckReport",
    "ProbabilityReport",
    "weighted_probability",
    "posterior_mean",
    "MapResult",
    "map_estimate_l1",
    "map_estimate_l1_cd",
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
    if sigma <= 0 or lam <= 0:
        raise ValueError("sigma and lam must be positive")
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


def map_estimate_l1_cd(A, y, sigma: float, lam: float, tol: float = 1e-12, max_iter: int = 10000) -> MapResult:
    """Same objective as map_estimate_l1, solved by cyclic coordinate
    descent: the solver behind `cbayes map --solver cd`."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[0] != len(y):
        raise ValueError("matrix and data shapes do not match")
    if sigma <= 0 or lam <= 0:
        raise ValueError("sigma and lam must be positive")
    weight = sigma * sigma / lam
    n = A.shape[1]
    # Column views and Python floats: the dot products read A[:, j] as a
    # view (a contiguous copy would change their bits), and the scalar soft
    # threshold sign(rho) * max(|rho| - weight, 0) needs no numpy call; a
    # zero rho gives +0.0, as np.sign does.
    cols = [A[:, j] for j in range(n)]
    colsq = np.sum(A * A, axis=0).tolist()
    z = [0.0] * n
    r = y.copy()
    for sweep in range(max_iter):
        delta = 0.0
        for j in range(n):
            cs = colsq[j]
            if cs == 0.0:
                continue  # no data influence, penalty keeps it at zero
            rho = float(cols[j] @ r) + cs * z[j]
            new = (math.copysign(max(abs(rho) - weight, 0.0), rho) if rho else 0.0) / cs
            if new != z[j]:
                r -= cols[j] * (new - z[j])
                delta = max(delta, abs(new - z[j]))
                z[j] = new
        if delta < tol:
            est = np.array(z)
            return MapResult(est, _l1_objective(A @ est - y, est, weight), sweep + 1)
    raise RuntimeError(f"coordinate descent did not converge in {max_iter} iterations")
