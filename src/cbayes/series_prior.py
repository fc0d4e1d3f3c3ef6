"""Random series priors on function spaces.

A prior here is the law of u = dilation * sum_k gamma_k xi_k x_k with
deterministic decay weights gamma_k, independent coefficient draws xi_k
from a log-concave law (optionally a scale mixture zeta_k * xi_k), and
orthonormal basis functions x_k.  Truncating the series to a finite index
window gives exchangeable finite-dimensional samples whose coefficients
are reproducible per index: each index draws from its own counter-based
stream, so enlarging the window never changes the coefficients already
present, and projection commutes with sampling exactly.

Chunked sampling
----------------
coefficient_chunks yields the sample matrix a block of rows at a time,
about 2^20 values per block.  Each slot opens its stream once and every
block continues it, so the blocks stacked are bit-identical to one draw
of all rows, whatever the block size: a slot's k-th draw is the same at
every window level and every chunking.  This holds because every
sampler reads its stream draw by draw (see measures1d).

A block is column-major (Fortran order): each slot's draws fill one
contiguous column, and a smaller window's columns are a contiguous view.
Since every slot has its own stream, the layout moves no bit of any draw,
and the BLAS products the suites take of a block give the same bits in
either order.  sample_coefficients returns the same column-major layout,
the block itself when one block holds every row.

A block's slots are drawn in column groups of _GROUP_VALUES values
(_GROUP_VALUES // rows columns, at least one, and at most half the
slots, so that each thread below has a group) by _fill_columns, the one
block-fill routine: one Distribution1D.sample call per law fills a
group's contiguous F-order columns, each slot's generator reading its
own stream into its own column, and the law's transform then runs once
over the group (see measures1d), so a group of short columns pays the
Python dispatches of one.  An IID law fills the group; a hierarchical
group's mode law fills the group and its scale law one scratch group
per thread, then the group is multiplied by the scale draws and by
the slots' weights in place.  IEEE multiplication is commutative, so
(xi * zeta) * weight has the bits of weight * (zeta * xi), and no
draw-sized temporary is made beyond the samplers' own group-sized
scratch.  marginal_convexity_test draws its few slots with the same
_fill_columns, on its own thread, one column of one F-order block per
functional term.

Two threads fill each block through _share_work, the package's one
threading mechanism: the caller's thread and one other each take the
next column group when done with their last, so neither waits on a
fixed half of the other's, and both stop before the block is yielded.
A slot's generators are read by one thread at a time, though not
always by the same one, and the blocks are filled in order, so each
stream is still read draw by draw and the bits do not depend on
scheduling (counter-based streams: Salmon et al., SC 2011); the
threads overlap where numpy releases the GIL, in Generator fills and
ufunc loops.

Enumeration contract
--------------------
Fourier indices are enumerated 0, -1, 1, -2, 2, ...  The truncation
window for level N is the index set {-N, ..., N-1}, the first 2N entries
[0, -1, 1, ..., N-1, -N]; sequence bases enumerate 1, 2, 3, ... and window
N is {1, ..., N}.  So every window is a prefix of every larger one and
projection keeps a leading slice; columns, multipliers and explicit
weights are positional in this order.
Algebraic Fourier weights apply to the signed index k as (1+k^2)^(-s);
algebraic sequence weights apply to the 1-based enumeration position.
"""

from __future__ import annotations

import io
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import streams
from .measures1d import Distribution1D, Gamma, Gaussian, _erfc, abs_mean, second_moment

__all__ = [
    "FourierCircle",
    "AbstractOrthonormal",
    "AlgebraicFourier",
    "AlgebraicSequence",
    "ExplicitSchedule",
    "IID",
    "Hierarchical",
    "SeriesPrior",
    "FieldSample",
    "coefficient_weights",
    "sample_field",
    "sample_coefficients",
    "coefficient_chunks",
    "project",
    "evaluate_field",
    "field_to_csv",
    "AdmissibilityReport",
    "admissibility_check",
    "ExpMomentReport",
    "estimate_exp_moment",
    "MarginalConvexityReport",
    "marginal_convexity_test",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FourierCircle:
    """Real trigonometric basis on the circle of circumference 1.

    Index 0 is the constant function 1, index +j is sqrt(2)*cos(2*pi*j*t),
    index -j is sqrt(2)*sin(2*pi*j*t); all have unit L2 norm on [0, 1).
    """

    def window_indices(self, N: int) -> np.ndarray:
        if N < 1:
            raise ValueError("window level must be at least 1")
        p = np.arange(2 * N)
        return np.where(p % 2, -(p + 1) // 2, p // 2)

    @staticmethod
    def slot_uid(k: int) -> int:
        # Stable stream id per signed index, independent of the window: its
        # position in the 0.6.0 enumeration 0, 1, -1, ..., so draws never move.
        if k == 0:
            return 0
        return 2 * k - 1 if k > 0 else -2 * k

    @staticmethod
    def evaluate(k: int, x):
        x = np.asarray(x, dtype=float)
        if k == 0:
            return np.ones_like(x)
        if k > 0:
            return _SQRT2 * np.cos(2.0 * math.pi * k * x)
        return _SQRT2 * np.sin(2.0 * math.pi * (-k) * x)


@dataclass(frozen=True, eq=False)
class AbstractOrthonormal:
    """Orthonormal system given by a callback evaluate(n, x), n = 1, 2, ..."""

    evaluate_fn: Callable

    def window_indices(self, N: int) -> np.ndarray:
        if N < 1:
            raise ValueError("window level must be at least 1")
        return np.arange(1, N + 1, dtype=int)

    @staticmethod
    def slot_uid(k: int) -> int:
        return int(k) - 1

    def evaluate(self, k: int, x):
        return self.evaluate_fn(int(k), np.asarray(x, dtype=float))


@dataclass(frozen=True)
class AlgebraicFourier:
    """Weights (1 + k^2)^(-s) on the signed index k."""

    s: float

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("decay exponent must be nonnegative")


@dataclass(frozen=True)
class AlgebraicSequence:
    """Weights p^(-s) on the 1-based enumeration position p."""

    s: float

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("decay exponent must be nonnegative")


@dataclass(frozen=True)
class ExplicitSchedule:
    """Explicit positive nonincreasing weights, in enumeration order."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) == 0:
            raise ValueError("schedule must not be empty")
        if any(v <= 0 for v in vals):
            raise ValueError("weights must be positive")
        if any(b > a + 1e-15 for a, b in zip(vals[:-1], vals[1:])):
            raise ValueError("weights must be nonincreasing")


def coefficient_weights(basis, schedule, N: int) -> np.ndarray:
    """Decay weights for window N, in enumeration order."""
    idx = basis.window_indices(N)
    if isinstance(schedule, AlgebraicFourier):
        return (1.0 + idx.astype(float) ** 2) ** (-schedule.s)
    if isinstance(schedule, AlgebraicSequence):
        pos = np.arange(1, len(idx) + 1, dtype=float)
        return pos ** (-schedule.s)
    if isinstance(schedule, ExplicitSchedule):
        if len(schedule.values) < len(idx):
            raise ValueError("explicit schedule shorter than the window")
        return np.asarray(schedule.values[: len(idx)], dtype=float)
    raise TypeError(f"unknown schedule {schedule!r}")


@dataclass(frozen=True)
class IID:
    dist: Distribution1D

    def __post_init__(self):
        if not isinstance(self.dist, Distribution1D):
            raise TypeError("dist must be a Distribution1D")

    def _log_cf(self, t):
        """The log characteristic function of one coefficient draw (see
        Distribution1D._log_cf)."""
        return self.dist._log_cf(t)


# 1 - 3x^2 + 15x^4 - ...: the coefficients (2n+1)!! (-1)^n of x^(2n) in
# the small-x series of E exp(-zeta^2 x^2 / 2), zeta ~ Gamma(2, 1); at
# x < _CF_SERIES_BELOW the first omitted term is below 6e-14 relatively
_CF_SERIES = (1.0, -3.0, 15.0, -105.0, 945.0, -10395.0, 135135.0, -2027025.0)
_CF_SERIES_BELOW = 0.05
_VELTKAMP = 134217729.0  # 2^27 + 1, splits a double into two 26-bit halves


@dataclass(frozen=True)
class Hierarchical:
    """Coefficient draws zeta*xi with independent scale and mode laws."""

    scale_law: Distribution1D
    mode_law: Distribution1D

    def __post_init__(self):
        for d in (self.scale_law, self.mode_law):
            if not isinstance(d, Distribution1D):
                raise TypeError("laws must be Distribution1D")

    def _log_cf(self, t):
        """log E cos(t zeta xi) for Gamma(2, lam) scales and Gaussian(0,
        sigma) modes (see Distribution1D._log_cf): with x = lam sigma |t|
        and a = 1/(sqrt(2) x) it is log((1 - sqrt(pi) a erfcx(a)) / x^2),
        where erfcx(a) = exp(a^2) erfc(a), and below x = _CF_SERIES_BELOW
        the series _CF_SERIES, which is exactly 1 at x = 0.  exp(a^2) is
        corrected by the rounding error of a*a (Veltkamp's split), which
        the cancellation in 1 - sqrt(pi) a erfcx(a) would magnify by 1/x^2.
        Other laws raise NotImplementedError."""
        scale, mode = self.scale_law, self.mode_law
        if not (isinstance(scale, Gamma) and scale.k == 2 and isinstance(mode, Gaussian) and mode.m == 0):
            raise NotImplementedError(f"no closed-form characteristic function for {self!r}")
        x = np.abs(np.asarray(t, dtype=float)) * (scale.lam * mode.sigma)
        cf = np.empty_like(x)
        small = x < _CF_SERIES_BELOW
        x2 = np.square(x[small])
        acc = np.full_like(x2, _CF_SERIES[-1])
        for c in _CF_SERIES[-2::-1]:
            acc *= x2
            acc += c
        cf[small] = acc
        x = x[~small]
        a = 1.0 / (_SQRT2 * x)
        a2 = a * a
        hi = _VELTKAMP * a
        hi -= hi - a
        lo = a - hi
        a2_err = (hi * hi - a2 + 2.0 * hi * lo) + lo * lo  # a*a - a2, exactly up to rounding
        erfcx = np.exp(a2) * (1.0 + a2_err) * _erfc(a)
        cf[~small] = (1.0 - math.sqrt(math.pi) * a * erfcx) / (x * x)
        return np.log(cf)


@dataclass(frozen=True)
class SeriesPrior:
    basis: object
    schedule: object
    law: object
    dilation: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.dilation <= 1.0:
            raise ValueError("dilation must lie in (0, 1]")
        if not isinstance(self.law, (IID, Hierarchical)):
            raise TypeError("law must be IID or Hierarchical")

    def coefficient_laws(self, N: int):
        """Per-slot marginal laws of the coefficients, or None.

        Available for IID laws because every supported family is closed
        under positive scaling; scale mixtures have no closed form.
        """
        if not isinstance(self.law, IID):
            return None
        w = self.dilation * coefficient_weights(self.basis, self.schedule, N)
        return [self.law.dist.scaled(float(c)) for c in w]


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Truncated series sample: coefficients over the window, in
    enumeration order, together with the signed indices and the basis."""

    basis: object
    truncation: int
    indices: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        idx = np.asarray(self.indices, dtype=int)
        if coeffs.shape != idx.shape:
            raise ValueError("indices and coefficients must align")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "indices", idx)


_CHUNK_VALUES = 1 << 20  # values per block of coefficient_chunks (8 MB)
_GROUP_VALUES = 1 << 15  # values per column group that one sample call draws (256 KB)
_FILL_THREADS = 2  # threads filling each block (_share_work): the caller's and one other


def _law_dists(law) -> tuple:
    """The slot's laws in stream-component order: the mode (or IID) law
    reads component 0 of the slot's stream, a hierarchical scale law
    component 1."""
    return (law.dist,) if isinstance(law, IID) else (law.mode_law, law.scale_law)


def _slot_streams(prior: SeriesPrior, seed: int, k: int) -> tuple:
    """The generators of the signed index k, one per law of the slot."""
    uid = prior.basis.slot_uid(int(k))
    return tuple(streams.substream(seed, streams.COEFFS, uid, c) for c in range(len(_law_dists(prior.law))))


def _share_work(work, items, scratch) -> list:
    """[work(item, own) for item in items], computed on the caller's thread
    and on one other thread: each takes the next item from the one shared
    iterator under a lock until it is empty, and own is the value that
    scratch() made for that thread, once per call.  Results are placed by
    the item's position, so each one has the bits that one thread alone
    computes.  A thread drops its item before it takes the next, so at
    most two items are alive at once, one per thread.  An exception from
    items or work stops both threads taking items and is raised once both
    have stopped; no thread outlives the call."""
    items, lock, results, errors = iter(items), threading.Lock(), [], []
    # both scratches come from the caller's thread, whose allocator holds
    # the memory the caller has freed (a drawn block, say): a first
    # allocation on the other thread takes fresh pages of its own malloc
    # arena, which would add to the peak RSS
    mine, theirs = scratch(), scratch()

    def run(own):
        try:
            while True:
                with lock:
                    if errors:
                        return
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    i = len(results)
                    results.append(None)
                results[i] = work(item, own)
                del item  # before the next one is made
        except BaseException as exc:  # raised by the caller after the join
            errors.append(exc)

    other = threading.Thread(target=run, args=(theirs,))
    other.start()
    try:
        run(mine)
    finally:
        other.join()
    if errors:
        raise errors[0]
    return results


def _one_thread(work, items, scratch) -> list:
    """_share_work on the caller's thread alone."""
    own = scratch()
    return [work(item, own) for item in items]


def _fill_columns(dists: tuple, gens: list, weights: np.ndarray, block: np.ndarray, share=_share_work) -> None:
    """Draw every slot into its column of block, a group of at most
    _GROUP_VALUES // len(block) columns (at least one), and at most a
    _FILL_THREADS-th of the slots, per item of share (two threads, or
    _one_thread); gens[c] holds every slot's generator of law dists[c]
    (see _law_dists).  One sample call per law draws a group: the mode
    (or IID) law into the group's columns of block and a hierarchical
    scale law into the leading columns of the thread's scratch group;
    then group *= scale and group *= weights, which is (xi * zeta) *
    weight, the bits of weight * (zeta * xi)."""
    rows, slots = block.shape
    width = max(1, min(-(-slots // _FILL_THREADS), _GROUP_VALUES // rows))

    def fill(a, scale):
        b = min(a + width, slots)
        group = dists[0].sample(gens[0][a:b], out=block[:, a:b])
        if scale is not None:
            group *= dists[1].sample(gens[1][a:b], out=scale[:, : b - a])
        group *= weights[a:b]

    share(fill, range(0, slots, width), lambda: np.empty((rows, width), order="F") if len(dists) > 1 else None)


def coefficient_chunks(prior: SeriesPrior, N: int, num_samples: int, seed: int):
    """Yield (start, block): rows start to start + len(block) of the
    sample_coefficients matrix, as F-order (rows, window size) arrays of
    _CHUNK_VALUES // window size rows, at least 1 (fewer in the last
    block).

    Stacked, the blocks equal sample_coefficients bit for bit; a caller
    that reduces each block never holds the whole matrix.  The caller's
    thread and one other fill a block's slot columns, each taking the
    next column group when it is done with its last (see Chunked
    sampling above).  An exception in either thread is raised once both
    have stopped, with no block for its rows.  The
    generator drops a block, and every view of it, before it
    allocates the next, so a caller that also drops it (del block at the
    end of its loop body, as the suites do) holds one block at a time,
    and the allocator can reuse its memory for the next.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    idx = prior.basis.window_indices(N)
    weights = prior.dilation * coefficient_weights(prior.basis, prior.schedule, N)
    dists = _law_dists(prior.law)
    gens = list(zip(*(_slot_streams(prior, seed, k) for k in idx)))  # per law, every slot's generator
    rows = max(1, _CHUNK_VALUES // len(idx))
    for start in range(0, num_samples, rows):
        block = np.empty((min(rows, num_samples - start), len(idx)), order="F")
        _fill_columns(dists, gens, weights, block)
        yield start, block
        del block


def sample_coefficients(prior: SeriesPrior, N: int, num_samples: int, seed: int) -> np.ndarray:
    """Matrix of coefficient draws, shape (num_samples, window size).

    Row i is the i-th field; column order is the enumeration order of the
    window.  Each index has its own stream, so the first row is the single
    sample for the same seed, and level M's matrix is the first columns of
    level N's for any N >= M.  The matrix is column-major, like the blocks
    of coefficient_chunks, and is the one block itself when a block holds
    every row.
    """
    out = None
    for start, block in coefficient_chunks(prior, N, num_samples, seed):
        if len(block) == num_samples:
            return block
        if out is None:
            out = np.empty((num_samples, block.shape[1]), order="F")
        out[start : start + len(block)] = block
    return out


def sample_field(prior: SeriesPrior, N: int, seed: int) -> FieldSample:
    """One truncated draw from the prior; deterministic in (prior, N, seed)."""
    coeffs = sample_coefficients(prior, N, 1, seed)[0]
    return FieldSample(prior.basis, N, prior.basis.window_indices(N), coeffs)


def project(u: FieldSample, M: int) -> FieldSample:
    """Restrict a sample to the window at level M <= truncation.

    Coefficients outside the target window are dropped (their
    contribution is zero); the result is idempotent under further
    projection and never changes surviving coefficients.
    """
    if M > u.truncation:
        raise ValueError("cannot refine by projection: target window exceeds the sample's")
    wanted = u.basis.window_indices(M)
    return FieldSample(u.basis, M, wanted, u.coefficients[: len(wanted)].copy())


def evaluate_field(u: FieldSample, x) -> np.ndarray:
    """Pointwise values sum_k c_k x_k(x)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k, c in zip(u.indices, u.coefficients):
        out = out + c * u.basis.evaluate(int(k), x)
    return out


def field_to_csv(u: FieldSample) -> str:
    buf = io.StringIO()
    buf.write("index,coefficient\n")
    for k, c in zip(u.indices, u.coefficients):
        buf.write(f"{int(k)},{float(c)!r}\n")
    return buf.getvalue()


@dataclass(frozen=True)
class AdmissibilityReport:
    gamma_partial_lp: float
    var_partial_lq: float
    gamma_cauchy: bool
    var_cauchy: bool
    conjugate_ok: bool
    passed: bool
    heuristic: bool = True


def _admissibility_partial_sums(gamma_sq, var_abs, p: float, q: float) -> AdmissibilityReport:
    """Partial-sum admissibility check on explicit sequences.

    gamma_sq is the sequence of squared decay weights, var_abs the
    sequence Var|xi_k|.  The check is heuristic: a sequence counts as
    summable when the last doubling of the partial sum moved it by less
    than 1e-6 relatively.  q may be inf, in which case the variance side
    reports the supremum and counts as bounded.  passed needs both sides
    summable and conjugate exponents, 1/p + 1/q = 1.
    """
    if not (p >= 1 and q >= 1):
        raise ValueError("exponents must satisfy p >= 1 and q >= 1")
    gamma_sq = np.asarray(gamma_sq, dtype=float)
    var_abs = np.asarray(var_abs, dtype=float)

    def cauchy(seq, power):
        full = float(np.sum(seq**power))
        half = float(np.sum(seq[: max(1, len(seq) // 2)] ** power))
        return full, full > 0 and (full - half) < 1e-6 * full

    gamma_sum, gamma_ok = cauchy(gamma_sq, p)
    if math.isinf(q):
        var_sum, var_ok = float(np.max(var_abs)), True
    else:
        var_sum, var_ok = cauchy(var_abs, q)
    conj = abs((1.0 / p) + (0.0 if math.isinf(q) else 1.0 / q) - 1.0) <= 1e-12
    return AdmissibilityReport(gamma_sum, var_sum, gamma_ok, var_ok, conj, gamma_ok and var_ok and conj)


def _coefficient_abs_variance(law) -> float:
    """Var|xi| for the coefficient law, by quadrature of the marginals."""
    if isinstance(law, IID):
        return second_moment(law.dist) - abs_mean(law.dist) ** 2
    e2 = second_moment(law.scale_law) * second_moment(law.mode_law)
    e1 = abs_mean(law.scale_law) * abs_mean(law.mode_law)
    return e2 - e1 * e1


def admissibility_check(prior: SeriesPrior, p: float, q: float, K: int) -> AdmissibilityReport:
    """Admissibility of the prior's weight and variance sequences up to K terms."""
    if K < 2:
        raise ValueError("K must be at least 2")
    N = K if not isinstance(prior.basis, FourierCircle) else (K + 1) // 2  # the first K slots
    weights = coefficient_weights(prior.basis, prior.schedule, N)[:K]
    var = _coefficient_abs_variance(prior.law)
    return _admissibility_partial_sums(weights**2, np.full(K, var), p, q)


@dataclass(frozen=True)
class ExpMomentReport:
    estimate: float
    stderr: float
    doubling_drift: float
    saturated: bool
    flagged: bool


def estimate_exp_moment(
    prior: SeriesPrior, eps: float, N: int, num_samples: int, seed: int, drift_tol: float = 0.02
) -> ExpMomentReport:
    """Monte Carlo estimate of E exp(eps * ||u||) at truncation N.

    doubling_drift compares the estimate against the first half of the
    sample and flags slow stabilization; overflowing weights set the
    saturated flag instead of raising.  A flagged report means the
    exponential moment shows no sign of being finite at this effort, not
    a proof either way.

    The draws stream through coefficient_chunks one block at a time, and
    each block's squared coefficients are added column by column, left to
    right, which is the order numpy sums the rows of the whole
    column-major sample matrix in (a one-row block alone would be summed
    pairwise).
    """
    if num_samples < 2:
        raise ValueError("num_samples must be at least 2")
    norms = np.empty(num_samples)
    for start, block in coefficient_chunks(prior, N, num_samples, seed):
        acc = norms[start : start + len(block)]
        sq = np.empty(len(block))
        np.multiply(block[:, 0], block[:, 0], out=acc)
        for j in range(1, block.shape[1]):
            acc += np.multiply(block[:, j], block[:, j], out=sq)
        del block  # one block at a time (see coefficient_chunks)
    np.sqrt(norms, out=norms)
    with np.errstate(over="ignore"):
        w = np.exp(eps * norms)
    saturated = bool(np.any(~np.isfinite(w)))
    if saturated:
        return ExpMomentReport(math.inf, math.inf, math.inf, True, True)
    est = float(np.mean(w))
    half = float(np.mean(w[: num_samples // 2]))
    drift = abs(est - half) / est if est > 0 else math.inf
    stderr = float(np.std(w) / math.sqrt(num_samples))
    return ExpMomentReport(est, stderr, drift, False, drift >= drift_tol)


@dataclass(frozen=True)
class MarginalConvexityReport:
    lhs: float
    rhs: float
    lhs_stderr: float
    rhs_stderr: float
    margin: float
    combined_stderr: float
    passed: bool


def _normalize_functionals(functionals):
    norm = []
    for f in functionals:
        if not isinstance(f, dict):
            raise TypeError(f"each functional must be an {{index: weight}} dict, not {f!r}")
        pairs = [(int(k), float(w)) for k, w in f.items()]
        if not 1 <= len(pairs) <= 2:
            raise ValueError("each functional must use one or two coordinates")
        norm.append(pairs)
    if not 1 <= len(norm) <= 2:
        raise ValueError("at most two functionals are supported")
    return norm


def _convexity_judge(c: tuple, a: tuple, b: tuple, lam: float) -> MarginalConvexityReport:
    """Judge P(C) >= P(A)^lam * P(B)^(1-lam) on the (probability, stderr)
    pairs c, a and b of boxes C, A and B: the right side's delta-method
    stderr is 0 when P(A) or P(B) is 0, and the check passes at a margin
    P(C) - rhs of at least -3 combined stderr."""
    (p_c, se_c), (p_a, se_a), (p_b, se_b) = c, a, b
    rhs = p_a**lam * p_b ** (1.0 - lam)
    if p_a > 0 and p_b > 0:
        se_rhs = rhs * math.sqrt((lam * se_a / p_a) ** 2 + ((1.0 - lam) * se_b / p_b) ** 2)
    else:
        se_rhs = 0.0
    combined = math.sqrt(se_c**2 + se_rhs**2)
    margin = p_c - rhs
    return MarginalConvexityReport(p_c, rhs, se_c, se_rhs, margin, combined, margin >= -3.0 * combined)


def _box_array(box, dim):
    box = np.asarray(box, dtype=float).reshape(dim, 2)
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("boxes must have positive volume")
    return box


def marginal_convexity_test(
    prior: SeriesPrior,
    functionals,
    box_a,
    box_b,
    lam: float,
    N: int,
    num_samples: int,
    seed: int,
) -> MarginalConvexityReport:
    """Monte Carlo check of the convexity inequality on a low-dimensional
    marginal of the prior.

    The marginal is the joint law of up to two linear functionals of the
    coefficients, each an {index: weight} dict over one or two window
    indices.  With boxes A and B and their Minkowski combination
    C = lam*A + (1-lam)*B the check passes when P(C) >= P(A)^lam *
    P(B)^(1-lam) - 3 * combined stderr, all three box probabilities read
    off one value vector per functional, summed from its terms' columns:
    each drawn by _fill_columns as coefficient_chunks draws it, times the
    term's weight.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie strictly between 0 and 1")
    funcs = _normalize_functionals(functionals)
    dim = len(funcs)
    A = _box_array(box_a, dim)
    B = _box_array(box_b, dim)
    index_pos = {int(k): i for i, k in enumerate(prior.basis.window_indices(N))}
    terms = [t for f in funcs for t in f]  # one column per term: a repeated index draws the same bits again
    for k, _ in terms:
        if k not in index_pos:
            raise ValueError(f"functional index {k} outside window at level {N}")
    weights = prior.dilation * coefficient_weights(prior.basis, prior.schedule, N)[[index_pos[k] for k, _ in terms]]
    gens = list(zip(*(_slot_streams(prior, seed, k) for k, _ in terms)))
    cols = np.empty((num_samples, len(terms)), order="F")
    _fill_columns(_law_dists(prior.law), gens, weights, cols, _one_thread)
    cols *= [w for _, w in terms]  # (xi * zeta) * weight * w
    vals, t = [], 0  # one value vector per functional, its terms' columns added in order
    for f in funcs:
        for j in range(t + 1, t + len(f)):
            cols[:, t] += cols[:, j]
        vals.append(cols[:, t])
        t += len(f)

    def box_prob(box):
        inside = np.ones(num_samples, dtype=bool)
        for v, (lo, hi) in zip(vals, box):
            inside &= (v >= lo) & (v <= hi)
        p = float(np.mean(inside))
        return p, math.sqrt(max(p * (1.0 - p), 0.0) / num_samples)

    return _convexity_judge(box_prob(lam * A + (1.0 - lam) * B), box_prob(A), box_prob(B), lam)
