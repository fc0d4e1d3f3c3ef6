"""One-dimensional log-concave probability measures.

The catalog covers the laws used as coefficient distributions for random
series: Gaussian N(m, sigma^2), Exponential(lam) with density
lam*exp(-lam*x) on [0, inf), Laplace(m, sigma) with density
exp(-|x - m|/sigma)/(2*sigma), Logistic(m, s), Gamma(k, lam) in the shape,
scale parameterization (mean k*lam) restricted to k >= 1, and Uniform(a, b).
Every density here is log-concave, so each law is a convex measure: for
intervals A, B and lam in [0, 1],

    mu(lam*A + (1-lam)*B) >= mu(A)**lam * mu(B)**(1-lam),

where the left side uses the Minkowski combination of intervals.

The log density is what defines a law here, so each law states its log
density and its CDF once, on float arrays; Distribution1D derives the
density as exp(log density), returns a float for a scalar input and NaN
for a NaN input.  The Gaussian and Laplace laws centred at 0 also state
their log characteristic function once (_log_cf), for the exact
truncation distances of the posterior module.  The module also provides
exact samplers driven by explicit streams, a grid-based log-concavity
checker, and interval masses from CDF differences, on which the
convexity suite's closed-form oracles are computed.

Samplers consume explicit generators (see streams) through the one
Distribution1D.sample, which states the sampler contract: a tuple of
generators fills a 2-D F-order array, one column each, and a law only
turns uniforms into its draws in place (_transform), or reads its own
variates from the stream (_draw).  A law has no scaled copy: a slot's
scale multiplies the unit law's draws (see series_prior).  Uniform,
Exponential, Laplace and Logistic use inverse-CDF transforms of
uniforms and integer-shape Gamma a sum of exponentials; Gaussian draws
its normals from streams.normals and non-integer-shape Gamma calls
Generator.standard_gamma (Marsaglia-Tsang), both numpy samplers whose
output numpy may change between releases (NEP 19).

The CDFs are closed forms in numpy and math: Gaussian through math.erfc,
integer-shape Gamma through Poisson sums (_integer_gamma_cdf).  Only a
non-integer Gamma shape loads scipy, for scipy.special.gammainc.

The moment helpers abs_mean and second_moment integrate against the
density with one fixed Gauss-Legendre rule per knot piece of the support
clipped to its 1e-15 quantiles; the rule is computed once per node count
by Newton's method on the Legendre recurrence (_gauss_legendre) and
shared with the posterior quadrature grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import streams

__all__ = [
    "Distribution1D",
    "Gaussian",
    "Exponential",
    "Laplace",
    "Logistic",
    "Gamma",
    "Uniform",
    "LogConcavityReport",
    "check_log_concavity",
    "interval_probability",
    "quantile_interval",
    "abs_mean",
    "second_moment",
]

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


def _erfc(t: np.ndarray):
    """math.erfc elementwise over a float array; a float for a 0-d one."""
    if t.ndim == 0:
        return math.erfc(t)
    return np.fromiter(map(math.erfc, t.ravel().tolist()), float, t.size).reshape(t.shape)


def _evaluate(fn, x):
    """fn on x as a float array, NaN wherever x is NaN; a float for a
    0-d x, else an array of x's shape."""
    x = np.asarray(x, dtype=float)
    res = fn(x)
    nan = np.isnan(x)
    if nan.any():
        res = np.where(nan, np.nan, res)
    return float(res) if x.ndim == 0 else res


def _columns(gens, x: np.ndarray):
    """x as a (len(gens), rows) view: row j is the group's column j."""
    return x.reshape(len(gens), len(x) // len(gens))


_TINY = np.finfo(float).tiny
_SIGN_BIT = np.uint64(1 << 63)


def _softplus(t):
    # log(1 + exp(t)) without overflow for large |t|
    return np.where(t > 0, t + np.log1p(np.exp(-np.abs(t))), np.log1p(np.exp(-np.abs(t))))


class Distribution1D:
    """Base for the one-dimensional laws; subclasses are frozen values.

    A law states its log density and CDF once, as _log_density and _cdf
    on float arrays.  density, log_density and cdf take a scalar or an
    array: a float for a 0-d input, else an array of the input's shape,
    and NaN wherever the input is NaN, whatever the law.  Every law's
    __post_init__ first refuses a NaN or infinite parameter here."""

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{type(self).__name__} parameter {f.name} must be finite")

    def density(self, x):
        """exp(log density)."""
        return _evaluate(lambda t: np.exp(self._log_density(t)), x)

    def log_density(self, x):
        return _evaluate(self._log_density, x)

    def cdf(self, x):
        return _evaluate(self._cdf, x)

    def _log_density(self, x: np.ndarray):
        raise NotImplementedError

    def _cdf(self, x: np.ndarray):
        raise NotImplementedError

    def sample(self, gens: tuple, out: np.ndarray) -> np.ndarray:
        """Exact draws into out, a 2-D F-order float64 array, column j from
        gens[j] of the tuple gens, with the bits of a group of one; returns
        out, and refuses any other gens or out with ValueError.  Every law
        draws through this one method: one generator call per column reads
        its stream draw by draw, so a stream continued call by call gives
        the draws of one call, then the law's transform runs over out once."""
        if not (isinstance(gens, tuple) and np.shape(out)[1:] == (len(gens),) and out.flags.f_contiguous):
            raise ValueError("gens must be a tuple, and out 2-D F-order with one column per generator")
        self._draw(gens, out.reshape(-1, order="F", copy=False))
        return out

    def _draw(self, gens: tuple, x: np.ndarray) -> None:
        """Fill x, the flat F-order group, column j from gens[j]: by
        default uniforms, then the law's in-place _transform."""
        for g, col in zip(gens, _columns(gens, x)):
            g.random(out=col)
        self._transform(x)

    def _transform(self, x: np.ndarray) -> None:
        raise NotImplementedError

    def _log_cf(self, t):
        """log E cos(tX) on a float array t, for a law symmetric about 0,
        whose characteristic function is then real, even and positive
        where stated; exactly 0.0 at t = 0.  A law with no closed form
        here, or not centred at 0, raises NotImplementedError."""
        raise NotImplementedError(f"no closed-form characteristic function for {self!r}")

    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class Gaussian(Distribution1D):
    m: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def _log_density(self, x):
        z = (x - self.m) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - 0.5 * _LOG_2PI

    def _cdf(self, x):
        # the erfc form keeps its relative accuracy in the lower tail
        z = (x - self.m) / self.sigma
        return 0.5 * _erfc(-z / _SQRT2)

    def _draw(self, gens, x):
        for g, col in zip(gens, _columns(gens, x)):
            streams.normals(g, col.shape, out=col)
        x *= self.sigma
        x += self.m

    def _log_cf(self, t):
        if self.m != 0:
            return super()._log_cf(t)
        return -0.5 * np.square(self.sigma * t)


@dataclass(frozen=True)
class Exponential(Distribution1D):
    lam: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.lam > 0:
            raise ValueError("lam must be positive")

    def _log_density(self, x):
        return np.where(x >= 0, math.log(self.lam) - self.lam * x, -np.inf)

    def _cdf(self, x):
        return np.where(x >= 0, -np.expm1(-self.lam * np.maximum(x, 0.0)), 0.0)

    def _transform(self, x):
        np.log1p(np.negative(x, out=x), out=x)
        np.negative(x, out=x)
        x /= self.lam

    def support(self):
        return (0.0, math.inf)


@dataclass(frozen=True)
class Laplace(Distribution1D):
    m: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def _log_density(self, x):
        return -np.abs(x - self.m) / self.sigma - math.log(2.0 * self.sigma)

    def _cdf(self, x):
        z = (x - self.m) / self.sigma
        return np.where(z < 0, 0.5 * np.exp(np.minimum(z, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)))

    def _transform(self, x):
        # m - sigma*sign(q)*L for q = u - 0.5 and L = log(max(1 - 2|q|, tiny)),
        # op by op.  sigma*sign(q)*L is sigma*L with q's sign bit XORed in:
        # exact, since rounding is sign-symmetric, and +0 at q = +0 (q is
        # never -0).  np.sign in place runs a branchy scalar loop and
        # np.copysign is several times slower than the two integer passes.
        x -= 0.5
        r = np.abs(x)
        r *= 2.0
        np.subtract(1.0, r, out=r)
        np.log(np.maximum(r, _TINY, out=r), out=r)
        r *= self.sigma
        bits = x.view(np.uint64)
        np.bitwise_and(bits, _SIGN_BIT, out=bits)
        np.bitwise_xor(bits, r.view(np.uint64), out=bits)
        np.subtract(self.m, x, out=x)

    def _log_cf(self, t):
        if self.m != 0:
            return super()._log_cf(t)
        return -np.log1p(np.square(self.sigma * t))


@dataclass(frozen=True)
class Logistic(Distribution1D):
    m: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.s > 0:
            raise ValueError("s must be positive")

    def _log_density(self, x):
        z = (x - self.m) / self.s
        return -z - math.log(self.s) - 2.0 * _softplus(-z)

    def _cdf(self, x):
        z = (x - self.m) / self.s
        return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))), np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))

    def _transform(self, x):
        np.maximum(x, _TINY, out=x)
        x /= np.subtract(1.0, x)
        np.log(x, out=x)
        x *= self.s
        x += self.m


@dataclass(frozen=True)
class Gamma(Distribution1D):
    """Gamma(k, lam) with shape k >= 1 and scale lam, so the mean is k*lam.

    The restriction k >= 1 keeps the density log-concave; construction
    rejects smaller shapes.
    """

    k: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.k >= 1:
            raise ValueError("shape k must be at least 1 for log-concavity")
        if not self.lam > 0:
            raise ValueError("lam must be positive")

    def _log_density(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = (
                (self.k - 1.0) * np.log(np.where(x > 0, x, 1.0))
                - x / self.lam
                - math.lgamma(self.k)
                - self.k * math.log(self.lam)
            )
        res = np.where(x > 0, inside, -np.inf)
        if self.k == 1.0:
            res = np.where(x == 0, -math.log(self.lam), res)
        return res

    def _cdf(self, x):
        t = np.maximum(x, 0.0) / self.lam
        if float(int(self.k)) == self.k and self.k <= _POISSON_MAX_K:
            return _integer_gamma_cdf(int(self.k), t)
        from scipy.special import gammainc

        return gammainc(self.k, t)

    def _draw(self, gens, x):
        k_int = int(self.k)
        if float(k_int) == self.k:
            # column j's (rows, k) uniforms are u[j], and its draws xt[j]
            xt = _columns(gens, x)
            u = np.empty(xt.shape + (k_int,))
            for g, uj in zip(gens, u):
                g.random(out=uj)
            np.log1p(np.negative(u, out=u), out=u)
            if k_int < 8:
                # numpy sums rows shorter than 8 left to right, so adding
                # the columns in turn gives its bits without a strided reduction
                np.negative(u[:, :, 0], out=xt)
                for j in range(1, k_int):
                    xt -= u[:, :, j]
            else:
                np.sum(np.negative(u, out=u), axis=2, out=xt)
        else:
            for g, col in zip(gens, _columns(gens, x)):
                g.standard_gamma(self.k, len(col), out=col)
        x *= self.lam

    def support(self):
        return (0.0, math.inf)


# Above this shape the Poisson weight e^-t of _integer_gamma_cdf could
# underflow where the lower sum still matters (t > 745 needs k > ~500).
_POISSON_MAX_K = 256


def _integer_gamma_cdf(k: int, t: np.ndarray) -> np.ndarray:
    """P(k, t) for integer k through the Poisson weights p_j = e^-t t^j / j!.

    Where t < k the CDF is the upper Poisson tail sum_{j >= k} p_j, summed
    until its terms stop adding; elsewhere it is 1 - sum_{j < k} p_j, a
    value of at least about 1/2, so the subtraction costs no relative
    accuracy.  The result keeps its relative accuracy down to the smallest
    probabilities, where 1 - Q(k, t) would cancel."""
    shape = np.shape(t)
    t = np.minimum(np.ravel(t), np.finfo(float).max)  # no 0 * inf at t = inf
    p = np.exp(-t)
    below = np.zeros_like(t)
    for j in range(k):
        below += p
        p *= t / (j + 1)
    low = t < k
    tl, term = t[low], p[low]
    tail = np.zeros_like(tl)
    j = k
    while np.any(term > 2.0**-53 * tail):
        tail += term
        j += 1
        term *= tl / j
    out = 1.0 - below
    out[low] = tail
    return out.reshape(shape)


@dataclass(frozen=True)
class Uniform(Distribution1D):
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.b > self.a:
            raise ValueError("b must exceed a")

    def _log_density(self, x):
        return np.where((x >= self.a) & (x <= self.b), -math.log(self.b - self.a), -np.inf)

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def _transform(self, x):
        x *= self.b - self.a
        x += self.a

    def support(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class LogConcavityReport:
    passed: bool
    max_second_difference: float
    num_checked: int
    num_skipped: int


def check_log_concavity(d: Distribution1D, grid, tol: float = 1e-8) -> LogConcavityReport:
    """Check concavity of the log density along a strictly increasing grid.

    For each interior grid point the scaled second difference

        h_left * ((L_next - L_mid)/h_right - (L_mid - L_prev)/h_left)

    is formed; on a uniform grid this is the plain centered second
    difference of the log density.  The check passes when every value is
    at most ``tol``.  Grid points outside the support contribute no
    triple and are counted as skipped rather than failed, and a kink like
    the Laplace center passes because its one-sided slopes decrease.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError("grid must be one-dimensional with at least 3 points")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    logp = np.asarray(d.log_density(grid), dtype=float)
    finite = np.isfinite(logp)
    i = np.flatnonzero(finite[:-2] & finite[1:-1] & finite[2:]) + 1  # centres of finite triples
    num_skipped = len(grid) - 2 - len(i)
    if len(i) == 0:
        return LogConcavityReport(True, -math.inf, 0, num_skipped)
    h = np.diff(grid)
    worst = np.max((logp[i + 1] - logp[i]) * h[i - 1] / h[i] - (logp[i] - logp[i - 1]))
    return LogConcavityReport(worst <= tol, worst, len(i), num_skipped)


def interval_probability(d: Distribution1D, lo: float, hi: float) -> float:
    """Mass of [lo, hi] from CDF differences."""
    if hi < lo:
        raise ValueError("interval endpoints out of order")
    return float(d.cdf(hi)) - float(d.cdf(lo))


def quantile_interval(d: Distribution1D, p_lo: float = 1e-12, p_hi: float = 1.0 - 1e-12):
    """Interval [x_lo, x_hi] with cdf(x_lo) <= p_lo and cdf(x_hi) >= p_hi.

    Bisection against the CDF; used to place quadrature boxes.  A step
    is a function of (a, b) alone, so bisection stops at the first step
    that leaves (a, b) unchanged, with the bits that 200 steps give
    (60 to 85 steps at the 1e-12 and 1e-15 tails).
    """
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
                if mid == a:
                    break
                a = mid
            elif mid == b:
                break
            else:
                b = mid
        return 0.5 * (a + b)

    return solve(p_lo), solve(p_hi)


def _split_points(d: Distribution1D):
    pts = []
    for attr in ("m", "a", "b"):
        v = getattr(d, attr, None)
        if v is not None:
            pts.append(float(v))
    return pts


@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int):
    """Read-only Gauss-Legendre nodes (ascending) and weights on [-1, 1],
    computed once per node count.

    Newton's method on P_n(cos theta) finds the nodes x = cos theta of the
    right half, from Tricomi's initial guess; P_n and P_(n-1) come from the
    three-term recurrence, O(n) per node.  Working in theta keeps
    1 - x^2 = sin^2 theta accurate next to the end points, and the left half
    is the mirror image (Hale and Townsend, SIAM J. Sci. Comput. 2013)."""
    n = int(nodes)
    if n < 1:
        raise ValueError("nodes must be positive")
    k = np.arange(1, n // 2 + 1)
    phi = math.pi * (4 * k - 1) / (4 * n + 2)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n**3)) * np.cos(phi))
    converged = False
    for _ in range(100):
        x, s = np.cos(theta), np.sin(theta)
        pn, pm, t = x.copy(), np.ones_like(x), np.empty_like(x)  # P_j, P_(j-1) from j = 1
        for j in range(1, n):
            np.multiply(x, pn, out=t)
            t *= (2 * j + 1) / (j + 1)
            pm *= j / (j + 1)
            t -= pm
            pm, pn, t = pn, t, pm
        dp = n * (pm - x * pn)  # n (P_(n-1) - x P_n) = -sin(theta) dP_n/dtheta
        if converged:
            break
        step = pn * s / dp
        theta += step
        converged = not np.any(np.abs(step) > 1e-10)
    else:
        raise RuntimeError("Gauss-Legendre nodes did not converge")
    half_w = 2.0 * (s / dp) ** 2  # 2 / ((1 - x^2) P_n'(x)^2) at the converged node
    mid_x, mid_w = np.empty(0), np.empty(0)
    if n % 2:
        p0 = 1.0  # P_(n-1)(0) by the recurrence at x = 0, for the middle node
        for j in range(1, n - 1, 2):
            p0 *= -j / (j + 1)
        mid_x, mid_w = np.zeros(1), np.array([2.0 / (n * p0) ** 2])
    x = np.concatenate([-x, mid_x, x[::-1]])
    w = np.concatenate([half_w, mid_w, half_w[::-1]])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


_MOMENT_NODES = 256  # Gauss-Legendre nodes per knot piece of a moment integral


def _expectation(d: Distribution1D, fn) -> float:
    lo, hi = quantile_interval(d, 1e-15, 1.0 - 1e-15)
    inner = sorted(p for p in _split_points(d) + [0.0] if lo < p < hi)
    knots = [lo] + inner + [hi]
    x, w = _gauss_legendre(_MOMENT_NODES)
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        pts = 0.5 * (b - a) * (x + 1.0) + a
        total += 0.5 * (b - a) * float(np.sum(w * fn(pts) * d.density(pts)))
    return total


def abs_mean(d: Distribution1D) -> float:
    """E|X| by Gauss-Legendre quadrature on the support's knot pieces."""
    return _expectation(d, np.abs)


def second_moment(d: Distribution1D) -> float:
    """E[X^2] by Gauss-Legendre quadrature on the support's knot pieces."""
    return _expectation(d, np.square)
