"""Negative log-likelihood potentials and their regularity audits.

The central potential is the Gaussian additive-noise misfit

    Phi(u; y) = 0.5 * || Gamma^(-1/2) (G(u) - y) ||^2,

optionally evaluated through a window projection so that
Phi_N(u; y) = Phi(P_N u; y).  GaussianAdditive.misfit is the one kernel
for this formula: the scalar, batched and data-varied evaluations and the
verification suites all call it.  Scalar noise (Gamma = sigma2 * I) needs
only numpy.  A dense Gamma loads scipy.linalg at construction, which
computes L^-1 (Gamma = L L^T) once.

On a 2-D batch of forward outputs, a scalar-noise misfit works column by
column: it subtracts the data, squares in place and adds the column into a
running sum, left to right, with no batch-sized residual held.  A row's
value so depends on neither the layout nor the row count of the batch
(np.sum would sum a one-row batch in its pairwise order); column-major
(order="F") batches are the fast path, and the suites allocate theirs
that way.  A dense-noise residual is whitened into row-major order and
summed along each row by np.sum.  The data may be one vector or one row
per forward output.

Shifting the data is an exact update of the residual r = G(u) - y:

    Phi(u; y + s) = Phi(u; y) - <L^-1 r, L^-1 s> + 0.5 ||L^-1 s||^2,

the stability bound in the data written as an identity.  misfit_delta
returns the last two terms from r and s: the quadratic one is misfit(s, 0)
and the cross term one matrix-vector product of r with Gamma^-1 s, so
dense noise whitens s (twice, as Gamma^-1 = L^-T L^-1) and never the batch
of residuals.  The suites subtract the data from their forward buffer in
place, take the unperturbed potential as misfit(r, zero data vector),
which has the bits of misfit(G(u), y), and each perturbed one as one
misfit_delta added to it.

evaluate_with_data takes one input and one data vector, or an (n, dim)
batch of inputs with an (n, data_dim) batch of data, evaluated through
apply_many and one misfit call.  A batched forward map (a matrix product)
rounds differently from the one-vector product, so the two forms agree to
rounding, not bit for bit.

A multiplicative-noise potential is also provided: Phi(u; y) = log||u||
when ||u|| < y and +inf otherwise.  It is deliberately irregular
(unbounded below along shrinking inputs, and unbounded above once the
data may fall below the input norm) and exists so the audit has something
to flag.

assumption_audit probes four regularity items on balls of radius r:
a lower bound (item "lower_bound"), boundedness above over inputs and
data in the ball ("bounded_above"), a Lipschitz constant in the input
("lipschitz_u", reported, never flagged by sampling alone), and data
continuity ("data_continuity", reported as a log-constant).  Sampling can
certify violations, not satisfaction; reported constants are empirical.
The shrinking rays behind the lower-bound flag are probed point by point
with evaluate; the ball samples, the Lipschitz pairs and the data pairs
are each one batched evaluate_many or evaluate_with_data call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import streams
from .forward_models import _finite

__all__ = [
    "GaussianAdditive",
    "MultiplicativeUniform",
    "CustomPotential",
    "AuditReport",
    "assumption_audit",
]


def _data_vector(y, m: int) -> np.ndarray:
    y = _finite(y, "data").reshape(-1)
    if len(y) != m:
        raise ValueError("data length does not match the model")
    return y


@dataclass(frozen=True, eq=False)
class GaussianAdditive:
    """Quadratic data misfit with noise covariance Gamma (a float means
    Gamma = sigma2 * I) and optional window projection of the input.

    Every evaluation goes through misfit(), the package's one Gaussian
    misfit kernel; the verification suites call it directly on forward
    outputs they have already computed."""

    model: object
    noise: object
    y: np.ndarray
    proj_level: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "y", _data_vector(self.y, self.model.data_dim))
        m = self.model.data_dim
        if np.ndim(self.noise) == 0:
            s2 = float(self.noise)
            if not 0 < s2 < math.inf:
                raise ValueError("noise variance must be positive and finite")
            white = None
        else:
            G = np.asarray(self.noise, dtype=float)
            if G.shape != (m, m) or np.max(np.abs(G - G.T)) > 1e-12 * np.max(np.abs(G)):
                raise ValueError("noise covariance must be symmetric (m, m)")
            from scipy.linalg import cholesky, solve_triangular

            L = cholesky(G, lower=True)  # raises LinAlgError unless SPD
            s2, white = 1.0, solve_triangular(L, np.eye(m), lower=True)
        object.__setattr__(self, "_s2", s2)
        object.__setattr__(self, "_white", white)
        if self.proj_level is not None:
            mask = np.zeros(self.model.dim)
            mask[self.model.window_positions(self.proj_level)] = 1.0
            object.__setattr__(self, "_mask", mask)
        else:
            object.__setattr__(self, "_mask", None)

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def data_dim(self) -> int:
        return self.model.data_dim

    def misfit(self, fwd, y) -> np.ndarray:
        """0.5 * ||L^-1 (fwd - y)||^2 along the last axis of the forward
        outputs, with Gamma = L L^T.  Scalar noise divides the squared
        residual by sigma2 instead of whitening it.  A 2-D batch is summed
        as the module docstring says."""
        if np.ndim(fwd) != 2:
            r = fwd - y
            if self._white is not None:
                r = r @ self._white.T
            return 0.5 * np.sum(r * r, axis=-1) / self._s2
        if self._white is None:
            y = np.asarray(y)
            out = np.subtract(fwd[:, 0], y[..., 0])
            out *= out
            col = np.empty_like(out)
            for j in range(1, fwd.shape[1]):
                np.subtract(fwd[:, j], y[..., j], out=col)
                col *= col
                out += col
        else:
            r = np.subtract(fwd, y, order="C") @ self._white.T
            np.multiply(r, r, out=r)
            out = r.sum(axis=1)
        out *= 0.5
        out /= self._s2
        return out

    def misfit_delta(self, r, s):
        """Phi(u; y + s) - Phi(u; y) from the residual r = G(u) - y of one
        forward output or a 2-D batch of them: the exact identity
        0.5 ||L^-1 s||^2 - <L^-1 r, L^-1 s>.  The quadratic term is
        misfit(s, 0); the cross term <r, t>, t = Gamma^-1 s (s / sigma2 for
        scalar noise), is one matrix-vector product over the span of
        columns where t is nonzero, so a batch of residuals is never
        whitened or copied, and a shift along one data coordinate reads one
        column."""
        s = _data_vector(s, self.data_dim)
        t = s / self._s2 if self._white is None else self._white.T @ (self._white @ s)
        nz = np.flatnonzero(t)
        span = slice(nz[0], nz[-1] + 1) if len(nz) else slice(0, 0)
        out = np.dot(r[..., span], -t[span])
        out += self.misfit(s, 0.0)
        return out

    def _projected(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        return coeffs if self._mask is None else coeffs * self._mask

    def evaluate(self, coeffs) -> float:
        return float(self.misfit(self.model.apply(self._projected(coeffs)), self.y))

    def evaluate_many(self, coeffs: np.ndarray) -> np.ndarray:
        return self.misfit(self.model.apply_many(self._projected(coeffs)), self.y)

    def evaluate_with_data(self, coeffs, y):
        """Phi(u; y) for one input and data vector, or the (n,) values for
        an (n, dim) batch of inputs with an (n, data_dim) batch of data."""
        if np.ndim(coeffs) == 2:
            ys = _finite(y, "data")
            if ys.shape != (len(coeffs), self.data_dim):
                raise ValueError(f"expected ({len(coeffs)}, {self.data_dim}) data for the batch")
            return self.misfit(self.model.apply_many(self._projected(coeffs)), ys)
        y = _data_vector(y, self.data_dim)
        return float(self.misfit(self.model.apply(self._projected(coeffs)), y))


@dataclass(frozen=True)
class MultiplicativeUniform:
    """log||u|| below the data threshold, +inf at or above it."""

    y: float
    dim: int = 4

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError("threshold must be positive")
        if self.dim < 1:
            raise ValueError("dim must be positive")

    @property
    def data_dim(self) -> int:
        return 1

    def evaluate(self, coeffs) -> float:
        return self.evaluate_with_data(coeffs, self.y)

    def evaluate_many(self, coeffs: np.ndarray) -> np.ndarray:
        return self.evaluate_with_data(coeffs, np.full((len(coeffs), 1), self.y))

    def evaluate_with_data(self, coeffs, y):
        """Scalar form, or an (n, dim) batch with an (n, 1) batch of
        thresholds, one per row."""
        if np.ndim(coeffs) == 2:
            coeffs = np.asarray(coeffs, dtype=float)
            ys = np.asarray(y, dtype=float)
            if ys.shape != (len(coeffs), 1):
                raise ValueError(f"expected ({len(coeffs)}, 1) thresholds for the batch")
            norms = np.sqrt(np.sum(coeffs * coeffs, axis=1))
            with np.errstate(divide="ignore"):
                return np.where(norms < ys[:, 0], np.log(norms), np.inf)
        norm = float(np.linalg.norm(np.asarray(coeffs, dtype=float)))
        y = float(np.asarray(y).reshape(()))
        if norm >= y:
            return math.inf
        return math.log(norm) if norm > 0 else -math.inf


@dataclass(frozen=True, eq=False)
class CustomPotential:
    """User-supplied potential on coefficient vectors of a fixed dimension."""

    fn: Callable
    dim: int
    batch_fn: Callable | None = None

    @property
    def data_dim(self) -> int:
        return 0

    def evaluate(self, coeffs) -> float:
        return float(self.fn(np.asarray(coeffs, dtype=float)))

    def evaluate_many(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(coeffs), dtype=float)
        return np.asarray([self.fn(c) for c in coeffs], dtype=float)


def _ball_points(dim: int, num: int, radius: float, gen, on_sphere: bool) -> np.ndarray:
    z = streams.normals(gen, (num, dim))
    norms = np.maximum(np.sqrt(np.sum(z * z, axis=1)), np.finfo(float).tiny)
    dirs = z / norms[:, None]
    if on_sphere:
        return radius * dirs
    radii = radius * gen.random(num) ** (1.0 / dim)
    return radii[:, None] * dirs


def _max_pair_ratio(vals: np.ndarray, points: np.ndarray) -> float:
    """max |v_a - v_b| / ||p_a - p_b|| over the pairs (row i of the first
    half, row i of the second) whose values are finite and whose points
    differ; nan when no pair qualifies."""
    n = len(vals) // 2
    va, vb = vals[:n], vals[n:]
    dist = np.linalg.norm(points[:n] - points[n:], axis=1)
    ok = np.isfinite(va) & np.isfinite(vb) & (dist > 0)
    return float(np.max(np.abs(va[ok] - vb[ok]) / dist[ok])) if ok.any() else math.nan


@dataclass(frozen=True)
class AuditReport:
    lower_bound_ok: bool
    empirical_M: float
    empirical_K_r: float
    empirical_L_r: float
    empirical_C: float | None
    violations: tuple


def assumption_audit(phi, r: float, num_samples: int, seed: int) -> AuditReport:
    """Probe the potential's regularity on balls of radius r.

    Flags "lower_bound" when the potential keeps falling, by drops that do
    not shrink, along inputs shrinking to zero, and "bounded_above" when
    some input and data in the ball produce an infinite value.  The Lipschitz and
    data-continuity constants are empirical maxima over finite pairs.  The
    potential needs dim, evaluate and evaluate_many; data_dim and a batch-capable
    evaluate_with_data vary the data too.
    """
    if not 0 < r < math.inf:
        raise ValueError("radius must be positive and finite")
    if num_samples < 10:
        raise ValueError("num_samples must be at least 10")
    dim = phi.dim
    violations = []

    # Shrinking sequences toward the origin.
    gen = streams.substream(seed, streams.PROBES, 10)
    dirs = _ball_points(dim, 8, 1.0, gen, on_sphere=True)
    lower_ok = True
    all_finite_vals = []
    for d in dirs:
        vals = []
        for j in range(41):
            v = phi.evaluate(r * (2.0**-j) * d)
            if math.isfinite(v):
                vals.append(v)
        all_finite_vals.extend(vals)
        if len(vals) >= 6:
            # Unbounded below means the drops per halving do not shrink: log||u||
            # loses ln 2 each time, while a potential converging to Phi(0) loses
            # half as much at each halving.
            drops = -np.diff(vals[-5:])
            if vals[-1] < vals[0] - 15.0 and np.all(drops > 0) and drops[-1] >= 0.5 * drops[0]:
                lower_ok = False
    if not lower_ok:
        violations.append("lower_bound")

    # Ball samples, with data varied when the potential supports it.
    gen = streams.substream(seed, streams.PROBES, 11)
    us = _ball_points(dim, num_samples, r, gen, on_sphere=False)
    data_dim = getattr(phi, "data_dim", 0)
    has_data = data_dim > 0 and hasattr(phi, "evaluate_with_data")
    if has_data:
        gen_y = streams.substream(seed, streams.PROBES, 12)
        ys = _ball_points(data_dim, num_samples, r, gen_y, on_sphere=False)
        vals = phi.evaluate_with_data(us, ys)
    else:
        vals = phi.evaluate_many(us)
    if np.any(np.isposinf(vals)):
        violations.append("bounded_above")
    finite = vals[np.isfinite(vals)]
    empirical_M = float(np.min(np.concatenate([all_finite_vals, finite]), initial=math.inf))
    empirical_K = float(np.max(finite, initial=-math.inf))

    # Lipschitz ratios in the input, on finite pairs.
    gen = streams.substream(seed, streams.PROBES, 13)
    pairs = _ball_points(dim, 2 * num_samples, r, gen, on_sphere=False)
    empirical_L = _max_pair_ratio(phi.evaluate_many(pairs), pairs)

    # Data continuity, log-constant with the exponential factor at zero rate.
    empirical_C = None
    if has_data:
        gen = streams.substream(seed, streams.PROBES, 14)
        y_pairs = _ball_points(data_dim, 2 * num_samples, r, gen, on_sphere=False)
        ratio = _max_pair_ratio(phi.evaluate_with_data(np.concatenate([us, us]), y_pairs), y_pairs)
        empirical_C = math.log(ratio) if ratio > 0 else None

    return AuditReport(lower_ok, empirical_M, empirical_K, empirical_L, empirical_C, tuple(violations))
