"""Negative log-likelihood potentials and their regularity audits.

The central potential is the Gaussian additive-noise misfit

    Phi(u; y) = 0.5 * || Gamma^(-1/2) (G(u) - y) ||^2,

optionally evaluated through a window projection so that
Phi_N(u; y) = Phi(P_N u; y).  GaussianAdditive.misfit is the one kernel
for this formula: the scalar, batched and data-varied evaluations and the
verification suites all call it.  Scalar noise (Gamma = sigma2 * I) needs
only numpy.  A dense Gamma loads scipy.linalg at construction, which
computes L^-1 (Gamma = L L^T) once.

On a 2-D batch of forward outputs, a scalar-noise misfit squares a
column-major residual and adds its columns left to right, so a row's value
depends on neither the layout nor the row count of the batch (np.sum
would sum a one-row batch in its pairwise order); column-major
(order="F") batches are the fast path, and the suites allocate theirs
that way.  A dense-noise residual is whitened into row-major order and
summed along each row by np.sum.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import streams

__all__ = [
    "GaussianAdditive",
    "MultiplicativeUniform",
    "CustomPotential",
    "AuditReport",
    "assumption_audit",
]


def _data_vector(y, m: int) -> np.ndarray:
    y = np.asarray(y, dtype=float).reshape(-1)
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
            if s2 <= 0:
                raise ValueError("noise variance must be positive")
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
            r = np.subtract(fwd, y, order="F")
            np.multiply(r, r, out=r)
            out = r[:, 0].copy()
            for j in range(1, r.shape[1]):
                out += r[:, j]
        else:
            r = np.subtract(fwd, y, order="C") @ self._white.T
            np.multiply(r, r, out=r)
            out = r.sum(axis=1)
        out *= 0.5
        out /= self._s2
        return out

    def _projected(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        return coeffs if self._mask is None else coeffs * self._mask

    def evaluate(self, coeffs) -> float:
        return float(self.misfit(self.model.apply(self._projected(coeffs)), self.y))

    def evaluate_many(self, coeffs: np.ndarray) -> np.ndarray:
        return self.misfit(self.model.apply_many(self._projected(coeffs)), self.y)

    def evaluate_with_data(self, coeffs, y) -> float:
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
        coeffs = np.asarray(coeffs, dtype=float)
        norms = np.sqrt(np.sum(coeffs * coeffs, axis=1))
        with np.errstate(divide="ignore"):
            return np.where(norms < self.y, np.log(norms), np.inf)

    def evaluate_with_data(self, coeffs, y) -> float:
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
    data-continuity constants are empirical maxima over finite pairs.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
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
        vals = np.asarray([phi.evaluate_with_data(u, yv) for u, yv in zip(us, ys)])
    else:
        vals = np.asarray([phi.evaluate(u) for u in us])
    if np.any(np.isposinf(vals)):
        violations.append("bounded_above")
    finite = vals[np.isfinite(vals)]
    all_finite_vals.extend(finite.tolist())
    empirical_M = float(np.min(all_finite_vals)) if all_finite_vals else math.inf
    empirical_K = float(np.max(finite)) if len(finite) else -math.inf

    # Lipschitz ratios in the input, on finite pairs.
    gen = streams.substream(seed, streams.PROBES, 13)
    pairs = _ball_points(dim, 2 * num_samples, r, gen, on_sphere=False)
    u1, u2 = pairs[:num_samples], pairs[num_samples:]
    ratios = []
    for a, b in zip(u1, u2):
        va, vb = phi.evaluate(a), phi.evaluate(b)
        du = float(np.linalg.norm(a - b))
        if math.isfinite(va) and math.isfinite(vb) and du > 0:
            ratios.append(abs(va - vb) / du)
    empirical_L = float(np.max(ratios)) if ratios else math.nan

    # Data continuity, log-constant with the exponential factor at zero rate.
    empirical_C = None
    if has_data:
        gen = streams.substream(seed, streams.PROBES, 14)
        y_pairs = _ball_points(data_dim, 2 * num_samples, r, gen, on_sphere=False)
        y1s, y2s = y_pairs[:num_samples], y_pairs[num_samples:]
        log_ratios = []
        for u, ya, yb in zip(us, y1s, y2s):
            va = phi.evaluate_with_data(u, ya)
            vb = phi.evaluate_with_data(u, yb)
            dy = float(np.linalg.norm(ya - yb))
            if math.isfinite(va) and math.isfinite(vb) and dy > 0 and va != vb:
                log_ratios.append(math.log(abs(va - vb) / dy))
        empirical_C = float(np.max(log_ratios)) if log_ratios else None

    return AuditReport(lower_ok, empirical_M, empirical_K, empirical_L, empirical_C, tuple(violations))
