"""Forward maps from coefficient space to finite data vectors.

Two kinds are supported.  LinearModel applies an explicit matrix to the
coefficient vector.  DeconvolutionModel acts diagonally on the basis
(multiplier per index, the Fourier picture of circular convolution with a
fixed kernel) and then collects point values at observation locations.
Multipliers may be an algebraic closed form (1+k^2)^(-s) or an explicit
list over the window in enumeration order; s = 0 gives flat multipliers,
plain point evaluation with no smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series_prior import FourierCircle

__all__ = [
    "LinearModel",
    "DeconvolutionModel",
    "AlgebraicMultipliers",
    "equispaced_points",
]


def equispaced_points(m: int) -> np.ndarray:
    """m equispaced observation points on the unit circle."""
    if m < 1:
        raise ValueError("need at least one observation point")
    return np.arange(m, dtype=float) / m


@dataclass(frozen=True)
class AlgebraicMultipliers:
    """Kernel multipliers (1 + k^2)^(-s) on the signed index."""

    s: float

    def __post_init__(self):
        if self.s < 0:
            raise ValueError("decay exponent must be nonnegative")

    def values(self, indices: np.ndarray) -> np.ndarray:
        return (1.0 + np.asarray(indices, dtype=float) ** 2) ** (-self.s)


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Explicit matrix acting on coefficient vectors (sequence windows)."""

    matrix: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", A)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def data_dim(self) -> int:
        return self.matrix.shape[0]

    def window_positions(self, M: int) -> np.ndarray:
        if M > self.dim:
            raise ValueError("window level exceeds the model dimension")
        return np.arange(M)

    def apply(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients, got {coeffs.shape}")
        return self.matrix @ coeffs

    def apply_many(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) coefficients")
        return coeffs @ self.matrix.T

    def design_matrix(self) -> np.ndarray:
        return self.matrix.copy()


@dataclass(frozen=True, eq=False)
class DeconvolutionModel:
    """Diagonal kernel action on the window followed by point sampling.

    data_j = sum_k multiplier(k) * c_k * x_k(p_j) over the window at the
    stored truncation.
    """

    multipliers: object
    observation_points: np.ndarray
    truncation: int
    basis: object = field(default_factory=FourierCircle)

    def __post_init__(self):
        pts = np.asarray(self.observation_points, dtype=float)
        object.__setattr__(self, "observation_points", pts)
        idx = self.basis.window_indices(self.truncation)
        if isinstance(self.multipliers, AlgebraicMultipliers):
            mult = self.multipliers.values(idx)
        else:
            mult = np.asarray(self.multipliers, dtype=float)
            if mult.shape != idx.shape:
                raise ValueError("explicit multipliers must cover the window")
        E = np.stack([self.basis.evaluate(int(k), pts) for k in idx], axis=1)
        object.__setattr__(self, "_indices", idx)
        object.__setattr__(self, "_mult", mult)
        object.__setattr__(self, "_design", E * mult[None, :])

    @property
    def dim(self) -> int:
        return len(self._indices)

    @property
    def data_dim(self) -> int:
        return len(self.observation_points)

    def multiplier_values(self) -> np.ndarray:
        return self._mult.copy()

    def window_positions(self, M: int) -> np.ndarray:
        if M > self.truncation:
            raise ValueError("window level exceeds the model truncation")
        return np.arange(len(self.basis.window_indices(M)))  # windows are prefixes

    def apply(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients, got {coeffs.shape}")
        return self._design @ coeffs

    def apply_many(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) coefficients")
        return coeffs @ self._design.T

    def design_matrix(self) -> np.ndarray:
        """Dense (data_dim, dim) matrix realizing the model on the window."""
        return self._design.copy()
