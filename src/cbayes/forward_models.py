"""Forward maps from coefficient space to finite data vectors.

Two kinds are supported.  LinearModel applies an explicit matrix to the
coefficient vector.  DeconvolutionModel acts diagonally on the basis
(multiplier per index, the Fourier picture of circular convolution with a
fixed kernel) and then collects point values at observation locations.
Multipliers may be series_prior.AlgebraicFourier, the closed form
(1+k^2)^(-s) that also serves as a prior's decay schedule, or an explicit
list of finite values over the window in enumeration order; s = 0 gives
flat multipliers, plain point evaluation with no smoothing.

At m equispaced observation points the trigonometric columns alias:
every column of the design is a multiple of one of m orthonormal data
vectors, or zero.  DeconvolutionModel.data_modes returns that split,
which makes a Gaussian likelihood a product of m one-dimensional ones
(see posterior.hellinger_truncations_exact), and None for points where
the columns are not pairwise parallel or orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series_prior import AlgebraicFourier, FourierCircle

__all__ = [
    "LinearModel",
    "DeconvolutionModel",
    "equispaced_points",
]


def equispaced_points(m: int) -> np.ndarray:
    """m equispaced observation points on the unit circle."""
    if m < 1:
        raise ValueError("need at least one observation point")
    return np.arange(m, dtype=float) / m


def _finite(values, what: str) -> np.ndarray:
    """values as a float array, refused unless non-empty and finite: the
    one check of the models' and the Gaussian potential's inputs."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        raise ValueError(f"{what} must not be empty")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")
    return a


_MODE_TOL = 1e-9  # relative tolerance of data_modes' parallel, orthogonal and zero tests


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Explicit matrix acting on coefficient vectors (sequence windows)."""

    matrix: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(_finite(self.matrix, "matrix"))
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
        pts = _finite(self.observation_points, "observation points")
        object.__setattr__(self, "observation_points", pts)
        idx = self.basis.window_indices(self.truncation)
        if isinstance(self.multipliers, AlgebraicFourier):
            mult = self.multipliers.at(idx)
        else:
            mult = _finite(self.multipliers, "explicit multipliers")
            if mult.shape != idx.shape:
                raise ValueError("explicit multipliers must cover the window")
        E = np.stack([self.basis.evaluate(int(k), pts) for k in idx], axis=1)
        object.__setattr__(self, "_indices", idx)
        object.__setattr__(self, "_design", E * mult[None, :])

    @property
    def dim(self) -> int:
        return len(self._indices)

    @property
    def data_dim(self) -> int:
        return len(self.observation_points)

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

    def data_modes(self):
        """(Q, mode_of_column, a) with the design's column k equal to
        a[k] * Q[:, mode_of_column[k]] and Q a (data_dim, modes) matrix
        with orthonormal columns, or None when the columns are not
        mode-aligned.

        Mode-aligned means every pair of nonzero columns is parallel or
        orthogonal, to _MODE_TOL relative; a column below _MODE_TOL of the
        largest column norm is a zero column, with a[k] == 0 (and mode 0).
        Modes are numbered in the order their first column appears.
        """
        D = self._design
        norms = np.linalg.norm(D, axis=0)
        live = norms > _MODE_TOL * norms.max()
        todo = live.copy()
        modes, mode_of, a = [], np.zeros(self.dim, dtype=int), np.zeros(self.dim)
        while todo.any():
            q = D[:, np.argmax(todo)] / norms[np.argmax(todo)]
            c = q @ D
            par = live & (np.linalg.norm(D - np.outer(q, c), axis=0) <= _MODE_TOL * norms)
            if not np.all(par | (np.abs(c) <= _MODE_TOL * norms) | ~live):
                return None
            mode_of[par], a[par] = len(modes), c[par]
            todo &= ~par
            modes.append(q)
        return np.array(modes).reshape(len(modes), self.data_dim).T, mode_of, a
