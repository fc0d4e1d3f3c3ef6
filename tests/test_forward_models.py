"""Forward maps: explicit matrices and Fourier-multiplier deconvolution.

The deconvolution model is pinned to an FFT oracle: diagonal multiplier
action on the trigonometric window followed by point evaluation must agree
with literal circular convolution against the even kernel whose Fourier
coefficients are the multipliers.
"""

import math

import numpy as np
import pytest

from cbayes import (
    AlgebraicMultipliers,
    DeconvolutionModel,
    LinearModel,
    equispaced_points,
    evaluate_field,
    sample_field,
)
from cbayes.measures1d import Laplace
from cbayes.series_prior import AlgebraicFourier, FourierCircle, IID, SeriesPrior

BASIS = FourierCircle()


def make_deconv(s=1.0, m=8, trunc=6):
    return DeconvolutionModel(AlgebraicMultipliers(s), equispaced_points(m), trunc)


def random_coeffs(model, seed=0):
    return np.random.default_rng(seed).normal(size=model.dim)


def test_equispaced_points():
    assert np.allclose(equispaced_points(4), [0.0, 0.25, 0.5, 0.75])
    with pytest.raises(ValueError):
        equispaced_points(0)


def test_deconvolution_matches_fft_convolution_oracle():
    # circular convolution with the even kernel g(t) = m_0 + 2 sum m_j cos(2 pi j t)
    s, m, trunc = 1.0, 8, 6
    model = make_deconv(s, m, trunc)
    prior = SeriesPrior(BASIS, AlgebraicFourier(1.25), IID(Laplace(0.0, 1.0)))
    u = sample_field(prior, trunc, seed=42)

    G = 1024
    t = np.arange(G) / G
    kernel = np.zeros(G)
    for j in range(0, trunc + 4):
        mj = (1.0 + j * j) ** -s
        kernel += mj * (1.0 if j == 0 else 2.0) * np.cos(2.0 * math.pi * j * t)
    conv = np.real(np.fft.ifft(np.fft.fft(kernel) * np.fft.fft(evaluate_field(u, t)))) / G
    oracle = conv[np.arange(m) * (G // m)]

    assert np.allclose(model.apply(u.coefficients), oracle, atol=1e-12)


def test_deconvolution_single_frequency_action():
    # a pure index-k input comes back as multiplier(k) times the basis function
    model = make_deconv(s=0.5, m=16, trunc=4)
    pts = model.observation_points
    for pos, k in enumerate(BASIS.window_indices(4)):
        c = np.zeros(model.dim)
        c[pos] = 1.0
        expected = (1.0 + float(k) ** 2) ** -0.5 * BASIS.evaluate(int(k), pts)
        assert np.allclose(model.apply(c), expected, atol=1e-13)


def test_multiplier_values_and_dims():
    model = make_deconv(s=1.5, m=8, trunc=3)
    idx = BASIS.window_indices(3).astype(float)
    assert np.allclose(model.multiplier_values(), (1.0 + idx**2) ** -1.5)
    assert model.dim == 6
    assert model.data_dim == 8


def test_explicit_multiplier_sequence():
    vals = np.array([1.0, 0.5, 0.5, 0.25, 0.25, 0.125])
    model = DeconvolutionModel(vals, equispaced_points(4), 3)
    assert np.allclose(model.multiplier_values(), vals)
    with pytest.raises(ValueError):
        DeconvolutionModel(vals[:4], equispaced_points(4), 3)


def test_apply_many_matches_apply():
    model = make_deconv()
    batch = np.random.default_rng(3).normal(size=(5, model.dim))
    stacked = np.stack([model.apply(row) for row in batch])
    assert np.allclose(model.apply_many(batch), stacked)
    with pytest.raises(ValueError):
        model.apply(batch)
    with pytest.raises(ValueError):
        model.apply_many(batch[:, :-1])


def test_design_matrix_realizes_model():
    for model in (make_deconv(), LinearModel(np.arange(6.0).reshape(2, 3))):
        A = model.design_matrix()
        c = random_coeffs(model, seed=5)
        assert np.allclose(A @ c, model.apply(c))
        # returned matrix is a copy, mutation is safe
        A[:] = 0.0
        assert np.any(model.design_matrix() != 0.0)


def test_truncation_commutes_with_zero_padding():
    # the model built at a lower truncation equals zeroing the dropped coefficients
    model = make_deconv(trunc=8)
    c = random_coeffs(model, seed=6)
    for m_level in (1, 2, 4, 8):
        keep = model.window_positions(m_level)
        assert np.array_equal(keep, np.arange(2 * m_level))  # windows are prefixes
        small = make_deconv(trunc=m_level)
        assert np.allclose(small.apply(c[keep]), model.apply(np.where(
            np.isin(np.arange(model.dim), keep), c, 0.0)))
    with pytest.raises(ValueError):
        model.window_positions(9)


def test_linear_model_truncation_and_validation():
    A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    model = LinearModel(A)
    assert model.dim == 3 and model.data_dim == 2
    keep = model.window_positions(2)
    assert np.array_equal(keep, [0, 1])
    assert np.allclose(model.apply(np.array([1.0, -2.0, 0.0])), A[:, keep] @ [1.0, -2.0])
    with pytest.raises(ValueError):
        model.window_positions(4)
