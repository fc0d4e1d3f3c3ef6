"""JSON round-trips for priors, models, and potentials, plus config hashing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cbayes import (
    AlgebraicMultipliers,
    CustomPotential,
    DeconvolutionModel,
    GaussianAdditive,
    LinearModel,
    MultiplicativeUniform,
    ProductPrior,
    SeriesPrior,
    equispaced_points,
)
from cbayes.config import (
    canonical_json,
    config_hash,
    dist_from_json,
    dist_to_json,
    model_from_json,
    model_to_json,
    potential_from_json,
    potential_to_json,
    prior_from_json,
    prior_to_json,
)
from cbayes.measures1d import (
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    Logistic,
    Uniform,
)
from cbayes.series_prior import (
    AlgebraicFourier,
    AlgebraicSequence,
    ExplicitSchedule,
    FourierCircle,
    Hierarchical,
    IID,
)

ALL_KINDS = [
    Gaussian(0.5, 2.0),
    Exponential(3.0),
    Laplace(-1.0, 0.5),
    Logistic(0.0, 1.5),
    Gamma(2.5, 0.75),
    Uniform(-1.0, 4.0),
]


@pytest.mark.parametrize("d", ALL_KINDS, ids=str)
def test_distribution_round_trip(d):
    assert dist_from_json(dist_to_json(d)) == d


def test_distribution_rejects_unknown_kind():
    with pytest.raises((KeyError, ValueError)):
        dist_from_json({"kind": "cauchy", "params": {}})


def test_distribution_unknown_kind_is_a_value_error_naming_it():
    with pytest.raises(ValueError, match="unknown distribution kind 'cauchy'"):
        dist_from_json({"kind": "cauchy", "params": {}})
    prior = {
        "kind": "series",
        "basis": {"kind": "fourier_circle"},
        "schedule": {"kind": "algebraic_fourier", "s": 1.0},
        "law": {"kind": "iid", "dist": {"kind": "cauchy", "params": {"m": 0.0}}},
        "dilation": 1.0,
    }
    with pytest.raises(ValueError, match="'cauchy'"):
        prior_from_json(prior)


def test_distribution_missing_parameter_is_a_value_error_naming_it():
    with pytest.raises(ValueError, match="laplace distribution is missing parameter 'sigma'"):
        dist_from_json({"kind": "laplace", "params": {"m": 0.0}})
    with pytest.raises(ValueError, match="missing parameter 'k'"):
        prior_from_json({"kind": "product", "dists": [{"kind": "gamma", "params": {"lam": 1.0}}]})


@pytest.mark.parametrize(
    "prior",
    [
        ProductPrior((Gaussian(0.0, 1.0), Laplace(0.0, 2.0))),
        SeriesPrior(FourierCircle(), AlgebraicFourier(1.25), IID(Laplace(0.0, 1.0))),
        SeriesPrior(FourierCircle(), AlgebraicSequence(2.0), IID(Gaussian(0.0, 1.0)), 0.5),
        SeriesPrior(FourierCircle(), ExplicitSchedule((2.0, 1.0, 0.5, 0.25)),
                    Hierarchical(Gamma(2.0, 1.0), Gaussian(0.0, 1.0))),
    ],
)
def test_prior_round_trip(prior):
    assert prior_from_json(prior_to_json(prior)) == prior


def test_model_round_trip():
    lin = LinearModel(np.array([[1.0, 0.5], [0.25, 2.0]]))
    back = model_from_json(model_to_json(lin))
    assert np.array_equal(back.matrix, lin.matrix)

    dec = DeconvolutionModel(AlgebraicMultipliers(1.5), equispaced_points(6), 4)
    back = model_from_json(model_to_json(dec))
    assert np.array_equal(back.observation_points, dec.observation_points)
    assert np.array_equal(back.multiplier_values(), dec.multiplier_values())
    assert back.truncation == dec.truncation

    explicit = DeconvolutionModel(dec.multiplier_values(), equispaced_points(6), 4)
    back = model_from_json(model_to_json(explicit))
    assert np.array_equal(back.multiplier_values(), explicit.multiplier_values())


def test_potential_round_trip():
    model = DeconvolutionModel(AlgebraicMultipliers(1.0), equispaced_points(4), 4)
    y = [0.1, -0.2, 0.3, 0.0]
    phi = GaussianAdditive(model, 4.0, y, proj_level=2)
    back = potential_from_json(potential_to_json(phi))
    u = np.random.default_rng(0).normal(size=model.dim)
    assert back.evaluate(u) == phi.evaluate(u)
    assert back.proj_level == 2

    dense = GaussianAdditive(LinearModel(np.eye(2)), np.array([[2.0, 0.3], [0.3, 1.0]]),
                             [1.0, -1.0])
    back = potential_from_json(potential_to_json(dense))
    assert back.evaluate([0.5, 0.5]) == dense.evaluate([0.5, 0.5])

    mult = MultiplicativeUniform(1.5, dim=3)
    back = potential_from_json(potential_to_json(mult))
    assert back == mult


def test_custom_potential_not_serializable():
    with pytest.raises(TypeError):
        potential_to_json(CustomPotential(lambda u: 0.0, dim=1))


def test_canonical_json_is_stable_and_sorted():
    a = canonical_json({"b": 1, "a": [1.5, 2]})
    b = canonical_json({"a": [1.5, 2], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [1.5, 2], "b": 1}
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_config_hash_tracks_content():
    h1 = config_hash({"seed": 0, "effort": 100})
    h2 = config_hash({"effort": 100, "seed": 0})
    h3 = config_hash({"seed": 1, "effort": 100})
    assert h1 == h2
    assert h1 != h3
    assert len(h1) == 64 and all(c in "0123456789abcdef" for c in h1)


# ------------------------------------------------------ generated round trips
# Each codec, fed a generated object, must decode its own canonical JSON
# text to an equal object with the same config hash.

_ROUND_TRIP = settings(max_examples=30, deadline=None, derandomize=True)
_reals = hst.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_positive = hst.floats(1e-3, 10.0)


def _through_text(obj):
    return json.loads(canonical_json(obj))


dists = hst.one_of(
    hst.builds(Gaussian, _reals, _positive),
    hst.builds(Exponential, _positive),
    hst.builds(Laplace, _reals, _positive),
    hst.builds(Logistic, _reals, _positive),
    hst.builds(Gamma, hst.floats(1.0, 10.0), _positive),
    hst.builds(lambda a, w: Uniform(a, a + w), _reals, hst.floats(1e-3, 10.0)),
)
schedules = hst.one_of(
    hst.builds(AlgebraicFourier, hst.floats(0.0, 4.0)),
    hst.builds(AlgebraicSequence, hst.floats(0.0, 4.0)),
    hst.lists(_positive, min_size=1, max_size=6).map(lambda v: ExplicitSchedule(tuple(sorted(v, reverse=True)))),
)
priors = hst.one_of(
    hst.lists(dists, min_size=1, max_size=4).map(lambda d: ProductPrior(tuple(d))),
    hst.builds(
        SeriesPrior,
        hst.just(FourierCircle()),
        schedules,
        hst.one_of(hst.builds(IID, dists), hst.builds(Hierarchical, dists, dists)),
        hst.floats(0.0, 1.0, exclude_min=True),
    ),
)


@hst.composite
def models(draw):
    if draw(hst.booleans()):
        rows, cols = draw(hst.integers(1, 4)), draw(hst.integers(1, 4))
        entries = draw(hst.lists(_reals, min_size=rows * cols, max_size=rows * cols))
        return LinearModel(np.array(entries).reshape(rows, cols))
    truncation = draw(hst.integers(1, 5))
    if draw(hst.booleans()):
        mult = AlgebraicMultipliers(draw(hst.floats(0.0, 4.0)))
    else:
        mult = np.array(draw(hst.lists(_positive, min_size=2 * truncation, max_size=2 * truncation)))
    points = draw(hst.lists(hst.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6))
    return DeconvolutionModel(mult, np.array(points), truncation)


@hst.composite
def potentials(draw):
    if draw(hst.booleans()):
        return MultiplicativeUniform(draw(_positive), draw(hst.integers(1, 6)))
    model = draw(models())
    m = model.data_dim
    if draw(hst.booleans()):
        noise = draw(_positive)
    else:
        # symmetric and diagonally dominant, hence positive definite
        B = np.array(draw(hst.lists(hst.floats(-1.0, 1.0), min_size=m * m, max_size=m * m))).reshape(m, m)
        noise = B + B.T + (2.0 * m + 1.0) * np.eye(m)
    y = draw(hst.lists(_reals, min_size=m, max_size=m))
    top = model.dim if isinstance(model, LinearModel) else model.truncation
    proj = draw(hst.one_of(hst.none(), hst.integers(1, top)))
    return GaussianAdditive(model, noise, y, proj)


def same_model(a, b):
    if isinstance(a, LinearModel):
        return isinstance(b, LinearModel) and np.array_equal(a.matrix, b.matrix)
    return (
        isinstance(b, DeconvolutionModel)
        and type(a.multipliers) is type(b.multipliers)
        and np.array_equal(a.multiplier_values(), b.multiplier_values())
        and np.array_equal(a.observation_points, b.observation_points)
        and a.truncation == b.truncation
    )


@_ROUND_TRIP
@given(priors)
def test_prior_codec_round_trip_property(prior):
    obj = prior_to_json(prior)
    back = prior_from_json(_through_text(obj))
    assert back == prior
    assert config_hash(prior_to_json(back)) == config_hash(obj)


@_ROUND_TRIP
@given(models())
def test_model_codec_round_trip_property(model):
    obj = model_to_json(model)
    back = model_from_json(_through_text(obj))
    assert same_model(back, model)
    assert config_hash(model_to_json(back)) == config_hash(obj)


@_ROUND_TRIP
@given(potentials())
def test_potential_codec_round_trip_property(phi):
    obj = potential_to_json(phi)
    back = potential_from_json(_through_text(obj))
    if isinstance(phi, MultiplicativeUniform):
        assert back == phi
    else:
        assert same_model(back.model, phi.model)
        assert np.array_equal(back.noise, phi.noise) and np.array_equal(back.y, phi.y)
        assert back.proj_level == phi.proj_level
    assert config_hash(potential_to_json(back)) == config_hash(obj)
