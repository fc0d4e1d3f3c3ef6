"""Decoding priors, models, and potentials from JSON, plus config hashing.

A report embeds the JSON config it ran, so a config's round trip is its
trip through a report's text: a literal dict, its canonical JSON text,
that text parsed back, and the decoded object.  Each test starts from
literal JSON and checks the decoded object against the values written.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from cbayes import (
    DeconvolutionModel,
    GaussianAdditive,
    LinearModel,
    MultiplicativeUniform,
    ProductPrior,
    SeriesPrior,
)
from cbayes.config import (
    canonical_json,
    config_hash,
    dist_from_json,
    model_from_json,
    potential_from_json,
    prior_from_json,
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

BASIS = FourierCircle()


def _through_text(obj):
    """obj as a replayed report holds it: parsed back from canonical text."""
    return json.loads(canonical_json(obj))


def _dist(kind, **params):
    return {"kind": kind, "params": params}


DIST_CASES = [
    (_dist("gaussian", m=0.5, sigma=2.0), Gaussian(0.5, 2.0)),
    (_dist("exponential", lam=3.0), Exponential(3.0)),
    (_dist("laplace", m=-1.0, sigma=0.5), Laplace(-1.0, 0.5)),
    (_dist("logistic", m=0.0, s=1.5), Logistic(0.0, 1.5)),
    (_dist("gamma", k=2.5, lam=0.75), Gamma(2.5, 0.75)),
    (_dist("uniform", a=-1.0, b=4.0), Uniform(-1.0, 4.0)),
]


@pytest.mark.parametrize("obj,d", DIST_CASES, ids=[str(d) for _, d in DIST_CASES])
def test_distribution_round_trip(obj, d):
    back = dist_from_json(_through_text(obj))
    assert type(back) is type(d) and back == d


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


def _series(schedule, law, dilation=1.0):
    return {"kind": "series", "basis": {"kind": "fourier_circle"}, "schedule": schedule, "law": law,
            "dilation": dilation}


PRIOR_CASES = [
    ({"kind": "product", "dists": [_dist("gaussian", m=0.0, sigma=1.0), _dist("laplace", m=0.0, sigma=2.0)]},
     ProductPrior((Gaussian(0.0, 1.0), Laplace(0.0, 2.0)))),
    (_series({"kind": "algebraic_fourier", "s": 1.25}, {"kind": "iid", "dist": _dist("laplace", m=0.0, sigma=1.0)}),
     SeriesPrior(FourierCircle(), AlgebraicFourier(1.25), IID(Laplace(0.0, 1.0)))),
    (_series({"kind": "algebraic_sequence", "s": 2.0}, {"kind": "iid", "dist": _dist("gaussian", m=0.0, sigma=1.0)},
             0.5),
     SeriesPrior(FourierCircle(), AlgebraicSequence(2.0), IID(Gaussian(0.0, 1.0)), 0.5)),
    (_series({"kind": "explicit", "values": [2.0, 1.0, 0.5, 0.25]},
             {"kind": "hierarchical", "scale": _dist("gamma", k=2.0, lam=1.0),
              "mode": _dist("gaussian", m=0.0, sigma=1.0)}),
     SeriesPrior(FourierCircle(), ExplicitSchedule((2.0, 1.0, 0.5, 0.25)),
                 Hierarchical(Gamma(2.0, 1.0), Gaussian(0.0, 1.0)))),
]


@pytest.mark.parametrize("obj,prior", PRIOR_CASES, ids=[f"prior{i}" for i in range(len(PRIOR_CASES))])
def test_prior_round_trip(obj, prior):
    assert prior_from_json(_through_text(obj)) == prior


@pytest.mark.parametrize("obj,kind", [
    (dict(PRIOR_CASES[1][0], kind="mixture"), "prior kind 'mixture'"),
    (dict(PRIOR_CASES[1][0], basis={"kind": "wavelet"}), "basis kind 'wavelet'"),
    (dict(PRIOR_CASES[1][0], schedule={"kind": "geometric", "s": 0.5}), "schedule kind 'geometric'"),
    (dict(PRIOR_CASES[1][0], law={"kind": "mixture"}), "law kind 'mixture'"),
])
def test_prior_unknown_kind_is_a_value_error_naming_it(obj, kind):
    with pytest.raises(ValueError, match=f"unknown {kind}"):
        prior_from_json(obj)


def _basis_values(indices, points):
    return np.stack([BASIS.evaluate(int(k), points) for k in indices], axis=1)


def test_model_round_trip():
    lin = model_from_json(_through_text({"kind": "linear", "matrix": [[1.0, 0.5], [0.25, 2.0]]}))
    assert isinstance(lin, LinearModel)
    assert np.array_equal(lin.matrix, [[1.0, 0.5], [0.25, 2.0]])

    points = [0.0, 0.25, 0.5, 0.75, 0.125, 0.375]
    idx = BASIS.window_indices(4)
    dec = model_from_json(_through_text({"kind": "deconvolution", "multipliers": {"algebraic": 1.5},
                                         "observation_points": points, "truncation": 4}))
    assert isinstance(dec, DeconvolutionModel) and dec.multipliers == AlgebraicFourier(1.5)
    assert np.array_equal(dec.observation_points, points) and dec.truncation == 4
    assert np.allclose(dec.design_matrix(), _basis_values(idx, points) * (1.0 + idx**2.0) ** -1.5,
                       rtol=1e-14, atol=0.0)

    values = [1.0, 0.5, 0.5, 0.25, 0.25, 0.125, 0.125, 0.0625]  # one per window slot, in enumeration order
    explicit = model_from_json(_through_text({"kind": "deconvolution", "multipliers": values,
                                              "observation_points": points, "truncation": 4}))
    assert np.array_equal(explicit.design_matrix(), _basis_values(idx, points) * np.array(values))

    with pytest.raises(ValueError, match="unknown model kind 'warp'"):
        model_from_json({"kind": "warp"})


def test_potential_round_trip():
    model = {"kind": "deconvolution", "multipliers": {"algebraic": 1.0},
             "observation_points": [0.0, 0.25, 0.5, 0.75], "truncation": 4}
    y = [0.1, -0.2, 0.3, 0.0]
    phi = potential_from_json(_through_text({"kind": "gaussian_additive", "model": model, "noise": {"sigma2": 4.0},
                                             "y": y, "proj_level": 2}))
    direct = GaussianAdditive(DeconvolutionModel(AlgebraicFourier(1.0), np.array(model["observation_points"]), 4),
                              4.0, y, proj_level=2)
    u = np.random.default_rng(0).normal(size=direct.dim)
    assert phi.noise == 4.0 and np.array_equal(phi.y, y) and phi.proj_level == 2
    assert phi.evaluate(u) == direct.evaluate(u)

    noise = [[2.0, 0.3], [0.3, 1.0]]
    dense = potential_from_json(_through_text({"kind": "gaussian_additive",
                                               "model": {"kind": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                                               "noise": {"matrix": noise}, "y": [1.0, -1.0]}))
    assert np.array_equal(dense.noise, noise) and dense.proj_level is None
    assert dense.evaluate([0.5, 0.5]) == GaussianAdditive(LinearModel(np.eye(2)), np.array(noise),
                                                          [1.0, -1.0]).evaluate([0.5, 0.5])

    mult = potential_from_json(_through_text({"kind": "multiplicative_uniform", "y": 1.5, "dim": 3}))
    assert mult == MultiplicativeUniform(1.5, dim=3)

    with pytest.raises(ValueError, match="unknown potential kind 'custom'"):
        potential_from_json({"kind": "custom"})


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


# --------------------------------------------------------- generated configs
# Each decoder, fed generated JSON through its canonical text, must build
# an object whose fields hold the values written.

_ROUND_TRIP = settings(max_examples=30, deadline=None, derandomize=True)
_reals = hst.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
_positive = hst.floats(1e-3, 10.0)

DIST_FIELDS = {
    "gaussian": (Gaussian, {"m": _reals, "sigma": _positive}),
    "exponential": (Exponential, {"lam": _positive}),
    "laplace": (Laplace, {"m": _reals, "sigma": _positive}),
    "logistic": (Logistic, {"m": _reals, "s": _positive}),
    "gamma": (Gamma, {"k": hst.floats(1.0, 10.0), "lam": _positive}),
    "uniform": (Uniform, {"a": _reals, "b": _reals}),
}


@hst.composite
def dists(draw):
    kind = draw(hst.sampled_from(sorted(DIST_FIELDS)))
    params = {f: draw(s) for f, s in DIST_FIELDS[kind][1].items()}
    if kind == "uniform":
        params["b"] = params["a"] + draw(_positive)
    return _dist(kind, **params)


schedules = hst.one_of(
    hst.builds(lambda s: {"kind": "algebraic_fourier", "s": s}, hst.floats(0.0, 4.0)),
    hst.builds(lambda s: {"kind": "algebraic_sequence", "s": s}, hst.floats(0.0, 4.0)),
    hst.lists(_positive, min_size=1, max_size=6).map(lambda v: {"kind": "explicit", "values": sorted(v, reverse=True)}),
)
priors = hst.one_of(
    hst.lists(dists(), min_size=1, max_size=4).map(lambda d: {"kind": "product", "dists": d}),
    hst.builds(
        _series,
        schedules,
        hst.one_of(hst.builds(lambda d: {"kind": "iid", "dist": d}, dists()),
                   hst.builds(lambda s, m: {"kind": "hierarchical", "scale": s, "mode": m}, dists(), dists())),
        hst.floats(0.0, 1.0, exclude_min=True),
    ),
)


@hst.composite
def models(draw):
    if draw(hst.booleans()):
        rows, cols = draw(hst.integers(1, 4)), draw(hst.integers(1, 4))
        return {"kind": "linear", "matrix": draw(hst.lists(hst.lists(_reals, min_size=cols, max_size=cols),
                                                           min_size=rows, max_size=rows))}
    truncation = draw(hst.integers(1, 5))
    if draw(hst.booleans()):
        mult = {"algebraic": draw(hst.floats(0.0, 4.0))}
    else:
        mult = draw(hst.lists(_positive, min_size=2 * truncation, max_size=2 * truncation))
    points = draw(hst.lists(hst.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6))
    return {"kind": "deconvolution", "multipliers": mult, "observation_points": points, "truncation": truncation}


@hst.composite
def potentials(draw):
    if draw(hst.booleans()):
        return {"kind": "multiplicative_uniform", "y": draw(_positive), "dim": draw(hst.integers(1, 6))}
    model = draw(models())
    m = len(model["matrix"]) if model["kind"] == "linear" else len(model["observation_points"])
    if draw(hst.booleans()):
        noise = {"sigma2": draw(_positive)}
    else:
        # symmetric and diagonally dominant, hence positive definite
        B = np.array(draw(hst.lists(hst.floats(-1.0, 1.0), min_size=m * m, max_size=m * m))).reshape(m, m)
        noise = {"matrix": (B + B.T + (2.0 * m + 1.0) * np.eye(m)).tolist()}
    top = len(model["matrix"][0]) if model["kind"] == "linear" else model["truncation"]
    return {"kind": "gaussian_additive", "model": model, "noise": noise,
            "y": draw(hst.lists(_reals, min_size=m, max_size=m)),
            "proj_level": draw(hst.one_of(hst.none(), hst.integers(1, top)))}


def check_dist(d, obj):
    cls, fields = DIST_FIELDS[obj["kind"]]
    assert type(d) is cls
    assert all(getattr(d, f) == obj["params"][f] for f in fields)


def check_model(model, obj):
    if obj["kind"] == "linear":
        assert isinstance(model, LinearModel) and np.array_equal(model.matrix, obj["matrix"])
        return
    assert isinstance(model, DeconvolutionModel)
    assert np.array_equal(model.observation_points, obj["observation_points"])
    assert model.truncation == obj["truncation"]
    idx = BASIS.window_indices(obj["truncation"])
    if isinstance(obj["multipliers"], dict):
        assert model.multipliers == AlgebraicFourier(obj["multipliers"]["algebraic"])
        mult = (1.0 + idx**2.0) ** -obj["multipliers"]["algebraic"]
    else:
        mult = np.array(obj["multipliers"])
    assert np.allclose(model.design_matrix(), _basis_values(idx, model.observation_points) * mult,
                       rtol=1e-13, atol=0.0)


@_ROUND_TRIP
@given(priors)
def test_prior_codec_round_trip_property(obj):
    prior = prior_from_json(_through_text(obj))
    if obj["kind"] == "product":
        assert isinstance(prior, ProductPrior) and len(prior.dists) == len(obj["dists"])
        for d, d_obj in zip(prior.dists, obj["dists"]):
            check_dist(d, d_obj)
        return
    assert isinstance(prior, SeriesPrior) and isinstance(prior.basis, FourierCircle)
    assert prior.dilation == obj["dilation"]
    sched = obj["schedule"]
    if sched["kind"] == "explicit":
        assert prior.schedule == ExplicitSchedule(tuple(sched["values"]))
    else:
        cls = AlgebraicFourier if sched["kind"] == "algebraic_fourier" else AlgebraicSequence
        assert type(prior.schedule) is cls and prior.schedule.s == sched["s"]
    law = obj["law"]
    if law["kind"] == "iid":
        assert isinstance(prior.law, IID)
        check_dist(prior.law.dist, law["dist"])
    else:
        assert isinstance(prior.law, Hierarchical)
        check_dist(prior.law.scale_law, law["scale"])
        check_dist(prior.law.mode_law, law["mode"])


@_ROUND_TRIP
@given(models())
def test_model_codec_round_trip_property(obj):
    check_model(model_from_json(_through_text(obj)), obj)


@_ROUND_TRIP
@given(potentials())
def test_potential_codec_round_trip_property(obj):
    phi = potential_from_json(_through_text(obj))
    if obj["kind"] == "multiplicative_uniform":
        assert phi == MultiplicativeUniform(obj["y"], obj["dim"])
        return
    assert isinstance(phi, GaussianAdditive)
    check_model(phi.model, obj["model"])
    noise = obj["noise"]
    assert np.array_equal(phi.noise, noise["sigma2"] if "sigma2" in noise else noise["matrix"])
    assert np.array_equal(phi.y, obj["y"]) and phi.proj_level == obj["proj_level"]
