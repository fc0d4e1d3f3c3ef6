"""JSON decoding for priors, models, and potentials.

Every experiment report embeds the JSON config it ran, so replaying a
report needs only JSON -> object decoding: the decoders here map plain
dictionaries with `kind` discriminators to library objects, and nothing
maps objects back.  canonical_json is the sorted text, with no NaN or
infinity, that config_hash fingerprints for provenance.  Custom callback
potentials have no JSON kind.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .forward_models import DeconvolutionModel, LinearModel
from .likelihood import GaussianAdditive, MultiplicativeUniform
from .measures1d import Exponential, Gamma, Gaussian, Laplace, Logistic, Uniform
from .posterior import ProductPrior
from .series_prior import (
    AlgebraicFourier,
    AlgebraicSequence,
    ExplicitSchedule,
    FourierCircle,
    Hierarchical,
    IID,
    SeriesPrior,
)

__all__ = [
    "dist_from_json",
    "prior_from_json",
    "model_from_json",
    "potential_from_json",
    "canonical_json",
    "config_hash",
]

_DIST_KINDS = {
    "gaussian": (Gaussian, ("m", "sigma")),
    "exponential": (Exponential, ("lam",)),
    "laplace": (Laplace, ("m", "sigma")),
    "logistic": (Logistic, ("m", "s")),
    "gamma": (Gamma, ("k", "lam")),
    "uniform": (Uniform, ("a", "b")),
}


def dist_from_json(obj: dict):
    if obj["kind"] not in _DIST_KINDS:
        raise ValueError(f"unknown distribution kind {obj['kind']!r}")
    cls, fields = _DIST_KINDS[obj["kind"]]
    for f in fields:
        if f not in obj["params"]:
            raise ValueError(f"{obj['kind']} distribution is missing parameter {f!r}")
    return cls(**{f: float(obj["params"][f]) for f in fields})


def _schedule_from_json(obj: dict):
    if obj["kind"] == "algebraic_fourier":
        return AlgebraicFourier(float(obj["s"]))
    if obj["kind"] == "algebraic_sequence":
        return AlgebraicSequence(float(obj["s"]))
    if obj["kind"] == "explicit":
        return ExplicitSchedule(tuple(float(v) for v in obj["values"]))
    raise ValueError(f"unknown schedule kind {obj['kind']!r}")


def prior_from_json(obj: dict):
    if obj["kind"] == "product":
        return ProductPrior(tuple(dist_from_json(d) for d in obj["dists"]))
    if obj["kind"] != "series":
        raise ValueError(f"unknown prior kind {obj['kind']!r}")
    if obj["basis"]["kind"] != "fourier_circle":
        raise ValueError(f"unknown basis kind {obj['basis']['kind']!r}")
    law_obj = obj["law"]
    if law_obj["kind"] == "iid":
        law = IID(dist_from_json(law_obj["dist"]))
    elif law_obj["kind"] == "hierarchical":
        law = Hierarchical(dist_from_json(law_obj["scale"]), dist_from_json(law_obj["mode"]))
    else:
        raise ValueError(f"unknown law kind {law_obj['kind']!r}")
    return SeriesPrior(FourierCircle(), _schedule_from_json(obj["schedule"]), law, float(obj["dilation"]))


def model_from_json(obj: dict):
    if obj["kind"] == "linear":
        return LinearModel(np.asarray(obj["matrix"], dtype=float))
    if obj["kind"] == "deconvolution":
        mult = obj["multipliers"]
        if isinstance(mult, dict):
            mult = AlgebraicFourier(float(mult["algebraic"]))
        else:
            mult = np.asarray(mult, dtype=float)
        return DeconvolutionModel(mult, np.asarray(obj["observation_points"], dtype=float), int(obj["truncation"]))
    raise ValueError(f"unknown model kind {obj['kind']!r}")


def potential_from_json(obj: dict):
    if obj["kind"] == "gaussian_additive":
        noise = obj["noise"]
        noise = float(noise["sigma2"]) if "sigma2" in noise else np.asarray(noise["matrix"], dtype=float)
        proj = obj.get("proj_level")
        return GaussianAdditive(
            model_from_json(obj["model"]),
            noise,
            np.asarray(obj["y"], dtype=float),
            None if proj is None else int(proj),
        )
    if obj["kind"] == "multiplicative_uniform":
        return MultiplicativeUniform(float(obj["y"]), int(obj["dim"]))
    raise ValueError(f"unknown potential kind {obj['kind']!r}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
