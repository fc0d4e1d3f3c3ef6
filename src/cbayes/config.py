"""JSON round-tripping for priors, models, and potentials.

Every experiment report embeds its fully resolved configuration, so any
report can be regenerated from the file alone.  The codecs here map the
library objects to plain dictionaries and back; config_hash fingerprints
the canonical serialization for provenance.  Custom callback potentials
cannot be serialized and are rejected.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .forward_models import AlgebraicMultipliers, DeconvolutionModel, LinearModel
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
    "dist_to_json",
    "dist_from_json",
    "prior_to_json",
    "prior_from_json",
    "model_to_json",
    "model_from_json",
    "potential_to_json",
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


def dist_to_json(d) -> dict:
    for kind, (cls, fields) in _DIST_KINDS.items():
        if type(d) is cls:
            return {"kind": kind, "params": {f: float(getattr(d, f)) for f in fields}}
    raise TypeError(f"unsupported distribution {type(d).__name__}")


def dist_from_json(obj: dict):
    if obj["kind"] not in _DIST_KINDS:
        raise ValueError(f"unknown distribution kind {obj['kind']!r}")
    cls, fields = _DIST_KINDS[obj["kind"]]
    for f in fields:
        if f not in obj["params"]:
            raise ValueError(f"{obj['kind']} distribution is missing parameter {f!r}")
    return cls(**{f: float(obj["params"][f]) for f in fields})


def _schedule_to_json(sched) -> dict:
    if isinstance(sched, AlgebraicFourier):
        return {"kind": "algebraic_fourier", "s": float(sched.s)}
    if isinstance(sched, AlgebraicSequence):
        return {"kind": "algebraic_sequence", "s": float(sched.s)}
    if isinstance(sched, ExplicitSchedule):
        return {"kind": "explicit", "values": [float(v) for v in sched.values]}
    raise TypeError(f"unsupported schedule {type(sched).__name__}")


def _schedule_from_json(obj: dict):
    if obj["kind"] == "algebraic_fourier":
        return AlgebraicFourier(float(obj["s"]))
    if obj["kind"] == "algebraic_sequence":
        return AlgebraicSequence(float(obj["s"]))
    if obj["kind"] == "explicit":
        return ExplicitSchedule(tuple(float(v) for v in obj["values"]))
    raise ValueError(f"unknown schedule kind {obj['kind']!r}")


def prior_to_json(prior) -> dict:
    if isinstance(prior, ProductPrior):
        return {"kind": "product", "dists": [dist_to_json(d) for d in prior.dists]}
    if not isinstance(prior, SeriesPrior):
        raise TypeError(f"unsupported prior {type(prior).__name__}")
    if not isinstance(prior.basis, FourierCircle):
        raise TypeError("only the Fourier circle basis serializes")
    if isinstance(prior.law, IID):
        law = {"kind": "iid", "dist": dist_to_json(prior.law.dist)}
    else:
        law = {
            "kind": "hierarchical",
            "scale": dist_to_json(prior.law.scale_law),
            "mode": dist_to_json(prior.law.mode_law),
        }
    return {
        "kind": "series",
        "basis": {"kind": "fourier_circle"},
        "schedule": _schedule_to_json(prior.schedule),
        "law": law,
        "dilation": float(prior.dilation),
    }


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


def model_to_json(model) -> dict:
    if isinstance(model, LinearModel):
        return {"kind": "linear", "matrix": [[float(v) for v in row] for row in model.matrix]}
    if isinstance(model, DeconvolutionModel):
        if isinstance(model.multipliers, AlgebraicMultipliers):
            mult = {"algebraic": float(model.multipliers.s)}
        else:
            mult = [float(v) for v in model.multiplier_values()]
        return {
            "kind": "deconvolution",
            "multipliers": mult,
            "observation_points": [float(p) for p in model.observation_points],
            "truncation": int(model.truncation),
        }
    raise TypeError(f"unsupported model {type(model).__name__}")


def model_from_json(obj: dict):
    if obj["kind"] == "linear":
        return LinearModel(np.asarray(obj["matrix"], dtype=float))
    if obj["kind"] == "deconvolution":
        mult = obj["multipliers"]
        if isinstance(mult, dict):
            mult = AlgebraicMultipliers(float(mult["algebraic"]))
        else:
            mult = np.asarray(mult, dtype=float)
        return DeconvolutionModel(mult, np.asarray(obj["observation_points"], dtype=float), int(obj["truncation"]))
    raise ValueError(f"unknown model kind {obj['kind']!r}")


def potential_to_json(phi) -> dict:
    if isinstance(phi, GaussianAdditive):
        if np.ndim(phi.noise) == 0:
            noise = {"sigma2": float(phi.noise)}
        else:
            noise = {"matrix": [[float(v) for v in row] for row in np.asarray(phi.noise)]}
        return {
            "kind": "gaussian_additive",
            "model": model_to_json(phi.model),
            "noise": noise,
            "y": [float(v) for v in phi.y],
            "proj_level": None if phi.proj_level is None else int(phi.proj_level),
        }
    if isinstance(phi, MultiplicativeUniform):
        return {"kind": "multiplicative_uniform", "y": float(phi.y), "dim": int(phi.dim)}
    raise TypeError(f"unsupported potential {type(phi).__name__}")


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
