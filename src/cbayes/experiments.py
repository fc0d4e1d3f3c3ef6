"""Named verification suites with machine-readable reports.

Six suites verify the well-posedness claims numerically:

  stability    d_H between posteriors at perturbed data grows linearly in
               the perturbation, with a bounded ratio d_H / delta.
  consistency  d_H between the reference posterior and its window
               truncations decays at the projection rate N^((1-4s)/2)
               of the prior's exponent s, cross-checked against a
               deterministic tail-sum oracle, and each prior-draw
               estimate agrees with the exact value from the eight data
               modes (mode quadrature); the hierarchical prior's exact
               distances are checked for monotone decay only, and both
               priors pass the admissibility check of the prior recipe.
  convexity    the interval convexity inequality on 1-D and 2-D marginals
               of every coefficient family, with closed-form oracles for
               the strict and equality Laplace cases, plus a reweighted
               posterior case.
  metrics      Hellinger and total-variation estimators against closed
               forms, the metric sandwich d_H^2 <= d_TV <= sqrt(2) d_H,
               and the expectation-gap bound on random data pairs.
  audit        regularity probes flag the multiplicative potential and
               clear the additive-Gaussian ones.
  map_demo     l1-penalized MAP estimates across a penalty sweep, each
               certified optimal by its Lasso duality gap and its
               support by the Lasso KKT conditions.

stability, consistency and metrics also judge their importance weights:
every estimate on prior draws must have a Kong effective sample size of
at least _MIN_ESS, or the suite fails its min_ess verdict rather than
reporting a distance that a few draws decided.  consistency's prior-draw
estimates are its Laplace half; its hierarchical half draws only the
synthetic truth.

Each run_* function takes a fully resolved config dict (see
default_config) and returns a JSON-serializable report embedding that
config, points, fitted slopes, verdicts with their tolerances, and
provenance; a config it cannot run is refused up front with a ValueError
naming the key (a stability deltas entry too small to resolve, at its
first zero estimate).  Reports carry no timestamps: rerunning a config
with its seed reproduces the report byte for byte.  Every tolerance here
is an artifact decision recorded in the report itself.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import sys

import numpy as np
import scipy

from . import __version__, streams
from .config import canonical_json, config_hash, model_from_json, potential_from_json, prior_from_json
from .forward_models import DeconvolutionModel, LinearModel, equispaced_points
from .likelihood import CustomPotential, GaussianAdditive, MultiplicativeUniform, assumption_audit
from .measures1d import (
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    Logistic,
    Uniform,
    interval_probability,
    quantile_interval,
    second_moment,
)
from .posterior import (
    PosteriorSpec,
    ProductPrior,
    _l1_objective,
    _ModeRefusal,
    _paired_metrics,
    hellinger,
    hellinger_from_potentials,
    hellinger_from_reference,
    hellinger_truncations_exact,
    map_estimate_l1,
    total_variation,
    total_variation_from_potentials,
    weighted_probability,
)
from .series_prior import (
    AlgebraicFourier,
    FourierCircle,
    IID,
    SeriesPrior,
    _convexity_judge,
    _share_work,
    admissibility_check,
    coefficient_chunks,
    marginal_convexity_test,
    sample_coefficients,
)

__all__ = [
    "EXPERIMENT_NAMES",
    "default_config",
    "run_experiment",
    "run_stability",
    "run_consistency",
    "run_convexity",
    "run_metrics",
    "run_audit",
    "run_map_demo",
    "report_points_csv",
    "all_verdicts_pass",
]

EXPERIMENT_NAMES = ("stability", "consistency", "convexity", "metrics", "audit", "map_demo")

_LAPLACE_SERIES = {
    "kind": "series",
    "basis": {"kind": "fourier_circle"},
    "schedule": {"kind": "algebraic_fourier", "s": 1.25},
    "law": {"kind": "iid", "dist": {"kind": "laplace", "params": {"m": 0.0, "sigma": 1.0}}},
    "dilation": 1.0,
}

_HIERARCHICAL_SERIES = {
    "kind": "series",
    "basis": {"kind": "fourier_circle"},
    "schedule": {"kind": "algebraic_fourier", "s": 1.0},
    "law": {
        "kind": "hierarchical",
        "scale": {"kind": "gamma", "params": {"k": 2.0, "lam": 1.0}},
        "mode": {"kind": "gaussian", "params": {"m": 0.0, "sigma": 1.0}},
    },
    "dilation": 1.0,
}


def _deconvolution(algebraic: float, truncation: int) -> dict:
    """A deconvolution model dict at the eight equispaced observation points."""
    return {
        "kind": "deconvolution",
        "multipliers": {"algebraic": algebraic},
        "observation_points": [float(p) for p in equispaced_points(8)],
        "truncation": truncation,
    }


def default_config(experiment: str) -> dict:
    if experiment == "stability":
        return {
            "seed": 0,
            "effort": 100000,
            "prior": dict(_LAPLACE_SERIES),
            "model": _deconvolution(1.0, 16),
            "sigma2": 4.0,
            "deltas": [float(d) for d in np.logspace(-3.0, -1.0, 7)],
        }
    if experiment == "consistency":
        return {
            "seed": 0,
            "effort": 100000,
            "prior": dict(_LAPLACE_SERIES),
            "hierarchical_prior": dict(_HIERARCHICAL_SERIES),
            "model": _deconvolution(0.0, 128),
            "sigma2": 4.0,
            "n_grid": [2, 4, 8, 16, 32],
        }
    if experiment == "convexity":
        return {"seed": 0, "effort": 100000, "lam": 0.5}
    if experiment == "metrics":
        return {
            "seed": 0,
            "effort": 100000,
            "quad_effort": 1600,
            "num_pairs": 20,
            "pair_scale": 0.5,
            "prior": dict(_LAPLACE_SERIES),
            "model": _deconvolution(1.0, 8),
            "sigma2": 4.0,
        }
    if experiment == "audit":
        return {
            "seed": 0,
            "num_samples": 2000,
            "radius": 1.0,
            "potentials": [
                {
                    "kind": "gaussian_additive",
                    "model": _deconvolution(1.0, 8),
                    "noise": {"sigma2": 4.0},
                    "y": [0.5, -0.25, 0.75, -0.5, 0.25, -0.75, 1.0, -1.0],
                    "proj_level": None,
                },
                {
                    "kind": "gaussian_additive",
                    "model": {"kind": "linear", "matrix": [[1.0, 0.3], [0.2, 1.0]]},
                    "noise": {"sigma2": 1.0},
                    "y": [0.5, -0.3],
                    "proj_level": None,
                },
                {"kind": "multiplicative_uniform", "y": 1.0, "dim": 4},
            ],
        }
    if experiment == "map_demo":
        return {
            "seed": 0,
            "rows": 12,
            "cols": 8,
            "truth_positions": [0, 3, 6],
            "truth_values": [1.5, -2.0, 1.0],
            "noise_sigma": 0.1,
            "weights": [float(w) for w in np.logspace(-3.0, 0.0, 8)],
        }
    raise ValueError(f"unknown experiment {experiment!r}")


def run_experiment(experiment: str, config: dict | None = None, seed: int | None = None) -> dict:
    cfg = default_config(experiment)
    if config:
        unknown = set(config) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys for {experiment}: "
                             + ", ".join(f"config key {key!r}" for key in sorted(unknown)))
        cfg.update(config)
    if seed is not None:
        cfg["seed"] = int(seed)
    for key, value in cfg.items():  # the report embeds cfg as JSON, which takes no NaN or infinity
        try:
            canonical_json(value)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"config key {key!r} is not finite JSON: {exc}") from None
    runner = {
        "stability": run_stability,
        "consistency": run_consistency,
        "convexity": run_convexity,
        "metrics": run_metrics,
        "audit": run_audit,
        "map_demo": run_map_demo,
    }[experiment]
    return runner(cfg)


# ---------------------------------------------------------------------------
# report plumbing


def _point(x, value, stderr, method, effort, label) -> dict:
    return {
        "x": float(x),
        "value": float(value),
        "stderr": float(stderr),
        "method": str(method),
        "effort": int(effort),
        "label": str(label),
    }


def _verdict(passed, observed, tolerance: str) -> dict:
    if isinstance(observed, (list, tuple)):
        observed = [v if isinstance(v, str) else float(v) for v in observed]
    elif isinstance(observed, (bool, np.bool_)):
        observed = bool(observed)
    else:
        observed = float(observed)
    return {"passed": bool(passed), "observed": observed, "tolerance": tolerance}


def _report(experiment: str, cfg: dict, points: list, fits: dict, verdicts: dict) -> dict:
    return {
        "experiment": experiment,
        "config": cfg,
        "points": points,
        "fits": fits,
        "verdicts": verdicts,
        "provenance": {
            "config_hash": config_hash(cfg),
            "seed": int(cfg["seed"]),
            "versions": {
                "cbayes": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": "%d.%d.%d" % sys.version_info[:3],
            },
        },
    }


def all_verdicts_pass(report: dict) -> bool:
    return all(v["passed"] for v in report["verdicts"].values())


def report_points_csv(report: dict) -> str:
    lines = ["x,value,stderr,method,effort"]
    for p in report["points"]:
        lines.append(f"{p['x']!r},{p['value']!r},{p['stderr']!r},{p['method']},{p['effort']}")
    return "\n".join(lines) + "\n"


def _line_fit(x, y):
    """Least-squares slope with its regression standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * y)) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - slope * x - intercept
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(np.sum(resid * resid)) / dof / sxx)
    return slope, intercept, se


_MIN_ESS = 1000.0


def _min_ess_verdict(reps) -> dict:
    """Every prior-draw estimate in reps has Kong's ESS of at least _MIN_ESS."""
    low = min(r.ess for r in reps if r.ess is not None)
    return _verdict(low >= _MIN_ESS, low, "Kong ESS >= 1000 on every prior-draw estimate")


def _require(ok: bool, key: str, what: str):
    """Refuse a config whose key the suite cannot run with."""
    if not ok:
        raise ValueError(f"config key {key!r} {what}")


def _effort(cfg: dict) -> int:
    """The config's effort: two draws at least, for a sample stderr."""
    effort = int(cfg["effort"])
    _require(effort >= 2, "effort", "must be at least 2")
    return effort


def _decoded(key: str, make):
    """make(), which decodes the config object under key or checks what it
    decoded to, refused naming the key when the decoder or a constructor
    raises ValueError, KeyError (a missing field) or TypeError."""
    try:
        return make()
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"config key {key!r} does not decode: {type(exc).__name__}: {exc}") from None


def _series_prior(cfg: dict, key: str, N: int) -> SeriesPrior:
    """The series prior under key, refused naming the key when it does not
    decode or cannot be drawn at window level N (an explicit schedule
    shorter than the window)."""
    prior = _decoded(key, lambda: prior_from_json(cfg[key]))
    _require(isinstance(prior, SeriesPrior), key, "must be a series prior")
    _decoded(key, lambda: prior.weights(N))
    return prior


def _deconvolution_setup(cfg: dict, tag: str):
    """The config's deconvolution model, its series prior and the
    GaussianAdditive potential at data synthesized from that prior under
    tag.  A model, prior or sigma2 the suite cannot run with (sigma2 not
    positive and finite, NaN included) is refused naming the key before
    the draw."""
    model = _decoded("model", lambda: model_from_json(cfg["model"]))
    _require(isinstance(model, DeconvolutionModel), "model", "must be a deconvolution model")
    prior = _series_prior(cfg, "prior", model.truncation)
    sigma2 = float(cfg["sigma2"])
    _require(0 < sigma2 < math.inf, "sigma2", "must be positive and finite")
    return model, prior, GaussianAdditive(model, sigma2, _synthetic_data(prior, model, sigma2, int(cfg["seed"]), tag))


def _subseed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{int(seed)}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _synthetic_data(prior, model, sigma2: float, seed: int, tag: str) -> np.ndarray:
    """One prior draw pushed through the model plus scaled noise."""
    truth = sample_coefficients(prior, model.truncation, 1, _subseed(seed, tag + ":truth"))[0]
    eta = streams.normals(streams.substream(_subseed(seed, tag + ":noise"), streams.DATA, 0), (model.data_dim,))
    return model.apply(truth) + math.sqrt(sigma2) * eta


# ---------------------------------------------------------------------------
# stability


def run_stability(cfg: dict) -> dict:
    model, prior, phi = _deconvolution_setup(cfg, "stability")
    effort = _effort(cfg)
    seed = int(cfg["seed"])
    deltas = [float(d) for d in cfg["deltas"]]
    _require(len(set(deltas)) >= 2 and all(0 < d < math.inf for d in deltas), "deltas",
             "must hold at least two distinct positive finite sizes")
    m = model.data_dim

    # the residuals r = G(u) - y, in place: every perturbed potential is
    # the exact update misfit_delta(r, s) of the unperturbed one
    res = np.empty((effort, m), order="F")
    for start, block in coefficient_chunks(prior, model.truncation, effort, seed):
        res[start : start + len(block)] = model.apply_many(block)
        del block  # one block at a time (see coefficient_chunks)
    res -= phi.y
    p0 = phi.misfit(res, np.zeros(m))  # the bits of misfit(G(u), y)

    grid = [(i, d) for i in range(m) for d in deltas]
    shifts = np.eye(m)

    def perturbed(i, d):
        p = phi.misfit_delta(res, d * shifts[i])
        p += p0
        return p

    reps = hellinger_from_reference(p0, itertools.chain([p0], itertools.starmap(perturbed, grid)))
    zero_rep = reps[0]
    points = [_point(0.0, zero_rep.value, zero_rep.stderr, zero_rep.method, zero_rep.effort, "direction_0")]

    ratios = []
    log_d, log_h, dir_of = [], [], []
    for (i, d), rep in zip(grid, reps[1:]):
        _require(rep.value > 0, "deltas", f"entry {d!r} is below what the estimator resolves: d_H estimate 0")
        points.append(_point(d, rep.value, rep.stderr, rep.method, rep.effort, f"direction_{i}"))
        ratios.append(rep.value / d)
        log_d.append(math.log(d))
        log_h.append(math.log(rep.value))
        dir_of.append(i)

    slope, _, slope_se = _line_fit(log_d, log_h)
    per_dir = []
    for i in range(m):
        xs = [x for x, j in zip(log_d, dir_of) if j == i]
        ys = [y for y, j in zip(log_h, dir_of) if j == i]
        per_dir.append(_line_fit(xs, ys)[0])
    spread = max(ratios) / min(ratios)

    fits = {
        "slope": slope,
        "slope_stderr": slope_se,
        "per_direction_slopes": per_dir,
        "ratio_max": max(ratios),
        "ratio_min": min(ratios),
        "ratio_spread": spread,
    }
    verdicts = {
        "zero_perturbation_exact": _verdict(
            zero_rep.value == 0.0 and zero_rep.stderr == 0.0, zero_rep.value, "d_H == 0 exactly at delta = 0"
        ),
        "ratio_bounded": _verdict(spread < 3.0, spread, "max/min of d_H/delta over the grid < 3"),
        "slope_in_window": _verdict(0.8 <= slope <= 1.2, slope, "pooled log-log slope in [0.8, 1.2]"),
        "min_ess": _min_ess_verdict(reps),
    }
    return _report("stability", cfg, points, fits, verdicts)


# ---------------------------------------------------------------------------
# consistency


def _truncation_distances(prior, phi, n_grid, effort, seed):
    """Paired-seed d_H between the posterior of potential phi at its
    model's truncation (the reference level) and each window truncation
    in n_grid, sharing one batch of reference draws.

    Each block of draws is pushed through the levels in increasing order,
    adding the columns a level brings (a view: windows are prefixes) to
    the forward sum, and only the per-level potentials are kept; one
    hellinger_from_reference call then forms the reference weights once
    for every level's distance.
    """
    model, n_ref = phi.model, phi.model.truncation
    levels = sorted(set(int(n) for n in n_grid) | {n_ref})
    design = model.design_matrix()
    ends = [len(model.window_positions(N)) for N in levels]
    pots = np.empty((len(levels), effort))
    for start, block in coefficient_chunks(prior, n_ref, effort, seed):
        fwd = np.zeros((len(block), model.data_dim), order="F")
        for i, (lo, hi) in enumerate(zip([0] + ends, ends)):
            fwd += block[:, lo:hi] @ design[:, lo:hi].T
            pots[i, start : start + len(block)] = phi.misfit(fwd, phi.y)
        del block  # one block at a time (see coefficient_chunks)
    return list(zip(levels, hellinger_from_reference(pots[levels.index(n_ref)], pots)))


def _exact_truncations(key: str, prior: SeriesPrior, phi, n_grid) -> list:
    """hellinger_truncations_exact, its refusal named by the config key at
    fault: key itself when that is the prior."""
    try:
        return hellinger_truncations_exact(prior, phi, n_grid)
    except _ModeRefusal as exc:
        _require(False, key if exc.subject == "prior" else exc.subject, exc.what)


_EXACT_SIZE = 0.01
_TAIL_CUTOFF = 100000  # window level at which the projection-error oracle cuts its tail sum


def _exact_verdict(reps, exact) -> dict:
    """Every prior-draw estimate in reps within the two-sided Bonferroni
    bound of its exact value, at family-wise size _EXACT_SIZE over the k
    levels below the reference (the last), whose distances are exactly 0."""
    k = len(reps) - 1
    bound = -quantile_interval(Gaussian(0.0, 1.0), _EXACT_SIZE / (2 * k), 0.5)[0]
    z = [(r.value - e.value) / r.stderr for r, e in zip(reps[:-1], exact[:-1])]
    return _verdict(all(abs(v) <= bound for v in z), z,
                    f"|MC - exact| / stderr <= {bound:.2f} at each of the k = {k} levels below n_ref"
                    f" (two-sided, Bonferroni over k, family-wise size {_EXACT_SIZE:.0%})")


def run_consistency(cfg: dict) -> dict:
    model, prior, phi = _deconvolution_setup(cfg, "consistency")
    effort = _effort(cfg)
    seed = int(cfg["seed"])
    n_grid = [int(n) for n in cfg["n_grid"]]
    n_ref = model.truncation
    _require(all(1 <= n <= n_ref for n in n_grid), "n_grid", "levels must lie in [1, the model truncation]")
    # each slope fit drops the smallest level and needs two after the drop
    _require(len(set(n_grid) - {n_ref}) >= 3, "n_grid", "needs 3 distinct levels below the model truncation")
    # the tail-sum oracle's rate verdict is stated for algebraic Fourier weights, and it reads one iid law's variance
    _require(isinstance(prior.schedule, AlgebraicFourier) and isinstance(prior.law, IID), "prior",
             "must be a series with an algebraic_fourier schedule and an iid law")
    hier = _series_prior(cfg, "hierarchical_prior", n_ref)
    # both halves' exact distances, each refused naming its key before any estimator draw
    exact = _exact_truncations("prior", prior, phi, n_grid)
    y_h = _synthetic_data(hier, model, phi.noise, seed, "consistency_hierarchical")
    exact_h = _exact_truncations("hierarchical_prior", hier, GaussianAdditive(model, phi.noise, y_h), n_grid)

    points = []
    pairs = _truncation_distances(prior, phi, n_grid, effort, seed)
    ref_rep = None
    fit_x, fit_y, exact_y = [], [], []
    for (N, rep), (_, ex) in zip(pairs, exact):
        points.append(_point(N, rep.value, rep.stderr, rep.method, rep.effort, "laplace"))
        if N == n_ref:
            ref_rep = rep
        else:
            fit_x.append(math.log(N))
            fit_y.append(math.log(rep.value))
            exact_y.append(math.log(ex.value))
    slope, _, slope_se = _line_fit(fit_x[1:], fit_y[1:])
    for N, ex in exact:
        points.append(_point(N, ex.value, ex.stderr, ex.method, ex.effort, "laplace"))

    # deterministic projection-error oracle: the prior's L2 mass outside
    # window N, sqrt(E xi^2 * sum of (dilation gamma_k)^2), its index sum
    # cut at the window of level _TAIL_CUTOFF
    coeff_var = second_moment(prior.law.dist)  # centered law: variance
    tail_sq = np.square(prior.weights(_TAIL_CUTOFF))
    proj_x, proj_y = [], []
    for N in sorted(set(n_grid) - {n_ref}):  # the levels of the d_H fit, in its order
        e = math.sqrt(coeff_var * float(np.sum(tail_sq[len(prior.basis.window_indices(N)) :])))
        points.append(_point(N, e, 0.0, "tail_sum", _TAIL_CUTOFF, "projection_error"))
        proj_x.append(math.log(N))
        proj_y.append(math.log(e))
    proj_slope, _, proj_se = _line_fit(proj_x[1:], proj_y[1:])
    # sum_{|k|>N} (1 + k^2)^(-2s) ~ N^(1-4s), so the error's rate is N^((1-4s)/2)
    rate = (1.0 - 4.0 * prior.schedule.s) / 2.0

    # hierarchical prior: exact distances, no rate claim, monotone decay only
    hier_vals = []
    for N, ex in exact_h:
        points.append(_point(N, ex.value, ex.stderr, ex.method, ex.effort, "hierarchical"))
        if N != n_ref:
            hier_vals.append(ex.value)
    monotone = all(b <= a for a, b in zip(hier_vals[:-1], hier_vals[1:]))

    # weights square-summable (p = 1) and Var|xi| bounded (q = inf)
    admissible = [admissibility_check(pr, 1.0, math.inf, 4096) for pr in (prior, hier)]

    fits = {
        "slope": slope,
        "slope_stderr": slope_se,
        "projection_slope": proj_slope,
        "projection_slope_stderr": proj_se,
        "laplace_exact_slope": _line_fit(fit_x[1:], exact_y[1:])[0],
        "hierarchical_exact_slope": _line_fit(fit_x[1:], [math.log(v) for v in hier_vals[1:]])[0],
    }
    verdicts = {
        "reference_self_distance_exact": _verdict(
            ref_rep.value == 0.0 and ref_rep.stderr == 0.0, ref_rep.value, "d_H == 0 exactly at N = n_ref"
        ),
        "rate_slope_in_window": _verdict(
            rate - 0.6 <= slope <= rate + 0.5, slope, f"log-log slope of d_H vs N in [{rate - 0.6!r}, {rate + 0.5!r}]"
        ),
        "projection_slope_near_rate": _verdict(
            abs(proj_slope - rate) <= 0.1, proj_slope, f"tail-sum slope = {rate!r} +/- 0.1"
        ),
        "hierarchical_monotone": _verdict(
            monotone, hier_vals, "exact d_H (mode quadrature) nonincreasing in N, with no tolerance"
        ),
        "laplace_matches_exact": _exact_verdict([rep for _, rep in pairs], [ex for _, ex in exact]),
        "priors_admissible": _verdict(
            all(r.passed for r in admissible),
            [v for r in admissible for v in (r.gamma_partial_lp, r.var_partial_lq)],
            "laplace and hierarchical: sum of gamma_k^2 over 4096 terms moves < 1e-6 relatively"
            " in its last doubling, and Var|xi| is finite",
        ),
        "min_ess": _min_ess_verdict([rep for _, rep in pairs]),
    }
    return _report("consistency", cfg, points, fits, verdicts)


# ---------------------------------------------------------------------------
# convexity

_CONVEXITY_CASES = (
    ("gaussian", Gaussian(0.0, 1.0), (-1.2, 0.3), (-0.2, 1.5)),
    ("exponential", Exponential(1.0), (0.1, 0.9), (0.5, 2.2)),
    ("laplace", Laplace(0.0, 1.0), (-1.0, 0.4), (0.0, 1.8)),
    ("logistic", Logistic(0.0, 1.0), (-2.0, 0.5), (-0.5, 2.5)),
    ("gamma", Gamma(2.0, 1.0), (0.3, 1.6), (1.0, 3.5)),
    ("uniform", Uniform(0.0, 1.0), (0.05, 0.5), (0.35, 0.95)),
)


def run_convexity(cfg: dict) -> dict:
    seed = int(cfg["seed"])
    effort = _effort(cfg)
    lam = float(cfg["lam"])
    _require(0.0 < lam < 1.0, "lam", "must lie strictly between 0 and 1")

    points = []
    flat = {}
    for idx, (name, dist, box_a, box_b) in enumerate(_CONVEXITY_CASES):
        prior = SeriesPrior(FourierCircle(), AlgebraicFourier(0.0), IID(dist))
        r1 = marginal_convexity_test(
            prior, [{0: 1.0}], [box_a], [box_b], lam, 2, effort, _subseed(seed, f"cx1:{name}")
        )
        r2 = marginal_convexity_test(
            prior, [{0: 1.0}, {1: 1.0}], [box_a, box_a], [box_b, box_b], lam, 2, effort,
            _subseed(seed, f"cx2:{name}"),
        )
        flat[name] = (r1, r2)
        points.append(_point(idx, r1.lhs, r1.lhs_stderr, "prior_mc", effort, f"{name}_1d_lhs"))
        points.append(_point(idx, r1.rhs, r1.rhs_stderr, "prior_mc", effort, f"{name}_1d_rhs"))
        points.append(_point(idx, r2.lhs, r2.lhs_stderr, "prior_mc", effort, f"{name}_2d_lhs"))
        points.append(_point(idx, r2.rhs, r2.rhs_stderr, "prior_mc", effort, f"{name}_2d_rhs"))

    # closed-form Laplace oracles on the unit-weight first coordinate
    lap_prior = SeriesPrior(FourierCircle(), AlgebraicFourier(0.0), IID(Laplace(0.0, 1.0)))
    strict = marginal_convexity_test(
        lap_prior, [{0: 1.0}], [(-1.0, 1.0)], [(1.0, 3.0)], 0.5, 2, effort, _subseed(seed, "strict")
    )
    strict_lhs = 0.5 * (1.0 - math.exp(-2.0))
    strict_rhs = math.sqrt((1.0 - math.exp(-1.0)) * 0.5 * (math.exp(-1.0) - math.exp(-3.0)))
    points.append(_point(0, strict.lhs, strict.lhs_stderr, "prior_mc", effort, "laplace_strict_lhs"))
    points.append(_point(0, strict.rhs, strict.rhs_stderr, "prior_mc", effort, "laplace_strict_rhs"))

    equal = marginal_convexity_test(
        lap_prior, [{0: 1.0}], [(0.0, 1.0)], [(2.0, 3.0)], 0.5, 2, effort, _subseed(seed, "equal")
    )
    equal_val = 0.5 * math.exp(-1.0) * (1.0 - math.exp(-1.0))
    points.append(_point(0, equal.lhs, equal.lhs_stderr, "prior_mc", effort, "laplace_equality_lhs"))
    points.append(_point(0, equal.rhs, equal.rhs_stderr, "prior_mc", effort, "laplace_equality_rhs"))

    # 2-D product-CDF oracle on the Gaussian case
    g1, g2 = flat["gaussian"]
    name, dist, box_a, box_b = _CONVEXITY_CASES[0]
    box_c = tuple(lam * a + (1.0 - lam) * b for a, b in zip(box_a, box_b))
    pa = interval_probability(dist, *box_a) ** 2
    pb = interval_probability(dist, *box_b) ** 2
    pc = interval_probability(dist, *box_c) ** 2
    oracle_rhs = pa**lam * pb ** (1.0 - lam)
    oracle_ok = (
        abs(g2.lhs - pc) <= 3.0 * g2.lhs_stderr and abs(g2.rhs - oracle_rhs) <= 3.0 * max(g2.rhs_stderr, 1e-12)
    )

    # reweighted posterior marginal: convex potential keeps the inequality
    post_prior = ProductPrior((Gaussian(0.0, 1.0), Gaussian(0.0, 1.0)))
    post_model = LinearModel(np.array([[1.0, 0.3], [0.2, 1.0]]))
    post_phi = GaussianAdditive(post_model, 1.0, np.array([0.5, -0.3]))
    spec = PosteriorSpec(post_prior, post_phi)
    A = np.array([[-1.0, -1.0], [0.0, 0.0]])  # rows: lower and upper corner
    B = np.array([[0.5, 0.5], [1.5, 1.5]])
    lower, upper = np.stack([lam * A + (1 - lam) * B, A, B], axis=1)  # boxes C, A, B
    boxes = weighted_probability(spec, lower, upper, effort, _subseed(seed, "posterior"))
    post = _convexity_judge(*((r.value, r.stderr) for r in boxes), lam)
    points.append(_point(0, post.lhs, post.lhs_stderr, "prior_mc", effort, "posterior_lhs"))
    points.append(_point(0, post.rhs, post.rhs_stderr, "prior_mc", effort, "posterior_rhs"))

    fits = {
        "laplace_strict_oracle_lhs": strict_lhs,
        "laplace_strict_oracle_rhs": strict_rhs,
        "laplace_equality_oracle": equal_val,
        "product_cdf_oracle_lhs": pc,
        "product_cdf_oracle_rhs": oracle_rhs,
    }
    verdicts = {
        "all_1d_marginals": _verdict(
            all(r1.passed for r1, _ in flat.values()),
            [r1.margin for r1, _ in flat.values()],
            "margin >= -3 combined stderr on every family",
        ),
        "all_2d_marginals": _verdict(
            all(r2.passed for _, r2 in flat.values()),
            [r2.margin for _, r2 in flat.values()],
            "margin >= -3 combined stderr on every family",
        ),
        "laplace_strict_oracle": _verdict(
            strict.passed
            and abs(strict.lhs - strict_lhs) <= 3.0 * strict.lhs_stderr
            and abs(strict.rhs - strict_rhs) <= 3.0 * strict.rhs_stderr,
            [strict.lhs, strict.rhs],
            "lhs and rhs match closed forms within 3 stderr",
        ),
        "laplace_equality_oracle": _verdict(
            abs(equal.lhs - equal_val) <= 3.0 * equal.lhs_stderr
            and abs(equal.rhs - equal_val) <= 3.0 * equal.rhs_stderr,
            [equal.lhs, equal.rhs],
            "both sides match 0.5*exp(-1)*(1-exp(-1)) within 3 stderr",
        ),
        "product_cdf_oracle": _verdict(
            oracle_ok, [g2.lhs, g2.rhs], "2-D box probabilities match CDF products within 3 stderr"
        ),
        "posterior_marginal": _verdict(post.passed, post.margin, "margin >= -3 combined stderr"),
    }
    return _report("convexity", cfg, points, fits, verdicts)


# ---------------------------------------------------------------------------
# metrics


def run_metrics(cfg: dict) -> dict:
    seed = int(cfg["seed"])
    effort = _effort(cfg)
    quad_effort = int(cfg["quad_effort"])
    _require(quad_effort >= 1, "quad_effort", "must be at least 1")
    num_pairs = int(cfg["num_pairs"])
    _require(num_pairs >= 1, "num_pairs", "must be at least 1, or no pair judges the sandwich and the gap")
    pair_scale = float(cfg["pair_scale"])
    _require(0 < pair_scale < math.inf, "pair_scale", "must be positive and finite")
    model, prior, phi = _deconvolution_setup(cfg, "metrics")

    points = []

    # identical pair: weights cancel algebraically
    res = np.empty((effort, model.data_dim), order="F")  # G(u), then the residuals G(u) - y
    hv = np.empty(effort)  # the test function of the expectation-gap check
    for start, block in coefficient_chunks(prior, model.truncation, effort, seed):
        res[start : start + len(block)] = model.apply_many(block)
        hv[start : start + len(block)] = block[:, 0]
        del block  # one block at a time (see coefficient_chunks)
    res -= phi.y
    hv2 = hv * hv  # squared once for every pair's gap check
    p0 = phi.misfit(res, np.zeros(model.data_dim))  # the bits of misfit(G(u), y)
    same_h = hellinger_from_potentials(p0, p0)
    same_t = total_variation_from_potentials(p0, p0)
    points.append(_point(0, same_h.value, same_h.stderr, same_h.method, same_h.effort, "identical_hellinger"))
    points.append(_point(0, same_t.value, same_t.stderr, same_t.method, same_t.effort, "identical_tv"))

    # closed-form pair: unit Gaussian against its unit-mean tilt
    g1 = ProductPrior((Gaussian(0.0, 1.0),))
    tilt = CustomPotential(lambda c: 0.5 - float(c[0]), dim=1, batch_fn=lambda c: 0.5 - c[:, 0])
    zero = CustomPotential(lambda c: 0.0, dim=1, batch_fn=lambda c: np.zeros(len(c)))
    spec_t = PosteriorSpec(g1, tilt)
    spec_z = PosteriorSpec(g1, zero)
    dh_true = math.sqrt(1.0 - math.exp(-0.125))
    tv_true = 1.0 - 2.0 * Gaussian(0.0, 1.0).cdf(-0.5)
    hq = hellinger(spec_t, spec_z, method="quadrature", effort=quad_effort)
    tq = total_variation(spec_t, spec_z, method="quadrature", effort=quad_effort)
    hm = hellinger(spec_t, spec_z, method="prior_mc", effort=effort, seed=_subseed(seed, "mc_h"))
    tm = total_variation(spec_t, spec_z, method="prior_mc", effort=effort, seed=_subseed(seed, "mc_t"))
    for rep, label in ((hq, "gaussian_pair_hellinger"), (tq, "gaussian_pair_tv")):
        points.append(_point(0, rep.value, rep.stderr, rep.method, rep.effort, label))
    for rep, label in ((hm, "gaussian_pair_hellinger"), (tm, "gaussian_pair_tv")):
        points.append(_point(0, rep.value, rep.stderr, rep.method, rep.effort, label))

    # random data pairs: sandwich and expectation gap on shared draws, the
    # pairs computed on two threads (_share_work) and read in pair order
    gen = streams.substream(_subseed(seed, "pairs"), streams.DATA, 1)
    shifts = pair_scale * streams.normals(gen, (num_pairs, 2, model.data_dim))

    def pair_metrics(pair_shifts, own):
        pa, pb = (phi.misfit_delta(res, s) for s in pair_shifts)
        pa += p0
        pb += p0
        return _paired_metrics(pa, pb, hv, hv2, own)

    lower_ok, upper_ok, gap_ok = [], [], []
    reps = [same_h, same_t, hm, tm]
    pairs = _share_work(pair_metrics, shifts, lambda: [np.empty(effort) for _ in range(3)])
    for j, (dh, tv, gap) in enumerate(pairs):
        reps += [dh, tv]
        points.append(_point(j, dh.value, dh.stderr, dh.method, dh.effort, "random_pair_hellinger"))
        points.append(_point(j, tv.value, tv.stderr, tv.method, tv.effort, "random_pair_tv"))
        lower_ok.append(dh.value**2 <= tv.value + 3.0 * (tv.stderr + 2.0 * dh.value * dh.stderr))
        upper_ok.append(tv.value <= math.sqrt(2.0) * dh.value + 3.0 * (tv.stderr + math.sqrt(2.0) * dh.stderr))
        gap_ok.append(gap.passed)
    del hv, hv2, res

    verdicts = {
        "identical_pair_exact": _verdict(
            same_h.value == 0.0 and same_t.value == 0.0, [same_h.value, same_t.value], "both distances exactly 0"
        ),
        "hellinger_quadrature_oracle": _verdict(
            abs(hq.value - dh_true) <= 1e-4, hq.value, "|d_H - sqrt(1-exp(-1/8))| <= 1e-4"
        ),
        "tv_quadrature_oracle": _verdict(
            abs(tq.value - tv_true) <= 1e-4, tq.value, "|d_TV - (2*Phi(1/2)-1)| <= 1e-4"
        ),
        "hellinger_mc_oracle": _verdict(
            abs(hm.value - dh_true) <= 3.0 * hm.stderr, hm.value, "matches closed form within 3 stderr"
        ),
        "tv_mc_oracle": _verdict(
            abs(tm.value - tv_true) <= 3.0 * tm.stderr, tm.value, "matches closed form within 3 stderr"
        ),
        "sandwich_lower": _verdict(
            all(lower_ok), sum(lower_ok), "d_H^2 <= d_TV + 3 combined stderr on every pair"
        ),
        "sandwich_upper": _verdict(
            all(upper_ok), sum(upper_ok), "d_TV <= sqrt(2) d_H + 3 combined stderr on every pair"
        ),
        "expectation_gap": _verdict(
            all(gap_ok), sum(gap_ok), "|E1 h - E2 h| <= 2 sqrt(E1 h^2 + E2 h^2) d_H + 3 stderr"
        ),
        "min_ess": _min_ess_verdict(reps),
    }
    fits = {"hellinger_oracle": dh_true, "tv_oracle": tv_true}
    return _report("metrics", cfg, points, fits, verdicts)


# ---------------------------------------------------------------------------
# audit


def run_audit(cfg: dict) -> dict:
    seed = int(cfg["seed"])
    num = int(cfg["num_samples"])
    _require(num >= 10, "num_samples", "must be at least 10")
    radius = float(cfg["radius"])
    _require(radius > 0, "radius", "must be positive")
    phis = _decoded("potentials", lambda: [potential_from_json(pot_cfg) for pot_cfg in cfg["potentials"]])
    _require(any(isinstance(phi, GaussianAdditive) for phi in phis), "potentials",
             "must hold an additive-Gaussian potential, or gaussian_unflagged judges none")
    points = []
    gaussian_clean = []
    mult_flags = None
    for idx, (pot_cfg, phi) in enumerate(zip(cfg["potentials"], phis)):
        rep = assumption_audit(phi, radius, num, _subseed(seed, f"audit:{idx}"))
        name = pot_cfg["kind"]
        points.append(_point(idx, rep.empirical_M, 0.0, "probe", num, f"{name}_lower_bound"))
        if math.isfinite(rep.empirical_K_r):
            points.append(_point(idx, rep.empirical_K_r, 0.0, "probe", num, f"{name}_upper_bound"))
        points.append(_point(idx, rep.empirical_L_r, 0.0, "probe", num, f"{name}_lipschitz"))
        if rep.empirical_C is not None:
            points.append(_point(idx, rep.empirical_C, 0.0, "probe", num, f"{name}_data_continuity"))
        if isinstance(phi, MultiplicativeUniform):
            mult_flags = set(rep.violations)
        else:
            gaussian_clean.append(rep.violations == ())
    verdicts = {
        "gaussian_unflagged": _verdict(
            all(gaussian_clean), sum(gaussian_clean), "additive-Gaussian potentials report zero violations"
        ),
        "multiplicative_flagged": _verdict(
            mult_flags == {"lower_bound", "bounded_above"},
            sorted(mult_flags or ()),
            "flag set is exactly {lower_bound, bounded_above}",
        ),
    }
    return _report("audit", cfg, points, {}, verdicts)


# ---------------------------------------------------------------------------
# map demo


def run_map_demo(cfg: dict) -> dict:
    seed = int(cfg["seed"])
    rows, cols = int(cfg["rows"]), int(cfg["cols"])
    _require(rows >= 1, "rows", "must be at least 1")
    _require(cols >= 1, "cols", "must be at least 1")
    positions = [int(p) for p in cfg["truth_positions"]]
    _require(all(0 <= p < cols for p in positions), "truth_positions", "must lie in [0, cols)")
    _require(len(set(positions)) == len(positions), "truth_positions", "must not repeat a position")
    values = [float(v) for v in cfg["truth_values"]]
    _require(len(values) == len(positions), "truth_values", "must hold one value per truth position")
    _require(all(math.isfinite(v) for v in values), "truth_values", "must be finite")
    noise_sigma = float(cfg["noise_sigma"])
    _require(0 <= noise_sigma < math.inf, "noise_sigma", "must be nonnegative and finite")
    _require(noise_sigma > 0 or any(values), "noise_sigma", "must be positive when every truth value is 0")
    weights = [float(w) for w in cfg["weights"]]
    _require(len(weights) > 0 and all(0 < w < math.inf for w in weights), "weights",
             "must be a non-empty list of positive finite weights")
    truth = np.zeros(cols)
    truth[positions] = values
    gen = streams.substream(seed, streams.DATA, 2)
    A = streams.normals(gen, (rows, cols)) / math.sqrt(rows)
    eta = streams.normals(streams.substream(seed, streams.DATA, 3), (rows,))
    y = A @ truth + noise_sigma * eta

    support_true = truth != 0.0
    points = []
    gaps = []
    supports = []
    active_res, inactive_grad = [], []  # KKT residuals on and off the support, over w
    for w in weights:
        # sweep the penalty weight directly: weight = sigma^2 / lam
        ista = map_estimate_l1(A, y, 1.0, 1.0 / w, tol=1e-12)
        res = y - A @ ista.estimate  # the residual and g feed both the duality gap and the KKT check
        g = A.T @ res
        # the dual point theta = min(1, w / |g|_inf) res has |A^T theta|_inf <= w, so the Lasso duality
        # gap P(z) - (0.5 |y|^2 - 0.5 |y - theta|^2) = P(z) - theta.(y - theta/2) is at least P(z) - min P
        theta = res * (w / max(float(np.max(np.abs(g))), w))
        gaps.append(_l1_objective(res, ista.estimate, w) - float(theta @ (y - 0.5 * theta)))
        supp = np.abs(ista.estimate) > 1e-8
        supports.append(bool(np.array_equal(supp, support_true)))
        active_res.append(float(np.max(np.abs(g[supp] - w * np.sign(ista.estimate[supp])), initial=0.0)) / w)
        inactive_grad.append(float(np.max(np.abs(g[~supp]), initial=0.0)) / w)
        points.append(_point(w, ista.objective, 0.0, "ista", ista.iterations, "objective"))
        points.append(_point(w, gaps[-1], 0.0, "ista", ista.iterations, "duality_gap"))
        points.append(_point(w, int(np.sum(supp)), 0.0, "ista", ista.iterations, "support_size"))

    w_kill = 1.05 * float(np.max(np.abs(A.T @ y)))
    dead = map_estimate_l1(A, y, 1.0, 1.0 / w_kill, tol=1e-12)
    one_d = map_estimate_l1(np.eye(1), np.array([2.0]), 1.0, 1.0, tol=1e-14)

    fits = {"max_duality_gap": max(gaps), "kill_weight": w_kill, "true_support_weights": sum(supports)}
    verdicts = {
        "one_d_soft_threshold_exact": _verdict(
            abs(float(one_d.estimate[0]) - 1.0) <= 1e-10, float(one_d.estimate[0]), "|z - soft(2, 1)| <= 1e-10"
        ),
        "duality_gap_certified": _verdict(
            max(gaps) <= 1e-8, max(gaps), "Lasso duality gap of the ista estimate <= 1e-8 on every weight"
        ),
        "zero_at_large_weight": _verdict(
            bool(np.all(dead.estimate == 0.0)), float(np.max(np.abs(dead.estimate))),
            "estimate is exactly the zero vector once the weight exceeds ||A^T y||_inf",
        ),
        "kkt_certified": _verdict(
            max(active_res) <= 1e-6 and max(inactive_grad) < 1.0,
            [max(active_res), max(inactive_grad)],
            "over the weights w, with g = A^T (y - A z): max |g_j - w sign(z_j)| / w <= 1e-6 on the"
            " support and max |g_j| / w < 1 off it (strict slack: no other Lasso support)",
        ),
    }
    return _report("map_demo", cfg, points, fits, verdicts)
