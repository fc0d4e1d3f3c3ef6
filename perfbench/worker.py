"""Child process of the benchmark: sets up one workload and runs it.

    worker.py suite <name> --seed N [--trace]
        one verification suite, run once through run_experiment
    worker.py setup <workload> --seed N
        set-up only, to sample set-up time
    worker.py loop estimators --seed N --seconds S [--trace]
        one closed-loop caller over the estimators operation mix

The worker writes JSON lines to stdout: {"event": "ready", ...} once
set-up is done (the parent times interpreter start to this line), then
one {"event": "done", ...} with latencies, checks, output digests and,
with --trace, per-unit span aggregates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

import tracing

LAPLACE_PRIOR = {
    "kind": "series",
    "basis": {"kind": "fourier_circle"},
    "schedule": {"kind": "algebraic_fourier", "s": 1.25},
    "law": {"kind": "iid", "dist": {"kind": "laplace", "params": {"m": 0.0, "sigma": 1.0}}},
    "dilation": 1.0,
}
HIERARCHICAL_PRIOR = {
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
LEVEL = 8  # window level N: 16 coefficients
MODEL = {
    "kind": "deconvolution",
    "multipliers": {"algebraic": 1.0},
    "observation_points": [j / 8 for j in range(8)],  # equispaced_points(8)
    "truncation": LEVEL,
}
SIGMA2 = (4.0, 1.0, 0.1)
ESTIMATOR_CALLS = ("hellinger", "total_variation", "normalization", "posterior_mean")
EFFORT = 20000
# Laplace operations are three quarters of the estimators mix, so the
# median lands inside the IID-prior operations and the tail inside the
# hierarchical ones; an even split would put the median on the gap
# between the two latency clusters.
LAPLACE_REPEATS = 3


def derive(*parts) -> int:
    """A 63-bit seed fixed by the workload seed and a path."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def import_cbayes(root: str) -> None:
    import cbayes

    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(cbayes.__file__), src]) != src:
        raise SystemExit(f"cbayes imported from {cbayes.__file__}, not from {src}")


def finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


class Checks:
    """Output checks of one process.  A failed "validity" check means a
    wrong output.  A "finding" is a property of the results that the
    workload reports without calling the output wrong: a suite verdict."""

    def __init__(self):
        self.table = {}

    def add(self, name: str, passed: bool, tier: str = "validity") -> None:
        row = self.table.setdefault(name, {"tier": tier, "passed": 0, "failed": 0})
        row["passed" if passed else "failed"] += 1

    def absorb(self, table: dict) -> None:
        """Add the counts of another process's check table."""
        for name, row in table.items():
            mine = self.table.setdefault(name, {"tier": row["tier"], "passed": 0, "failed": 0})
            mine["passed"] += row["passed"]
            mine["failed"] += row["failed"]

    def failed(self, tier: str | None = None) -> int:
        return sum(r["failed"] for r in self.table.values() if tier is None or r["tier"] == tier)


# ---------------------------------------------------------------- set-up


def gaussian_potential_json(data, sigma2: float) -> dict:
    return {
        "kind": "gaussian_additive",
        "model": MODEL,
        "noise": {"sigma2": sigma2},
        "y": [float(v) for v in data],
        "proj_level": None,
    }


def synthetic_data(prior, seed: int, tag: str, count: int):
    """The model image of one prior draw and `count` standard normal
    vectors, both fixed by the seed."""
    import numpy as np
    from cbayes import config, series_prior

    model = config.model_from_json(MODEL)
    truth = series_prior.sample_coefficients(prior, LEVEL, 1, derive(seed, tag, "truth"))[0]
    eta = np.random.default_rng(derive(seed, tag, "noise")).standard_normal((count, model.data_dim))
    return model.apply(truth), eta


def estimators_setup(seed: int) -> dict:
    from cbayes import config, posterior

    specs = {}
    for pname, prior_json in (("laplace", LAPLACE_PRIOR), ("hierarchical", HIERARCHICAL_PRIOR)):
        prior = config.prior_from_json(prior_json)
        clean, eta = synthetic_data(prior, seed, pname, 2)
        for s2 in SIGMA2:
            y = clean + math.sqrt(s2) * eta[0]
            y_alt = y + 0.5 * math.sqrt(s2) * eta[1]
            specs[pname, s2] = tuple(
                posterior.PosteriorSpec(prior, config.potential_from_json(gaussian_potential_json(d, s2)), LEVEL)
                for d in (y, y_alt)
            )
    plan = [("laplace", s2, call) for _ in range(LAPLACE_REPEATS) for s2 in SIGMA2 for call in ESTIMATOR_CALLS]
    plan += [("hierarchical", s2, call) for s2 in SIGMA2 for call in ESTIMATOR_CALLS]
    return {"specs": specs, "plan": plan}


SETUPS = {"estimators": estimators_setup}


# ---------------------------------------------------------------- operations


def estimator_op(state, entry, seed: int, checks: Checks):
    from cbayes import posterior

    pname, s2, call = entry
    a, b = state["specs"][pname, s2]
    if call in ("hellinger", "total_variation"):
        rep = getattr(posterior, call)(a, b, method="prior_mc", effort=EFFORT, seed=seed)
        checks.add(f"{call}_in_unit_interval", finite(rep.value, rep.stderr) and 0.0 <= rep.value <= 1.0
                   and rep.stderr >= 0.0)
        return (rep.value, rep.stderr)
    if call == "normalization":
        rep = posterior.normalization(a, EFFORT, seed)
        # Phi >= 0 for the Gaussian misfit, so E exp(-Phi) lies in (0, 1]
        checks.add("normalization_in_unit_interval", finite(rep.value, rep.stderr)
                   and 0.0 < rep.value <= 1.0 and 1.0 <= rep.ess <= EFFORT * (1.0 + 1e-12))
        state["ess"].append(rep.ess)
        return (rep.value, rep.stderr, rep.ess)
    means, errs = posterior.posterior_mean(a, EFFORT, seed)
    checks.add("posterior_mean_finite", finite(*means, *errs))
    return tuple(means.tolist()) + tuple(errs.tolist())


OPS = {"estimators": estimator_op}


# ---------------------------------------------------------------- roles


def start(args):
    """Import the package and, with --trace, install the span wrappers."""
    tracer = None
    import_cbayes(args.root)
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    return tracer


def role_setup(args):
    start(args)
    SETUPS[args.target](args.seed)
    emit({"event": "ready", "env": environment()})


def decode_suite_config(cfg: dict) -> None:
    from cbayes import config

    for key in ("prior", "hierarchical_prior"):
        if key in cfg:
            config.prior_from_json(cfg[key])
    if "model" in cfg:
        config.model_from_json(cfg["model"])
    for pot in cfg.get("potentials", ()):
        config.potential_from_json(pot)


def role_suite(args):
    tracer = start(args)
    from cbayes import experiments

    decode_suite_config(experiments.default_config(args.target))
    setup_unit = tracer.take() if tracer else None
    emit({"event": "ready", "env": environment()})
    t0 = time.perf_counter()
    report = experiments.run_experiment(args.target, None, args.seed)
    # serialized exactly as `cbayes run` writes it
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    op_s = time.perf_counter() - t0
    done = {"event": "done", "op_s": op_s, "report": text, "rss_mb": rss_mb()}
    if tracer:
        done["trace"] = {"setup": setup_unit, "run": tracer.take(), "spans": tracer.spans}
    emit(done)


def role_loop(args):
    tracer = start(args)
    state = SETUPS[args.target](args.seed)
    state["ess"] = []
    setup_unit = tracer.take() if tracer else None
    emit({"event": "ready", "env": environment()})

    op = OPS[args.target]
    checks = Checks()
    if args.target == "estimators":
        from cbayes import posterior

        a = state["specs"]["laplace", 1.0][0]
        self_rep = posterior.hellinger(a, a, effort=EFFORT, seed=derive(args.seed, "self"))
        checks.add("self_distance_exactly_zero", self_rep.value == 0.0 and self_rep.stderr == 0.0)
        if tracer:
            tracer.take()

    ops, digests, units, errors = [], [], [], 0
    deadline = time.perf_counter() + args.seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        outputs = []
        for i, entry in enumerate(state["plan"]):
            t0 = time.perf_counter()
            try:
                out = op(state, entry, derive(args.seed, "op", r, i), checks)
            except Exception:  # one failed operation must not end the run
                traceback.print_exc()
                errors += 1
                out = "error"
            ops.append(time.perf_counter() - t0)
            outputs.append(out)
        digests.append(digest(outputs))
        if tracer:
            units.append(tracer.take())
        r += 1
    done = {"event": "done", "plan": [repr(e) for e in state["plan"]], "ops": ops, "digests": digests,
            "errors": errors, "checks": checks.table, "ess": state["ess"], "rss_mb": rss_mb()}
    if tracer:
        done["trace"] = {"setup": setup_unit, "units": units, "spans": tracer.spans}
    emit(done)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("suite", "setup", "loop"))
    ap.add_argument("target")
    ap.add_argument("--root", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    {"suite": role_suite, "setup": role_setup, "loop": role_loop}[args.role](args)


if __name__ == "__main__":
    main()
