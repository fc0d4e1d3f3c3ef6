"""Benchmark of the cbayes library and its verification suites.

    python3 perfbench/run.py --workload suites|estimators|all \\
        --seed N [--seconds S] [--trace 0|1]

Each workload is one closed-loop caller in one process, run against the
package under src/ of this checkout.  With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it also runs the workload with the
layer wrappers of tracing.py installed and prints the per-layer
metrics.  `--workload all` runs every workload both ways, one after the
other.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full record, with the
machine, the checks and the output digests, goes to perfbench/results/.
See perfbench/README.md for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from worker import Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

WORKLOADS = ("suites", "estimators")
SUITES = ("stability", "consistency", "convexity", "metrics", "audit", "map_demo")
SETUP_PROBES = 4  # extra set-up-only processes per loop run, for a median
BLAS_THREADS = "1"  # pinned for every child; no more than nproc
CHILD_TIMEOUT = 150.0
TAIL_WINDOW = 400  # operations per window of the tail statistic
SHORT_ROUNDS = 2  # rounds of the suites other than consistency after each full pass

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "series_prior.sample_coefficients.s": "s",
    "series_prior.sample_coefficients.calls": "count",
    "series_prior.draws": "count",
    "series_prior.bytes_computed": "B",
    "measures1d.sample.s": "s",
    "measures1d.sample.calls": "count",
    "streams.substream.s": "s",
    "streams.substream.calls": "count",
    "forward_models.apply_many.s": "s",
    "forward_models.apply_many.rows": "count",
    "likelihood.evaluate_many.s": "s",
    "likelihood.evaluate_many.rows": "count",
    "likelihood.evaluate.calls": "count",
    "likelihood.evaluate.us_per_call": "us",
    "likelihood.evaluate_with_data.calls": "count",
    "likelihood.assumption_audit.s": "s",
    "posterior.hellinger_from_potentials.s": "s",
    "posterior.hellinger_from_potentials.calls": "count",
    "posterior.total_variation_from_potentials.s": "s",
    "posterior.total_variation_from_potentials.calls": "count",
    "posterior.quadrature.s": "s",
    "posterior.normalization.ess_min": "count",
    "posterior.map_estimate_l1.s": "s",
    "posterior.map_estimate_l1.iterations": "count",
    **{f"experiments.run_{s}.s": "s" for s in SUITES},
    **{f"experiments.run_{s}.peak_rss_mb": "MB" for s in SUITES},
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "config.decode.s": "s",
    "checks_failed": "count",
    "error_rate": "ratio",
}

# Per-layer metrics each workload must see nonzero: the spans the
# prediction table in README.md says the workload exercises.
COVERAGE = {
    "suites": (
        "series_prior.sample_coefficients.calls", "measures1d.sample.calls", "streams.substream.calls",
        "forward_models.apply_many.rows", "likelihood.evaluate.calls", "likelihood.evaluate_with_data.calls",
        "likelihood.assumption_audit.s", "posterior.hellinger_from_potentials.calls",
        "posterior.total_variation_from_potentials.calls", "posterior.quadrature.s",
        "posterior.map_estimate_l1.iterations", "experiments.self_s", "config.decode.s",
        *(f"experiments.run_{s}.s" for s in SUITES),
    ),
    "estimators": (
        "series_prior.sample_coefficients.calls", "measures1d.sample.calls", "streams.substream.calls",
        "forward_models.apply_many.rows", "likelihood.evaluate_many.rows",
        "posterior.hellinger_from_potentials.calls", "posterior.total_variation_from_potentials.calls",
        "posterior.normalization.ess_min", "config.decode.s",
    ),
}


class BenchError(Exception):
    """The benchmark itself could not run or failed a self-check."""


# ---------------------------------------------------------------- children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args: list, timeout: float) -> dict:
    """Run worker.py; time interpreter start to its ready line."""
    cmd = [sys.executable, str(WORKER), *args, "--root", str(ROOT)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    messages = []
    for line in (first + rest).splitlines():
        if line.startswith("{"):
            messages.append(json.loads(line))
    ready = next((m for m in messages if m.get("event") == "ready"), None)
    done = next((m for m in messages if m.get("event") == "done"), None)
    return {"ok": code == 0 and ready is not None, "code": code, "setup_s": setup_s,
            "env": ready and ready["env"], "done": done}


# ---------------------------------------------------------------- statistics


def tail(latencies: list):
    """The highest percentile with at least ten samples beyond it, and
    that percentile.  Below 100 samples that percentile would be under
    p90, so the maximum stands in for it."""
    srt = sorted(latencies)
    k = len(srt) - 11 if len(srt) >= 100 else len(srt) - 1
    return srt[k], 100.0 * (k + 1) / len(srt)


def op_latency(latencies: list) -> dict:
    """Median latency and the tail.  With at least two windows of
    TAIL_WINDOW operations, the tail is the median over the windows, so
    its percentile does not move with the number of operations a run
    completes and one slow stretch of the machine sets only one window."""
    n = len(latencies)
    windows = [latencies[i:i + TAIL_WINDOW] for i in range(0, n - TAIL_WINDOW + 1, TAIL_WINDOW)]
    if len(windows) >= 2:
        tails = [tail(w) for w in windows]
        value, pct = statistics.median(t[0] for t in tails), tails[0][1]
        note = f"p{pct:.1f}, median over {len(windows)} windows of {TAIL_WINDOW} of {n} operations"
    else:
        value, pct = tail(latencies)
        note = f"p{pct:.1f} of {n} operations"
    return {"p50": statistics.median(latencies), "tail": value, "tail_pct": pct, "count": n, "tail_note": note}


def pass_wall(by_kind: dict, plan: list) -> float:
    """Time of one pass over `plan`: the sum of each planned operation's
    median latency.  Medians per operation kind are robust to the slow
    and fast stretches of a shared machine, which a median of whole
    passes is not once a pass straddles them."""
    return sum(statistics.median(by_kind[kind]) for kind in plan)


def loop_wall(done: dict) -> float:
    plan = done["plan"]
    by_kind = {}
    for i, dt in enumerate(done["ops"]):
        by_kind.setdefault(plan[i % len(plan)], []).append(dt)
    return pass_wall(by_kind, plan)


def merge_units(units: list) -> dict:
    out = {"stats": {}, "layers": {}, "counts": {}}
    for u in units:
        for name, (calls, incl, self_s) in u["stats"].items():
            row = out["stats"].setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += incl
            row[2] += self_s
        for layer, incl in u["layers"].items():
            out["layers"][layer] = out["layers"].get(layer, 0.0) + incl
        for key, value in u["counts"].items():
            if key in tracing.VALUE_COUNTS:
                out["counts"][key] = min(out["counts"].get(key, value), value)
            else:
                out["counts"][key] = out["counts"].get(key, 0) + value
    return out


def exact_counts(unit: dict) -> dict:
    """Everything in a unit that must repeat exactly for the same work."""
    calls = {f"{name}.calls": row[0] for name, row in unit["stats"].items()}
    counts = {k: v for k, v in unit["counts"].items() if k not in tracing.VALUE_COUNTS}
    return dict(sorted({**calls, **counts}.items()))


def layer_metrics(unit: dict, setup: dict) -> dict:
    """Per-layer metrics of one unit of work (a suite pass or an
    estimators round); config.decode.s comes from set-up."""
    st, ct = unit["stats"], unit["counts"]

    def total(col, pred):
        return sum(row[col] for name, row in st.items() if pred(name))

    def one(name, col):
        return total(col, lambda k: k == name)

    is_sample = lambda k: k.startswith("measures1d.") and k.endswith(".sample")  # noqa: E731
    is_apply_many = lambda k: k.startswith("forward_models.") and k.endswith(".apply_many")  # noqa: E731
    ga = "likelihood.GaussianAdditive."
    evaluate_calls = one(ga + "evaluate", 0)
    m = {
        "series_prior.sample_coefficients.s": one("series_prior.sample_coefficients", 1),
        "series_prior.sample_coefficients.calls": one("series_prior.sample_coefficients", 0),
        "series_prior.draws": ct.get("series_prior.draws", 0),
        "series_prior.bytes_computed": ct.get("series_prior.bytes_computed", 0),
        "measures1d.sample.s": total(1, is_sample),
        "measures1d.sample.calls": total(0, is_sample),
        "streams.substream.s": one("streams.substream", 1),
        "streams.substream.calls": one("streams.substream", 0),
        "forward_models.apply_many.s": total(1, is_apply_many),
        "forward_models.apply_many.rows": ct.get("forward_models.apply_many.rows", 0),
        "likelihood.evaluate_many.s": one(ga + "evaluate_many", 1),
        "likelihood.evaluate_many.rows": ct.get("likelihood.evaluate_many.rows", 0),
        "likelihood.evaluate.calls": evaluate_calls,
        "likelihood.evaluate.us_per_call": 1e6 * one(ga + "evaluate", 1) / evaluate_calls if evaluate_calls else 0.0,
        "likelihood.evaluate_with_data.calls": one(ga + "evaluate_with_data", 0),
        "likelihood.assumption_audit.s": one("likelihood.assumption_audit", 1),
        "posterior.quadrature.s": one("posterior.hellinger[quadrature]", 1)
        + one("posterior.total_variation[quadrature]", 1),
        "posterior.normalization.ess_min": ct.get("posterior.normalization.ess_min", 0.0),
        "posterior.map_estimate_l1.s": one("posterior.map_estimate_l1", 1),
        "posterior.map_estimate_l1.iterations": ct.get("posterior.map_estimate_l1.iterations", 0),
        "config.decode.s": setup["layers"].get("config", 0.0),
        # set by run_suites from its untraced pass; no suite runs elsewhere
        **{f"experiments.run_{s}.peak_rss_mb": 0.0 for s in SUITES},
    }
    for name in ("hellinger_from_potentials", "total_variation_from_potentials"):
        m[f"posterior.{name}.s"] = one(f"posterior.{name}", 1)
        m[f"posterior.{name}.calls"] = one(f"posterior.{name}", 0)
    for s in SUITES:
        m[f"experiments.run_{s}.s"] = one(f"experiments.run_{s}", 1)
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = total(2, lambda k, p=layer + ".": k.startswith(p))
    return m


def unit_summary(per_unit: list) -> dict:
    """Times as the median over units; counts, which repeat exactly, from
    the first unit; the smallest ESS over all units."""
    out = {}
    for k in per_unit[0]:
        values = [u[k] for u in per_unit]
        if k == "posterior.normalization.ess_min":
            out[k] = min(values)
        elif PER_LAYER[k] in ("count", "B"):
            out[k] = values[0]
        else:
            out[k] = statistics.median(values)
    return out


def check_counts_repeat(units: list, what: str) -> bool:
    first = exact_counts(units[0])
    for i, u in enumerate(units[1:], 1):
        other = exact_counts(u)
        if other != first:
            diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
            print(f"counts of {what} {i} differ from {what} 0: {diff[:10]}", file=sys.stderr)
            return False
    return True


# ---------------------------------------------------------------- checks


def report_valid(name: str, seed: int, text: str) -> bool:
    """Independent checks of one suite report: provenance hash recomputed
    from the embedded config, finite points, probabilities and distances
    within [0, 1], well-formed verdicts."""
    try:
        rep = json.loads(text)
        cfg = rep["config"]
        canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)
        points = rep["points"]
        verdicts = rep["verdicts"]
        prov = rep["provenance"]
    except (ValueError, KeyError, TypeError):
        return False
    return (
        rep.get("experiment") == name
        and cfg.get("seed") == seed
        and prov.get("seed") == seed
        and prov.get("config_hash") == hashlib.sha256(canon.encode()).hexdigest()
        and len(verdicts) > 0
        and all(isinstance(v["passed"], bool) and isinstance(v["tolerance"], str) for v in verdicts.values())
        and all(math.isfinite(p["x"]) and math.isfinite(p["value"]) and math.isfinite(p["stderr"])
                and p["stderr"] >= 0.0 for p in points)
        and all(0.0 <= p["value"] <= 1.0 for p in points if p["method"] in ("prior_mc", "quadrature"))
    )


# ---------------------------------------------------------------- workloads


def suite_pass(seed: int, traced: bool, checks: Checks, outcome: dict, names: tuple = SUITES) -> dict:
    """Run each of `names` once, each in a fresh process."""
    rec = {"op_s": {}, "digests": {}, "rss_mb": {}, "run_units": {}, "setup_units": {}}
    for name in names:
        child = run_child(["suite", name, "--seed", str(seed)] + (["--trace"] if traced else []), CHILD_TIMEOUT)
        outcome["attempted"] += 1
        done = child["done"]
        if not child["ok"] or done is None:
            outcome["failed"] += 1
            print(f"suite {name} failed with exit code {child['code']}", file=sys.stderr)
            continue
        outcome["env"] = outcome["env"] or child["env"]
        if not traced:
            outcome["setup"].append(child["setup_s"])
            outcome["ops"].setdefault(name, []).append(done["op_s"])
        rec["op_s"][name] = done["op_s"]
        rec["rss_mb"][name] = done["rss_mb"]
        rec["digests"][name] = hashlib.sha256(done["report"].encode()).hexdigest()
        checks.add("report_valid", report_valid(name, seed, done["report"]))
        for vname, v in sorted(json.loads(done["report"])["verdicts"].items()):
            checks.add(f"{name}.{vname}", v["passed"], "finding")
            if not v["passed"]:
                outcome["verdict_failures"].add(f"{name}.{vname}")
        if traced:
            rec["run_units"][name] = done["trace"]["run"]
            rec["setup_units"][name] = done["trace"]["setup"]
            outcome["spans"][name] = done["trace"]["spans"]
    return rec


def run_suites(seed: int, seconds: float, trace: bool, checks: Checks, outcome: dict) -> None:
    passes = []
    if trace:
        # one untraced pass as the overhead reference, two traced passes
        # whose counts must repeat exactly
        for traced in (False, True, True):
            passes.append((traced, suite_pass(seed, traced, checks, outcome)))
    else:
        # Consistency takes about two thirds of a full pass, so each full
        # pass is followed by SHORT_ROUNDS rounds of the other five suites:
        # the short suites, whose latencies spread most on a shared
        # machine, get more samples for their medians in the same time.
        short = tuple(s for s in SUITES if s != "consistency")
        rounds = [SUITES] + [short] * SHORT_ROUNDS
        start = time.perf_counter()
        spent = {}
        i = 0
        while True:
            names = rounds[i % len(rounds)]
            t0 = time.perf_counter()
            passes.append((False, suite_pass(seed, False, checks, outcome, names)))
            spent[names] = time.perf_counter() - t0
            i += 1
            following = rounds[i % len(rounds)]
            if time.perf_counter() - start + spent.get(following, spent[names]) > seconds:
                break
    complete = [(t, p) for t, p in passes if len(p["op_s"]) == len(SUITES)]
    digests = [p["digests"] for _, p in passes]
    for name in SUITES:
        seen = {d[name] for d in digests if name in d}
        checks.add("report_repeats", len(seen) <= 1)
    outcome["digests"] = digests[0]
    outcome["rss"] = [max(p["rss_mb"].values()) for _, p in passes if p["rss_mb"]]
    plain = [p for t, p in complete if not t]
    # The six suites are unlike operations, so latencies are summarized
    # per suite first: op_p50_s is the median suite and op_tail_s the
    # slowest suite.
    per_suite = sorted(statistics.median(v) for v in outcome["ops"].values())
    if len(per_suite) == len(SUITES):
        outcome["wall_s"] = pass_wall(outcome["ops"], SUITES)
        outcome["latency"] = {"p50": statistics.median(per_suite), "tail": per_suite[-1], "tail_pct": 100.0,
                              "count": sum(len(v) for v in outcome["ops"].values()),
                              "tail_note": f"the slowest suite, median of {len(plain)} runs"}
    if trace:
        traced = [p for t, p in complete if t]
        if len(traced) < 2 or not plain:
            raise BenchError("a suite pass of the traced run did not complete")
        untraced = plain[0]
        units = [merge_units(p["run_units"].values()) for p in traced]
        outcome["per_suite_trace"] = traced[0]["run_units"]
        checks.add("counts_repeat", check_counts_repeat(units, "traced pass"))
        per_unit = []
        for p, unit in zip(traced, units):
            m = layer_metrics(unit, merge_units(p["setup_units"].values()))
            m.update({f"experiments.run_{s}.peak_rss_mb": untraced["rss_mb"][s] for s in SUITES})
            per_unit.append(m)
        outcome["layer"] = unit_summary(per_unit)
        outcome["counts"] = exact_counts(units[0])
        traced_ops = {name: [p["op_s"][name] for p in traced] for name in SUITES}
        outcome["overhead_base_s"] = outcome["wall_s"]
        outcome["overhead_s"] = pass_wall(traced_ops, SUITES) - outcome["wall_s"]


def run_loop(workload: str, seed: int, seconds: float, trace: bool, checks: Checks, outcome: dict) -> None:
    common = ["loop", workload, "--seed", str(seed)]
    timeout = seconds + CHILD_TIMEOUT
    workers = []
    if trace:
        # untraced reference and traced run, half the time each
        for flag in ([], ["--trace"]):
            workers.append(run_child(common + ["--seconds", str(seconds / 2)] + flag, timeout))
    else:
        for _ in range(SETUP_PROBES):
            probe = run_child(["setup", workload, "--seed", str(seed)], CHILD_TIMEOUT)
            if not probe["ok"]:
                raise BenchError(f"set-up of {workload} failed with exit code {probe['code']}")
            outcome["setup"].append(probe["setup_s"])
        workers.append(run_child(common + ["--seconds", str(seconds)], timeout))
    for w in workers:
        if not w["ok"] or w["done"] is None:
            raise BenchError(f"{workload} worker failed with exit code {w['code']}")
    outcome["env"] = workers[0]["env"]
    plain = workers[0]["done"]
    outcome["setup"].append(workers[0]["setup_s"])
    outcome["wall_s"] = loop_wall(plain)
    outcome["latency"] = op_latency(plain["ops"])
    outcome["rss"] = [w["done"]["rss_mb"] for w in workers]
    outcome["ess"] = plain["ess"]
    outcome["digests"] = plain["digests"]
    for w in workers:
        outcome["attempted"] += len(w["done"]["ops"])
        outcome["failed"] += w["done"]["errors"]
        checks.absorb(w["done"]["checks"])
    if trace:
        done = workers[1]["done"]
        shared = min(len(plain["digests"]), len(done["digests"]))
        checks.add("outputs_identical_with_tracing", plain["digests"][:shared] == done["digests"][:shared])
        units = done["trace"]["units"]
        checks.add("counts_repeat", check_counts_repeat(units, "traced round"))
        setup = done["trace"]["setup"]
        outcome["layer"] = unit_summary([layer_metrics(u, setup) for u in units])
        outcome["counts"] = exact_counts(units[0])
        outcome["spans"] = done["trace"]["spans"]
        outcome["overhead_s"] = loop_wall(done) - outcome["wall_s"]
        outcome["overhead_base_s"] = outcome["wall_s"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    checks = Checks()
    outcome = {"attempted": 0, "failed": 0, "setup": [], "ops": {}, "wall_s": None, "latency": None,
               "rss": [], "env": None, "per_suite_trace": None,
               "verdict_failures": set(), "spans": {}, "digests": None, "layer": None, "counts": None,
               "overhead_s": None, "overhead_base_s": None, "ess": []}
    if workload == "suites":
        run_suites(seed, seconds, trace, checks, outcome)
    else:
        run_loop(workload, seed, seconds, trace, checks, outcome)
    if outcome["wall_s"] is None:
        raise BenchError(f"{workload}: no complete pass over the operations")

    lat = outcome["latency"]
    e2e = {
        "setup_s": statistics.median(outcome["setup"]),
        "wall_s": outcome["wall_s"],
        "op_p50_s": lat["p50"],
        "op_tail_s": lat["tail"],
        "peak_rss_mb": max(outcome["rss"]),
    }
    error_rate = outcome["failed"] / outcome["attempted"]
    layer = None
    if trace:
        layer = dict(outcome["layer"], checks_failed=checks.failed(), error_rate=error_rate)
        missing = [k for k in COVERAGE[workload] if not layer[k]]
        if missing:
            raise BenchError(f"span coverage: {workload} recorded nothing for {', '.join(missing)}")
    return {
        "workload": workload,
        "correct": checks.failed("validity") == 0 and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "end_to_end": e2e,
        "per_layer": layer,
        "op_tail_percentile": lat["tail_pct"],
        "op_count": lat["count"],
        "op_tail_note": lat["tail_note"],
        "checks": checks.table,
        "checks_failed": checks.failed(),
        "error_rate": error_rate,
        "verdict_failures": sorted(outcome["verdict_failures"]),
        "normalization_ess": outcome["ess"],
        "env": outcome["env"],
        "digests": outcome["digests"],
        "counts": outcome["counts"],
        "per_suite_trace": outcome["per_suite_trace"],
        "op_s_by_suite": outcome["ops"] if workload == "suites" else None,
        "tracing_overhead": None if outcome["overhead_s"] is None else {
            "wall_s_traced_minus_untraced": outcome["overhead_s"],
            "share": outcome["overhead_s"] / outcome["overhead_base_s"],
        },
        "spans": {"fields": ["id", "parent", "name", "start", "end"], "rows": outcome["spans"],
                  "cap_per_process": tracing.SPAN_CAP},
    }


# ---------------------------------------------------------------- output


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return out.stdout.strip() or None


def machine(env: dict, seed: int) -> dict:
    return dict(env or {}, nproc=len(os.sched_getaffinity(0)), git_commit=git_commit(), seed=seed)


def print_result(res: dict, prefix: str = "") -> None:
    for name, value in res["end_to_end"].items():
        print(f"{prefix}{name} = {value:.6g} {END_TO_END[name]}")
    print(f"{prefix}op_tail_s is {res['op_tail_note']}")
    for name, value in (res["per_layer"] or {}).items():
        print(f"{prefix}{name} = {value:.6g} {PER_LAYER[name]}")
    if res["per_layer"] is None:
        print(f"{prefix}checks_failed = {res['checks_failed']} count, error_rate = {res['error_rate']:.6g} ratio")
    for name, row in sorted(res["checks"].items()):
        if row["failed"]:
            print(f"{prefix}check failed: {name} [{row['tier']}] {row['failed']} of {row['passed'] + row['failed']}")
    if res["tracing_overhead"]:
        ov = res["tracing_overhead"]
        print(f"{prefix}tracing overhead = {ov['wall_s_traced_minus_untraced']:.6g} s "
              f"({100 * ov['share']:.1f}% of wall_s)")


def write_record(name: str, record: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cbayes" / "__init__.py").is_file():
        print(f"no cbayes package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            res["machine"] = machine(res.pop("env"), args.seed)
            path = write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", res)
            print_result(res)
            metrics, units = (res["per_layer"], PER_LAYER) if args.trace else (res["end_to_end"], END_TO_END)
            summary = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"]}
        else:
            runs = {}
            for w in WORKLOADS:
                for trace in (False, True):
                    res = run_workload(w, args.seed, args.seconds, trace)
                    print_result(res, f"{w}{'[trace]' if trace else ''}: ")
                    runs[f"{w}-trace{int(trace)}"] = res
            env = runs["suites-trace0"]["env"]
            for res in runs.values():
                res.pop("env")
            overhead = {w: runs[f"{w}-trace1"]["tracing_overhead"] for w in WORKLOADS}
            path = write_record(f"all-seed{args.seed}.json",
                                {"machine": machine(env, args.seed), "tracing_overhead": overhead, "runs": runs})
            metrics = {f"{w}.{k}": v for w in WORKLOADS for k, v in runs[f"{w}-trace0"]["end_to_end"].items()}
            units = {f"{w}.{k}": u for w in WORKLOADS for k, u in END_TO_END.items()}
            summary = {key: (all if key == "correct" else sum)(r[key] for r in runs.values())
                       for key in ("correct", "attempted", "failed")}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    bad = sorted(set(units) ^ set(metrics)) + sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if bad:
        print(f"benchmark failed: result metrics missing, unexpected or not finite: {', '.join(bad)}",
              file=sys.stderr)
        return 1
    print(f"record written to {path.relative_to(ROOT)}")
    summary["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
