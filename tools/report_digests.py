"""Print the sha256 and failing verdicts of each suite's default-config
report over a seed range.

    python tools/report_digests.py --seeds 0:19

prints one line `suite seed sha256 failing-verdicts` for each of the six
suites at each seed from A to B inclusive; failing-verdicts names the
report's failing verdicts, comma-separated, or is `-` when every verdict
passes.  Each report is serialized as `cbayes run` writes it (json.dumps
with sorted keys and indent 2, then a newline), and cbayes is imported
from the src/ directory next to this script, so the output describes the
checkout the script lives in.  Run it in two checkouts and diff the
outputs: equal lines mean the change moved no bit of any report at those
seeds, and a line that differs in its last field shows a flipped verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cbayes.experiments import EXPERIMENT_NAMES, run_experiment  # noqa: E402


def seed_range(text: str) -> range:
    a, sep, b = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected A:B")
    first, last = int(a), int(b)
    if first > last:
        raise argparse.ArgumentTypeError("A must not exceed B")
    return range(first, last + 1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="inclusive seed range A:B")
    args = parser.parse_args(argv)
    for suite in EXPERIMENT_NAMES:
        for seed in args.seeds:
            report = run_experiment(suite, None, seed)
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
            failing = ",".join(name for name, v in report["verdicts"].items() if not v["passed"]) or "-"
            print(suite, seed, hashlib.sha256(text.encode()).hexdigest(), failing, flush=True)


if __name__ == "__main__":
    main()
