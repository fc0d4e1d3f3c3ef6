"""Compare the exact counts and output digests of two benchmark records.

    python3 perfbench/compare.py perfbench/results/A.json perfbench/results/B.json

Use it on two runs of the same code and seed: every count (span calls,
draws, rows, steps, iterations) and every output digest must repeat
exactly, and the exit code is 1 when one does not.  Across commits the
digests are informative only, because a change in arithmetic order may
legitimately move low bits of a report.
"""

from __future__ import annotations

import json
import sys


def runs(record: dict) -> dict:
    if "runs" in record:  # written by --workload all
        return record["runs"]
    return {f"{record['workload']}-trace{int(record['per_layer'] is not None)}": record}


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = runs(json.load(fa)), runs(json.load(fb))
    if a.keys() != b.keys():
        print(f"the records hold different runs: {sorted(a)} vs {sorted(b)}")
        return 1
    differ = 0
    for key in sorted(a):
        for field in ("counts", "digests"):
            va, vb = a[key][field], b[key][field]
            if isinstance(va, list) and isinstance(vb, list):
                # loop digests: one per round, compare the rounds both ran
                n = min(len(va), len(vb))
                va, vb = va[:n], vb[:n]
            if va != vb:
                differ += 1
                print(f"{key}: {field} differ")
            else:
                print(f"{key}: {field} repeat ({'none recorded' if va is None else len(va)})")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
