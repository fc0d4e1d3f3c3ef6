"""Golden digests: the six suite reports stay byte-identical.

Each suite runs at seed 0 with an effort small enough for the whole file
to take a few seconds, yet large enough that every streaming suite spans
at least two blocks of coefficient_chunks.  The sha256 of the report text
as the CLI writes it (json.dumps, sorted keys, indent 2) is pinned.  A
change that moves any bit of any report, arithmetic order included, fails
here; such a change is a report revision and records new digests here.

The digests depend on the numpy, scipy and python versions (they appear
in the report's provenance, and the floating-point kernels differ between
releases), so the test skips under other versions.
"""

import hashlib
import json
import sys

import numpy as np
import pytest
import scipy

from cbayes import run_experiment

VERSIONS = ("2.4.6", "1.17.1", "3.11.7")  # numpy, scipy, python

OVERRIDES = {
    "stability": {"effort": 40000},
    "consistency": {"effort": 5000},
    "metrics": {"effort": 70000, "quad_effort": 200},
    "convexity": {"effort": 20000},
    "audit": {"num_samples": 500},
    "map_demo": {},
}

DIGESTS = {  # report revision 0.8.0
    "stability": "b9629a1027878fb4f9dc81969b89b5d7f71fd5c0e9d58c094fa06700c88ce30c",
    "consistency": "147a34c6c7f50db6aa86ff599726e391b85e0f5aba170a4c608fdb3521751c11",
    "metrics": "57b7bf8ab0069acb7c3236c8de7fb1b2f4580f9497839099f09dfbc36627de51",
    "convexity": "851a247904c48de73890a36eaa2e45a2b2f32314e20d97f7643efeefe4ede6bc",
    "audit": "c55f2d26fa40b5bcc90719f46ec94bcdd5111fb90fa83c98cf3f3eb316e73ce4",
    "map_demo": "7cceda0066f28ce3f68727d4328e04ccc6e1b6f0b395d4cf0a5038731f1942cc",
}


@pytest.mark.skipif(
    (np.__version__, scipy.__version__, "%d.%d.%d" % sys.version_info[:3]) != VERSIONS,
    reason="digests recorded under numpy %s, scipy %s, python %s" % VERSIONS,
)
@pytest.mark.parametrize("name", sorted(OVERRIDES))
def test_report_digest(name):
    report = run_experiment(name, OVERRIDES[name] or None, seed=0)
    text = json.dumps(report, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
