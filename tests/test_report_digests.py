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

DIGESTS = {  # report revision 0.4.0
    "stability": "9bd02174d99c79df8db1b49bcd3a4cfa41260536d9017801573a51a35ab1bd41",
    "consistency": "4f426aecbc418e1fa295d7144764ec268a7c0532254b1f3402f652258ced33f5",
    "metrics": "61e3f47d3273affa69f2bca4f2d41a862530615613f70ea8922ffba5f4b4c2b8",
    "convexity": "6e898d5539b03fb8fe8c143088ef24a8c4c1d11bfe77f645590a764f047a3062",
    "audit": "b9e84fcf2f0ffa25d223ade2b76cff457fe7d949a82b53657ba19c22e5c812f4",
    "map_demo": "1cec541fb13e6348b82aafa81c1bc3ab5f6a4f29d3cd6bce09a8787a30bd99c9",
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
