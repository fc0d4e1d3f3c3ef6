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

DIGESTS = {  # report revision 0.3.0
    "stability": "98648d2b28385f338054c639299f8b3879e0a7a7269268c704955e47c4f17ca7",
    "consistency": "9a6a6a45d9f45047c2678a96883201232ee681c0c1150fe6f1a6f047fe66a730",
    "metrics": "3782a39095a326a13c35c2c2d104f716a400102aa4e59ee2cf65c13809e69050",
    "convexity": "001ad2b2092a44fc95c032fdcc80db168ecd160b307e18813919df062e6c41b8",
    "audit": "d4f3f667da253f9193d9c9e69477f0a3df3c501679896892e44f398c6abcf5fd",
    "map_demo": "2ca704b663711b45259c83e3299119639b6418442e8f92f1f80c054436a90094",
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
