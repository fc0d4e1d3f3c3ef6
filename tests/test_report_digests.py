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

DIGESTS = {  # report revision 0.7.0
    "stability": "abd8873bec026ffb901d2aa5e7b8b335e6bb2c11d729cf94f6c7ede22706f3ba",
    "consistency": "21566eed1c8de95ddfba54bee5182cb072cf5fd4404480d4133413fb3bba8b3f",
    "metrics": "9c3f7dca075a9b47ea16a60247828890c9d71126e87a3ab2cf0b78611775d2d5",
    "convexity": "5298eeb8727cf81645eb8f30d5cc3812ac11dd9620cd12049debd0f8b9db3ec8",
    "audit": "f9fbb7d90b56d5666038a15bc5f3d3e38d8f13883bd5f8d1c55fecf3877e1736",
    "map_demo": "b177d32e3e15b8bb8c5e99835a2e3a7ddf0afbe0099c65cdecc85606d7c5efae",
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
