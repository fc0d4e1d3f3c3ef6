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

DIGESTS = {  # report revision 0.6.0
    "stability": "d3be17d8254a7354c24ed68236ce66e0111a5e44cdd6bba3751a46a60600220d",
    "consistency": "48d1cd0299aa0d1b70a3b8305d1217284501446e80d5c89df0970fadb9fa9ba5",
    "metrics": "726f73156e2586afe76e58f915c53ea16f6edfeb08856235cfa74f0c9323721e",
    "convexity": "b72b1e51891c936062744f4d1c9414bf1d5c2bf56f0cdf07fded130a365c8bcf",
    "audit": "2229d6752235ffff15985db27795b4797ebb2725137b8e4e5a5f1e6c564a984b",
    "map_demo": "2d219e2cbcaa7dc7a7493348e082526c1a8f472815b21427364f4a08517ce2e6",
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
