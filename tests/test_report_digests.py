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

DIGESTS = {  # report revision 0.5.0
    "stability": "1dd7778d8d867470f867b8487c94271f6e68c4af451db4fd10dfcb7bd32924f3",
    "consistency": "b9eb489a636dab9f35676c090f7fdd22d56bce5e45ce74544db99572f586cefe",
    "metrics": "ab1dc3bb5896a3ea389787c953def07a5fe7ddcb0e1d2deeee910e074feec626",
    "convexity": "8fca05b2d8cf6ae7eea7a003cc67717579d72be4b604d44b766284e5229e4546",
    "audit": "1a091f49985e07fcbb7f148699a90935df0dacd68d3fd00160bef26c25807b78",
    "map_demo": "55456b995c57d77f15bd63fce4ec35eac7670cb7cfada53bccd9a0b191017de1",
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
