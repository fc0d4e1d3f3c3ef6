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

DIGESTS = {  # report revision 0.9.0
    "stability": "e33a86303eb0abc912ebaa1d7190f7f5aca8510ffc5320a96533a5125d60dc6e",
    "consistency": "ea0e1087c7e04916c2b57a53371329a2ff70e408aecc14d375c8814eb615ded1",
    "metrics": "647eb07c831de2382133b6f2ed539dd6a61664ad61efb9bdb67e3bd9ff10281b",
    "convexity": "5c58b5a51f90be6fc0486989f946e8c76285746a9c287c5f8cadf7caf19210be",
    "audit": "3d148936b191674a27638786731080b2da3bc06ff588be471dbd1edce052b805",
    "map_demo": "b88d73ef23f2899a20d0eea45dba1ffd32912fc774593cb784a81a44e66b8c51",
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
