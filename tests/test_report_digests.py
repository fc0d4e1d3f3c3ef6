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

DIGESTS = {
    "stability": "7e8d579688dcaf922e58205ceafd88953af29ce2ac268db79030e1cea5b089e9",
    "consistency": "702af9de10f4a60cfa37f410eec7746bcbb057d10da5fa52ad184628cfd2a824",
    "metrics": "c78264c1e9a7d031d7ff2a4b2c4b9e87c5fcf4b357ecda56508071d010196d95",
    "convexity": "0c9c35e77ab8b92a6b39235c71675008c83dd88b17379d190df550e7a004cf8f",
    "audit": "078b2440617622a26d5d3c0fb6f501e726e3bd1c09234822cb7e59871b62b375",
    "map_demo": "d3aa3f817036238e15dae971932c731b2195fd9299431fd3a45a57a984559bc9",
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
