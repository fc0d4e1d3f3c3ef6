"""Golden digests: the six suite reports stay byte-identical.

Each suite runs at seed 0 with an effort small enough for the whole file
to take a few seconds, yet large enough that every streaming suite spans
at least two blocks of coefficient_chunks.  The sha256 of the report text
as the CLI writes it (json.dumps, sorted keys, indent 2) is pinned.  A
change that moves any bit of any report, arithmetic order included, fails
here; such a change is a report revision and records new digests here.

The digests depend on the numpy, scipy and python versions (they appear
in the report's provenance, and the floating-point kernels differ between
releases), so the test skips under other versions.  The last test runs
tools/report_digests.py on a stub suite.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

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

DIGESTS = {  # report revision 0.13.0
    "stability": "bffaf74fb7d48cfc848b8c76995b80662bb622c021f97c73540e1f4b2dfdbcff",
    "consistency": "92e01f7e24bd06e4ae337acb0d7c0d444d313e8dbbeb87be5fd3f1db92c550cd",
    "metrics": "ccaf53d0682a78f7b3204b7960c169ef4c903b99944d03784b44b6861a81bca8",
    "convexity": "be30444f8783a2ff11ec9b2452895f378bc8b49b169d9e4b8d7585f271a77094",
    "audit": "bfaf3a35b976e6ae6834264d18bd71155ac5a4c1dd71f75f069ef77dc192e266",
    "map_demo": "fbdab84dadb25354570874a3d1b38dd8963c7442850d1fb93848dc101f23e8b8",
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


def load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
    spec = importlib.util.spec_from_file_location("report_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_tool_prints_each_report_hash_and_failing_verdicts(monkeypatch, capsys):
    # a stub suite fails one verdict at seed 1 only; the tool's last field
    # names it there and is "-" where every verdict passes
    def stub(suite, config, seed):
        assert config is None
        verdicts = {"exact": {"passed": True}, "oracle": {"passed": seed != 1}, "ess": {"passed": True}}
        return {"experiment": suite, "seed": seed, "verdicts": verdicts}

    tool = load_tool()
    monkeypatch.setattr(tool, "EXPERIMENT_NAMES", ("one", "two"))
    monkeypatch.setattr(tool, "run_experiment", stub)
    tool.main(["--seeds", "0:1"])
    lines = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    assert [(s, seed, failing) for s, seed, _, failing in lines] == [
        ("one", "0", "-"), ("one", "1", "oracle"), ("two", "0", "-"), ("two", "1", "oracle"),
    ]
    text = json.dumps(stub("two", None, 1), sort_keys=True, indent=2) + "\n"
    assert lines[3][2] == hashlib.sha256(text.encode()).hexdigest()
