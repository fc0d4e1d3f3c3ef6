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

DIGESTS = {  # report revision 0.12.0
    "stability": "dfc378d774281d8b9b254cb19fd9b7937f7cd4f5ae79ff938fe8e1a4ebfddaef",
    "consistency": "06e4d9b39ccf95ab69206ee70928260e7ab1489ebb20e15c2803a2c4fd32c4fd",
    "metrics": "c35c59f288704b5991482ae6b55eee3060e223d5b37cee1e32ea42678ff2948c",
    "convexity": "cd6c7fe17129443118565e924938049d0ab76a561f12a175ffff8648cb93e5fd",
    "audit": "a18bc9c89d83eb509032dcd4377bf6980694765a7494e2e0eb7893713e7c5416",
    "map_demo": "1f5ff3053cca30e92e33a9487f04fe6c83d9a403f5686d7b8bd486cf62413fd8",
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
