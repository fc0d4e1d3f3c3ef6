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

DIGESTS = {  # report revision 0.10.0
    "stability": "ef9f89ab8ebee58594c9c61c1b004474ea7cdcb1cde371db9d24b685b1f95306",
    "consistency": "a3724602e9596c8c0892de839fd05955c847c27ac97a1209159cdffd456bee3d",
    "metrics": "812bbb908d52f75f58d073b15358c5d309c4929370da8615127e6dd785c3ed99",
    "convexity": "807130650e0a4d6a03b7a9240ef8d460a0ce4c782a5294faf34ddd5f69e8aa85",
    "audit": "7beba43046fb1653333bd598f6370f753c3afe64785da20fc25708f056857da1",
    "map_demo": "61d0b73dd59d6ba5dc7f7b05c46e1eedbb53f27639277e1a3a47a983684a51f6",
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
