"""`tools/opdiff.py`'s `compare` on synthetic op records, with no child process."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "opdiff.py"


@pytest.fixture(scope="module")
def opdiff():
    spec = importlib.util.spec_from_file_location("opdiff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(op, failed=False, sha="a", workload="certify-mix", seed=1):
    return {
        "workload": workload, "seed": seed, "op": op, "family": "SF-1",
        "command": "pipeline", "status": 2 if failed else 0,
        "stage": "certify" if failed else None, "failed": failed,
        "reason": "exit 2" if failed else "", "sha256": sha,
    }


def table_row(out, workload, seed):
    return next(line.split() for line in out.splitlines()
                if line.split()[:2] == [workload, str(seed)])


def test_an_op_that_newly_fails_exits_1(opdiff, capsys):
    parent = [record(0), record(1)]
    change = [record(0), record(1, failed=True, sha="b")]
    assert opdiff.compare(parent, change) == 1
    out = capsys.readouterr().out
    assert table_row(out, "certify-mix", 1) == ["certify-mix", "1", "0", "of", "2",
                                               "1", "of", "2", "1"]
    assert "certify-mix seed 1 op 1: " in out
    assert "1 ops differ; 1 pass on the parent and fail on the change" in out


def test_a_missing_op_counts_as_newly_failed(opdiff, capsys):
    assert opdiff.compare([record(0), record(1)], [record(0)]) == 1
    assert "-> missing" in capsys.readouterr().out


def test_bytes_only_difference_exits_0_and_shows_in_the_table(opdiff, capsys):
    parent = [record(0), record(1, failed=True), record(0, workload="rational-scan")]
    change = [record(0, sha="b"), record(1, failed=True), record(0, workload="rational-scan")]
    assert opdiff.compare(parent, change) == 0
    out = capsys.readouterr().out
    assert table_row(out, "certify-mix", 1)[-1] == "1"
    assert table_row(out, "rational-scan", 1)[-1] == "0"
    assert "0 ops differ; 0 pass on the parent and fail on the change" in out


def test_an_op_that_newly_passes_exits_0(opdiff, capsys):
    parent = [record(0, failed=True)]
    change = [record(0, sha="b")]
    assert opdiff.compare(parent, change) == 0
    assert "1 ops differ; 0 pass on the parent and fail on the change" in capsys.readouterr().out
