import json

import pytest

import blenderforge as bf
from blenderforge import cli
import curves
import ops


def _certificate():
    with open(curves.pinned_path("sf3_certificate.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _payload(**body):
    return json.dumps({"schema": cli.SCHEMA, **body})


@pytest.mark.parametrize("status", [1, 2, 3, "ZeroDivisionError"])
def test_nonzero_exit_fails(status):
    failed, reason, malformed = ops.classify(bf, status, _payload(error={"stage": "search"}))
    assert failed and reason == f"exit {status}" and not malformed


def test_clean_payload_passes():
    assert ops.classify(bf, 0, _payload(verdict="x")) == (False, "", False)


@pytest.mark.parametrize("output", ["", "{not json", json.dumps({"verdict": "x"}), "[1]"])
def test_unparseable_or_schemaless_payload_fails(output):
    failed, _, malformed = ops.classify(bf, 0, output)
    assert failed and malformed


def test_valid_certificate_passes_recheck():
    cert = _certificate()
    assert ops.classify(bf, 0, _payload(certificates=[cert])) == (False, "", False)
    assert ops.classify(bf, 0, _payload(certificate=cert)) == (False, "", False)


def test_tampered_certificate_fails_recheck():
    cert = _certificate()
    hi = cert["witness"][0]["interval"][1]       # written as repr(float)
    cert["witness"][0]["interval"][1] = repr(float(hi) + 1e-6)
    failed, reason, malformed = ops.classify(bf, 0, _payload(certificates=[cert]))
    assert failed and malformed and "recheck" in reason


def test_run_op_classifies_a_real_command(tmp_path):
    op = ops.Op("moduli", curves.pinned_path("sf1.json"), "SF-1")
    result = ops.run_op(bf, cli, op, clock=lambda: 0.0)
    assert result.status == 0 and not result.failed
    assert json.loads(result.output)["case"] == "SF-1"
    missing = ops.run_op(bf, cli, ops.Op("moduli", str(tmp_path / "none.json"), "SF-1"), lambda: 0.0)
    assert missing.status == 1 and missing.failed and not missing.malformed
