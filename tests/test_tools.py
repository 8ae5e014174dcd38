"""Tests of tools/fingerprint.py, the byte-identity check between two
checkouts: its record format, report stripping and digest."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from onemotives.errors import OneMotivesError, PrecisionExhausted

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


@pytest.fixture(scope="module")
def fingerprint():
    # the tool turns bytecode writing off for its own runs; keep this
    # process as it was
    writes = sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.dont_write_bytecode = writes
    return module


def test_without_reports_strips_precision_report_at_every_depth(fingerprint):
    record = {
        "precision_report": 3,
        "a": [{"precision_report": None, "b": {"precision_report": 7, "c": 1}}, [{"precision_report": 0}], 2],
        "d": "precision_report",
    }
    assert fingerprint._without_reports(record) == {"a": [{"b": {"c": 1}}, [{}], 2], "d": "precision_report"}


@pytest.mark.parametrize(
    "exc", [PrecisionExhausted("too few digits"), ValueError("bad input")], ids=["package-error", "value-error"]
)
def test_records_add_records_an_error_with_its_type_and_message(fingerprint, exc):
    assert isinstance(exc, (OneMotivesError, ValueError))

    def compute():
        raise exc

    rec = fingerprint.Records()
    assert rec.add("tag", [1, 2], compute) is None
    assert json.loads(rec.lines[-1]) == ["tag", [1, 2], ["error", type(exc).__name__, str(exc)]]
    assert rec.add("tag", [3], lambda: {"x": 1}) == {"x": 1}
    assert json.loads(rec.lines[-1]) == ["tag", [3], ["ok", {"x": 1}]]


def test_digest_line_depends_on_record_order(fingerprint):
    forward = fingerprint._digest_line(["a", "b"])
    assert forward.startswith("2 ") and forward == fingerprint._digest_line(["a", "b"])
    assert forward != fingerprint._digest_line(["b", "a"])
