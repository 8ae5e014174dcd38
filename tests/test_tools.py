"""Tests of tools/fingerprint.py, the byte-identity check between two
checkouts (its record format, report stripping and digest), of
tools/callcount.py, the call counts of one workload pass, and of
tools/sweep.py, the records over every survey row up to a q."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from onemotives.errors import OneMotivesError, PrecisionExhausted

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool(name: str):
    # the tools turn bytecode writing off for their own runs; keep this
    # process as it was
    writes = sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.dont_write_bytecode = writes
    return module


@pytest.fixture(scope="module")
def fingerprint():
    return _load_tool("fingerprint")


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


def test_split_records_add_three_end_records_per_split_module(fingerprint, monkeypatch):
    monkeypatch.setattr(fingerprint, "SPLIT_SAMPLE", 8)
    rec, ends = fingerprint.Records(), fingerprint.Records()
    fingerprint.split_records(rec, 1, ends)
    split_ok = [json.loads(x)[1] for x in rec.lines if json.loads(x)[2][0] == "ok"]
    assert len(rec.lines) == 8 and 0 < len(split_ok) < 8
    records = [json.loads(x) for x in ends.lines]
    # the split module and its sum for every split that succeeded, the
    # two-block module for every record
    assert len(records) == 2 * len(split_ok) + 8
    assert [r[1] for r in records if r[0] != "split.unsplit_end"] == [i for i in split_ok for _ in range(2)]
    for tag, _item, out in records:
        assert tag in ("split.end", "split.sum_end", "split.unsplit_end")
        if out[0] == "ok":
            end, phi_member = out[1]
            assert end["dimension"] == len(end["basis"]) and isinstance(phi_member, bool)


def test_main_prints_the_end_digest_as_a_third_line(fingerprint, monkeypatch, capsys):
    for name in ("survey_records", "end_records", "hom_records"):
        monkeypatch.setattr(fingerprint, name, lambda rec, seed: None)
    monkeypatch.setattr(fingerprint, "SPLIT_SAMPLE", 3)
    assert fingerprint.main(["--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and [x.split()[0] for x in lines[:2]] == ["3", "3"]
    rec, ends = fingerprint.Records(), fingerprint.Records()
    fingerprint.split_records(rec, 1, ends)
    assert lines[2] == fingerprint._digest_line(ends.lines)


def test_callcount_prints_the_same_counts_in_two_runs():
    # separate processes, so string hashing differs between the runs
    command = [sys.executable, str(TOOLS / "callcount.py"), "--workload", "end", "--seed", "1"]
    outputs = [subprocess.run(command, capture_output=True, text=True, check=True, timeout=300).stdout for _ in range(2)]
    lines = [line.split() for line in outputs[0].splitlines()]
    assert [name for name, _ in lines] == ["calls", "fraction_new", "padic_scalar_new"]
    assert all(int(value) > 0 for _, value in lines)
    assert outputs[0] == outputs[1]


def test_sweep_covers_its_domain_and_prints_the_same_digest_in_two_runs():
    # four modes per trace, and scalar and jordan at t = +-2 sqrt(q) for square q
    prime_powers = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    size = sum(4 * (2 * math.isqrt(4 * q) + 1) + (4 if q in (4, 9, 16) else 0) for q in prime_powers)
    assert size == 452
    command = [sys.executable, str(TOOLS / "sweep.py"), "--qmax", "16"]
    outputs = [subprocess.run(command, capture_output=True, text=True, check=True, timeout=300).stdout for _ in range(2)]
    assert outputs[0] == outputs[1]
    *counts, digest = [line.split() for line in outputs[0].splitlines()]
    by_stage = {stage: 0 for stage in ("build", "end", "hom")}
    for stage, _outcome, n in counts:
        by_stage[stage] += int(n)
    built = next(int(n) for stage, outcome, n in counts if (stage, outcome) == ("build", "ok"))
    # one build record per (q, t, mode), an End and a Hom record per module built
    assert by_stage == {"build": size, "end": built, "hom": built}
    assert int(digest[0]) == size + 2 * built and len(digest[1]) == 64


def test_sweep_exits_1_when_frobenius_membership_breaks_its_invariant(monkeypatch, capsys):
    sweep = _load_tool("sweep")
    assert sweep.main(["--qmax", "5"]) == 0
    clean = capsys.readouterr()
    assert "invariants:" in clean.err and "mismatch " not in clean.err
    real = sweep.homsolver.frobenius_membership
    monkeypatch.setattr(sweep.homsolver, "frobenius_membership", lambda m, e: not real(m, e))
    assert sweep.main(["--qmax", "5"]) == 1
    broken = capsys.readouterr()
    mismatches = [line for line in broken.err.splitlines() if line.startswith("mismatch ")]
    assert mismatches and all("frobenius_membership" in line for line in mismatches)
    assert "(q, t, mode) = (2, " in mismatches[0]
    # stdout keeps the counts; only the digest moves with the records
    assert broken.out.splitlines()[:-1] == clean.out.splitlines()[:-1]
