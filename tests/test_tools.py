"""Tests of tools/fingerprint.py, the byte-identity check between two
checkouts (its record format, report stripping and digest), of
tools/callcount.py, the call counts of one workload pass, of
tools/sweep.py, the records over every survey row up to a q, and of
tools/scale.py, End at sizes the benchmark does not run."""

import cProfile
import gc
import hashlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from onemotives import linalg
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
    assert [name for name, _ in lines] == ["calls", "fraction_new", "padic_scalar_new", "modular_inverse", "rref"]
    assert all(int(value) > 0 for _, value in lines)
    assert outputs[0] == outputs[1]


def test_callcount_counts_eliminations():
    callcount = _load_tool("callcount")
    profile = cProfile.Profile()
    # a rank is one elimination; a kernel with a basis is two, the second
    # echelonizing the basis
    profile.runcall(lambda: [linalg.rank(linalg.Matrix.identity(2)) for _ in range(7)] + [linalg.kernel(linalg.Matrix.zeros(1, 2))])
    assert callcount.tally(profile)["rref"] == 9


def _setprofile_calls(function) -> int:
    """Python and builtin calls that ``sys.setprofile`` sees while function runs."""
    seen = [0]

    def hook(frame, event, arg):
        seen[0] += event in ("call", "c_call")

    sys.setprofile(hook)
    try:
        function()
    finally:
        sys.setprofile(None)
    return seen[0]


def test_callcount_counts_every_dataclass_init():
    """Every dataclass-generated ``__init__`` is ('<string>', line, '__init__')
    to ``pstats``, which keeps one of equal keys: a pass building KernelResult
    and Matrix objects must still count both constructors."""
    callcount = _load_tool("callcount")
    k = 50

    def base():
        return [linalg.KernelResult([]) for _ in range(k)]

    def more():
        return base() + [linalg.Matrix(0, 0) for _ in range(k)]

    counted = []
    for function in (base, more):
        # a collection inside a pass would finalize garbage made before it,
        # such as a generator that pytest's -k parser left suspended, whose
        # close is one more call: count with none pending
        gc.collect()
        profile = cProfile.Profile()
        profile.runcall(function)
        counted.append(callcount.tally(profile)["calls"])
        assert counted[-1] == _setprofile_calls(function)
    # each Matrix is at least its generated __init__ and __post_init__
    assert counted[1] - counted[0] >= 2 * k


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


def test_scale_measures_its_smallest_shape_in_process():
    scale = _load_tool("scale")
    hom_space = scale.homsolver.hom_space
    line = scale.measure("L6+T6")
    assert list(line) == [
        "shape", "dim", "hom_space_s", "closure_s", "classify_end", "classify_end_s",
        "frobenius_membership", "frobenius_membership_s", "end_dimension", "end_sha256", "end_sha256_s",
        "peak_rss_mb",
    ]
    assert line["dim"] == 12 and line["end_dimension"] == 72 and line["peak_rss_mb"] > 0
    assert line["classify_end"] == "lattice_scalars+torus_scalars" and line["frobenius_membership"] is True
    assert all(line[key] >= 0 for key in line if key.endswith("_s"))
    # measure puts back the hom_space it timed, and its streamed digest is
    # that of the whole End JSON
    assert scale.homsolver.hom_space is hom_space
    spec = scale.crystal.OneMotiveSpec(lattice_rank=6, torus_dim=6)
    end = scale.homsolver.end_algebra(scale.crystal.realize_one_motive(spec, scale.padic.PadicContext(5, 1, 40)))
    whole = json.dumps(scale.homsolver.homspace_to_jsonable(end)).encode()
    assert line["end_sha256"] == hashlib.sha256(whole).hexdigest()


def test_scale_prints_a_shape_over_its_budget_as_skipped(capsys, monkeypatch):
    scale = _load_tool("scale")
    monkeypatch.setattr(scale, "BUDGET_S", 0.01)
    assert scale.main([]) == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert lines == [{"shape": name, "skipped": "over budget", "budget_s": 0.01} for name in scale.SHAPES]


# -- the refinement comparator -----------------------------------------------------

EXACT_ZERO = {"v": "inf", "unit": "0", "prec": 0}


def _padic(unit: int, prec: int, v: int = 0) -> dict:
    return {"v": v, "unit": str(unit), "prec": prec}


def _zero(bound: int) -> dict:
    return {"v": bound, "unit": "0", "prec": 0}


def _end_line(entries: list, report) -> str:
    space = {"dimension": 1, "basis": [{"rows": 1, "cols": len(entries), "entries": entries}]}
    space.update(classification=None, precision_report=report)
    return json.dumps(["end", [5, 1, "auto"], ["ok", [space, True]]], sort_keys=True)


def _p5(tag: str, item: list) -> int:
    return 5


def _error_line(name: str) -> str:
    return json.dumps(["end", [5, 1, "auto"], ["error", name, "some message"]], sort_keys=True)


def _rows(first, second, report=38) -> str:
    """An End record whose basis row is (first, second, 7/5 + O(5^77))."""
    return _end_line([first, second, _padic(7, 78, v=-1)], report)


def test_refines_accepts_a_hand_made_refinement():
    refines = _load_tool("refines")
    old = _rows(_zero(81), _padic(1, 78))
    # the unresolved zero made exact, more digits that agree with the old
    # ones mod 5^78 and mod 5^77, and no report
    finer = _end_line([EXACT_ZERO, _padic(1 + 3 * 5**78, 80), _padic(7 + 5**79, 81, v=-1)], None)
    rejected, seen = refines.compare([old, _error_line("PrecisionExhausted")], [finer, old], _p5)
    assert rejected == []
    assert seen == {
        "records": 2,
        "changed": 2,
        "unresolved zeros made exact": 1,
        "entries with more digits": 2,
        "reports null": 1,
        "errors answered": 1,
    }
    # a higher report is a refinement too, and an unchanged record no change
    rejected, seen = refines.compare([old, old], [_rows(_zero(81), _padic(1, 78), 40), old], _p5)
    assert rejected == [] and seen == {"records": 2, "changed": 1, "reports higher": 1}


@pytest.mark.parametrize(
    "new, reason",
    [
        (_rows(_zero(81), _padic(2, 80)), "p-adic entry"),
        (_rows(_zero(81), _padic(1, 70)), "p-adic entry"),
        (_rows(_zero(80), _padic(1, 78)), "p-adic entry"),
        (_rows(_zero(81), _padic(1, 78), 30), "precision_report 38 became 30"),
        # 5^81 + O(5^82) agrees with O(5^81), but it moves the pivot
        (_rows(_padic(1, 1, v=81), _padic(1, 78)), "pivot positions [1] became [0]"),
        (_error_line("PrecisionExhausted"), "outcome"),
    ],
    ids=["digit-changed", "digits-lost", "zero-bound-lowered", "report-fell", "pivot-moved", "answer-became-error"],
)
def test_refines_rejects_a_hand_made_value_change(new, reason):
    refines = _load_tool("refines")
    old = _rows(_zero(81), _padic(1, 78))
    rejected, seen = refines.compare([old], [new], _p5)
    assert len(rejected) == 1 and reason in rejected[0] and seen["changed"] == 1
    assert rejected[0].splitlines()[1:] == [f"  was: {old}", f"  now: {new}"]


def test_refines_accepts_p_adic_entries_made_exact_inside_their_cosets():
    refines = _load_tool("refines")
    old = _rows(_zero(81), _padic(1, 78))
    # 0 lies in O(5^81), 1 + 2 * 5^78 in 1 + O(5^78), 7/5 in 7/5 + O(5^77)
    exact = _end_line(["0/1", f"{1 + 2 * 5**78}/1", "7/5"], None)
    rejected, seen = refines.compare([old], [exact], _p5)
    assert rejected == []
    assert seen == {"records": 1, "changed": 1, "p-adic entries made exact": 3, "reports null": 1}


@pytest.mark.parametrize(
    "old, new, why",
    [
        # 2 is not 1 + O(5^78)
        (_rows(_zero(81), _padic(1, 78)), _end_line(["0/1", "2/1", "7/5"], None), "'unit': '1', 'v': 0} became 2/1"),
        # an exact zero must stay 0
        (_end_line([_padic(1, 78), EXACT_ZERO], 38), _end_line(["1/1", "1/5"], None), "'unit': '0', 'v': 'inf'} became 1/5"),
    ],
    ids=["outside-the-coset", "exact-zero-became-nonzero"],
)
def test_refines_rejects_a_p_adic_entry_made_exact_outside_its_coset(old, new, why):
    refines = _load_tool("refines")
    rejected, seen = refines.compare([old], [new], _p5)
    assert len(rejected) == 1 and why in rejected[0].splitlines()[0] and seen["changed"] == 1


def test_refines_rejects_a_record_it_no_longer_computes_and_other_errors_answered():
    refines = _load_tool("refines")
    old = _end_line([_padic(1, 78)], 38)
    rejected, _ = refines.compare([old], [], _p5)
    assert rejected == [f"not computed any more: {old}"]
    rejected, _ = refines.compare([_error_line("VerificationFailure")], [old], _p5)
    assert len(rejected) == 1 and "outcome ['error', 'VerificationFailure'] became ['ok'" in rejected[0]


def test_sweep_refines_reads_the_records_of_another_package(tmp_path, capsys):
    sweep = _load_tool("sweep")
    src = Path(__file__).resolve().parents[1] / "src"
    assert sweep.main(["--qmax", "5", "--refines", str(src)]) == 0
    same = capsys.readouterr()
    assert "refines: " in same.err and ", 0 rejected" in same.err and "changed" not in same.err
    # a copy of the package that drops every precision report: this
    # checkout's reports are then no refinement of its records
    other = tmp_path / "src"
    shutil.copytree(src, other, ignore=shutil.ignore_patterns("__pycache__"))
    homsolver = other / "onemotives" / "homsolver.py"
    text = homsolver.read_text()
    assert text.count('"precision_report": h.precision_report') == 1
    homsolver.write_text(text.replace('"precision_report": h.precision_report', '"precision_report": None'))
    assert sweep.main(["--qmax", "5", "--refines", str(other)]) == 1
    changed = capsys.readouterr()
    assert changed.out == same.out
    assert "not a refinement: precision_report None became " in changed.err
    with pytest.raises(SystemExit, match="no onemotives package"):
        sweep.main(["--qmax", "5", "--refines", str(tmp_path / "nowhere")])
