"""The benchmark's samples for seeds 1 and 11, answered and checked in
tier-1: every `survey`, `end` and `hom` item must return an answer that
passes the bench's own check.  The bench's loop catches only package
errors, so no exception of any kind may escape an operation here."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from onemotives import crystal, homsolver, linalg, motivic, padic

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"
LIB = SimpleNamespace(crystal=crystal, homsolver=homsolver, linalg=linalg, motivic=motivic, padic=padic)


@pytest.fixture(scope="module")
def workloads():
    # loaded from its file without writing bytecode under bench/; this
    # process keeps its own setting
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def _answer_and_check(workloads, workload: str, seed: int) -> None:
    make, op = workloads.WORKLOADS[workload]
    golden = workloads.load_golden(ROOT) if workload == "survey" else {}
    items = make(seed)
    assert items
    for item in items:
        workloads.check(workload, item, op(LIB, item), golden)


@pytest.mark.parametrize("workload", ["survey", "end", "hom"])
def test_every_seed_1_item_is_answered_and_checked(workloads, workload):
    _answer_and_check(workloads, workload, 1)


@pytest.mark.parametrize("workload", ["survey", "end", "hom"])
def test_every_seed_11_item_is_answered_and_checked(workloads, workload):
    _answer_and_check(workloads, workload, 11)


def test_no_workload_operation_places_a_sum(workloads, monkeypatch):
    """survey, end and hom read a sum's atoms only: on survey rows of every
    kind (ordinary, irreducible, scalar Frobenius), on end items with at most
    one elliptic block, which classify, and on the hom items that also take
    the Cartier duals, no sum's dense phi or Fil1 is ever placed."""
    placed, place = [], crystal._place
    monkeypatch.setattr(crystal, "_place", lambda m: placed.append(m.label) or place(m))
    golden = workloads.load_golden(ROOT)
    # (q, p, f, t, mode): ordinary, irreducible over Q_5 (T^2 + 5), scalar
    survey = [(5, 5, 1, 1, "auto"), (5, 5, 1, 0, "auto"), (25, 5, 2, 10, "scalar")]
    # (lattice, torus, elliptic copies, class, p, f, t, mode)
    end = [(2, 2, 1, "ordinary", 5, 1, 1, "auto"), (1, 0, 1, "generic", 3, 1, 0, "auto"), (2, 1, 1, "scalar", 5, 2, 10, "scalar")]
    hom = [item for item in workloads.hom_inputs(1) if item[4]]
    assert any(len(xs) > 1 for _, _, xs, _, _ in hom)
    for workload, items in (("survey", survey), ("end", end), ("hom", hom)):
        op = workloads.WORKLOADS[workload][1]
        for item in items:
            workloads.check(workload, item, op(LIB, item), golden)
    assert placed == []
    # the spy sees a placement: the JSON form places the sum
    crystal.module_to_jsonable(crystal.realize_lattice(2, padic.PadicContext(5)))
    assert placed == ["lattice(2)"]


def test_seed_1_validation_counts(workloads, monkeypatch):
    """validate_graded runs once on every atom and every dual it checks:
    1200 times in the seed-1 survey pass, 81 in end and 2800 in hom."""
    counts, validate = [], crystal.validate_graded
    monkeypatch.setattr(crystal, "validate_graded", lambda m: counts.append(m) or validate(m))
    seen = {}
    for workload in ("survey", "end", "hom"):
        make, op = workloads.WORKLOADS[workload]
        counts.clear()
        for item in make(1):
            op(LIB, item)
        seen[workload] = len(counts)
    assert seen == {"survey": 1200, "end": 81, "hom": 2800}
