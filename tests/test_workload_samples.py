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
