"""The benchmark's `hom` and `end` samples for seed 1, answered and checked
in tier-1: every item must return an answer that passes the bench's own
check, and no exception of any kind may escape an operation."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from onemotives import crystal, homsolver, linalg, motivic, padic

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
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


@pytest.mark.parametrize("workload", ["end", "hom"])
def test_every_seed_1_item_is_answered_and_checked(workloads, workload):
    make, op = workloads.WORKLOADS[workload]
    items = make(1)
    assert items
    for item in items:
        workloads.check(workload, item, op(LIB, item), {})
