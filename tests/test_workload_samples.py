"""The benchmark's samples for seed 1, answered and checked in tier-1: every
`hom` and `end` item must return an answer that passes the bench's own
check, every `survey` row too unless it runs out of precision (ROADMAP item
1), and no other exception may escape an operation."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from onemotives import crystal, homsolver, linalg, motivic, padic
from onemotives.errors import PrecisionExhausted

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


@pytest.mark.parametrize("workload", ["end", "hom"])
def test_every_seed_1_item_is_answered_and_checked(workloads, workload):
    make, op = workloads.WORKLOADS[workload]
    items = make(1)
    assert items
    for item in items:
        workloads.check(workload, item, op(LIB, item), {})


def test_every_seed_1_survey_row_is_checked_or_out_of_precision(workloads):
    make, op = workloads.WORKLOADS["survey"]
    golden = workloads.load_golden(ROOT)
    rows = make(1)
    exhausted = 0
    for row in rows:
        try:
            answer = op(LIB, row)
        except PrecisionExhausted:
            exhausted += 1
            continue
        workloads.check("survey", row, answer, golden)
    # the rows item 1 makes fail today; a fix may only lower the count
    assert rows and exhausted <= 42
