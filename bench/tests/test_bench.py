"""Tests of the benchmark itself: seeded inputs, tracing and answer checks.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(workload):
    make = workloads.WORKLOADS[workload][0]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_every_seed_runs_the_same_survey_rows():
    # so the rows that fail (ROADMAP item 1) are the same in every run
    assert sorted(workloads.survey_inputs(7)) == sorted(workloads.survey_inputs(8))


def test_attempted_and_failed_count_distinct_inputs(lib):
    rows = [(5, 5, 1, 1, "auto"), (5, 5, 1, 2, "auto")]

    def op(lib, row):
        if row is rows[1]:
            raise lib.errors.PrecisionExhausted("raised for the test")
        return workloads.survey_op(lib, row)

    loop = run.Loop("survey", lib, workloads.load_golden(run.ROOT), len(rows))
    for _ in range(3):
        loop.run_pass(rows, op)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert loop.errors == {"PrecisionExhausted": 1}


def _traced(lib, workload, items):
    loop = run.Loop(workload, lib, workloads.load_golden(run.ROOT), len(items))
    tracer = tracing.Tracer(workloads.PRECISION)
    restore = tracing.install(tracer, lib)
    try:
        loop.run_pass(items, tracer.wrap(tracing.OP, loop.op), tracer.begin_op)
    finally:
        restore()
    return tracer, loop


def test_traced_survey_sees_hensel_lifts_through_from_imports(lib):
    rows = [r for r in workloads.survey_inputs(1) if r[3] % r[1] and r[0] in (5, 7)][:3]
    tracer, loop = _traced(lib, "survey", rows)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names.count("padic.hensel_lift_root") == 3
    assert loop.failed == 0 and loop.verified == [True] * 3
    # every span closes inside its operation and names its parent
    ops = {s[tracing.OPID] for s in tracer.spans}
    assert ops == {0, 1, 2}
    assert all(s[tracing.PARENT] >= 0 for s in tracer.spans if s[tracing.NAME] != tracing.OP)
    # the originals are back after the traced pass
    assert lib.crystal.hensel_lift_root is lib.padic.hensel_lift_root
    assert not hasattr(lib.crystal.hensel_lift_root, "__wrapped__")


def test_traced_hom_counts_hom_spaces_per_complex(lib):
    tracer, _ = _traced(lib, "hom", workloads.hom_inputs(1)[:4])
    metrics = tracing.layer_metrics(tracer.spans, 1.0)
    assert metrics["motivic.hom_space_per_complex"] > 0
    assert metrics["crystal.dual.self_s"] > 0
    assert metrics["homsolver.in_span.calls"] == 0


def test_end_check_rejects_a_tampered_dimension(lib):
    item = workloads.end_inputs(1)[0]
    answer = workloads.end_op(lib, item)
    workloads.end_check(item, answer)
    with pytest.raises(workloads.WrongAnswer):
        workloads.end_check(item, (answer[0] + 1,) + answer[1:])


def test_hom_and_survey_checks_reject_tampered_dimensions(lib):
    item = workloads.hom_inputs(1)[0]
    (total, by_degree), backward = workloads.hom_op(lib, item)
    workloads.hom_check(item, ((total, by_degree), backward))
    with pytest.raises(workloads.WrongAnswer):
        workloads.hom_check(item, ((total + 1, by_degree), backward))
    golden = workloads.load_golden(run.ROOT)
    row = (25, 5, 2, -10, "scalar")
    answer = workloads.survey_op(lib, row)
    workloads.survey_check(row, answer, golden)
    with pytest.raises(workloads.WrongAnswer):
        workloads.survey_check(row, answer[:2] + (3,) + answer[3:], golden)


def test_every_golden_row_passes_the_survey_check(lib):
    golden = workloads.load_golden(run.ROOT)
    for q, t, mode in golden:
        row = (q, 5, 1 if q == 5 else 2, t, mode)
        workloads.survey_check(row, workloads.survey_op(lib, row), golden)


def test_tail_has_ten_samples_beyond():
    latencies = [float(i) for i in range(100)]
    value, pct = run.tail(latencies)
    assert sum(1 for x in latencies if x > value) == 10
    assert pct == 90.0


def test_scaling_uses_the_reference_samples_around_an_operation():
    speed = run.Speedometer()
    speed.times = [0.0, 0.025, 0.05, 0.075, 1.0]
    speed.refs = [0.001, 0.002, 0.002, 0.002, 0.004]
    # samples within REF_INTERVAL of [0.03, 0.05]: those at 0.025, 0.05 and 0.075
    assert speed.scaled(0.010, 0.03, 0.05) == pytest.approx(0.010 * run.REF_SECONDS / 0.002)
