"""Benchmark of the onemotives Hom/End engine: one command, three workloads.

    python3 bench/run.py --workload {survey,end,hom} --seed N --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ``src/`` of
the checkout this file sits in.  Each workload's inputs are a fixed
sample built from the seed (``workloads.py``).

``--trace 0`` cycles over the sample for S seconds, and at least once
through all of it, in a closed loop, one process and one thread: the next
operation starts when the previous one and its answer check are done.
Every answer is checked and a wrong one fails the run; an operation that
raises a package error counts as failed and the loop goes on.  The result
line's ``attempted`` and ``failed`` count distinct inputs of the sample,
not repeated runs of them, so they depend on the library and the inputs
only, not on how fast the machine was.

Times are reported at reference speed.  The machines this runs on are
shared, and other tenants slow identical work by up to 2x for tens of
seconds at a time.  So a fixed reference task (``reference_task``, pure
Python exact arithmetic that does not touch the library) is timed every
REF_INTERVAL seconds from a timer signal, also in the middle of long
operations, and each latency (without the samples taken inside it) is
scaled by REF_SECONDS over the median reference time sampled during it and
within REF_INTERVAL of either end: the time the operation would take on a
machine where the reference task takes exactly 1 ms.  An operation's
latency is the median of its scaled runs.  Set-up (import plus input
generation) is repeated SETUP_ROUNDS times, each scaled the same way, and
the median is reported.  The values as measured are printed above the
result line.

``--trace 1`` alternates untraced and traced passes over the same sample
while a pair still fits in S seconds, and reports the per-layer metrics
of the traced passes (counts from one pass, which every pass repeats
exactly; times as the median over passes).  The spans of the last pass
are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_ROUNDS = 9
REF_SECONDS = 0.001
REF_INTERVAL = 0.025
TAIL_BEYOND = 10


def load_library() -> SimpleNamespace:
    """Import ``onemotives`` afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "onemotives" or n.startswith("onemotives.")]:
        del sys.modules[name]
    package = importlib.import_module("onemotives")
    if Path(package.__file__).resolve().parent != SRC / "onemotives":
        raise ImportError(f"onemotives was imported from {package.__file__}, not from {SRC}")
    names = sorted(n for n in sys.modules if n == "onemotives" or n.startswith("onemotives."))
    return SimpleNamespace(
        padic=package.padic,
        linalg=package.linalg,
        crystal=package.crystal,
        homsolver=package.homsolver,
        motivic=package.motivic,
        errors=importlib.import_module("onemotives.errors"),
        modules=[sys.modules[n] for n in names],
    )


def reference_task() -> int:
    """Fixed exact-arithmetic work, independent of the library: Fraction
    elimination of a 6x6 Hilbert matrix and big-integer modular products,
    the two kinds of arithmetic the library spends its time on.  It takes
    about a millisecond."""
    n = 6
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    acc = 0
    for k in range(200):
        acc = (acc * 31 + pow(7, k + 100, 11**40)) % 13**40
    return acc + rows[0][0].numerator


class Speedometer:
    """Times the reference task every REF_INTERVAL seconds from a SIGALRM
    handler, so the machine's speed is sampled during long operations too.

    ``clock`` is ``perf_counter`` minus the time spent in the handler, for
    timing work without the samples taken inside it.
    """

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []
        self.spent = 0.0

    def tick(self, *_signal) -> None:
        start = time.perf_counter()
        reference_task()
        elapsed = time.perf_counter() - start
        self.times.append(start)
        self.refs.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> Speedometer:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done between ``start`` and ``end`` (perf_counter
        times) at reference speed: scaled by REF_SECONDS over the median
        reference time sampled within REF_INTERVAL of that interval."""
        lo = bisect.bisect_left(self.times, start - REF_INTERVAL)
        hi = bisect.bisect_right(self.times, end + REF_INTERVAL)
        return seconds * REF_SECONDS / statistics.median(self.refs[lo:hi])


def set_up(workload: str, seed: int, clock=time.perf_counter):
    """Import plus input generation, repeated SETUP_ROUNDS times; returns
    the last round's library, inputs and golden rows, and each round's
    (start, end, duration by ``clock``)."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        start, begin = time.perf_counter(), clock()
        lib = load_library()
        inputs = workloads.WORKLOADS[workload][0](seed)
        golden = workloads.load_golden(ROOT) if workload == "survey" else {}
        rounds.append((start, time.perf_counter(), clock() - begin))
    return lib, inputs, golden, rounds


class Loop:
    """Closed-loop runner over a fixed sample: runs operations and checks
    their answers."""

    def __init__(self, workload: str, lib, golden: dict, size: int, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.lib = lib
        self.golden = golden
        self.op = workloads.WORKLOADS[workload][1]
        self.tried = [False] * size
        self.verified = [False] * size
        self.errors: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        """Distinct inputs run at least once."""
        return sum(self.tried)

    @property
    def failed(self) -> int:
        """Distinct inputs whose operation raised a package error."""
        return sum(t and not v for t, v in zip(self.tried, self.verified))

    def run_one(self, index: int, item, op=None) -> float:
        op = op or self.op
        first = not self.tried[index]
        self.tried[index] = True
        start = self.clock()
        try:
            answer = op(self.lib, item)
        except self.lib.errors.OneMotivesError as exc:
            if first:
                kind = type(exc).__name__
                self.errors[kind] = self.errors.get(kind, 0) + 1
            answer = None
        elapsed = self.clock() - start
        if answer is not None:
            try:
                workloads.check(self.workload, item, answer, self.golden)
            except workloads.WrongAnswer as exc:
                exc.loop = self
                raise
            self.verified[index] = True
        return elapsed

    def run_pass(self, sample: list, op=None, before=None) -> float:
        start = time.perf_counter()
        for index, item in enumerate(sample):
            if before is not None:
                before(index)
            self.run_one(index, item, op)
        return time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Loop]:
    """Cycle over the sample until ``seconds`` have passed and every
    operation has run at least once."""
    with Speedometer() as speed:
        lib, sample, golden, rounds = set_up(workload, seed, speed.clock)
        loop = Loop(workload, lib, golden, len(sample), speed.clock)
        gc.collect()
        runs = []
        start = time.perf_counter()
        deadline = start + seconds
        while len(runs) < len(sample) or time.perf_counter() < deadline:
            index = len(runs) % len(sample)
            begin = time.perf_counter()
            latency = loop.run_one(index, sample[index])
            runs.append((index, latency, begin, time.perf_counter()))
        wall = time.perf_counter() - start
    setup = [speed.scaled(d, b, e) for b, e, d in rounds]
    by_op: list[list[float]] = [[] for _ in sample]
    raw: list[list[float]] = [[] for _ in sample]
    for index, latency, begin, end in runs:
        by_op[index].append(speed.scaled(latency, begin, end))
        raw[index].append(latency)
    seen = len(sample)
    cost = [statistics.median(r) for r in by_op]
    latencies = [c for c, ok in zip(cost, loop.verified) if ok]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "ops_per_s": len(latencies) / sum(cost),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * tail_s,
        "ok_share": len(latencies) / seen,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_p50 = statistics.median(statistics.median(r) for r, ok in zip(raw, loop.verified) if ok and r)
    print(
        f"{workload} seed {seed}: {seen} operations, each run {len(runs) / seen:.1f} times in {wall:.2f} s; "
        f"{len(latencies)} verified, {seen - len(latencies)} failed "
        f"(failed_share {(seen - len(latencies)) / seen:.4f}) {loop.errors or ''}"
    )
    print(
        f"as measured: op_p50 {1000 * raw_p50:.4g} ms, setup {statistics.median(d for _, _, d in rounds):.4g} s; "
        f"reference task median {1000 * statistics.median(speed.refs):.4g} ms over {len(speed.refs)} samples"
    )
    units = metric_units("end_to_end")
    for name, value in metrics.items():
        note = f"  (p{tail_pct:.2f} of {len(latencies)} verified operations, {TAIL_BEYOND} beyond)" if name == "op_tail_ms" else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}, loop


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "onemotives").glob("*.py"))


def trace_run(workload: str, seed: int, seconds: float) -> tuple[dict, Loop]:
    """Alternate untraced and traced passes over the sample while a whole
    pair still fits in ``seconds`` (always at least one pair)."""
    lib, sample, golden, _ = set_up(workload, seed)
    loop = Loop(workload, lib, golden, len(sample))
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        gc.collect()
        plain.append(loop.run_pass(sample))
        tracer = tracing.Tracer(workloads.PRECISION)
        restore = tracing.install(tracer, lib)
        try:
            gc.collect()
            traced.append(loop.run_pass(sample, tracer.wrap(tracing.OP, loop.op), tracer.begin_op))
        finally:
            restore()
        per_pass.append(tracing.layer_metrics(tracer.spans, traced[-1]))
        now = time.perf_counter()
        if now + (now - pair_start) > start + seconds:
            break
    out = BENCH / "out" / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(out)

    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if tracing.is_count(name):
            if len(set(values)) != 1:
                raise RuntimeError(f"count {name} differs between identical passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead"] = min(plain) / min(traced)
    metrics["src.lines"] = src_lines()
    print(
        f"{workload} seed {seed}: {len(traced)} traced and {len(plain)} untraced passes over "
        f"{len(sample)} operations; spans of the last pass in {out.relative_to(ROOT)}"
    )
    units = metric_units("per_layer")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name, '')}")
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}, loop


def metric_units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "onemotives" / "__init__.py").is_file():
        print(f"error: no onemotives sources under {SRC}", file=sys.stderr)
        return 2
    run = trace_run if args.trace else measure
    try:
        metrics, loop = run(args.workload, args.seed, args.seconds)
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        loop = exc.loop
        print(json.dumps({"correct": False, "attempted": loop.attempted, "failed": loop.failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
