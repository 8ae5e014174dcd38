"""Function-call counts of one pass over a benchmark workload's sample.

    python3 tools/callcount.py --workload {survey,end,hom} --seed N

Runs one pass over the seed's sample of ``bench/workloads.py`` as a warm-up,
then one more under cProfile, each operation followed by the benchmark's
own answer check; an operation that raises a package error is skipped, as
the benchmark counts it failed.  Prints, for the profiled pass of the
checkout this file sits in, the total number of function calls, the
number of ``Fraction`` and ``PadicScalar`` constructions, the number of
``padic.modular_inverse`` calls (the extended Euclid of p-adic division)
and the number of ``linalg._rref`` calls (every elimination), one
``<name> <count>`` line each.  The counts repeat exactly from run to run on
one Python version, so two checkouts compare without timing noise; they
omit work inside native code and are counts, not times.

``bench/workloads.py`` is imported without writing anything under ``bench/``.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from onemotives import crystal, homsolver, linalg, motivic, padic  # noqa: E402
from onemotives.errors import OneMotivesError  # noqa: E402

LIB = SimpleNamespace(crystal=crystal, homsolver=homsolver, linalg=linalg, motivic=motivic, padic=padic)


def load_workloads():
    """``bench/workloads.py`` as a module, without bytecode under ``bench/``."""
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def run_pass(workloads, workload: str, items: list, golden: dict) -> None:
    op = workloads.WORKLOADS[workload][1]
    for item in items:
        try:
            answer = op(LIB, item)
        except OneMotivesError:
            continue
        workloads.check(workload, item, answer, golden)


def tally(profile: cProfile.Profile) -> dict[str, int]:
    """The counts of a finished profile, summed over the profiler's raw
    entries: ``pstats`` keys functions by (file, line, name) and keeps one
    entry per key, so every dataclass ``__init__`` but one, and nested
    comprehensions, would drop out of the total."""
    entries = profile.getstats()

    def calls(function) -> int:
        """How often the profiled pass called ``function``; 0 for None."""
        code = getattr(function, "__code__", None)
        return sum(e.callcount for e in entries if e.code is code) if code else 0

    # Fraction arithmetic builds its results through __new__ before Python
    # 3.12 and through _from_coprime_ints from 3.12 on
    fractions = calls(Fraction.__new__) + calls(getattr(Fraction, "_from_coprime_ints", None))
    return {
        "calls": sum(e.callcount for e in entries),
        "fraction_new": fractions,
        "padic_scalar_new": calls(padic.PadicScalar.__init__),
        "modular_inverse": calls(padic.modular_inverse),
        "rref": calls(linalg._rref),
    }


def count(workload: str, seed: int) -> dict[str, int]:
    workloads = load_workloads()
    items = workloads.WORKLOADS[workload][0](seed)
    golden = workloads.load_golden(ROOT) if workload == "survey" else {}
    run_pass(workloads, workload, items, golden)
    profile = cProfile.Profile()
    profile.runcall(run_pass, workloads, workload, items, golden)
    return tally(profile)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("survey", "end", "hom"), required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    args = parser.parse_args(argv)
    for name, value in count(args.workload, args.seed).items():
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
