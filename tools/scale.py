"""End algebras at the sizes the benchmark does not run.

    python3 tools/scale.py

Runs each shape of ``SHAPES`` at its q (q = 5 unless the name ends in
``@q``) in a child process of its own, one at a time, and prints one JSON
line per shape to stdout.  A full garbage collection runs before each
timed stage, so none that an earlier stage's garbage triggers lands in
the next one's time:

* ``hom_space_s``, ``closure_s``, ``classify_end_s`` and
  ``frobenius_membership_s``: seconds in ``hom_space`` (the atom-pair
  solves only: it places no dense basis), in the rest of ``end_algebra``
  (its closure check), in ``classify_end`` and in
  ``frobenius_membership``;
* ``end_dimension`` and ``end_sha256``, the sha256 of
  ``json.dumps(homspace_to_jsonable(end_algebra(m)))``, so two checkouts
  that print the same digest computed the same End, byte for byte, and
  ``end_sha256_s``, the seconds that digest takes: placing the dense basis
  from the blocks and writing it;
* ``classify_end`` (the classification's summary) and
  ``frobenius_membership``: the answers, or ``[error class, message]``
  when one raised;
* ``peak_rss_mb``, the child's peak resident set size.

A shape whose End raises prints ``error`` as ``[class, message]``; one that
runs over ``BUDGET_S`` seconds is killed and printed as skipped with that
budget.  Nothing is written to disk.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onemotives import crystal, homsolver, linalg, padic  # noqa: E402
from onemotives.errors import OneMotivesError  # noqa: E402

# name -> (q, lattice rank, elliptic traces, torus dimension); E(1) at q = 5
# is ordinary, so its slope-certified End is exact, while E(0) at q = 25 is
# isoclinic with a Hodge line that stays p-adic
SHAPES = {
    "L6+T6": (5, 6, (), 6),
    "L12+T12": (5, 12, (), 12),
    "L24+T24": (5, 24, (), 24),
    "E1^8": (5, 0, (1,) * 8, 0),
    "E1^16": (5, 0, (1,) * 16, 0),
    "E1^32": (5, 0, (1,) * 32, 0),
    "L12+E1^4+T12": (5, 12, (1,) * 4, 12),
    "E0^16@25": (25, 0, (0,) * 16, 0),
    # every admissible trace at q = 1031, |t| <= 64: 131 distinct atoms
    "L2+E(all)+T2@1031": (1031, 2, tuple(range(-64, 65)), 2),
}
PRECISION = 40
BUDGET_S = 60  # seconds a shape may take


def end_sha256(e: homsolver.HomSpace) -> str:
    """sha256 of ``json.dumps(homspace_to_jsonable(e))``, fed one basis
    matrix at a time: the JSON of a large End does not fit in memory."""
    # the JSON of a space with e's dimension and report and no basis
    empty = SimpleNamespace(dimension=e.dimension, basis=[], precision_report=e.precision_report)
    head, tail = json.dumps(homsolver.homspace_to_jsonable(empty)).split('"basis": []')
    digest = hashlib.sha256(f'{head}"basis": ['.encode())
    for i, h in enumerate(e.basis):
        digest.update(((", " if i else "") + json.dumps(linalg.matrix_to_jsonable(h))).encode())
    digest.update(f"]{tail}".encode())
    return digest.hexdigest()


def _answer(compute):
    try:
        return compute()
    except (OneMotivesError, ValueError) as exc:
        return [type(exc).__name__, str(exc)]


def measure(name: str) -> dict:
    """The JSON line of one shape, computed in this process."""
    q, r, traces, d = SHAPES[name]
    spec = crystal.OneMotiveSpec(lattice_rank=r, elliptic_traces=traces, torus_dim=d)
    m = crystal.realize_one_motive(spec, padic.PadicContext.from_q(q, PRECISION))
    line = {"shape": name, "dim": m.dim}
    # end_algebra reads hom_space from its module: time it there
    real, spent = homsolver.hom_space, []

    def timed_hom_space(src, tgt):
        start = time.perf_counter()
        try:
            return real(src, tgt)
        finally:
            spent.append(time.perf_counter() - start)

    homsolver.hom_space = timed_hom_space
    gc.collect()
    start = time.perf_counter()
    try:
        e = _answer(lambda: homsolver.end_algebra(m))
    finally:
        homsolver.hom_space = real
    line["hom_space_s"] = round(sum(spent), 4)
    line["closure_s"] = round(time.perf_counter() - start - sum(spent), 4)
    if isinstance(e, list):
        line["error"] = e
        return line
    for key, stage in (
        ("classify_end", lambda: homsolver.classify_end(m, e).summary()),
        ("frobenius_membership", lambda: homsolver.frobenius_membership(m, e)),
    ):
        gc.collect()
        start = time.perf_counter()
        line[key] = _answer(stage)
        line[key + "_s"] = round(time.perf_counter() - start, 4)
    line["end_dimension"] = e.dimension
    gc.collect()
    start = time.perf_counter()
    line["end_sha256"] = end_sha256(e)
    line["end_sha256_s"] = round(time.perf_counter() - start, 4)
    line["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=SHAPES, help=argparse.SUPPRESS)  # the child's one shape
    args = parser.parse_args(argv)
    if args.shape:
        print(json.dumps(measure(args.shape)))
        return 0
    for name in SHAPES:
        command = [sys.executable, __file__, "--shape", name]
        try:
            child = subprocess.run(command, capture_output=True, text=True, timeout=BUDGET_S)
        except subprocess.TimeoutExpired:
            print(json.dumps({"shape": name, "skipped": "over budget", "budget_s": BUDGET_S}), flush=True)
            continue
        if child.returncode:
            last = (child.stderr.strip().splitlines() or [""])[-1]
            print(json.dumps({"shape": name, "error": [f"exit {child.returncode}", last]}), flush=True)
        else:
            print(child.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
