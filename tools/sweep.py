"""Records of the engine over every Hasse-admissible survey row up to a q.

    python3 tools/sweep.py --qmax Q [--refines OTHER_SRC]

The domain is every prime power q <= Q and every trace t with t^2 <= 4q,
in the fil modes auto, generic, eigenline:0 and eigenline:1, plus scalar
and jordan where t^2 = 4q.  The module of each (q, t, mode) is lattice 1
+ elliptic(t) + torus 1 at the default precision.  Its records are:

* ``build``: ``module_to_jsonable`` of the module;
* ``end``: ``homspace_to_jsonable(end_algebra(m))`` and
  ``frobenius_membership`` of m in it;
* ``hom``: ``homspace_to_jsonable(hom_space(dual(m), m))``;

each the error class and message instead when it raised, and the last two
only for a module that was built.  Prints one ``<stage> <outcome> <count>``
line per stage and outcome, then ``<records> <sha256>`` over the records of
the checkout this file sits in: two checkouts that print the same last line
computed the same records, byte for byte.  Like ``tools/fingerprint.py``
this is a comparison tool: it pins no hash.

Every ``end`` record that answers is also held to two invariants that do
not come from the solver:

* phi lies in End exactly when it keeps Fil1, so ``frobenius_membership``
  equals ``crystal.check_filtration_stability`` of the module (a raising
  stability check counts as a mismatch);
* on ``auto``, ``scalar`` and ``jordan`` rows End has dimension 2 (lattice
  and torus) plus ``block_end_dim`` of ``bench/workloads.py`` for the
  elliptic block, the benchmark's own answer check.

Each mismatch is printed to stderr with its (q, t, mode) and both values,
after a line counting the checks, and the exit code is then 1.

With ``--refines OTHER_SRC`` the records are also computed with the package
under OTHER_SRC, and each changed record must refine OTHER's, in the sense
of ``tools/refines.py``; one that does not is printed to stderr and the exit
code is 1.  Stdout is the same with or without it.
``bench/workloads.py`` is imported without writing anything under ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(TOOLS), str(TOOLS.parent / "src"), str(TOOLS.parent / "bench")]

from fingerprint import Records, _digest_line  # noqa: E402
import refines  # noqa: E402
from onemotives import crystal, homsolver  # noqa: E402
from onemotives.errors import OneMotivesError  # noqa: E402
from onemotives.padic import PadicContext  # noqa: E402
import workloads  # noqa: E402

MODES = ("auto", "generic", "eigenline:0", "eigenline:1")
SQUARE_MODES = ("scalar", "jordan")


def domain(qmax: int) -> list[tuple[int, int, str]]:
    """Every (q, t, mode) of the sweep, in order."""
    out = []
    for q in range(2, qmax + 1):
        try:
            PadicContext.from_q(q)
        except ValueError:
            continue
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            modes = MODES + SQUARE_MODES if t * t == 4 * q else MODES
            out += [(q, t, mode) for mode in modes]
    return out


def _end(m) -> list:
    e = homsolver.end_algebra(m)
    return [homsolver.homspace_to_jsonable(e), homsolver.frobenius_membership(m, e)]


def invariant_breaks(ctx: PadicContext, t: int, mode: str, m, end: list) -> tuple[list[str], int]:
    """The invariants an answering ``end`` record breaks, one line each,
    and how many were checked."""
    space, member = end
    where = f"(q, t, mode) = ({ctx.q}, {t}, {mode!r})"
    try:
        stable = crystal.check_filtration_stability(m)
    except (OneMotivesError, ValueError) as exc:
        stable = f"{type(exc).__name__}: {exc}"
    out = []
    if member != stable:
        out.append(f"{where}: frobenius_membership {member}, check_filtration_stability {stable}")
    if mode not in ("auto",) + SQUARE_MODES:
        return out, 1
    expected = 2 + workloads.block_end_dim(t, ctx.p, ctx.f, mode)
    if space["dimension"] != expected:
        out.append(f"{where}: end dimension {space['dimension']}, expected {expected}")
    return out, 2


def sweep(qmax: int) -> tuple[list[str], list[str], int]:
    """The records' lines, the invariant mismatches and the number of checks."""
    rec, breaks, checks = Records(), [], 0
    for q, t, mode in domain(qmax):
        ctx = PadicContext.from_q(q)
        item = [q, t, mode]

        def build():
            spec = crystal.OneMotiveSpec(lattice_rank=1, torus_dim=1, elliptic_traces=(t,))
            return crystal.realize_one_motive(spec, ctx, fil_mode=crystal.EllipticFilMode.parse(mode))

        m = rec.add("build", item, build, crystal.module_to_jsonable)
        if m is not None:
            end = rec.add("end", item, lambda: _end(m))
            if end is not None:
                found, n = invariant_breaks(ctx, t, mode, m, end)
                breaks += found
                checks += n
            rec.add("hom", item, lambda: homsolver.homspace_to_jsonable(homsolver.hom_space(crystal.dual(m), m)))
    return rec.lines, breaks, checks


def records(qmax: int) -> list[str]:
    return sweep(qmax)[0]


def prime_of(_tag: str, item: list) -> int:
    return PadicContext.from_q(item[0]).p


def outcomes(lines: list[str]) -> Counter:
    """Records by (stage, outcome): "ok" or the error class."""
    counts: Counter = Counter()
    for line in lines:
        stage, _item, out = json.loads(line)
        counts[stage, out[0] if out[0] == "ok" else out[1]] += 1
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--qmax", type=int, required=True, help="largest q swept")
    parser.add_argument("--refines", metavar="OTHER_SRC", help="check that the records refine OTHER_SRC's")
    args = parser.parse_args(argv)
    (lines, breaks, checks), other = refines.alongside(args.refines, "sweep", args.qmax, sweep)
    for (stage, outcome), n in sorted(outcomes(lines).items()):
        print(stage, outcome, n)
    print(_digest_line(lines))
    print(f"invariants: {checks} checked, {len(breaks)} mismatches", file=sys.stderr)
    for line in breaks:
        print("mismatch", line, file=sys.stderr)
    refined = refines.report(other, lines, prime_of) if args.refines else 0
    return 1 if breaks or refined else 0


if __name__ == "__main__":
    sys.exit(main())
