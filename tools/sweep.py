"""Records of the engine over every Hasse-admissible survey row up to a q.

    python3 tools/sweep.py --qmax Q

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
this is a comparison tool, not a test: it pins no hash.
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
sys.path[:0] = [str(TOOLS), str(TOOLS.parent / "src")]

from fingerprint import Records, _digest_line  # noqa: E402
from onemotives import crystal, homsolver  # noqa: E402
from onemotives.padic import PadicContext  # noqa: E402

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


def sweep(qmax: int) -> Records:
    rec = Records()
    for q, t, mode in domain(qmax):
        ctx = PadicContext.from_q(q)
        item = [q, t, mode]

        def build():
            spec = crystal.OneMotiveSpec(lattice_rank=1, torus_dim=1, elliptic_traces=(t,))
            return crystal.realize_one_motive(spec, ctx, fil_mode=crystal.EllipticFilMode.parse(mode))

        m = rec.add("build", item, build, crystal.module_to_jsonable)
        if m is not None:
            rec.add("end", item, lambda: _end(m))
            rec.add("hom", item, lambda: homsolver.homspace_to_jsonable(homsolver.hom_space(crystal.dual(m), m)))
    return rec


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
    args = parser.parse_args(argv)
    lines = sweep(args.qmax).lines
    for (stage, outcome), n in sorted(outcomes(lines).items()):
        print(stage, outcome, n)
    print(_digest_line(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
