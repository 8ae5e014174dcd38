"""Fingerprint of the engine's outputs over one seed's benchmark inputs.

    python3 tools/fingerprint.py --seed N [--refines OTHER_SRC]

Prints three lines ``<records> <sha256>`` for the checkout this file
sits in: the number of records and a sha256 over them.  The first line
covers the records below as they are; two checkouts that print the same
first line computed the same outputs, byte for byte.  The second line
covers the same records with every ``precision_report`` key removed, so it
also matches between checkouts that differ only in how many p-adic digits
they report behind their pivot decisions.  The records are:

* every ``survey``, ``end`` and ``hom`` answer of ``bench/workloads.py``
  for the seed, or the error it raised, message included;
* ``module_to_jsonable`` of every realized module and of its Cartier dual;
* ``homspace_to_jsonable(end_algebra(.))`` of every survey and end module
  and of the end modules' duals;
* the JSON basis of every Hom space of every ``hom`` pair, and of the
  reversed pair of duals where the workload checks duals;
* ``split_extension`` of seeded two-block modules, every other one with
  the top block of the lower weight where the weights differ, as the
  graded module and U.

The third line covers End where an atom is a whole two-block module,
not a ``direct_sum``: ``homspace_to_jsonable(end_algebra(.))`` and
``frobenius_membership`` of every two-block module, of its split module,
and of the sum of the split module with lattice 1 and an elliptic block.

With ``--refines OTHER_SRC`` every record is also computed with the
package under OTHER_SRC, and each changed record must refine OTHER's, in
the sense of ``tools/refines.py``; one that does not is printed to stderr
and the exit code is 1.  Stdout is the same with or without it.

Inputs come from ``bench/workloads.py``, which is imported without
writing anything under ``bench/``.  This is a comparison tool, not a test:
it pins no hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tools")]

from onemotives import crystal, homsolver, linalg, motivic, padic  # noqa: E402
from onemotives.errors import OneMotivesError  # noqa: E402
import refines  # noqa: E402
import workloads  # noqa: E402

LIB = SimpleNamespace(crystal=crystal, homsolver=homsolver, linalg=linalg, motivic=motivic, padic=padic)
SPLIT_SAMPLE = 200
AUTO = crystal.EllipticFilMode("auto")


class Records:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, tag: str, item, compute, show=lambda result: result):
        """Record show(compute()), or the error compute() raised; returns
        the result, or None after an error."""
        try:
            result = compute()
            out = ["ok", show(result)]
        except (OneMotivesError, ValueError) as exc:
            result = None
            out = ["error", type(exc).__name__, str(exc)]
        self.lines.append(json.dumps([tag, item, out], sort_keys=True, default=str))
        return result


def _end(m):
    return homsolver.homspace_to_jsonable(homsolver.end_algebra(m))


def _module_records(rec: Records, tag: str, item, build, with_end: bool) -> None:
    """A module's JSON and its dual's, and their End spaces if asked."""
    m = rec.add(tag + ".module", item, build, crystal.module_to_jsonable)
    if m is None:
        return
    d = rec.add(tag + ".dual", item, lambda: crystal.dual(m), crystal.module_to_jsonable)
    if with_end:
        rec.add(tag + ".end", item, lambda: _end(m))
        if d is not None and tag == "end":
            rec.add(tag + ".dual_end", item, lambda: _end(d))


def survey_records(rec: Records, seed: int) -> None:
    for row in workloads.survey_inputs(seed):
        rec.add("survey", row, lambda: workloads.survey_op(LIB, row))
        _q, p, f, t, mode = row
        ctx = padic.PadicContext(p, f, workloads.PRECISION)

        def build():
            elliptic = crystal.realize_elliptic(t, crystal.EllipticFilMode.parse(mode), ctx)
            return crystal.direct_sum([crystal.realize_lattice(1, ctx), elliptic])

        _module_records(rec, "survey", row, build, with_end=True)


def end_records(rec: Records, seed: int) -> None:
    for item in workloads.end_inputs(seed):
        rec.add("end", item, lambda: workloads.end_op(LIB, item))
        r, d, k, _cls, p, f, t, mode = item
        ctx = padic.PadicContext(p, f, workloads.PRECISION)
        spec = crystal.OneMotiveSpec(lattice_rank=r, torus_dim=d, elliptic_traces=(t,) * k)
        mode_obj = crystal.EllipticFilMode.parse(mode)
        _module_records(
            rec, "end", item, lambda: crystal.realize_one_motive(spec, ctx, fil_mode=mode_obj), with_end=True
        )


def _summands(c) -> list:
    return [[crystal.module_to_jsonable(m), degree] for m, degree in c.summands]


def _bases(result) -> dict:
    return {
        d: [homsolver.homspace_to_jsonable(h) for h in spaces] for d, spaces in sorted(result.by_degree.items())
    }


def hom_records(rec: Records, seed: int) -> None:
    for item in workloads.hom_inputs(seed):
        rec.add("hom", item, lambda: workloads.hom_op(LIB, item))
        p, f, xs, ys, dual = item
        ctx = padic.PadicContext(p, f, workloads.PRECISION)
        x = rec.add("hom.x", item, lambda: workloads._realize_complex(LIB, xs, ctx), _summands)
        y = rec.add("hom.y", item, lambda: workloads._realize_complex(LIB, ys, ctx), _summands)
        if x is None or y is None:
            continue
        rec.add("hom.bases", item, lambda: _bases(motivic.hom_complex(x, y)))
        if dual:
            rec.add(
                "hom.dual_bases",
                item,
                lambda: _bases(
                    motivic.hom_complex(workloads._dual_complex(LIB, y), workloads._dual_complex(LIB, x))
                ),
            )


def _split_blocks(q: int, rng: random.Random) -> list[tuple[int, list[list[int]]]]:
    """(weight, block) candidates over F_q: unipotent lattice blocks,
    elliptic companions, scalar-q torus blocks."""
    t = rng.choice([t for t in range(-2, 3) if t * t <= 4 * q])
    return [
        (0, [[1]]),
        (0, [[1, rng.randint(-2, 2)], [0, 1]]),
        (-1, [[0, -q], [1, t]]),
        (-2, [[q]]),
        (-2, [[q, rng.randint(-2, 2)], [0, q]]),
    ]


def _end_and_phi(m) -> list:
    e = homsolver.end_algebra(m)
    return [homsolver.homspace_to_jsonable(e), homsolver.frobenius_membership(m, e)]


def split_records(rec: Records, seed: int, ends: Records) -> None:
    """Split records into ``rec``; End records of the modules into ``ends``,
    the elliptic trace of the sum cycling through -2..2 (every trace
    satisfies t^2 <= 4q here), so that ``rec`` sees the same draws."""
    rng = random.Random(seed)
    for i in range(SPLIT_SAMPLE):
        p, f = rng.choice([(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)])
        ctx = padic.PadicContext(p, f, workloads.PRECISION)
        (wa, a), (wb, b) = rng.sample(_split_blocks(ctx.q, rng), 2)
        if (i % 2 == 0) == (wa > wb):
            (wa, a), (wb, b) = (wb, b), (wa, a)
        k, r = len(a), len(b)
        rows = [a[j] + [rng.randint(-3, 3) for _ in range(r)] for j in range(k)]
        rows += [[0] * k + b[j] for j in range(r)]
        n = k + r
        cols = rng.randint(0, sum(len(x) for w, x in ((wa, a), (wb, b)) if w != 0))
        fil = linalg.Matrix(n, cols, [Fraction(rng.randint(-3, 3)) for _ in range(n * cols)])
        if rng.random() < 0.25:
            fil = linalg.to_padic(fil, ctx.doubled())
        item = [p, f, rows, linalg.matrix_to_jsonable(fil)]

        def two_blocks():
            # the constructor refuses dependent Fil1 columns: a record, not a crash
            return crystal.FilteredPhiModule(
                ctx, n, linalg.Matrix.from_rows(rows), (), fil, label=f"two blocks {i}", graded=False, split_at=k
            )

        split = rec.add(
            "split",
            item,
            lambda: crystal.split_extension(two_blocks()),
            lambda gu: [crystal.module_to_jsonable(gu[0]), linalg.matrix_to_jsonable(gu[1])],
        )
        if split is not None:
            g, t = split[0], i % 5 - 2

            def in_a_sum():
                lattice, elliptic = crystal.realize_lattice(1, ctx), crystal.realize_elliptic(t, AUTO, ctx)
                return crystal.direct_sum([g, lattice, elliptic])

            ends.add("split.end", item, lambda: _end_and_phi(g))
            ends.add("split.sum_end", item, lambda: _end_and_phi(in_a_sum()))
        ends.add("split.unsplit_end", item, lambda: _end_and_phi(two_blocks()))


def _without_reports(x):
    if isinstance(x, dict):
        return {k: _without_reports(v) for k, v in x.items() if k != "precision_report"}
    if isinstance(x, list):
        return [_without_reports(v) for v in x]
    return x


def _digest_line(lines: list[str]) -> str:
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return f"{len(lines)} {digest}"


def record_sets(seed: int) -> tuple[list[str], list[str]]:
    """The record lines of the first two digests, and of the third."""
    rec, ends = Records(), Records()
    for records in (survey_records, end_records, hom_records):
        records(rec, seed)
    split_records(rec, seed, ends)
    return rec.lines, ends.lines


def records(seed: int) -> list[str]:
    lines, ends = record_sets(seed)
    return lines + ends


def prime_of(tag: str, item: list) -> int:
    """p of a record's field: a survey row is (q, p, ...), an end item has p
    fifth, and hom and split items start with p."""
    return item[{"survey": 1, "end": 4}.get(tag.split(".")[0], 0)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--refines", metavar="OTHER_SRC", help="check that the records refine OTHER_SRC's")
    args = parser.parse_args(argv)
    (lines, ends), other = refines.alongside(args.refines, "fingerprint", args.seed, record_sets)
    print(_digest_line(lines))
    print(_digest_line([json.dumps(_without_reports(json.loads(x)), sort_keys=True) for x in lines]))
    print(_digest_line(ends))
    return refines.report(other, lines + ends, prime_of) if args.refines else 0


if __name__ == "__main__":
    sys.exit(main())
