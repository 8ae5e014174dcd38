"""Seeded inputs, operations and answer checks for the benchmark workloads.

Inputs are plain tuples built here from the seed alone; the library sees
only those tuples.  Each operation calls the same public functions as the
``onemotives`` command line (``survey_rows``, ``cmd_end``, ``cmd_hom`` /
``cmd_motivic_hom``), always through module attributes so that the traced
run's wrappers see every call.

The answer checks use number theory implemented here, independently of
the library: which traces are ordinary, which characteristic polynomials
split over Q_p, and the End dimension of one elliptic block that follows.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

PRECISION = 40

# (End dimension, weight -1 class, Frobenius member) of [Z -> E]
CASE_TABLE = {
    (3, "polynomial_algebra_of_phi", True),
    (2, "scalar_only", False),
    (4, "upper_triangular_full", True),
}
BLOCK_CLASS = {1: "scalar_only", 2: "polynomial_algebra_of_phi", 3: "upper_triangular_full"}
GOLDEN_FILES = ("survey_p5_f1.txt", "survey_p5_f2.txt")


class WrongAnswer(Exception):
    """The library returned an answer that contradicts the independent check."""


def _expect(ok: bool, what: str, item) -> None:
    if not ok:
        raise WrongAnswer(f"{what}: {item!r}")


# -- number theory for the checks --------------------------------------------------


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def prime_powers(limit: int) -> list[tuple[int, int, int]]:
    """(q, p, f) for every prime power q = p**f <= limit, ascending in q."""
    out = []
    for p in range(2, limit + 1):
        if not _is_prime(p):
            continue
        q, f = p, 1
        while q <= limit:
            out.append((q, p, f))
            q, f = q * p, f + 1
    return sorted(out)


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _is_padic_square(d: int, p: int) -> bool:
    """Whether a nonzero integer is a square in Q_p."""
    v = _valuation(d, p)
    u = d // p**v
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def block_end_dim(t: int, p: int, f: int, mode: str) -> int:
    """End dimension of one elliptic block with trace t and Hodge-line mode.

    A phi-stable Hodge line (an ordinary eigenline, or any eigenline when
    T^2 - tT + q splits over Q_p) keeps the whole polynomial algebra of
    phi; the generic line of an irreducible block keeps only scalars;
    scalar Frobenius keeps the upper-triangular stabilizer of the line.
    """
    q = p**f
    if mode == "scalar":
        return 3
    if mode == "jordan" or t % p or t * t == 4 * q:
        return 2
    return 2 if _is_padic_square(t * t - 4 * q, p) else 1


def _admissible_traces(q: int) -> list[int]:
    bound = math.isqrt(4 * q)
    return list(range(-bound, bound + 1))


# -- survey ------------------------------------------------------------------------

SURVEY_SAMPLE = 600
SURVEY_DRAW = 0


def _stratified_order(strata: list[list], rng: random.Random) -> list:
    """Interleave shuffled strata so every prefix holds each stratum in
    proportion to its size (to within one item)."""
    keyed = []
    for items in strata:
        items = list(items)
        rng.shuffle(items)
        offset = rng.random()
        keyed.extend(((i + offset) / len(items), rng.random(), item) for i, item in enumerate(items))
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [item for _, _, item in keyed]


def survey_inputs(seed: int) -> list[tuple]:
    """SURVEY_SAMPLE survey rows (q, p, f, t, mode) from every prime power
    q <= 256, each field in proportion to its number of rows, in an order
    drawn from the seed.

    Which rows are in the sample is fixed (drawn once from SURVEY_DRAW), so
    every seed meets the same rows where ROADMAP item 1 raises
    ``PrecisionExhausted``: the number of failed rows in a run is a
    property of the library, not of the seed.
    """
    strata = []
    for q, p, f in prime_powers(256):
        rows = []
        for t in _admissible_traces(q):
            modes = ["auto", "scalar", "jordan"] if t * t == 4 * q else ["auto"]
            rows.extend((q, p, f, t, mode) for mode in modes)
        strata.append(rows)
    sample = _stratified_order(strata, random.Random(SURVEY_DRAW))[:SURVEY_SAMPLE]
    random.Random(seed).shuffle(sample)
    return sample


def survey_op(lib, row: tuple) -> tuple:
    """One row as ``cli.survey_rows`` computes it."""
    _q, p, f, t, mode = row
    crystal, homsolver = lib.crystal, lib.homsolver
    ctx = lib.padic.PadicContext(p, f, PRECISION)
    elliptic = crystal.realize_elliptic(t, crystal.EllipticFilMode.parse(mode), ctx)
    motive = crystal.direct_sum([crystal.realize_lattice(1, ctx), elliptic])
    space = homsolver.end_algebra(motive)
    classification = homsolver.classify_end(motive, space)
    return (
        crystal.is_ordinary(t, ctx),
        tuple(str(s) for s in crystal.newton_slopes_of(elliptic)),
        space.dimension,
        classification.tag_for_weight(-1),
        homsolver.frobenius_membership(motive, space),
    )


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def survey_cells(row: tuple, answer: tuple) -> tuple[str, ...]:
    """The row as the survey table prints it."""
    q, _p, _f, t, mode = row
    ordinary, slopes, dim, cls, member = answer
    return (
        str(q), str(t), mode, _fmt_bool(ordinary), "{" + ",".join(slopes) + "}",
        str(dim), cls, _fmt_bool(member),
    )


def load_golden(root: Path) -> dict:
    """Survey golden rows keyed by (q, t, mode), read from tests/golden."""
    golden = {}
    for name in GOLDEN_FILES:
        lines = (root / "tests" / "golden" / name).read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            cells = tuple(line.split())
            golden[(int(cells[0]), int(cells[1]), cells[2])] = cells
    return golden


def survey_check(row: tuple, answer: tuple, golden: dict) -> None:
    q, p, f, t, mode = row
    ordinary, slopes, dim, cls, member = answer
    if (q, t, mode) in golden:
        _expect(survey_cells(row, answer) == golden[(q, t, mode)], "row differs from golden", row)
    _expect((dim, cls, member) in CASE_TABLE, "row fits no case of the table", (row, answer))
    _expect(ordinary == (t % p != 0), "ordinarity is wrong", (row, answer))
    _expect(ordinary == (slopes == ("0", "1")), "ordinary does not match slopes {0,1}", (row, answer))
    _expect(dim == 1 + block_end_dim(t, p, f, mode), "End dimension is wrong", (row, answer))


# -- end -----------------------------------------------------------------------------

END_DIM_CAP = 12
END_SAMPLE = 40
END_PRIMES = (2, 3, 5, 7, 11, 13)
SCALAR_PRIMES = (2, 3, 5, 7)
# block classes: ordinary eigenline (p-adic Fil1), supersingular generic
# line and scalar Frobenius (both rational Fil1)
END_CLASSES = {"ordinary": 2, "generic": 1, "scalar": 3}


def end_shapes() -> list[tuple[int, int, int, str]]:
    """(lattice rank, torus dim, elliptic copies, block class) with End
    dimension at most END_DIM_CAP and module dimension at least 2."""
    shapes = []
    for r in range(4):
        for d in range(4):
            for k in range(4):
                for cls in (END_CLASSES if k else ["none"]):
                    dim = _shape_dim((r, d, k, cls))
                    if 0 < dim <= END_DIM_CAP and r + d + 2 * k >= 2:
                        shapes.append((r, d, k, cls))
    return shapes


def _shape_dim(shape: tuple) -> int:
    r, d, k, cls = shape
    return r * r + d * d + k * k * END_CLASSES.get(cls, 0)


def end_expected_dim(item: tuple) -> int:
    r, d, k, cls, p, f, t, mode = item
    e = block_end_dim(t, p, f, mode) if k else 0
    return r * r + d * d + k * k * e


def end_inputs(seed: int) -> list[tuple]:
    """END_SAMPLE shapes over fixed fields, with seeded ordinary traces.

    The shapes are a fixed systematic sample of all shapes sorted by End
    dimension, and the primes are dealt round-robin along that order, so
    every seed runs the same sizes over the same fields and each size class
    sees every prime.  Supersingular blocks take t = 0 (generic line) or
    t = 2p at q = p^2 (scalar Frobenius); the seed draws the ordinary
    traces and the order.
    """
    rng = random.Random(seed)
    shapes = sorted(end_shapes(), key=lambda s: (_shape_dim(s), s))
    chosen = [shapes[int((j + 0.5) * len(shapes) / END_SAMPLE)] for j in range(END_SAMPLE)]
    items = []
    for i, (r, d, k, cls) in enumerate(chosen):
        if cls == "scalar":
            p = SCALAR_PRIMES[i % len(SCALAR_PRIMES)]
            items.append(_end_item((r, d, k, cls), p, 2, 2 * p, "scalar"))
            continue
        p = END_PRIMES[i % len(END_PRIMES)]
        # for f = 1, T^2 + p is irreducible over Q_p: the generic line
        t = rng.choice([t for t in _admissible_traces(p) if t % p]) if cls == "ordinary" else 0
        items.append(_end_item((r, d, k, cls), p, 1, t, "auto"))
    rng.shuffle(items)
    return items


def _end_item(shape: tuple, p: int, f: int, t: int, mode: str) -> tuple:
    r, d, k, cls = shape
    return (r, d, k, cls, p, f, t, mode)


def end_op(lib, item: tuple) -> tuple:
    """``end_algebra`` + ``frobenius_membership``, plus ``classify_end``
    when at most one elliptic block is present."""
    r, d, k, _cls, p, f, t, mode = item
    crystal, homsolver = lib.crystal, lib.homsolver
    ctx = lib.padic.PadicContext(p, f, PRECISION)
    spec = crystal.OneMotiveSpec(lattice_rank=r, torus_dim=d, elliptic_traces=(t,) * k)
    module = crystal.realize_one_motive(spec, ctx, fil_mode=crystal.EllipticFilMode.parse(mode))
    space = homsolver.end_algebra(module)
    member = homsolver.frobenius_membership(module, space)
    summary = homsolver.classify_end(module, space).summary() if k <= 1 else None
    return space.dimension, member, summary


def end_check(item: tuple, answer: tuple) -> None:
    r, d, k, _cls, p, f, t, mode = item
    dim, member, summary = answer
    _expect(dim == end_expected_dim(item), "End dimension is wrong", (item, answer))
    e = block_end_dim(t, p, f, mode) if k else 0
    _expect(member == (e != 1), "Frobenius membership is wrong", (item, answer))
    if k <= 1:
        tags = (["lattice_scalars"] if r else []) + ([BLOCK_CLASS[e]] if k else [])
        tags += ["torus_scalars"] if d else []
        _expect(summary == "+".join(tags), "classification is wrong", (item, answer))


# -- hom -----------------------------------------------------------------------------

HOM_FIELDS = ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (4, 2), (9, 2), (25, 2))
# summand dimensions of X and of Y; Y's j-th summand is paired with X's
# (j mod len X)-th summand
HOM_SHAPES = (
    ((2,), (2,)), ((3,), (3,)), ((4,), (4,)), ((4,), (3,)), ((5,), (4,)), ((6,), (6,)),
    ((2, 3), (3,)), ((3, 4), (4, 3)), ((4,), (2, 4)), ((4, 4), (4, 2)), ((5, 2), (5,)), ((6, 3), (6,)),
)
HOM_VARIANTS = 4


def _summand(dim: int, blocks: int, traces: list[int], lean: int) -> tuple:
    """(lattice rank, torus dim, elliptic traces) of dimension dim with the
    given number of elliptic blocks; the rest is split between lattice and
    torus, the odd one going to the lattice when ``lean`` is 1."""
    rest = dim - 2 * blocks
    r = (rest + lean) // 2
    return (r, rest - r, tuple(sorted(traces[:blocks])))


def hom_inputs(seed: int) -> list[tuple]:
    """Pairs of distinct complexes (p, f, X, Y, dual); a complex is a tuple
    of (summand, degree).

    Every field meets every shape of HOM_SHAPES in HOM_VARIANTS variants,
    and the variant fixes the structure: how many elliptic blocks each
    summand has, whether X's summands share a degree, whether a Y summand
    is its X partner itself, which Y summands sit one degree up, and
    whether the Cartier duals are checked too (one variant of four).  So
    every seed has the same mix of sizes and structures.  The seed draws
    the field's two traces: one ordinary and one divisible by p.
    """
    rng = random.Random(seed)
    items = []
    for i in range(len(HOM_FIELDS) * len(HOM_SHAPES) * HOM_VARIANTS):
        q, f = HOM_FIELDS[i % len(HOM_FIELDS)]
        x_dims, y_dims = HOM_SHAPES[(i // len(HOM_FIELDS)) % len(HOM_SHAPES)]
        v = i // (len(HOM_FIELDS) * len(HOM_SHAPES))
        p = round(q ** (1 / f))
        traces = _admissible_traces(q)
        pool = [rng.choice([t for t in traces if t % p]), rng.choice([t for t in traces if t % p == 0])]

        def fresh(dim: int, j: int, side: int) -> tuple:
            blocks = (v + j + side) % (min(2, dim // 2) + 1)
            return _summand(dim, blocks, [pool[(b + v + j) % 2] for b in range(2)], (v + side) % 2)

        xs = tuple((fresh(dim, j, 0), j if v % 2 == 0 else 0) for j, dim in enumerate(x_dims))
        ys = []
        for j, dim in enumerate(y_dims):
            partner, degree = xs[j % len(xs)]
            reuse = (v + j) % 2 == 0 and dim == partner[0] + partner[1] + 2 * len(partner[2])
            ys.append((partner if reuse else fresh(dim, j, 1), degree + ((v + j) % 4 == 3)))
        if sorted(xs) == sorted(ys):
            # a fresh Y-side summand has another number of elliptic blocks
            ys[-1] = (fresh(y_dims[-1], len(ys) - 1, 1), ys[-1][1])
        items.append((p, f, xs, tuple(ys), v % 4 == 0))
    return items


def _realize_complex(lib, summands: tuple, ctx):
    motivic = lib.motivic
    out = motivic.MotivicComplex.empty()
    for (r, d, traces), degree in summands:
        spec = lib.crystal.OneMotiveSpec(lattice_rank=r, torus_dim=d, elliptic_traces=traces)
        out = motivic.direct_sum_complex(out, motivic.shift(motivic.realize_motive(spec, ctx), degree))
    return out


def _dual_complex(lib, x):
    return lib.motivic.MotivicComplex(tuple((lib.crystal.dual(m), -d) for m, d in x.summands))


def _hom_summary(result) -> tuple:
    return result.dimension, {d: [h.dimension for h in hs] for d, hs in result.by_degree.items()}


def hom_op(lib, item: tuple) -> tuple:
    """``motivic.hom_complex`` on the realized pair, and on the pair of
    Cartier duals in reverse order for the dual share."""
    p, f, xs, ys, dual = item
    ctx = lib.padic.PadicContext(p, f, PRECISION)
    x, y = _realize_complex(lib, xs, ctx), _realize_complex(lib, ys, ctx)
    forward = _hom_summary(lib.motivic.hom_complex(x, y))
    if not dual:
        return forward, None
    backward = lib.motivic.hom_complex(_dual_complex(lib, y), _dual_complex(lib, x))
    return forward, _hom_summary(backward)


def summand_hom_dim(a: tuple, b: tuple, p: int, f: int) -> int:
    """dim Hom between two summands from the block decomposition: lattice
    and torus blocks give r_a r_b and d_a d_b, equal elliptic traces give
    their one-block End dimension, and distinct weights or traces give 0."""
    (ra, da, ta), (rb, db, tb) = a, b
    total = ra * rb + da * db
    for t in set(ta) & set(tb):
        total += ta.count(t) * tb.count(t) * block_end_dim(t, p, f, "auto")
    return total


def hom_expected(item: tuple) -> tuple:
    p, f, xs, ys, _dual = item
    by_degree: dict[int, list[int]] = {}
    for a, da in xs:
        for b, db in ys:
            if da == db:
                by_degree.setdefault(da, []).append(summand_hom_dim(a, b, p, f))
    return sum(sum(v) for v in by_degree.values()), by_degree


def hom_check(item: tuple, answer: tuple) -> None:
    dual = item[-1]
    forward, backward = answer
    total, by_degree = hom_expected(item)
    _expect(forward[0] == total, "Hom dimension differs from the closed form", (item, answer))
    _expect(
        {d: sorted(v) for d, v in forward[1].items()} == {d: sorted(v) for d, v in by_degree.items()},
        "Hom by degree differs from the matching-degree closed form",
        (item, answer),
    )
    if dual:
        _expect(backward is not None and backward[0] == total, "dim Hom(B*, A*) != dim Hom(A, B)", (item, answer))


WORKLOADS = {
    "survey": (survey_inputs, survey_op),
    "end": (end_inputs, end_op),
    "hom": (hom_inputs, hom_op),
}


def check(workload: str, item: tuple, answer: tuple, golden: dict) -> None:
    """Raise WrongAnswer unless the answer to item is right."""
    if workload == "survey":
        survey_check(item, answer, golden)
    elif workload == "end":
        end_check(item, answer)
    else:
        hom_check(item, answer)
