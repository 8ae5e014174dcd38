"""Hom and End spaces of filtered phi-modules.

A map h between modules is admissible when it commutes with the linear
Frobenius operators and carries the Hodge subspace of the source into
that of the target.  Hom is additive over the atoms a ``direct_sum``
remembers, and an atom pair whose Frobenius characteristic polynomials
share no root (an exact gcd over Q) contributes nothing.  Every other
pair takes one path.  Its phis are rational, so the commutant C, the
kernel of ``linalg.sylvester(phi_B, phi_A)``, is solved over Q, and that
matrix is checked to send each basis element h to exactly 0, which is
phi_B h - h phi_A = 0.  C is the pair's Hom when Fil1 of the source atom
is 0, Fil1 of the target is everything, or both Hodge subspaces are slope
parts that every equivariant map keeps (``_slope_certified``).  Else the
Hodge cut keeps the sums of C's basis
H_1, ..., H_d with Q (sum x_i H_i) F = 0, F generating Fil1 of the source
and the rows of Q the annihilator of Fil1 of the target: a d-column system
over Q when both Fil1 are rational, else over Q_p at the context precision
N and again at 2N, where a dimension flip raises ``PrecisionExhausted``.
Only this cut, and the Fil1 check on its blocks, is ever p-adic.

The space is its pairs' blocks, in echelon form and verified, on which
End closure and phi-membership are read; the classification reads only
each weight block's algebra dimension.  Only output places a dense
basis (``HomSpace.basis``), each block at its positions of h, whose
unknowns are enumerated row-major; pairs' blocks are disjoint, so
ordering by pivot gives the echelon form of the whole space, byte for
byte.  The space is over Q when every block is, else over Q_p at 2N.

Only the commutation with phi is imposed: at the linearized level the
Verschiebung is q * phi^{-1}, so commuting with phi already commutes
with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    ClosureFailure,
    ContextMismatch,
    PrecisionExhausted,
    UnclassifiedShape,
    VerificationFailure,
)
from . import linalg
from .crystal import FilteredPhiModule, newton_slopes_of
from .linalg import Matrix, PADIC, RATIONAL
from .padic import PadicScalar

LATTICE_SCALARS = "lattice_scalars"
TORUS_SCALARS = "torus_scalars"
POLYNOMIAL_ALGEBRA_OF_PHI = "polynomial_algebra_of_phi"
SCALAR_ONLY = "scalar_only"
UPPER_TRIANGULAR_FULL = "upper_triangular_full"
# weight -> tag of a block that must carry its full matrix algebra
_FULL_ALGEBRA = {0: LATTICE_SCALARS, -2: TORUS_SCALARS}
# algebra dimension -> tag of a 2x2 weight -1 block
_WEIGHT_MINUS_1_2X2 = {1: SCALAR_ONLY, 2: POLYNOMIAL_ALGEBRA_OF_PHI, 3: UPPER_TRIANGULAR_FULL}


@dataclass(eq=False)
class HomSpace:
    """Maps source -> target as ``blocks``: each distinct atom pair (id(a),
    id(b)) to its verified (b.dim x a.dim) blocks, all in one field.
    ``precision_report`` is the fewest digits behind any p-adic pivot
    decision made, None when every solved pair was exact.  Its blocks are
    keyed by atom identity, so a space equals only itself.  ``basis`` is
    the one place they are placed into dense maps."""

    source: FilteredPhiModule
    target: FilteredPhiModule
    blocks: dict = field(repr=False)
    precision_report: int | None = None

    def places(self) -> list:
        """(a, rows_a, b, rows_b) for each source atom a and target atom b."""
        return [(a, rows_a, b, rows_b) for a, rows_a, _ in self.source.atoms() for b, rows_b, _ in self.target.atoms()]

    @property
    def dimension(self) -> int:
        return sum(len(self.blocks[id(a), id(b)]) for a, _, b, _ in self.places())

    @property
    def ctx(self):
        return next((h.ctx for pair in self.blocks.values() for h in pair), None)

    @property
    def basis(self) -> list[Matrix]:
        """The dense maps: every block at each place (a, rows_a, b, rows_b),
        at rows rows_b and columns rows_a, in the pivot order of the whole
        placed maps."""
        n, m, ctx = self.target.dim, self.source.dim, self.ctx
        blank, out = Matrix.zeros(n, m, ctx).entries, []
        for a, rows_a, b, rows_b in self.places():
            # pair unknown i * a.dim + j is entry (rows_b[i], rows_a[j]) of a map
            at = [(i * a.dim + j, r * m + c) for i, r in enumerate(rows_b) for j, c in enumerate(rows_a)]
            for blk in self.blocks[id(a), id(b)]:
                h = list(blank)
                for k, x in at:
                    h[x] = blk.entries[k]
                out.append((_lead(blk, rows_b, rows_a, m), h))
        return [Matrix(n, m, h, ctx) for _, h in sorted(out, key=lambda x: x[0])]


def _verify_element(h: Matrix, c_a: Matrix, c_b: Matrix) -> None:
    """Check that one block of an atom pair's Hom carries Fil1 (columns
    c_a) into Fil1 (columns c_b), all over one field; no rank test for an
    image of exact zeros.  An exact block fails with ``VerificationFailure``,
    a p-adic one with ``PrecisionExhausted``: only there can more digits help."""
    image = linalg.mat_mul(h, c_a)
    # an image of exact zeros is {0}, inside every subspace: no rank test
    if not any(map(linalg.nonzero_test(image.ctx), image.entries)):
        return
    # stacking an m x 0 block c_b onto the image leaves the image
    if linalg.rank(linalg.hstack([c_b, image])) != c_b.cols:
        error = VerificationFailure if h.kind == RATIONAL else PrecisionExhausted
        raise error("image of Fil1 escapes the target Hodge subspace")


def _slope_certified(a: FilteredPhiModule, b: FilteredPhiModule) -> bool:
    """Whether every equivariant map a -> b keeps Fil1: both are slope parts,
    of slopes S_a and S_b, and S_a meets b's slopes inside S_b.  Slope parts
    are functorial (Dieudonne-Manin), so the map sends Fil1_a into b's parts
    of slopes S_a."""
    if a.slope_parts is None or b.slope_parts is None:
        return False
    return a.slope_parts & set(newton_slopes_of(b)) <= b.slope_parts


def _primitive_rows(m: Matrix) -> Matrix:
    """p-adic m with each row times the power of p that makes its lowest
    valuation 0, a shift that keeps every digit; a row with no resolved
    entry stays as it is."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        v = min((x.v for x in row if x.is_resolved), default=0)
        out += [PadicScalar(x.p, x.v - v, x.unit, x.prec) if x.v is not None else x for x in row]
    return Matrix(m.rows, m.cols, out, m.ctx)


def _pair_kernel(a: FilteredPhiModule, b: FilteredPhiModule, reports: list) -> list:
    """Verified (b.dim x a.dim) blocks spanning one atom pair's Hom: none
    for disjoint spectra; the commutant C, solved and checked over Q, when
    no Fil1 condition binds; else C's Hodge cut, over Q when both Fil1 are
    rational, else over Q_p at N and then 2N."""
    forms_b = [g for _, _, g in b.invariants()]
    if not any(linalg.forms_share_root(f, g) for _, _, f in a.invariants() for g in forms_b):
        return []
    sylvester = linalg.sylvester(b.phi, a.phi)
    basis = linalg.kernel(sylvester).basis
    hs = Matrix(len(basis), a.dim * b.dim, [x for v in basis for x in v])
    # Sylvester's matrix maps vec(H) to vec(phi_b H - H phi_a)
    if not linalg.is_zero(linalg.mat_mul(sylvester, linalg.transpose(hs))):
        raise VerificationFailure("solver returned a non-equivariant map")
    if _slope_certified(a, b) or a.fil1.cols == 0 or b.fil1.cols == b.dim:
        return [Matrix(b.dim, a.dim, v) for v in basis]
    q_b = linalg.annihilator_rows(b.fil1)
    ctx = a.ctx.doubled() if PADIC in (a.fil1.kind, b.fil1.kind) else None
    kernels = []
    for c in (a.ctx, ctx) if ctx else (None,):
        q, f, h = (linalg.to_padic(x, c) if c else x for x in (q_b, a.fil1, hs))
        if c:
            # generators at valuation 0, so the digits are spent at one
            # scale: C's echelon basis carries 1/q
            q, f, h = _primitive_rows(q), linalg.transpose(_primitive_rows(linalg.transpose(f))), _primitive_rows(h)
        # row (r, s) holds Q_b[r, j] Fil1_a[k, s] at coordinate (j, k) of
        # vec(h), so column i of the cut is vec(Q_b H_i Fil1_a)
        cols = [f.column(s) for s in range(f.cols)]
        fil_rows = Matrix(q.rows * f.cols, q.cols * f.rows, [x * y for r in range(q.rows) for col in cols for x in q.row(r) for y in col], c)
        kernels.append(linalg.kernel(linalg.mat_mul(fil_rows, linalg.transpose(h))))
    if kernels[0].dimension != kernels[-1].dimension:
        (lo, hi), (n_lo, n_hi) = kernels, (a.ctx.precision, ctx.precision)
        raise PrecisionExhausted(
            f"hom dimension flipped between precisions ({lo.dimension} at {n_lo}, {hi.dimension} at {n_hi})"
        )
    reports += [k.precision_report for k in kernels if k.precision_report is not None]
    # the blocks are the sums over the last stage's h, in its field
    xs = kernels[-1].basis
    sums = linalg.mat_mul(Matrix(len(xs), h.rows, [x for v in xs for x in v], ctx), h)
    rows = [sums.row(i) for i in range(sums.rows)]
    # over Q, sums of C's echelon basis along echelon coordinates are echelon
    # rows; over Q_p echelon_rows undoes the scaling and cuts each entry to
    # its pivot's digits, the form the output carries
    blocks = [Matrix(b.dim, a.dim, v, ctx) for v in (linalg.echelon_rows(rows, ctx) if ctx else rows)]
    c_b = linalg.to_padic(b.fil1, ctx) if ctx else b.fil1
    for blk in blocks:
        _verify_element(blk, f, c_b)
    return blocks


def _lead(h: Matrix, rows_b, rows_a, n: int) -> int:
    """Index in a map of n columns of block h's leading entry, h placed at
    rows rows_b and columns rows_a: its first Fraction that is not 0, or its
    first resolved p-adic entry (unresolved zeros may come before it)."""
    k = next(k for k, x in enumerate(h.entries) if (x.is_resolved if h.ctx else x))
    return rows_b[k // h.cols] * n + rows_a[k % h.cols]


def hom_space(src: FilteredPhiModule, tgt: FilteredPhiModule) -> HomSpace:
    """All Frobenius-equivariant, filtration-preserving maps src -> tgt: each
    distinct atom pair's verified blocks.  The space is over Q when every
    block is, else over Q_p at 2N, where the exact blocks are promoted."""
    if src.ctx != tgt.ctx:
        raise ContextMismatch("source and target live over different contexts")
    reports, blocks = [], {}
    for a, _, _ in src.atoms():
        for b, _, _ in tgt.atoms():
            if (id(a), id(b)) not in blocks:
                blocks[id(a), id(b)] = _pair_kernel(a, b, reports)
    if any(h.ctx for pair in blocks.values() for h in pair):
        ctx = src.ctx.doubled()
        blocks = {key: [h if h.ctx else linalg.to_padic(h, ctx) for h in pair] for key, pair in blocks.items()}
    return HomSpace(src, tgt, blocks, min(reports, default=None))


# -- span membership -----------------------------------------------------------


def in_span_many(basis: list[Matrix], targets: list[Matrix]) -> list:
    """For each target, its coordinates in the span of the basis matrices,
    ``None`` when it lies outside, or the ``PrecisionExhausted`` that
    deciding it alone would raise; one elimination for all targets.
    Rational targets are promoted to the context of a p-adic basis."""
    if not basis:
        return [[] if linalg.is_zero(t) else None for t in targets]
    size, ctx = len(basis[0].entries), basis[0].ctx
    stacked = Matrix(size, len(basis), [b.entries[i] for i in range(size) for b in basis], ctx)
    rhss = [linalg.to_padic(t, ctx).entries if ctx and t.ctx is None else t.entries for t in targets]
    return linalg.solve_many(stacked, rhss)


def end_algebra(m: FilteredPhiModule) -> HomSpace:
    """End space of m, verified to contain the identity and to be closed
    under composition on the atom-pair blocks of ``hom_space``: a (b -> c)
    block after an (a -> b) block is an (a -> c) map, so each distinct pair
    (a, c) with targets (a's identity when a is c, then those products) is
    tested in one ``in_span_many`` against its blocks.  The first failing
    target decides the error; for a single atom the order is identity,
    h0*h0, h0*h1, ...."""
    e = hom_space(m, m)
    atoms = {id(a): a for a, _, _ in m.atoms()}
    for a, atom in atoms.items():
        for c in atoms:
            targets = [Matrix.identity(atom.dim)] if a == c else []
            targets += [linalg.mat_mul(hi, hj) for b in atoms for hi in e.blocks[b, c] for hj in e.blocks[a, b]]
            if not targets:
                continue
            for k, x in enumerate(in_span_many(e.blocks[a, c], targets)):
                if isinstance(x, PrecisionExhausted):
                    raise x
                if x is None:
                    raise ClosureFailure(
                        "identity is missing from the computed endomorphism span"
                        if a == c and k == 0
                        else "basis product escaped the computed span"
                    )
    return e


def _end_module(m: FilteredPhiModule, e: HomSpace) -> FilteredPhiModule:
    """``e.source``, when e is End(m): its target is its source, m or equal to m."""
    if e.target is not e.source or (m is not e.source and m != e.source):
        raise ValueError(f"the space is not End({m.label})")
    return e.source


def frobenius_membership(m: FilteredPhiModule, e: HomSpace) -> bool:
    """Whether phi itself lies in m's computed endomorphism span e: the span
    is the disjoint sum of each atom pair's blocks at each place the pair
    occurs, and phi is block-diagonal on the atoms, so it lies in the span
    exactly when each distinct atom's phi lies in the span of its own
    (a, a) blocks, one ``in_span_many`` per atom.  phi is zero at every
    other place, and zero lies in every span.  One outside answers False;
    else the first ambiguous test raises.  ValueError if e is not End(m)."""
    atoms = {id(a): a for a, _, _ in _end_module(m, e).atoms()}
    answers = [x for key, a in atoms.items() for x in in_span_many(e.blocks[key, key], [a.phi])]
    errors = [x for x in answers if isinstance(x, PrecisionExhausted)]
    if errors and None not in answers:
        raise errors[0]
    return None not in answers


# -- classification -------------------------------------------------------------


@dataclass(frozen=True)
class EndClassification:
    """Per-weight-block case tags."""

    blocks: tuple

    def tag_for_weight(self, w: int) -> str | None:
        return dict(self.blocks).get(w)

    def summary(self) -> str:
        return "+".join(tag for _, tag in self.blocks) if self.blocks else "zero"


def classify_end(m: FilteredPhiModule, e: HomSpace) -> EndClassification:
    """Match the computed space against the known case shapes.

    Checks run in this order: no basis element couples two weights, each
    weight block in weight order, then the block dimensions sum to the End
    dimension.  Weight 0 and -2 blocks must carry the full matrix algebra
    of their size; a 2x2 weight -1 block is sorted into scalars, the
    polynomial algebra of its Frobenius block, or the full upper-triangular
    algebra in a basis adapted to the Hodge line.  The zero module has no
    blocks.  Anything else raises ``UnclassifiedShape``; nothing is coerced.
    ``ValueError`` when e is not End(m).

    All of it is read from each atom pair's blocks, restricted to the
    weight blocks of its two atoms, at the places the pair occurs (e's atom
    positions).  Places are disjoint, so a weight block's algebra is the
    direct sum of those restrictions and its dimension the sum of their
    ranks: the block count for two atoms of that one weight.  No span is
    formed: each block's tag is read from that dimension (``_classify_block``).
    """
    m = _end_module(m, e)
    if not m.graded:
        raise UnclassifiedShape("classification needs a graded module")
    weights = {id(a): {w: range(o, o + d) for w, o, d in a.weight_offsets()} for a, _, _ in m.atoms()}
    places = [(e.blocks[id(a), id(c)], rows_c, weights[id(c)], rows_a, weights[id(a)]) for a, rows_a, c, rows_c in e.places()]
    # the first coupling in basis order: the smallest lead, then weight order
    coupled = [
        (_lead(h, rows_c, rows_a, e.source.dim), -w1, -w2)
        for blocks, rows_c, wc, rows_a, wa in places
        for w1, i in wc.items()
        for w2, j in wa.items()
        if w1 != w2
        for h in blocks
        if not linalg.is_zero(linalg.submatrix(h, i, j))
    ]
    if coupled:
        _, w1, w2 = min(coupled)
        raise UnclassifiedShape(f"an endomorphism couples weight {-w2} into weight {-w1}")
    ctx = e.ctx
    tags, total = [], 0
    for w, d in m.weights:
        inside = [(blocks, rows_c, wc[w], rows_a, wa[w]) for blocks, rows_c, wc, rows_a, wa in places if w in wc and w in wa]
        # a pair of one-weight atoms has independent blocks: count them
        bd = sum(
            len(blocks) if len(i) == len(rows_c) and len(j) == len(rows_a)
            else len(linalg.echelon_rows([linalg.submatrix(h, i, j).entries for h in blocks], ctx))
            for blocks, rows_c, i, rows_a, j in inside
        )
        total += bd
        tags.append((w, _classify_block(w, d, bd)))
    if total != e.dimension:
        raise UnclassifiedShape(
            f"block dimensions sum to {total} but the endomorphism space has "
            f"dimension {e.dimension}; cross-weight relations are present"
        )
    return EndClassification(tuple(tags))


def _classify_block(w: int, d: int, bd: int) -> str:
    """Tag of the weight-w block of size d whose algebra A has dimension bd.

    A weight 0 or -2 block must carry all of M_d.  A 2x2 weight -1 block is
    tagged by bd alone.  A is End, verified, cut to the block, so it holds
    the identity (the closure check tests it) and commutes with phi's block
    (the Sylvester check is exact, and no element couples two weights).
    bd = 1 is then the scalars.  At bd = 2 phi's block is not scalar:
    with a scalar phi, A is the stabilizer of the block's Fil1, of
    dimension 4 (Fil1 0 or everything) or 3 (a line).  A non-scalar 2x2
    phi is cyclic, so its commutant is Q[phi], of dimension 2, and A, inside
    it, is all of it.  At bd = 3, a 3-dimensional unital subalgebra of M_2
    preserving a line is the full stabilizer of that line.
    """
    if w in _FULL_ALGEBRA:
        if bd == d * d:
            return _FULL_ALGEBRA[w]
        raise UnclassifiedShape(f"weight {w} block algebra has dimension {bd}, expected {d * d}")
    if d == 2 and bd in _WEIGHT_MINUS_1_2X2:
        return _WEIGHT_MINUS_1_2X2[bd]
    raise UnclassifiedShape(f"weight {w} block of size {d} with algebra dimension {bd} matches no known case")


# -- serialization ---------------------------------------------------------------


def homspace_to_jsonable(h: HomSpace, classification: str | None = None) -> dict:
    return {
        "dimension": h.dimension,
        "basis": [linalg.matrix_to_jsonable(b) for b in h.basis],
        "classification": classification,
        "precision_report": h.precision_report,
    }
