"""Hom and End spaces of filtered phi-modules.

A map h between modules is admissible when it commutes with the linear
Frobenius operators and carries the Hodge subspace of the source into
that of the target.  Both conditions are linear in the entries of h, so
the Hom space is the kernel of one stacked system: the commutation rows
come from a Kronecker rewrite of phi_B h - h phi_A = 0 and the filtration
rows from Q h C = 0, where C generates Fil1 of the source and the rows of
Q span the annihilator of Fil1 of the target.

Unknowns are enumerated row-major and the returned bases are echelonized
against that enumeration, so identical inputs give byte-identical output.
When any input carries p-adic entries the system is solved at the context
precision and re-solved at twice that precision; a dimension flip raises
``PrecisionExhausted`` instead of returning a guess.

Only the commutation with phi is imposed: at the linearized level the
Verschiebung is q * phi^{-1}, so commuting with phi already commutes
with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ClosureFailure,
    ContextMismatch,
    PrecisionExhausted,
    UnclassifiedShape,
    VerificationFailure,
)
from . import linalg
from .crystal import FilteredPhiModule
from .linalg import Matrix, PADIC, RATIONAL
from .padic import PadicContext

LATTICE_SCALARS = "lattice_scalars"
TORUS_SCALARS = "torus_scalars"
POLYNOMIAL_ALGEBRA_OF_PHI = "polynomial_algebra_of_phi"
SCALAR_ONLY = "scalar_only"
UPPER_TRIANGULAR_FULL = "upper_triangular_full"


@dataclass
class HomSpace:
    """Basis of maps source -> target, each of shape (target.dim x source.dim)."""

    source: FilteredPhiModule
    target: FilteredPhiModule
    dimension: int
    basis: list[Matrix]
    precision_report: int | None = None


def _all_rational(*mats: Matrix) -> bool:
    return all(m.kind == RATIONAL for m in mats)


def _promote(m: Matrix, work: PadicContext | None) -> Matrix:
    return m if work is None else linalg.to_padic(m, work)


def _hom_system(src: FilteredPhiModule, tgt: FilteredPhiModule, work: PadicContext | None) -> Matrix:
    """Stacked constraint matrix on vec(h), row-major, h: src -> tgt."""
    phi_a = _promote(src.phi, work)
    phi_b = _promote(tgt.phi, work)
    kind = phi_a.kind
    ctx = phi_a.ctx
    i_a = Matrix.identity(src.dim, kind, ctx)
    i_b = Matrix.identity(tgt.dim, kind, ctx)
    # vec(M X N) = (M kron N^T) vec(X) for row-major vec
    blocks = [linalg.mat_sub(linalg.kron(phi_b, i_a), linalg.kron(i_b, linalg.transpose(phi_a)))]
    c_a = _promote(src.fil1, work)
    if c_a.cols > 0:
        q_b = linalg.annihilator_rows(_promote(tgt.fil1, work))
        if q_b.rows > 0:
            blocks.append(linalg.kron(q_b, linalg.transpose(c_a)))
    return linalg.constraint_stack(blocks)


def _solve_once(src: FilteredPhiModule, tgt: FilteredPhiModule, work: PadicContext | None):
    ker = linalg.kernel(_hom_system(src, tgt, work))
    return ker.basis, ker.precision_report


def _verify_element(h: Matrix, src: FilteredPhiModule, tgt: FilteredPhiModule, work: PadicContext | None) -> None:
    phi_a = _promote(src.phi, work)
    phi_b = _promote(tgt.phi, work)
    resid = linalg.mat_sub(linalg.mat_mul(phi_b, h), linalg.mat_mul(h, phi_a))
    for e in resid.entries:
        if work is None:
            if e != 0:
                raise VerificationFailure("solver returned a non-equivariant map")
        elif not e.negligible(work.threshold):
            raise PrecisionExhausted("equivariance residual above the zero threshold")
    c_b = _promote(tgt.fil1, work)
    c_a = _promote(src.fil1, work)
    if c_a.cols == 0:
        return
    image = linalg.mat_mul(h, c_a)
    if c_b.cols == 0:
        ok = linalg.rank(image) == 0
    else:
        ok = linalg.rank(linalg.hstack([c_b, image])) == c_b.cols
    if not ok:
        raise PrecisionExhausted("image of Fil1 escapes the target Hodge subspace")


def hom_space(src: FilteredPhiModule, tgt: FilteredPhiModule) -> HomSpace:
    """All Frobenius-equivariant, filtration-preserving maps src -> tgt."""
    if src.ctx != tgt.ctx:
        raise ContextMismatch("source and target live over different contexts")
    ctx = src.ctx
    if src.dim == 0 or tgt.dim == 0:
        return HomSpace(src, tgt, 0, [], None)
    if _all_rational(src.phi, tgt.phi, src.fil1, tgt.fil1):
        vecs, report = _solve_once(src, tgt, None)
        work = None
    else:
        vecs_lo, rep_lo = _solve_once(src, tgt, ctx.with_precision(ctx.precision))
        work = ctx.doubled()
        vecs, rep_hi = _solve_once(src, tgt, work)
        if len(vecs_lo) != len(vecs):
            raise PrecisionExhausted(
                f"hom dimension flipped between precisions "
                f"({len(vecs_lo)} at {ctx.precision}, {len(vecs)} at {work.precision})"
            )
        reports = [r for r in (rep_lo, rep_hi) if r is not None]
        report = min(reports) if reports else None
    kind = RATIONAL if work is None else PADIC
    basis = [Matrix(tgt.dim, src.dim, list(v), kind, work) for v in vecs]
    for h in basis:
        _verify_element(h, src, tgt, work)
    return HomSpace(src, tgt, len(basis), basis, report)


# -- span membership -----------------------------------------------------------


def in_span_many(basis: list[Matrix], targets: list[Matrix]) -> list:
    """For each target, its coordinates in the span of the basis matrices,
    ``None`` when it lies outside, or the ``PrecisionExhausted`` that
    deciding it alone would raise; one elimination for all targets."""
    if not basis:
        return [
            [] if all(_entry_dead(e, t.kind, t.ctx) for e in t.entries) else None
            for t in targets
        ]
    size = len(basis[0].entries)
    stacked = Matrix(
        size,
        len(basis),
        [b.entries[i] for i in range(size) for b in basis],
        basis[0].kind,
        basis[0].ctx,
    )
    return linalg.solve_many(stacked, [t.entries for t in targets])


def in_span(basis: list[Matrix], target: Matrix) -> list | None:
    """Coordinates of target in the span of basis matrices, or None."""
    (x,) = in_span_many(basis, [target])
    if isinstance(x, PrecisionExhausted):
        raise x
    return x


def _match_kind(basis: list[Matrix], m: Matrix) -> Matrix:
    if basis and basis[0].kind == PADIC and m.kind == RATIONAL:
        return linalg.to_padic(m, basis[0].ctx)
    return m


def end_algebra(m: FilteredPhiModule) -> HomSpace:
    """End space of m, verified to contain the identity and to be closed
    under composition (each pairwise product re-expressed in the basis).

    The identity and all pairwise products are tested against one shared
    elimination; the first failing one, in the order identity, h0*h0,
    h0*h1, ..., decides the error."""
    e = hom_space(m, m)
    if m.dim == 0:
        return e
    targets = [_match_kind(e.basis, Matrix.identity(m.dim))]
    targets += [linalg.mat_mul(hi, hj) for hi in e.basis for hj in e.basis]
    for k, x in enumerate(in_span_many(e.basis, targets)):
        if isinstance(x, PrecisionExhausted):
            raise x
        if x is None:
            raise ClosureFailure(
                "identity is missing from the computed endomorphism span"
                if k == 0
                else "basis product escaped the computed span"
            )
    return e


def frobenius_membership(m: FilteredPhiModule, e: HomSpace) -> bool:
    """Whether phi itself lies in the computed endomorphism span."""
    if m.dim == 0:
        return True
    return in_span(e.basis, _match_kind(e.basis, m.phi)) is not None


# -- classification -------------------------------------------------------------


@dataclass(frozen=True)
class EndClassification:
    """Per-weight-block case tags plus the verified total dimension."""

    blocks: tuple
    total_dimension: int

    def tag_for_weight(self, w: int) -> str | None:
        for weight, tag in self.blocks:
            if weight == w:
                return tag
        return None

    def summary(self) -> str:
        return "+".join(tag for _, tag in self.blocks) if self.blocks else "zero"


def _entry_dead(e, kind: str, ctx) -> bool:
    return e == 0 if kind == RATIONAL else e.negligible(ctx.threshold)


def _block_of(h: Matrix, ro: int, rd: int, co: int, cd: int) -> Matrix:
    entries = [h.at(ro + i, co + j) for i in range(rd) for j in range(cd)]
    return Matrix(rd, cd, entries, h.kind, h.ctx)


def _is_scalar_matrix(b: Matrix) -> bool:
    d = b.rows
    for i in range(d):
        for j in range(d):
            e = b.at(i, j) - b.at(0, 0) if i == j else b.at(i, j)
            if not _entry_dead(e, b.kind, b.ctx):
                return False
    return True


def weight_block_structure(h: Matrix, m: FilteredPhiModule) -> dict:
    """Zero/nonzero report for each weight-to-weight block of an endomorphism."""
    out = {}
    for w1, o1, d1 in m.weight_offsets():
        for w2, o2, d2 in m.weight_offsets():
            blk = _block_of(h, o1, d1, o2, d2)
            out[(w1, w2)] = all(_entry_dead(e, h.kind, h.ctx) for e in blk.entries)
    return out


def classify_end(m: FilteredPhiModule, e: HomSpace) -> EndClassification:
    """Match the computed basis against the known case shapes.

    Weight 0 and -2 blocks must carry the full matrix algebra of their
    size; a 2x2 weight -1 block is sorted into scalars, the polynomial
    algebra of its Frobenius block, or the full upper-triangular algebra
    in a basis adapted to the Hodge line.  Anything else raises
    ``UnclassifiedShape``; nothing is coerced.
    """
    if not m.graded:
        raise UnclassifiedShape("classification needs a graded module")
    if m.dim == 0:
        return EndClassification((), 0)
    offsets = m.weight_offsets()
    for h in e.basis:
        structure = weight_block_structure(h, m)
        for (w1, w2), is_zero in structure.items():
            if w1 != w2 and not is_zero:
                raise UnclassifiedShape(
                    f"an endomorphism couples weight {w2} into weight {w1}"
                )
    tags = []
    total = 0
    for w, off, d in offsets:
        blocks = [_block_of(h, off, d, off, d) for h in e.basis]
        vectors = [list(b.entries) for b in blocks]
        kind = blocks[0].kind if blocks else RATIONAL
        ctx = blocks[0].ctx if blocks else None
        reduced = linalg._echelonize_vectors(vectors, kind, ctx)
        span = [Matrix(d, d, list(v), kind, ctx) for v in reduced]
        bd = len(span)
        total += bd
        tags.append((w, _classify_block(m, w, off, d, span)))
    if total != e.dimension:
        raise UnclassifiedShape(
            f"block dimensions sum to {total} but the endomorphism space has "
            f"dimension {e.dimension}; cross-weight relations are present"
        )
    return EndClassification(tuple(tags), e.dimension)


def _classify_block(m: FilteredPhiModule, w: int, off: int, d: int, span: list[Matrix]) -> str:
    bd = len(span)
    if w == 0:
        if bd == d * d:
            return LATTICE_SCALARS
        raise UnclassifiedShape(f"weight 0 block algebra has dimension {bd}, expected {d * d}")
    if w == -2:
        if bd == d * d:
            return TORUS_SCALARS
        raise UnclassifiedShape(f"weight -2 block algebra has dimension {bd}, expected {d * d}")
    # weight -1
    if d == 2:
        if bd == 1 and _is_scalar_matrix(span[0]):
            return SCALAR_ONLY
        if bd == 2:
            phi_blk = _match_kind(span, m.phi_block(off, d))
            if in_span(span, phi_blk) is not None:
                return POLYNOMIAL_ALGEBRA_OF_PHI
        if bd == 3:
            # a 3-dimensional unital subalgebra of M_2 preserving a line is
            # the full stabilizer of that line
            return UPPER_TRIANGULAR_FULL
    raise UnclassifiedShape(
        f"weight {w} block of size {d} with algebra dimension {bd} matches no known case"
    )


# -- serialization ---------------------------------------------------------------


def homspace_to_jsonable(h: HomSpace, classification: str | None = None) -> dict:
    return {
        "dimension": h.dimension,
        "basis": [linalg.matrix_to_jsonable(b) for b in h.basis],
        "classification": classification,
        "precision_report": h.precision_report,
    }
