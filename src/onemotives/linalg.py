"""Dense exact matrices over Q or over fixed-precision Q_p.

One scalar kind per matrix: ``Fraction`` entries for the rational kind,
``PadicScalar`` entries for the p-adic kind.  Rational elimination is
exact; p-adic elimination pivots on the entry of minimal valuation in
each column (ties broken by lowest row index) and consults the context
zero threshold before declaring an entry dead.  A column whose entries
are all unresolved zeros below the threshold is an ambiguous pivot
decision and raises ``PrecisionExhausted``.

Dimensions in this package stay small (at most a few hundred unknowns in
the vectorized solvers), so everything is dense and written for clarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    ColumnMismatch,
    ContextMismatch,
    NonSquare,
    PrecisionExhausted,
)
from .padic import (
    PadicContext,
    PadicScalar,
    from_rational,
    rational_from_str,
    rational_to_str,
    scalar_from_jsonable,
    scalar_to_jsonable,
)

RATIONAL = "rational"
PADIC = "padic"


@dataclass
class Matrix:
    """Dense row-major matrix with a homogeneous scalar kind.

    Treated as immutable after construction; operations return new
    matrices and never mutate their operands.
    """

    rows: int
    cols: int
    entries: list = field(default_factory=list)
    kind: str = RATIONAL
    ctx: PadicContext | None = None

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )
        if self.kind == RATIONAL:
            if not all(type(e) is Fraction for e in self.entries):
                self.entries = [e if type(e) is Fraction else Fraction(e) for e in self.entries]
        elif self.kind == PADIC:
            if self.ctx is None:
                raise ValueError("p-adic matrices need a context")
        else:
            raise ValueError(f"unknown scalar kind {self.kind!r}")

    # -- access ---------------------------------------------------------

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> list:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: list, kind: str = RATIONAL, ctx: PadicContext | None = None) -> Matrix:
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [e for row in rows for e in row], kind, ctx)

    @classmethod
    def from_columns(cls, columns: list, nrows: int, kind: str = RATIONAL, ctx: PadicContext | None = None) -> Matrix:
        entries = [columns[j][i] for i in range(nrows) for j in range(len(columns))]
        return cls(nrows, len(columns), entries, kind, ctx)

    @classmethod
    def zeros(cls, r: int, c: int, kind: str = RATIONAL, ctx: PadicContext | None = None) -> Matrix:
        z = Fraction(0) if kind == RATIONAL else PadicScalar.exact_zero(ctx.p)
        return cls(r, c, [z] * (r * c), kind, ctx)

    @classmethod
    def identity(cls, n: int, kind: str = RATIONAL, ctx: PadicContext | None = None) -> Matrix:
        m = cls.zeros(n, n, kind, ctx)
        one = Fraction(1) if kind == RATIONAL else PadicScalar.one(ctx.p, ctx.precision)
        for i in range(n):
            m.entries[i * n + i] = one
        return m


def _require_same_kind(a: Matrix, b: Matrix) -> None:
    if a.kind != b.kind:
        raise ContextMismatch(f"mixed scalar kinds {a.kind} and {b.kind}")
    if a.kind == PADIC and a.ctx.p != b.ctx.p:
        raise ContextMismatch(f"mixed primes {a.ctx.p} and {b.ctx.p}")


def _zero_like(m: Matrix):
    return Fraction(0) if m.kind == RATIONAL else PadicScalar.exact_zero(m.ctx.p)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    _require_same_kind(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in addition")
    return Matrix(a.rows, a.cols, [x + y for x, y in zip(a.entries, b.entries)], a.kind, a.ctx)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    _require_same_kind(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in subtraction")
    return Matrix(a.rows, a.cols, [x - y for x, y in zip(a.entries, b.entries)], a.kind, a.ctx)


def mat_scale(c, a: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, [c * x for x in a.entries], a.kind, a.ctx)


def _nonzero_test(kind: str):
    """Predicate false exactly on the entries whose products vanish exactly:
    Fraction 0, or the p-adic exact zero.  Unresolved p-adic zeros carry
    precision and count as nonzero."""
    return bool if kind == RATIONAL else (lambda x: x.v is not None)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Row i of the product is the sum over k of a[i,k] * (row k of b).

    Terms with an exact-zero factor are skipped; adding them would leave the
    sum unchanged, so every entry, p-adic precision included, is what the
    dense triple loop gives when it sums over k in increasing order.
    """
    _require_same_kind(a, b)
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    nonzero = _nonzero_test(a.kind)
    b_rows = [[(j, x) for j, x in enumerate(b.row(k)) if nonzero(x)] for k in range(b.rows)]
    out = []
    for i in range(a.rows):
        acc = [_zero_like(a)] * b.cols
        for aik, b_row in zip(a.row(i), b_rows):
            if nonzero(aik):
                for j, bkj in b_row:
                    acc[j] = acc[j] + aik * bkj
        out.extend(acc)
    return Matrix(a.rows, b.cols, out, a.kind, a.ctx)


def transpose(a: Matrix) -> Matrix:
    out = [a.entries[i * a.cols + j] for j in range(a.cols) for i in range(a.rows)]
    return Matrix(a.cols, a.rows, out, a.kind, a.ctx)


def kron(a: Matrix, b: Matrix) -> Matrix:
    _require_same_kind(a, b)
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            for j in range(a.cols):
                aij = a.at(i, j)
                for l in range(b.cols):
                    out.append(aij * b.at(k, l))
    return Matrix(a.rows * b.rows, a.cols * b.cols, out, a.kind, a.ctx)


def hstack(blocks: list[Matrix]) -> Matrix:
    rows = blocks[0].rows
    for b in blocks[1:]:
        _require_same_kind(blocks[0], b)
        if b.rows != rows:
            raise ValueError("row mismatch in hstack")
    out = []
    for i in range(rows):
        for b in blocks:
            out.extend(b.row(i))
    return Matrix(rows, sum(b.cols for b in blocks), out, blocks[0].kind, blocks[0].ctx)


def vstack(blocks: list[Matrix]) -> Matrix:
    cols = blocks[0].cols
    for b in blocks[1:]:
        _require_same_kind(blocks[0], b)
        if b.cols != cols:
            raise ColumnMismatch(f"block widths {cols} and {b.cols} differ")
    out = []
    for b in blocks:
        out.extend(b.entries)
    return Matrix(sum(b.rows for b in blocks), cols, out, blocks[0].kind, blocks[0].ctx)


def block_diag(blocks: list[Matrix]) -> Matrix:
    n = sum(b.rows for b in blocks)
    c = sum(b.cols for b in blocks)
    out = Matrix.zeros(n, c, blocks[0].kind, blocks[0].ctx)
    ro, co = 0, 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out.entries[(ro + i) * c + (co + j)] = b.at(i, j)
        ro += b.rows
        co += b.cols
    return out


def to_padic(a: Matrix, ctx: PadicContext) -> Matrix:
    """Promote to the p-adic kind at ``ctx.precision`` digits.

    Rational entries convert exactly; p-adic entries are truncated so the
    whole matrix behaves as if computed at the target working precision.
    """
    if a.kind == PADIC:
        if a.ctx.p != ctx.p:
            raise ContextMismatch(f"mixed primes {a.ctx.p} and {ctx.p}")
        entries = [e.truncate(ctx.precision) for e in a.entries]
    else:
        entries = [from_rational(e, ctx) for e in a.entries]
    return Matrix(a.rows, a.cols, entries, PADIC, ctx)


def permute(a: Matrix, perm: list[int]) -> Matrix:
    """Conjugate a square matrix by a permutation: out[i][j] = a[perm[i]][perm[j]]."""
    n = a.rows
    out = [a.at(perm[i], perm[j]) for i in range(n) for j in range(n)]
    return Matrix(n, n, out, a.kind, a.ctx)


def permute_rows(a: Matrix, perm: list[int]) -> Matrix:
    out = []
    for i in range(a.rows):
        out.extend(a.row(perm[i]))
    return Matrix(a.rows, a.cols, out, a.kind, a.ctx)


# -- elimination -------------------------------------------------------------


class _Report:
    """Collects the confidence of a p-adic elimination run."""

    __slots__ = ("digits",)

    def __init__(self) -> None:
        self.digits: int | None = None

    def note(self, d: int) -> None:
        if self.digits is None or d < self.digits:
            self.digits = d


def _rref(data: list[list], ncols: int, kind: str, ctx: PadicContext | None, report: _Report | None):
    """In-place reduced row echelon over the first ``ncols`` columns.

    Returns the list of (column, row) pivots.  Row operations extend over
    the full row width, so callers may carry augmented columns.  Rows are
    updated in place and must not be shared with anything else; rational
    rows must hold ``Fraction`` entries only.
    """
    nrows = len(data)
    threshold = ctx.threshold if kind == PADIC else None
    nonzero = _nonzero_test(kind)
    pivots: list[tuple[int, int]] = []
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        best = None
        best_key = None
        saw_ambiguous = False
        for i in range(rank, nrows):
            x = data[i][c]
            if kind == RATIONAL:
                if x != 0:
                    best = i
                    break
                continue
            if x.is_exact_zero:
                continue
            if x.ambiguous(threshold):
                saw_ambiguous = True
                continue
            if x.negligible(threshold):
                # unresolved zero past the threshold: trusted dead, recorded
                if report is not None:
                    report.note(x.v)
                continue
            key = (x.v, i)
            if best_key is None or key < best_key:
                best_key = key
                best = i
        if best is None:
            if saw_ambiguous:
                raise PrecisionExhausted(
                    f"pivot decision in column {c} is ambiguous at the working precision"
                )
            continue
        data[rank], data[best] = data[best], data[rank]
        piv = data[rank][c]
        if kind == PADIC and report is not None:
            report.note(piv.prec)
        # exact zeros of the pivot row neither change under the division
        # nor change the rows it is subtracted from, so they are skipped
        prow = data[rank] = [e / piv if nonzero(e) else e for e in data[rank]]
        support = [j for j, e in enumerate(prow) if nonzero(e)]
        for i in range(nrows):
            if i == rank:
                continue
            factor = data[i][c]
            dead = factor == 0 if kind == RATIONAL else factor.negligible(threshold)
            if dead:
                continue
            row = data[i]
            for j in support:
                row[j] = row[j] - factor * prow[j]
        pivots.append((c, rank))
        rank += 1
    return pivots


@dataclass
class KernelResult:
    """Right null space basis in column-reduced echelon form.

    ``basis`` holds plain vectors (lists of scalars) for ``kernel`` and
    reshaped matrices for ``sylvester_kernel``.  ``precision_report`` is
    the minimum number of guaranteed digits across the pivot decisions
    (p-adic kind only).
    """

    dimension: int
    basis: list
    precision_report: int | None = None


def _echelonize_vectors(vectors: list[list], kind: str, ctx: PadicContext | None) -> list[list]:
    """Canonical spanning set: reduced echelon rows, leading coordinate 1.

    Dependent inputs are fine; only the pivot rows survive.
    """
    if not vectors:
        return []
    data = [list(v) for v in vectors]
    pivots = _rref(data, len(data[0]), kind, ctx, None)
    # RREF leaves the pivot rows first, ordered by leading coordinate
    return data[: len(pivots)]


def kernel(m: Matrix) -> KernelResult:
    """Basis of the right null space.

    Rational kind: exact.  P-adic kind: pivots on the minimal-valuation
    entry per column; entries vanishing past the context threshold are
    treated as zero and lower the precision report.
    """
    data = [m.row(i) for i in range(m.rows)]
    report = _Report() if m.kind == PADIC else None
    pivots = _rref(data, m.cols, m.kind, m.ctx, report)
    pivot_cols = {c: r for c, r in pivots}
    one = Fraction(1) if m.kind == RATIONAL else PadicScalar.one(m.ctx.p, m.ctx.precision)
    zero = _zero_like(m)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_cols:
            continue
        vec = [zero] * m.cols
        vec[fc] = one
        for c, r in pivots:
            vec[c] = -data[r][fc]
        basis.append(vec)
    basis = _echelonize_vectors(basis, m.kind, m.ctx)
    return KernelResult(len(basis), basis, report.digits if report else None)


def rank(m: Matrix) -> int:
    data = [m.row(i) for i in range(m.rows)]
    return len(_rref(data, m.cols, m.kind, m.ctx, None))


def solve_many(m: Matrix, rhss: list[list]) -> list:
    """Solve m x = b for every right-hand side b in ``rhss`` with one elimination.

    Every b rides along as an augmented column.  Pivots are chosen from the
    first ``m.cols`` columns only, so each column undergoes exactly the row
    operations that ``solve(m, b)`` would apply to it alone.  Entry k of the
    result is then what ``solve(m, rhss[k])`` gives: one solution, ``None``
    when that system is inconsistent, or the ``PrecisionExhausted`` it would
    raise when its consistency check is ambiguous (returned, not raised, so
    callers can decide in column order).  An ambiguous pivot decision
    concerns every column and is raised.
    """
    if any(len(rhs) != m.rows for rhs in rhss):
        raise ValueError("right-hand side length mismatch")
    rhs_block = Matrix.from_columns(rhss, m.rows, m.kind, m.ctx)
    data = [m.row(i) + rhs_block.row(i) for i in range(m.rows)]
    pivots = _rref(data, m.cols, m.kind, m.ctx, None)
    threshold = m.ctx.threshold if m.kind == PADIC else None
    zero = _zero_like(m)
    out = []
    for k in range(m.cols, m.cols + len(rhss)):
        result = [zero] * m.cols
        for c, r in pivots:
            result[c] = data[r][k]
        for i in range(len(pivots), m.rows):
            resid = data[i][k]
            if m.kind == RATIONAL:
                if resid != 0:
                    result = None
                    break
            elif resid.ambiguous(threshold):
                result = PrecisionExhausted("consistency check is ambiguous at the working precision")
                break
            elif not resid.negligible(threshold):
                result = None
                break
        out.append(result)
    return out


def solve(m: Matrix, rhs: list) -> list | None:
    """One solution of m x = rhs, or None when the system is inconsistent."""
    (x,) = solve_many(m, [rhs])
    if isinstance(x, PrecisionExhausted):
        raise x
    return x


def inverse(m: Matrix) -> Matrix:
    if not m.is_square:
        raise NonSquare(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    ident = Matrix.identity(n, m.kind, m.ctx)
    data = [m.row(i) + ident.row(i) for i in range(n)]
    pivots = _rref(data, n, m.kind, m.ctx, None)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    # full rank means pivot columns are 0..n-1 in order, rows aligned
    return Matrix(n, n, [e for row in data for e in row[n:]], m.kind, m.ctx)


def constraint_stack(blocks: list[Matrix]) -> Matrix:
    """Vertical concatenation of constraint blocks on the same unknowns."""
    if not blocks:
        raise ValueError("no blocks to stack")
    return vstack(blocks)


# -- derived operations --------------------------------------------------------


def char_poly(m: Matrix) -> list[Fraction]:
    """Monic characteristic polynomial, ascending coefficients, exact.

    Faddeev-LeVerrier recursion; divisions are by integers only, so the
    result of an integer matrix is integral.
    """
    if m.kind != RATIONAL:
        raise ValueError("characteristic polynomial requires the rational kind")
    if not m.is_square:
        raise NonSquare(f"characteristic polynomial of a {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 0:
        return [Fraction(1)]
    coeffs = []
    ak = Matrix(n, n, list(m.entries), RATIONAL)
    ident = Matrix.identity(n)
    for k in range(1, n + 1):
        tr = sum((ak.at(i, i) for i in range(n)), Fraction(0))
        ck = -tr / k
        coeffs.append(ck)
        if k < n:
            ak = mat_mul(m, mat_add(ak, mat_scale(ck, ident)))
    return list(reversed(coeffs)) + [Fraction(1)]


def det(m: Matrix) -> Fraction:
    cp = char_poly(m)
    n = m.rows
    return cp[0] if n % 2 == 0 else -cp[0]


def trace(m: Matrix):
    if not m.is_square:
        raise NonSquare("trace of a non-square matrix")
    acc = _zero_like(m)
    for i in range(m.rows):
        acc = acc + m.at(i, i)
    return acc


def companion(poly: list) -> Matrix:
    """Companion matrix of a monic polynomial (ascending coefficients)."""
    coeffs = [Fraction(c) for c in poly]
    n = len(coeffs) - 1
    if n < 1 or coeffs[n] != 1:
        raise ValueError("monic polynomial of degree >= 1 required")
    m = Matrix.zeros(n, n)
    for i in range(1, n):
        m.entries[i * n + (i - 1)] = Fraction(1)
    for i in range(n):
        m.entries[i * n + (n - 1)] = -coeffs[i]
    return m


def eigen_line(m: Matrix, lam: PadicScalar) -> KernelResult:
    """kernel(m - lam*I) for a p-adic matrix."""
    if m.kind != PADIC:
        raise ValueError("eigen_line expects the p-adic kind; promote first")
    if not m.is_square:
        raise NonSquare("eigen_line of a non-square matrix")
    shifted = Matrix(m.rows, m.cols, list(m.entries), PADIC, m.ctx)
    for i in range(m.rows):
        shifted.entries[i * m.cols + i] = shifted.entries[i * m.cols + i] - lam
    return kernel(shifted)


def sylvester_kernel(a: Matrix, b: Matrix) -> KernelResult:
    """Basis of {H : A H = H B}, H of shape (a.rows x b.rows).

    Vectorized column-major as the kernel of ``I (x) A - B^T (x) I``; the
    basis is returned reshaped into matrices.
    """
    _require_same_kind(a, b)
    if not (a.is_square and b.is_square):
        raise NonSquare("sylvester_kernel expects square matrices")
    n, m = a.rows, b.rows
    im = Matrix.identity(m, a.kind, a.ctx)
    i_n = Matrix.identity(n, a.kind, a.ctx)
    system = mat_sub(kron(im, a), kron(transpose(b), i_n))
    ker = kernel(system)
    mats = []
    for vec in ker.basis:
        entries = [vec[j * n + i] for i in range(n) for j in range(m)]
        mats.append(Matrix(n, m, entries, a.kind, a.ctx))
    return KernelResult(ker.dimension, mats, ker.precision_report)


def annihilator_rows(f: Matrix) -> Matrix:
    """Full-rank matrix whose rows span the annihilator of span(columns of f)."""
    ker = kernel(transpose(f))
    entries = [e for vec in ker.basis for e in vec]
    return Matrix(len(ker.basis), f.rows, entries, f.kind, f.ctx)


def resultant(f: list, g: list) -> Fraction:
    """Resultant of two polynomials; nonzero iff they share no root."""
    fc = [Fraction(c) for c in f]
    gc = [Fraction(c) for c in g]
    m = len(fc) - 1
    n = len(gc) - 1
    while m >= 0 and fc[m] == 0:
        m -= 1
    while n >= 0 and gc[n] == 0:
        n -= 1
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial")
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for k in range(m + 1):
            row[i + k] = fc[m - k]
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for k in range(n + 1):
            row[i + k] = gc[n - k]
        rows.append(row)
    return det(Matrix.from_rows(rows))


# -- serialization -------------------------------------------------------------


def matrix_to_jsonable(m: Matrix) -> dict:
    """Row-major entry list; rationals as "num/den", p-adics as objects."""
    if m.kind == RATIONAL:
        entries = [rational_to_str(e) for e in m.entries]
    else:
        entries = [scalar_to_jsonable(e) for e in m.entries]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def matrix_from_jsonable(obj: dict, ctx: PadicContext | None = None) -> Matrix:
    raw = obj["entries"]
    if raw and isinstance(raw[0], dict):
        entries = [scalar_from_jsonable(e, ctx) for e in raw]
        return Matrix(obj["rows"], obj["cols"], entries, PADIC, ctx)
    entries = [rational_from_str(e) for e in raw]
    return Matrix(obj["rows"], obj["cols"], entries, RATIONAL)
