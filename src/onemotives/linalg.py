"""Dense exact matrices over Q or over fixed-precision Q_p.

One scalar field per matrix, its context: none for Q (``Fraction``
entries), a ``PadicContext`` for Q_p (``PadicScalar`` entries); ``kind``
is read from it.  Elimination over Q is exact; p-adic elimination pivots
on the entry of minimal valuation in each column (ties broken by lowest
row index) and consults the context zero threshold before declaring an
entry dead.  A column whose entries are all unresolved zeros below the
threshold is an ambiguous pivot decision and raises ``PrecisionExhausted``.

Dimensions in this package stay small (at most a few hundred unknowns in
the vectorized solvers), so everything is dense and written for clarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ContextMismatch, NonSquare, PrecisionExhausted
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
    """Dense row-major matrix over Q, or over Q_p at ``ctx`` when given.

    Treated as immutable after construction; operations return new
    matrices and never mutate their operands.
    """

    rows: int
    cols: int
    entries: list = field(default_factory=list)
    ctx: PadicContext | None = None
    kind: str = field(init=False)

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )
        if self.ctx is None:
            self.kind = RATIONAL
            if not all(type(e) is Fraction for e in self.entries):
                self.entries = [e if type(e) is Fraction else Fraction(e) for e in self.entries]
        elif isinstance(self.ctx, PadicContext):
            self.kind = PADIC
        else:
            raise TypeError(f"a matrix context is None or a PadicContext, got {self.ctx!r}")

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
    def from_rows(cls, rows: list, ctx: PadicContext | None = None) -> Matrix:
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [e for row in rows for e in row], ctx)

    @classmethod
    def zeros(cls, r: int, c: int, ctx: PadicContext | None = None) -> Matrix:
        return cls(r, c, [_zero(ctx)] * (r * c), ctx)

    @classmethod
    def identity(cls, n: int, ctx: PadicContext | None = None) -> Matrix:
        m, one = cls.zeros(n, n, ctx), _one(ctx)
        for i in range(n):
            m.entries[i * n + i] = one
        return m


def _require_same_kind(a: Matrix, b: Matrix) -> None:
    if a.kind != b.kind:
        raise ContextMismatch(f"mixed scalar kinds {a.kind} and {b.kind}")
    if a.kind == PADIC and a.ctx.p != b.ctx.p:
        raise ContextMismatch(f"mixed primes {a.ctx.p} and {b.ctx.p}")


# Fraction is immutable, so every rational zero and one is one of these
_FRACTION_ZERO, _FRACTION_ONE = Fraction(0), Fraction(1)


# a bad context gets a Fraction here, and the TypeError of the Matrix built on it
def _zero(ctx: PadicContext | None):
    return PadicScalar.exact_zero(ctx.p) if isinstance(ctx, PadicContext) else _FRACTION_ZERO


def _one(ctx: PadicContext | None):
    return PadicScalar.one(ctx.p, ctx.precision) if isinstance(ctx, PadicContext) else _FRACTION_ONE


def nonzero_test(ctx: PadicContext | None):
    """Predicate false exactly on the entries whose products vanish exactly:
    Fraction 0, or the p-adic exact zero.  Unresolved p-adic zeros carry
    precision and count as nonzero."""
    return bool if ctx is None else (lambda x: x.v is not None)


def certainly_nonzero(ctx: PadicContext | None):
    """Predicate true exactly on the entries known to be nonzero: a nonzero
    Fraction, or a resolved p-adic scalar, whose valuation is exact.  Such
    an entry is always a valid pivot."""
    return bool if ctx is None else (lambda x: x.is_resolved)


def mat_scale(c, a: Matrix) -> Matrix:
    return Matrix(a.rows, a.cols, [c * x for x in a.entries], a.ctx)


def shift_diagonal(m: Matrix, c) -> Matrix:
    """m + c*I as a new matrix, with ``c`` of m's scalar kind."""
    out = Matrix(m.rows, m.cols, list(m.entries), m.ctx)
    for i in range(m.rows):
        out.entries[i * m.cols + i] = out.entries[i * m.cols + i] + c
    return out


def _fraction_add_product(x: Fraction, f: Fraction, y: Fraction, sign: int = 1) -> Fraction:
    """x + sign * (f * y), for sign = 1 or -1, built as one Fraction from
    numerators and denominators.  Fraction is canonical, so this is the
    value, and the JSON string, of ``x + f * y`` or ``x - f * y``."""
    xd, fd, yd = x.denominator, f.denominator, y.denominator
    n = f.numerator * y.numerator * xd
    return Fraction(x.numerator * fd * yd + (n if sign == 1 else -n), xd * fd * yd)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Row i of the product is the sum over k of a[i,k] * (row k of b).

    Each term is one fused multiply-add into the entry.  Terms with an
    exact-zero factor are skipped, and a[i,k] is only read when row k of b
    has a nonzero; adding such terms would leave the sum unchanged, so
    every entry, p-adic precision included, is what the dense triple loop
    ``out[i,j] = out[i,j] + a[i,k] * b[k,j]`` gives when it sums over k in
    increasing order from the kind's zero.
    """
    _require_same_kind(a, b)
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    nonzero = nonzero_test(a.ctx)
    add_product = _fraction_add_product if a.kind == RATIONAL else PadicScalar.add_product
    b_rows = [(k, [(j, x) for j, x in enumerate(b.row(k)) if nonzero(x)]) for k in range(b.rows)]
    b_rows = [(k, row) for k, row in b_rows if row]
    out = [_zero(a.ctx)] * (a.rows * b.cols)
    for i in range(a.rows):
        a_off, o_off = i * a.cols, i * b.cols
        for k, b_row in b_rows:
            aik = a.entries[a_off + k]
            if nonzero(aik):
                for j, bkj in b_row:
                    out[o_off + j] = add_product(out[o_off + j], aik, bkj)
    return Matrix(a.rows, b.cols, out, a.ctx)


def transpose(a: Matrix) -> Matrix:
    out = [a.entries[i * a.cols + j] for j in range(a.cols) for i in range(a.rows)]
    return Matrix(a.cols, a.rows, out, a.ctx)


def sylvester(a: Matrix, b: Matrix) -> Matrix:
    """Matrix of X -> A X - X B on row-major vec(X), X of shape a.rows x b.rows.

    Row (i, j) holds A[i,k] at unknown (k, j), -B[k,j] at unknown (i, k),
    and A[i,i] - B[j,j] at unknown (i, j); every other coefficient is the
    exact zero.  Entry for entry this is the Kronecker product form
    A (x) I - I (x) B^T whenever no p-adic entry carries more than
    ``ctx.precision`` digits.
    """
    _require_same_kind(a, b)
    if not (a.is_square and b.is_square):
        raise NonSquare("sylvester expects square matrices")
    n, m = a.rows, b.rows
    size = n * m
    out = [_zero(a.ctx)] * (size * size)
    for i in range(n):
        for j in range(m):
            row = (i * m + j) * size
            for k in range(n):
                out[row + k * m + j] = a.at(i, k)
            for k in range(m):
                out[row + i * m + k] = -b.at(k, j)
            out[row + i * m + j] = a.at(i, i) - b.at(j, j)
    return Matrix(size, size, out, a.ctx)


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
    return Matrix(rows, sum(b.cols for b in blocks), out, blocks[0].ctx)


def to_padic(a: Matrix, ctx: PadicContext) -> Matrix:
    """Promote to the p-adic kind at ``ctx.precision`` digits.

    Fraction entries convert exactly; p-adic entries are truncated so the
    whole matrix behaves as if computed at the target working precision.
    """
    if a.kind == PADIC:
        if a.ctx.p != ctx.p:
            raise ContextMismatch(f"mixed primes {a.ctx.p} and {ctx.p}")
        entries = [e.truncate(ctx.precision) for e in a.entries]
    else:
        entries = [from_rational(e, ctx) for e in a.entries]
    return Matrix(a.rows, a.cols, entries, ctx)


def submatrix(a: Matrix, rows, cols) -> Matrix:
    """a[i][j] for i in ``rows`` and j in ``cols`` (ranges or lists), in the
    given order: ranges cut a block, a permutation reorders a basis."""
    out = [a.entries[i * a.cols + j] for i in rows for j in cols]
    return Matrix(len(rows), len(cols), out, a.ctx)


def is_zero(a: Matrix) -> bool:
    """Every entry is zero: exactly for the rational kind, past the context
    zero threshold for the p-adic kind."""
    if a.kind == RATIONAL:
        return not any(a.entries)
    return all(e.negligible(a.ctx.threshold) for e in a.entries)


# -- elimination -------------------------------------------------------------


def _rref(data: list[list], ncols: int, ctx: PadicContext | None, digits: list | None = None):
    """In-place reduced row echelon over the first ``ncols`` columns.

    Returns the list of (column, row) pivots.  Row operations extend over
    the full row width, so callers may carry augmented columns; each cell
    update ``row[j] - factor * prow[j]`` is one fused multiply-add.  Rows are
    updated in place and must not be shared with anything else; rational
    rows must hold ``Fraction`` entries only.  A p-adic run appends to
    ``digits``, when given, the digits behind each pivot decision.
    """
    nrows = len(data)
    threshold = None if ctx is None else ctx.threshold
    nonzero = nonzero_test(ctx)
    add_product = _fraction_add_product if ctx is None else PadicScalar.add_product
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
            if ctx is None:
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
                if digits is not None:
                    digits.append(x.v)
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
        if ctx is not None and digits is not None:
            digits.append(piv.prec)
        # normalise the pivot row: p-adic entries are multiplied by one
        # reciprocal (x * (1/piv) equals x / piv digit for digit); rational
        # entries are divided, and not at all when the pivot is 1.  Exact
        # zeros neither change under this nor change the rows the pivot row
        # is subtracted from, so they are skipped.
        prow = data[rank]
        if ctx is not None:
            inv = piv.reciprocal()
            prow = data[rank] = [e * inv if nonzero(e) else e for e in prow]
        elif piv != 1:
            prow = data[rank] = [e / piv if e else e for e in prow]
        support = [j for j, e in enumerate(prow) if nonzero(e)]
        for i in range(nrows):
            if i == rank:
                continue
            factor = data[i][c]
            dead = factor == 0 if ctx is None else factor.negligible(threshold)
            if dead:
                continue
            row = data[i]
            for j in support:
                row[j] = add_product(row[j], factor, prow[j], -1)
        pivots.append((c, rank))
        rank += 1
    return pivots


@dataclass
class KernelResult:
    """Right null space basis in reduced echelon form.

    ``basis`` holds plain vectors (lists of scalars), echelonized by
    ``echelon_rows``.  ``precision_report`` is the minimum number of
    guaranteed digits across the pivot decisions (p-adic kind only).
    """

    basis: list
    precision_report: int | None = None

    @property
    def dimension(self) -> int:
        return len(self.basis)


def echelon_rows(vectors: list[list], ctx: PadicContext | None) -> list[list]:
    """Canonical spanning set: reduced echelon rows, leading coordinate 1.

    Dependent inputs are fine; only the pivot rows survive.
    """
    if not vectors:
        return []
    data = [list(v) for v in vectors]
    pivots = _rref(data, len(data[0]), ctx)
    # RREF leaves the pivot rows first, ordered by leading coordinate
    return data[: len(pivots)]


def kernel(m: Matrix) -> KernelResult:
    """Basis of the right null space.

    Exact for the rational kind, and of a rational 1x1 matrix read by form:
    [[1]] when its entry is 0, else nothing, as elimination gives.  P-adic
    kind: pivots on the minimal-valuation entry per column; entries
    vanishing past the context threshold are treated as zero and lower the
    precision report.
    """
    if m.ctx is None and m.rows == m.cols == 1:
        return KernelResult([[_FRACTION_ONE]] if m.entries[0] == 0 else [])
    data = [m.row(i) for i in range(m.rows)]
    digits: list = []
    pivots = _rref(data, m.cols, m.ctx, digits)
    pivot_cols = {c: r for c, r in pivots}
    one, zero = _one(m.ctx), _zero(m.ctx)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_cols:
            continue
        vec = [zero] * m.cols
        vec[fc] = one
        for c, r in pivots:
            vec[c] = -data[r][fc]
        basis.append(vec)
    basis = echelon_rows(basis, m.ctx)
    return KernelResult(basis, min(digits) if digits else None)


def rank(m: Matrix) -> int:
    data = [m.row(i) for i in range(m.rows)]
    return len(_rref(data, m.cols, m.ctx))


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
    if m.kind == RATIONAL:
        # coerced like matrix entries: rational rows hold Fractions only
        rhss = [[e if type(e) is Fraction else Fraction(e) for e in rhs] for rhs in rhss]
    data = [m.row(i) + [rhs[i] for rhs in rhss] for i in range(m.rows)]
    pivots = _rref(data, m.cols, m.ctx)
    threshold = m.ctx.threshold if m.kind == PADIC else None
    zero = _zero(m.ctx)
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
    if m.ctx is None and 0 < n <= 2:
        # the adjugate over the determinant: Fraction is canonical, so this
        # is the matrix elimination gives
        e = m.entries
        det = e[0] if n == 1 else e[0] * e[3] - e[1] * e[2]
        if det == 0:
            raise ValueError("matrix is singular")
        adj = [Fraction(1)] if n == 1 else [e[3], -e[1], -e[2], e[0]]
        return Matrix(n, n, [x / det for x in adj])
    ident = Matrix.identity(n, m.ctx)
    data = [m.row(i) + ident.row(i) for i in range(n)]
    pivots = _rref(data, n, m.ctx)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    # full rank means pivot columns are 0..n-1 in order, rows aligned
    return Matrix(n, n, [e for row in data for e in row[n:]], m.ctx)


# -- derived operations --------------------------------------------------------


def char_poly(m: Matrix) -> list[Fraction]:
    """Monic characteristic polynomial, ascending coefficients, exact.

    Closed forms for a 1x1 block, [-a, 1], a 2x2 block, [ad - bc,
    -(a + d), 1], and a scalar block c I, (T - c)^n; the Faddeev-LeVerrier
    recursion for every other block.  Its divisions are by integers only,
    so the result of an integer matrix is integral.
    """
    if m.kind != RATIONAL:
        raise ValueError("characteristic polynomial requires the rational kind")
    if not m.is_square:
        raise NonSquare(f"characteristic polynomial of a {m.rows}x{m.cols} matrix")
    n, e = m.rows, m.entries
    if n == 0:
        return [_FRACTION_ONE]
    if n == 1:
        return [-e[0], _FRACTION_ONE]
    if n == 2:
        a, b, c, d = e
        return [a * d - b * c, -(a + d), _FRACTION_ONE]
    c = e[0]
    if all(x == (c if k % (n + 1) == 0 else 0) for k, x in enumerate(e)):
        return [math.comb(n, k) * (-c) ** (n - k) for k in range(n + 1)]
    coeffs = []
    ak = m
    for k in range(1, n + 1):
        ck = -trace(ak) / k
        coeffs.append(ck)
        if k < n:
            ak = mat_mul(m, shift_diagonal(ak, ck))
    return list(reversed(coeffs)) + [_FRACTION_ONE]


def trace(m: Matrix):
    if not m.is_square:
        raise NonSquare("trace of a non-square matrix")
    acc = _zero(m.ctx)
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


def annihilator_rows(f: Matrix) -> Matrix:
    """Full-rank matrix whose rows span the annihilator of span(columns of f).

    Read by form where the elimination's result is known: of no columns
    the identity; of one row with a certainly nonzero entry no rows; of a
    column (a, b) with a certainly nonzero the row (0, 1) when b is exactly
    zero, and (y/y, 1/y) with y = -b/a when b is certainly nonzero, each
    scalar computed as the elimination computes it, so p-adic digits and
    precisions agree too.  Any other f is eliminated.
    """
    certain = certainly_nonzero(f.ctx)
    if f.cols == 0:
        return Matrix.identity(f.rows, f.ctx)
    if f.rows == 1 and any(map(certain, f.entries)):
        return Matrix(0, 1, [], f.ctx)
    if (f.rows, f.cols) == (2, 1) and certain(f.entries[0]):
        a, b = f.entries
        if not nonzero_test(f.ctx)(b):
            return Matrix(1, 2, [_zero(f.ctx), _one(f.ctx)], f.ctx)
        if certain(b):
            y = -(b / a)
            return Matrix(1, 2, [y / y, _one(f.ctx) / y], f.ctx)
    ker = kernel(transpose(f))
    entries = [e for vec in ker.basis for e in vec]
    return Matrix(len(ker.basis), f.rows, entries, f.ctx)


def _primitive(h: list) -> list:
    content = math.gcd(*h)
    return [c // content for c in h] if content > 1 else h


def primitive_form(h: list) -> list[int]:
    """The primitive integer multiple of a polynomial with ascending int or
    ``Fraction`` coefficients, trailing zeros dropped: [] for zero."""
    h = list(h)
    while h and h[-1] == 0:
        h.pop()
    den = math.lcm(*(c.denominator for c in h))
    return _primitive([c.numerator * (den // c.denominator) for c in h])


def share_root(f: list, g: list) -> bool:
    """Whether two nonzero polynomials (ascending int or ``Fraction``
    coefficients) have a common complex root, exactly: ``forms_share_root``
    of their primitive forms."""
    return forms_share_root(primitive_form(f), primitive_form(g))


def forms_share_root(a: list, b: list) -> bool:
    """Whether the polynomials of two nonzero ``primitive_form``s have a
    common complex root: when one is linear, a0 + a1 T, whether the other's
    a1^n b(-a0/a1) is 0, else by Euclid's algorithm over Z.  Neither list is
    changed."""
    if not a or not b:
        raise ValueError("share_root of the zero polynomial")
    if len(b) == 2:
        a, b = b, a
    if len(a) == 2:
        (a0, a1), n = a, len(b) - 1
        return sum(c * (-a0) ** k * a1 ** (n - k) for k, c in enumerate(b)) == 0
    while b:
        while len(a) >= len(b):  # pseudo-remainder: cancel a's leading term
            m = math.gcd(a[-1], b[-1])
            ka, kb, s = b[-1] // m, a[-1] // m, len(a) - len(b)
            a = [ka * c - kb * b[i - s] if i >= s else ka * c for i, c in enumerate(a)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, _primitive(a)
    return len(a) > 1  # a is gcd(f, g) up to a constant


# -- serialization -------------------------------------------------------------


def matrix_to_jsonable(m: Matrix) -> dict:
    """Row-major entry list; rationals as "num/den", p-adics as objects."""
    if m.kind == RATIONAL:
        entries = [rational_to_str(e) for e in m.entries]
    else:
        entries = [scalar_to_jsonable(e) for e in m.entries]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def matrix_from_jsonable(obj: dict, ctx: PadicContext | None = None) -> Matrix:
    """Inverse of ``matrix_to_jsonable``; raises ``ValueError`` on a malformed object."""
    if not isinstance(obj, dict):
        raise ValueError(f"a matrix must be a JSON object, got {type(obj).__name__}")
    rows, cols, raw = obj.get("rows"), obj.get("cols"), obj.get("entries")
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise ValueError(f"matrix 'rows' and 'cols' must be non-negative integers, got {rows!r}, {cols!r}")
    if not isinstance(raw, list):
        raise ValueError(f"matrix 'entries' must be a list, got {raw!r}")
    if raw and isinstance(raw[0], dict):
        if ctx is None:
            raise ValueError("p-adic matrix entries need a p-adic context")
        entries = [scalar_from_jsonable(e, ctx) for e in raw]
        return Matrix(rows, cols, entries, ctx)
    if any(type(e) not in (str, int) for e in raw):
        raise ValueError("rational matrix entries must be strings or integers")
    return Matrix(rows, cols, [rational_from_str(e) for e in raw])
