"""Filtered phi-modules and the realization constructors.

A module is a finite-dimensional K0-space with an invertible linear
Frobenius matrix, a weight grading aligned with the basis (weights 0, -1,
-2 in that order), and a Hodge subspace given by a matrix of column
generators.  Over a finite field every one-motive splits up to isogeny
into lattice, abelian, and torus parts, so graded representatives always
exist; non-graded data enters only through ``extension_module`` and is
resolved by ``split_extension``.

K0 arithmetic is carried out over Q: every Frobenius matrix built here
has rational entries, the f-th Frobenius iterate is already linear, and
the eigenvalue splittings that need p-adic digits (unit roots, eigenlines)
are produced by Hensel lifting inside Q_p.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import groupby

from .errors import (
    ContextMismatch,
    HasseViolation,
    ModeMismatch,
    NonSplitExtension,
    PrecisionExhausted,
    VerificationFailure,
)
from . import linalg
from .linalg import Matrix, PADIC, RATIONAL
from .padic import (
    PadicContext,
    PadicScalar,
    from_rational,
    fraction_valuation,
    hensel_lift_root,
    integer_square_root,
    newton_slopes,
    rational_from_str,
    rational_to_str,
)

WEIGHTS = (0, -1, -2)

# weight -> (test each Newton slope of its blocks passes, message tail), in inference order
_SLOPE_RULES = {
    0: (lambda s: s == 0, ", expected all 0"),
    -2: (lambda s: s == 1, ", expected all 1"),
    -1: (lambda s: 0 <= s <= 1, " outside [0, 1]"),
}


@dataclass(frozen=True)
class EllipticFilMode:
    """Choice of the Hodge line for an elliptic block.

    ``auto`` is a root index: root 1 (the slope-1 eigenline) in the
    ordinary case, root 0 when p | t and the characteristic polynomial
    splits over Q_p, and the generic line span(e1) when it is irreducible.
    ``scalar`` and ``jordan`` are only meaningful when t^2 = 4q.
    """

    kind: str
    root_index: int = 0

    _KINDS = ("auto", "eigenline", "generic", "scalar", "jordan")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown fil mode {self.kind!r}")
        if self.root_index not in (0, 1):
            raise ValueError("root_index must be 0 or 1")

    @classmethod
    def parse(cls, text: str) -> EllipticFilMode:
        if text.startswith("eigenline:"):
            return cls("eigenline", int(text.split(":", 1)[1]))
        return cls(text)

    def __str__(self) -> str:
        if self.kind == "eigenline":
            return f"eigenline:{self.root_index}"
        return self.kind


class _PlacedOnRead:
    """Default of ``phi`` and ``fil1``: a sum holds neither until one is
    read, and ``_place`` writes both on it, shadowing this for good."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, m, owner=None):
        if m is None:
            return None  # the field's default
        _place(m)
        return m.__dict__[self.name]


@dataclass
class FilteredPhiModule:
    """Object of the filtered phi-module category.

    ``weights`` lists (weight, block dimension) pairs in the fixed order
    0, -1, -2 describing a direct-sum grading; ``fil1`` holds column
    generators of the Hodge subspace; phi is rational, Fil1 over Q or Q_p.
    ``graded=False`` marks the two-block extension demo, whose weights are
    unresolved until ``split_extension`` runs; ``split_at`` remembers its
    block split.  Construction, ``replace`` too, checks each module that
    holds phi: a graded one by ``validate_graded``, a non-graded one's Fil1
    generators independent.  ``parts`` holds (atom, basis positions, Fil1
    columns) for each summand of a sum not itself a sum (empty for an
    atom).  A sum built without phi is its parts, not checked again: its
    dense phi and Fil1 are placed by ``_place`` when first read, and kept.
    A module given phi, a ``replace`` twin of a sum too, is its own single
    atom: it keeps no ``parts``, so its Homs follow its phi.
    ``block_invariants`` holds (characteristic polynomial, Newton slopes,
    ``linalg.primitive_form``) of each weight block, or of a non-graded
    phi whole, written on construction alone; ``slope_parts`` the set S
    of slopes whose parts of phi sum to Fil1, set by the constructor that
    knows the roots, else None.  Neither is an ``__init__`` field, so
    ``replace`` recomputes the first and drops the second; neither is part
    of ``==`` or ``repr``.
    """

    ctx: PadicContext
    dim: int
    phi: Matrix = _PlacedOnRead()
    weights: tuple = ()
    fil1: Matrix = _PlacedOnRead()
    label: str = ""
    graded: bool = True
    split_at: int | None = None
    parts: tuple = field(default=(), compare=False, repr=False)
    block_invariants: tuple = field(default=(), init=False, compare=False, repr=False)
    slope_parts: frozenset | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.weights = tuple((int(w), int(d)) for w, d in self.weights)
        if self.phi is None:
            if not self.parts:
                raise ValueError("a module needs phi, or parts to place it from")
            del self.phi, self.fil1  # a sum: placed from its parts when read
            return
        self.parts = ()
        if self.fil1 is None:
            self.fil1 = Matrix.zeros(self.dim, 0)
        if self.phi.rows != self.dim or self.phi.cols != self.dim:
            raise ValueError("phi shape does not match dim")
        if self.phi.kind != RATIONAL:
            raise ValueError("phi must be a rational matrix")
        if self.fil1.rows != self.dim:
            raise ValueError("fil1 row count does not match dim")
        if self.graded:
            validate_graded(self)
        else:
            _validate_fil1_basis(self)
            cp = linalg.char_poly(self.phi)
            self.block_invariants = ((cp, newton_slopes(cp, self.ctx), linalg.primitive_form(cp)),)

    def atoms(self) -> tuple:
        """``parts``, or this module as its own single atom."""
        return self.parts or ((self, range(self.dim), range(self.fil1.cols)),)

    def invariants(self) -> list:
        """(characteristic polynomial, its Newton slopes, its primitive
        integer form) of blocks whose polynomials multiply to phi's: each
        atom's ``block_invariants``, as its construction wrote them."""
        out = []
        for a, _, _ in self.atoms():
            out += a.block_invariants
        return out

    def weight_offsets(self) -> list[tuple[int, int, int]]:
        """List of (weight, offset, block dimension)."""
        out = []
        off = 0
        for w, d in self.weights:
            out.append((w, off, d))
            off += d
        return out


def _place(m: FilteredPhiModule) -> None:
    """Write the dense phi and Fil1 of a sum on it, from its parts: each
    atom's phi at its rows x rows and its Fil1 at its rows x its columns,
    zero elsewhere.  Fil1 is over Q_p at 2N, rational ones promoted, when
    any atom's Fil1 is p-adic.  The module keeps both, so this runs at most
    once per module."""
    n, cols = m.dim, sum(len(c) for _, _, c in m.parts)
    work = m.ctx.doubled() if any(a.fil1.kind == PADIC for a, _, _ in m.parts) else None
    phi, fil1 = Matrix.zeros(n, n).entries, Matrix.zeros(n, cols, work).entries
    for a, rows, c in m.parts:
        fil = linalg.to_padic(a.fil1, work) if work and a.fil1.ctx != work else a.fil1
        for i, r in enumerate(rows):
            for j, s in enumerate(rows):
                phi[r * n + s] = a.phi.entries[i * a.dim + j]
            for j, s in enumerate(c):
                fil1[r * cols + s] = fil.entries[i * fil.cols + j]
    m.phi, m.fil1 = Matrix(n, n, phi), Matrix(n, cols, fil1, work)


def validate_graded(m: FilteredPhiModule) -> None:
    """Construction-time invariants for graded modules, run by
    ``FilteredPhiModule.__post_init__`` on each one that holds phi.

    Checks the weight bookkeeping, block-diagonality of phi, invertibility,
    the slope support of each weight block (0 / [0,1] / 1), full column
    rank of fil1, and Fil1 meeting the weight-0 block trivially.
    Invertibility and slopes are both read from the characteristic
    polynomials of the weight blocks, computed once each and kept on the
    module with their slopes and primitive integer forms.  A module of one
    weight block is that block: its phi is read whole.
    """
    if not m.graded:
        raise ValueError("validate_graded on a non-graded module")
    dims = [d for _, d in m.weights]
    if any(d < 1 for d in dims) or sum(dims) != m.dim:
        raise ValueError(f"weight blocks {m.weights} do not fill dimension {m.dim}")
    ws = [w for w, _ in m.weights]
    if any(w not in WEIGHTS for w in ws) or sorted(ws, reverse=True) != ws or len(set(ws)) != len(ws):
        raise ValueError(f"weights {ws} are not strictly decreasing within {WEIGHTS}")
    if len(ws) == 1:
        polys = (linalg.char_poly(m.phi),)
    else:
        blocks = [range(o, o + d) for _, o, d in m.weight_offsets()]
        off_block = (linalg.submatrix(m.phi, b1, b2) for b1 in blocks for b2 in blocks if b1 != b2)
        if not all(linalg.is_zero(x) for x in off_block):
            raise ValueError("phi is not block-diagonal for the stated grading")
        polys = tuple(linalg.char_poly(linalg.submatrix(m.phi, b, b)) for b in blocks)
    # phi is block-diagonal, so det(phi) is the product of the blocks' +-cp[0]
    if any(cp[0] == 0 for cp in polys):
        raise ValueError("phi is singular")
    block_slopes = tuple(newton_slopes(cp, m.ctx) for cp in polys)
    for w, slopes in zip(ws, block_slopes):
        fits, tail = _SLOPE_RULES[w]
        if not all(map(fits, slopes)):
            raise ValueError(f"weight {w} block has slopes {slopes}{tail}")
    _validate_fil1_basis(m)
    r = m.fil1.cols
    # weight 0 comes first when present; a rank drop here is a Fil1 element
    # supported in its block
    if r > 0 and ws[0] == 0 and linalg.rank(linalg.submatrix(m.fil1, range(dims[0], m.dim), range(r))) != r:
        raise ValueError("Fil1 meets the weight-0 block nontrivially")
    m.block_invariants = tuple(zip(polys, block_slopes, map(linalg.primitive_form, polys)))


def _validate_fil1_basis(m: FilteredPhiModule) -> None:
    """Fil1's columns are at most dim, linearly independent generators.  One
    column with a certainly nonzero entry, a nonzero Fraction or a resolved
    p-adic scalar, is of rank 1 by form; any other Fil1 is eliminated."""
    r = m.fil1.cols
    if r > m.dim:
        raise ValueError("fil1 has more columns than the dimension")
    if r == 1 and any(map(linalg.certainly_nonzero(m.fil1.ctx), m.fil1.entries)):
        return
    if r > 0 and linalg.rank(m.fil1) != r:
        raise ValueError("fil1 generators are linearly dependent")


def _graded(ctx, phi, weights, fil1, label, slope_parts=None) -> FilteredPhiModule:
    m = FilteredPhiModule(ctx, phi.rows, phi, weights, fil1, label)
    m.slope_parts = slope_parts
    return m


def _weight_order(blocks) -> tuple:
    """The basis order that sorts the (weight, index range) ``blocks``
    covering the basis stably by descending weight, and the (weight,
    dimension) runs of that order, adjacent blocks of equal weight merged."""
    ordered = sorted(blocks, key=lambda b: -b[0])
    perm = [i for _, block in ordered for i in block]
    weights = tuple((w, sum(len(b) for _, b in run)) for w, run in groupby(ordered, key=lambda b: b[0]))
    return perm, weights


def _in_weight_order(ctx, phi: Matrix, fil1: Matrix, blocks, label: str) -> FilteredPhiModule:
    """The graded module on phi and Fil1 in the ``_weight_order`` of
    ``blocks``: phi's rows and columns and Fil1's rows permuted to match."""
    perm, weights = _weight_order(blocks)
    if perm != list(range(len(perm))):
        fil1, phi = linalg.submatrix(fil1, perm, range(fil1.cols)), linalg.submatrix(phi, perm, perm)
    return FilteredPhiModule(ctx, len(perm), phi, weights, fil1, label)


# -- symbolic one-motive descriptions ----------------------------------------


@dataclass(frozen=True)
class OneMotiveSpec:
    """A one-motive up to isogeny: lattice rank, torus dimension, elliptic
    traces, optional explicit abelian blocks, optional extension demo scalar.

    The structure map of the motive is not represented: over a finite
    field it is torsion and the motive splits up to isogeny.
    """

    lattice_rank: int = 0
    torus_dim: int = 0
    elliptic_traces: tuple = ()
    abelian_explicit: tuple = ()
    kummer_lambda: Fraction | None = None

    def __post_init__(self) -> None:
        if self.lattice_rank < 0 or self.torus_dim < 0:
            raise ValueError("negative rank or dimension")
        object.__setattr__(self, "elliptic_traces", tuple(int(t) for t in self.elliptic_traces))
        object.__setattr__(self, "abelian_explicit", tuple(self.abelian_explicit))
        if self.kummer_lambda is not None:
            object.__setattr__(self, "kummer_lambda", Fraction(self.kummer_lambda))


# -- basic constructors --------------------------------------------------------


def zero_module(ctx: PadicContext) -> FilteredPhiModule:
    return FilteredPhiModule(ctx, 0, Matrix.zeros(0, 0), (), Matrix.zeros(0, 0), "0")


def realize_lattice(r: int, ctx: PadicContext) -> FilteredPhiModule:
    """Weight-0 piece: r copies of one rank-1 atom, Frobenius 1 and Fil1 = 0."""
    if r < 0:
        raise ValueError("rank must be >= 0")
    if r == 0:
        return zero_module(ctx)
    one = _graded(ctx, Matrix.identity(1), ((0, 1),), Matrix.zeros(1, 0), "lattice(1)", frozenset())
    return one if r == 1 else _sum([one] * r, f"lattice({r})")


def realize_torus(t: int, ctx: PadicContext) -> FilteredPhiModule:
    """Weight -2 piece: t copies of one rank-1 atom, Frobenius q and Fil1 everything."""
    if t < 0:
        raise ValueError("dimension must be >= 0")
    if t == 0:
        return zero_module(ctx)
    q = Fraction(ctx.q)
    one = _graded(ctx, Matrix(1, 1, [q]), ((-2, 1),), Matrix.identity(1), "torus(1)", frozenset({Fraction(1)}))
    return one if t == 1 else _sum([one] * t, f"torus({t})")


def frobenius_char_poly(trace: int, ctx: PadicContext) -> list[Fraction]:
    """T^2 - t T + q, ascending coefficients."""
    return [Fraction(ctx.q), Fraction(-trace), Fraction(1)]


def is_ordinary(trace: int, ctx: PadicContext) -> bool:
    """p does not divide the trace; equivalent to Newton slopes {0, 1}."""
    return trace % ctx.p != 0


def scalar_frobenius_analysis(trace: int, ctx: PadicContext) -> Fraction | None:
    """The scalar eigenvalue t/2 when t^2 = 4q (q a square), else None."""
    if trace * trace == 4 * ctx.q:
        return Fraction(trace, 2)
    return None


def _padic_roots(trace: int, work: PadicContext) -> list[PadicScalar] | None:
    """Both roots of T^2 - tT + q, t^2 != 4q, in Q_p at ``work``'s precision,
    in the canonical order (valuation, then unit residue mod p); None when
    the polynomial is irreducible over Q_p.  When p does not divide t the
    unit root u is lifted by Hensel from t mod p to N + f digits, and the
    roots are [u, t - u] (Vieta: their sum is t), with u cut to N digits;
    t - u has valuation f, so its N unit digits need u's N + f and no
    division.  Only when p | t is the discriminant's square root taken."""
    p, q = work.p, work.q
    if is_ordinary(trace, work):
        wide = PadicContext(p, work.f, work.precision + work.f)
        u = hensel_lift_root(frobenius_char_poly(trace, work), trace % p, wide)
        return [u.truncate(work.precision), PadicScalar.from_residue(p, trace - u.unit, wide.precision)]
    s = integer_square_root(trace * trace - 4 * q, p, work.precision)
    if s is None:
        return None
    t_s = from_rational(trace, work)
    two = from_rational(2, work)
    roots = [(t_s + s) / two, (t_s - s) / two]
    roots.sort(key=lambda r: (r.v, r.unit % p))
    return roots


def _elliptic_hodge_line(trace: int, mode: EllipticFilMode, ctx: PadicContext) -> tuple:
    """The Hodge line as one column, and its slope certificate or None:
    span(e1) for generic/scalar/jordan, else the companion's eigenline at
    root lam, span(1, -1/mu) with mu = t - lam the other root: exact at t/2
    when t^2 = 4q, else at root K of ``_padic_roots`` for ``eigenline:K``.
    ``auto`` takes root 1 when p does not divide t (the slope-1 root, the
    line of the connected part), root 0 when p | t, and span(e1), not
    phi-stable, when there are no roots.  When v(lam) != v(mu) the line is
    the slope-v(lam)/f part, certified {v(lam)/f} once (phi - lam)(mu, -1)^T
    = (q - lam mu, lam + mu - t)^T is negligible at 2N.  On an ordinary
    trace 1/mu is read as lam/q (Vieta: lam mu = q), a valuation shift of
    lam, digit for digit the reciprocal; a p | t trace takes the reciprocal."""
    span_e1 = Matrix(2, 1, [Fraction(1), Fraction(0)])
    if mode.kind in ("generic", "scalar", "jordan"):
        return span_e1, None
    lam = scalar_frobenius_analysis(trace, ctx)
    if lam is not None:
        return Matrix(2, 1, [Fraction(1), -1 / lam]), None
    # p-adic Hodge data is stored, and tagged, at the doubled precision so
    # the solvers can re-derive structural answers at 2N
    work = ctx.doubled()
    roots = _padic_roots(trace, work)
    if roots is None:
        if mode.kind == "auto":
            return span_e1, None
        raise ModeMismatch("characteristic polynomial is irreducible over Q_p; no eigenline exists")
    if mode.kind == "auto":
        mode = EllipticFilMode("eigenline", 1 if is_ordinary(trace, ctx) else 0)
    lam, mu = roots[mode.root_index], roots[1 - mode.root_index]
    if is_ordinary(trace, ctx):
        inv_mu = PadicScalar(work.p, lam.v - ctx.f, lam.unit, lam.prec)
    else:
        inv_mu = mu.reciprocal()
    line = Matrix(2, 1, [PadicScalar.one(work.p, mu.prec), -inv_mu], work)
    if lam.v == mu.v:
        return line, None
    resid = Matrix(2, 1, [from_rational(ctx.q, work) - lam * mu, lam + mu - from_rational(trace, work)], work)
    if not linalg.is_zero(resid):
        raise PrecisionExhausted("the Hodge line's roots miss T^2 - tT + q above the zero threshold")
    return line, frozenset({Fraction(lam.v, ctx.f)})


def realize_elliptic(trace: int, mode: EllipticFilMode, ctx: PadicContext) -> FilteredPhiModule:
    """Weight -1 elliptic block for a Frobenius trace t with t^2 <= 4q.

    phi is the companion matrix of T^2 - tT + q except in scalar/jordan
    modes (t/2 times the identity, resp. plus a square-zero nilpotent),
    which require t^2 = 4q.
    """
    q = ctx.q
    if trace * trace > 4 * q:
        raise HasseViolation(
            f"trace {trace} violates |t| <= 2*sqrt(q): t^2 = {trace * trace} > {4 * q}"
        )
    lam = scalar_frobenius_analysis(trace, ctx)
    if mode.kind in ("scalar", "jordan") and lam is None:
        raise ModeMismatch(f"{mode.kind} mode needs t^2 = 4q, got t = {trace}, q = {q}")
    if mode.kind == "scalar":
        phi = linalg.mat_scale(lam, Matrix.identity(2))
    elif mode.kind == "jordan":
        phi = Matrix.from_rows([[lam, Fraction(1)], [Fraction(0), lam]])
    else:
        phi = linalg.companion(frobenius_char_poly(trace, ctx))
    fil1, slope_parts = _elliptic_hodge_line(trace, mode, ctx)
    label = f"elliptic(t={trace})" if mode.kind == "auto" else f"elliptic(t={trace},{mode})"
    return _graded(ctx, phi, ((-1, 2),), fil1, label, slope_parts)


def realize_abelian_block(phi: Matrix, fil1: Matrix, ctx: PadicContext) -> FilteredPhiModule:
    """Explicit non-elliptic abelian block; slopes must lie in [0, 1]."""
    return _graded(ctx, phi, ((-1, phi.rows),), fil1, f"abelian({phi.rows})")


def direct_sum(modules: list[FilteredPhiModule]) -> FilteredPhiModule:
    """Block-diagonal sum with weight blocks merged per weight.

    The basis is permuted so all weight-0 blocks come first, then -1,
    then -2; within a weight, summands keep their input order.  The sum is
    its summands' atoms, nested sums flattened, in ``parts``.

    The sum is not validated again: every summand is, and reordering
    block-diagonal summands keeps the weight order, block-diagonality,
    each weight block's characteristic polynomial (the product of the
    summands'), the rank of Fil1 and Fil1 meeting the weight-0 block
    trivially.
    """
    if not modules:
        raise ValueError("direct_sum of nothing; build the zero module explicitly")
    ctx = modules[0].ctx
    for m in modules:
        if m.ctx != ctx:
            raise ContextMismatch("summands live over different contexts")
        if not m.graded:
            raise ValueError("direct_sum needs graded summands; split extensions first")
    if len(modules) == 1:
        return modules[0]
    modules = [m for m in modules if m.dim > 0]
    if not modules:
        return zero_module(ctx)
    return _sum(modules, " + ".join(m.label for m in modules))


def _sum(modules: list[FilteredPhiModule], label: str) -> FilteredPhiModule:
    """The sum of nonzero graded modules over one context as its atoms, at
    their basis positions in ``_weight_order`` and their Fil1 columns, the
    summands' in turn; its phi and Fil1 are placed only when read."""
    blocks, parts, start, col = [], [], 0, 0
    for m in modules:
        blocks += [(w, range(start + o, start + o + d)) for w, o, d in m.weight_offsets()]
        atoms = m.atoms()
        parts += [(a, [start + i for i in rows], range(col + c.start, col + c.stop)) for a, rows, c in atoms]
        start, col = start + m.dim, col + sum(len(c) for _, _, c in atoms)
    perm, weights = _weight_order(blocks)
    where = {i: k for k, i in enumerate(perm)}
    # listed by first basis position
    parts = tuple(sorted(((a, tuple(where[i] for i in r), c) for a, r, c in parts), key=lambda x: x[1][0]))
    return FilteredPhiModule(modules[0].ctx, start, weights=weights, label=label, parts=parts)


def realize_one_motive(
    spec: OneMotiveSpec,
    ctx: PadicContext,
    fil_mode: EllipticFilMode | None = None,
) -> FilteredPhiModule:
    """Direct sum of lattice, elliptic/abelian blocks, and torus, in weight
    order: one ``_sum`` over all their atoms, the module ``direct_sum`` of
    ``lattice(r)``, the blocks and ``torus(d)`` gives; a single atom is
    returned as itself."""
    if spec.kummer_lambda is not None:
        if (
            spec.lattice_rank == 1
            and spec.torus_dim == 1
            and not spec.elliptic_traces
            and not spec.abelian_explicit
        ):
            return extension_module(spec.kummer_lambda, ctx)
        raise ValueError(
            "kummer_lambda is a demo for the rank-1 lattice / 1-dimensional torus shape"
        )
    mode = fil_mode or EllipticFilMode("auto")
    r, d = spec.lattice_rank, spec.torus_dim
    # the r lattice and the d torus copies share one atom each, and
    # repeated traces one elliptic atom each
    lattice = [realize_lattice(1, ctx)] * r if r else []
    elliptic = {t: realize_elliptic(t, mode, ctx) for t in dict.fromkeys(spec.elliptic_traces)}
    middle = [elliptic[t] for t in spec.elliptic_traces]
    middle += [realize_abelian_block(phi, fil1, ctx) for phi, fil1 in spec.abelian_explicit]
    atoms = lattice + middle + ([realize_torus(1, ctx)] * d if d else [])
    if len(atoms) < 2:
        return atoms[0] if atoms else zero_module(ctx)
    labels = [f"lattice({r})"] * bool(r) + [a.label for a in middle] + [f"torus({d})"] * bool(d)
    return _sum(atoms, " + ".join(labels))


# -- duality --------------------------------------------------------------------


def dual(m: FilteredPhiModule) -> FilteredPhiModule:
    """Cartier dual at the module level.

    phi goes to q * (phi^T)^{-1}, weight w blocks to weight -2-w (basis
    permuted back into canonical order), and Fil1 to the annihilator of
    Fil1 in the dual basis.  An atom's dual is validated; a sum's dual is
    the sum of its atoms' duals, so it keeps its atoms.
    """
    if not m.graded:
        raise ValueError("dual of a non-graded module; split the extension first")
    ctx = m.ctx
    if m.dim == 0:
        return zero_module(ctx)
    if m.parts:
        duals = {key: dual(a) for key, a in {id(a): a for a, _, _ in m.parts}.items()}
        return _sum([duals[id(a)] for a, _, _ in m.parts], f"dual({m.label})")
    phi = linalg.mat_scale(Fraction(ctx.q), linalg.inverse(linalg.transpose(m.phi)))
    fil1 = linalg.transpose(linalg.annihilator_rows(m.fil1))
    blocks = [(-2 - w, range(o, o + d)) for w, o, d in m.weight_offsets()]
    return _in_weight_order(ctx, phi, fil1, blocks, f"dual({m.label})")


# -- extension demo --------------------------------------------------------------


def extension_module(lam: Fraction | int, ctx: PadicContext) -> FilteredPhiModule:
    """Two-block extension [[1, lam], [0, q]] with Fil1 = span(e2).

    The off-diagonal scalar plays the role of an extension class; over a
    finite field a base change can always remove it (``split_extension``).
    Weights are recorded as unresolved.
    """
    lam = Fraction(lam)
    phi = Matrix.from_rows([[Fraction(1), lam], [Fraction(0), Fraction(ctx.q)]])
    fil1 = Matrix(2, 1, [Fraction(0), Fraction(1)])
    return FilteredPhiModule(
        ctx, 2, phi, (), fil1,
        label=f"extension(lambda={lam})", graded=False, split_at=1,
    )


def _infer_block_weight(block: Matrix, ctx: PadicContext) -> int:
    slopes = newton_slopes(linalg.char_poly(block), ctx)
    for w, (fits, _) in _SLOPE_RULES.items():
        if all(fits(s) for s in slopes):
            return w
    raise ValueError(f"block slopes {slopes} fit no weight")


def split_extension(m: FilteredPhiModule) -> tuple[FilteredPhiModule, Matrix]:
    """Block-diagonalize a two-block upper-triangular module.

    Solves A C - C B = L for the corner block of the unipotent base
    change U = [[I, C], [0, I]]; the returned graded module is
    U phi U^{-1} with Fil1 carried along, and the conjugation identity is
    verified exactly.  Raises ``NonSplitExtension`` when the spectra of A
    and B meet and L is outside the image of the Sylvester operator.
    """
    k = m.split_at
    if k is None or not 0 < k < m.dim:
        raise ValueError("no block split given")
    n = m.dim
    r = n - k
    top, bottom = range(k), range(k, n)
    a = linalg.submatrix(m.phi, top, top)
    b = linalg.submatrix(m.phi, bottom, bottom)
    lam = linalg.submatrix(m.phi, top, bottom)
    if not linalg.is_zero(linalg.submatrix(m.phi, bottom, top)):
        raise ValueError("lower-left block is not zero")
    x = linalg.solve(linalg.sylvester(a, b), lam.entries)
    if x is None:
        # by Sylvester's theorem the system is solvable when the spectra are disjoint
        if not linalg.share_root(linalg.char_poly(a), linalg.char_poly(b)):
            raise VerificationFailure(
                "the Sylvester system is inconsistent although the diagonal spectra are disjoint"
            )
        raise NonSplitExtension(
            "spectra of the diagonal blocks meet and the corner block is not in the "
            "image of the Sylvester operator"
        )
    c = Matrix(k, r, x)
    u = Matrix.identity(n)
    u_inv = Matrix.identity(n)
    for i in range(k):
        for j in range(r):
            u.entries[i * n + (k + j)] = c.at(i, j)
            u_inv.entries[i * n + (k + j)] = -c.at(i, j)
    g = linalg.mat_mul(linalg.mat_mul(u, m.phi), u_inv)
    if not linalg.is_zero(linalg.submatrix(g, top, bottom)):
        raise VerificationFailure("conjugation failed to kill the corner")
    blocks = [(_infer_block_weight(a, m.ctx), top), (_infer_block_weight(b, m.ctx), bottom)]
    fil1, u_f = m.fil1, u
    if fil1.kind == PADIC:
        fil1, u_f = linalg.to_padic(fil1, m.ctx.doubled()), linalg.to_padic(u, m.ctx.doubled())
    return _in_weight_order(m.ctx, g, linalg.mat_mul(u_f, fil1), blocks, f"split({m.label})"), u


# -- numerical invariants ---------------------------------------------------------


def newton_slopes_of(m: FilteredPhiModule) -> list:
    """Multiset of Newton slopes of phi, normalized by f, read from ``m.invariants()``."""
    return sorted(s for _, slopes, _ in m.invariants() for s in slopes)


def hodge_newton_numbers(m: FilteredPhiModule) -> tuple[int, Fraction]:
    """(t_H, t_N) = (rank Fil1, v_p(det phi) / f): the atoms' Fil1 ranks
    summed, and v_p(det phi) the sum of v_p(cp[0]) over ``m.invariants()``."""
    v = sum(fraction_valuation(cp[0], m.ctx.p) for cp, _, _ in m.invariants())
    return (sum(a.fil1.cols for a, _, _ in m.atoms()), Fraction(v, m.ctx.f))


def check_filtration_stability(m: FilteredPhiModule) -> bool:
    """True iff phi maps span(Fil1) into itself, decided by rank comparison:
    over Q for a rational Fil1, else over Q_p at N and again at 2N, where a
    rank flip raises ``PrecisionExhausted``."""
    r = m.fil1.cols
    if r == 0 or r == m.dim:
        return True
    ranks = []
    for c in (m.ctx, m.ctx.doubled()) if m.fil1.kind == PADIC else (None,):
        phi, fil = (linalg.to_padic(x, c) if c else x for x in (m.phi, m.fil1))
        ranks.append(linalg.rank(linalg.hstack([fil, linalg.mat_mul(phi, fil)])))
    if ranks[0] != ranks[-1]:
        raise PrecisionExhausted(
            f"filtration stability rank flipped between precisions ({ranks[0]} vs {ranks[-1]})"
        )
    return ranks[0] == r


# -- serialization -----------------------------------------------------------------


def module_to_jsonable(m: FilteredPhiModule) -> dict:
    out = {
        "ctx": {"p": m.ctx.p, "f": m.ctx.f, "precision": m.ctx.precision},
        "dim": m.dim,
        "phi": linalg.matrix_to_jsonable(m.phi),
        "weights": [[w, d] for w, d in m.weights],
        "fil1": linalg.matrix_to_jsonable(m.fil1),
        "label": m.label,
    }
    if not m.graded:
        out["graded"] = False
        out["split_at"] = m.split_at
    return out


def _unknown_keys(obj: dict, known, what: str) -> None:
    if unknown := [repr(k) for k in obj if k not in known]:
        raise ValueError(f"{what} has unknown field(s) {', '.join(unknown)}")


def _int_pairs(x) -> bool:
    return isinstance(x, list) and all(isinstance(w, list) and [*map(type, w)] == [int, int] for w in x)


def module_from_jsonable(obj: dict) -> FilteredPhiModule:
    """Inverse of ``module_to_jsonable``; the module is checked as its
    construction checks any, and a missing or unknown field, or one of the
    wrong type, raises ``ValueError`` naming it."""
    missing = [k for k in ("ctx", "dim", "phi", "weights", "fil1") if k not in obj]
    if missing:
        raise ValueError(f"module JSON lacks the field(s) {', '.join(missing)}")
    for key, ok, what in (
        ("ctx", lambda x: isinstance(x, dict) and {*map(type, x.values())} <= {int}, "an object of integers"),
        ("dim", lambda x: type(x) is int, "an integer"),
        ("weights", _int_pairs, "a list of [weight, dimension] integer pairs"),
        ("label", lambda x: type(x) is str, "a string"),
        ("graded", lambda x: type(x) is bool, "true or false"),
        ("split_at", lambda x: x is None or type(x) is int, "an integer or null"),
    ):
        if key in obj and not ok(obj[key]):
            raise ValueError(f"module JSON field {key!r} must be {what}, got {obj[key]!r}")
    if missing := [f"ctx.{k}" for k in ("p", "f", "precision") if k not in obj["ctx"]]:
        raise ValueError(f"module JSON lacks the field(s) {', '.join(missing)}")
    _unknown_keys(obj, ("ctx", "dim", "phi", "weights", "fil1", "label", "graded", "split_at"), "module JSON")
    _unknown_keys(obj["ctx"], ("p", "f", "precision"), "module JSON ctx")
    ctx = PadicContext(obj["ctx"]["p"], obj["ctx"]["f"], obj["ctx"]["precision"])
    return FilteredPhiModule(
        ctx,
        obj["dim"],
        linalg.matrix_from_jsonable(obj["phi"], ctx),
        tuple((w, d) for w, d in obj["weights"]),
        # p-adic Hodge matrices live at the doubled working precision
        linalg.matrix_from_jsonable(obj["fil1"], ctx.doubled()),
        obj.get("label", ""),
        obj.get("graded", True),
        obj.get("split_at"),
    )


def spec_to_jsonable(spec: OneMotiveSpec) -> dict:
    out = {
        "lattice_rank": spec.lattice_rank,
        "torus_dim": spec.torus_dim,
        "elliptic_traces": list(spec.elliptic_traces),
    }
    if spec.abelian_explicit:
        out["abelian_explicit"] = [
            {"phi": linalg.matrix_to_jsonable(phi), "fil1": linalg.matrix_to_jsonable(fil)}
            for phi, fil in spec.abelian_explicit
        ]
    if spec.kummer_lambda is not None:
        out["kummer_lambda"] = rational_to_str(spec.kummer_lambda)
    return out


def _spec_int(obj: dict, key: str) -> int:
    value = obj.get(key, 0)
    if type(value) is not int:
        raise ValueError(f"spec field {key!r} must be an integer, got {value!r}")
    return value


def spec_from_jsonable(obj: dict) -> OneMotiveSpec:
    """Inverse of ``spec_to_jsonable``; raises ``ValueError`` on malformed
    input, unknown fields included."""
    if not isinstance(obj, dict):
        raise ValueError(f"a motive spec must be a JSON object, got {type(obj).__name__}")
    _unknown_keys(obj, {f.name for f in fields(OneMotiveSpec)}, "spec")  # the JSON keys are its field names
    traces = obj.get("elliptic_traces", [])
    if not isinstance(traces, list) or any(type(t) is not int for t in traces):
        raise ValueError(f"spec field 'elliptic_traces' must be a list of integers, got {traces!r}")
    blocks = obj.get("abelian_explicit", [])
    if not isinstance(blocks, list) or not all(
        isinstance(blk, dict) and "phi" in blk and "fil1" in blk for blk in blocks
    ):
        raise ValueError("spec field 'abelian_explicit' must be a list of objects with 'phi' and 'fil1'")
    for blk in blocks:
        _unknown_keys(blk, ("phi", "fil1"), "an 'abelian_explicit' block")
    abelian = tuple(
        (linalg.matrix_from_jsonable(blk["phi"]), linalg.matrix_from_jsonable(blk["fil1"]))
        for blk in blocks
    )
    lam = obj.get("kummer_lambda")
    if lam is not None and type(lam) not in (int, str):
        raise ValueError(f"spec field 'kummer_lambda' must be a rational string, got {lam!r}")
    return OneMotiveSpec(
        lattice_rank=_spec_int(obj, "lattice_rank"),
        torus_dim=_spec_int(obj, "torus_dim"),
        elliptic_traces=tuple(traces),
        abelian_explicit=abelian,
        kummer_lambda=rational_from_str(lam) if lam is not None else None,
    )
