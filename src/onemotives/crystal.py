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

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class EllipticFilMode:
    """Choice of the Hodge line for an elliptic block.

    ``auto`` resolves to the slope-1 eigenline in the ordinary case, to
    the generic line span(e1) when the characteristic polynomial is
    irreducible over Q_p, and to the eigenline of root index 0 otherwise.
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
    def auto(cls) -> EllipticFilMode:
        return cls("auto")

    @classmethod
    def eigenline(cls, i: int) -> EllipticFilMode:
        return cls("eigenline", i)

    @classmethod
    def generic(cls) -> EllipticFilMode:
        return cls("generic")

    @classmethod
    def scalar(cls) -> EllipticFilMode:
        return cls("scalar")

    @classmethod
    def jordan(cls) -> EllipticFilMode:
        return cls("jordan")

    @classmethod
    def parse(cls, text: str) -> EllipticFilMode:
        if text.startswith("eigenline:"):
            return cls("eigenline", int(text.split(":", 1)[1]))
        return cls(text)

    def __str__(self) -> str:
        if self.kind == "eigenline":
            return f"eigenline:{self.root_index}"
        return self.kind


@dataclass
class FilteredPhiModule:
    """Object of the filtered phi-module category.

    ``weights`` lists (weight, block dimension) pairs in the fixed order
    0, -1, -2 describing a direct-sum grading; ``fil1`` holds column
    generators of the Hodge subspace.  ``graded=False`` marks the
    two-block extension demo, whose weights are unresolved until
    ``split_extension`` runs; ``split_at`` remembers its block split.
    """

    ctx: PadicContext
    dim: int
    phi: Matrix
    weights: tuple = ()
    fil1: Matrix = None
    label: str = ""
    graded: bool = True
    split_at: int | None = None

    def __post_init__(self) -> None:
        self.weights = tuple((int(w), int(d)) for w, d in self.weights)
        if self.fil1 is None:
            self.fil1 = Matrix.zeros(self.dim, 0)
        if self.phi.rows != self.dim or self.phi.cols != self.dim:
            raise ValueError("phi shape does not match dim")
        if self.fil1.rows != self.dim:
            raise ValueError("fil1 row count does not match dim")

    def weight_offsets(self) -> list[tuple[int, int, int]]:
        """List of (weight, offset, block dimension)."""
        out = []
        off = 0
        for w, d in self.weights:
            out.append((w, off, d))
            off += d
        return out

    def phi_block(self, off: int, d: int) -> Matrix:
        entries = [self.phi.at(off + i, off + j) for i in range(d) for j in range(d)]
        return Matrix(d, d, entries, self.phi.kind, self.phi.ctx)


def validate_graded(m: FilteredPhiModule) -> None:
    """Construction-time invariants for graded modules.

    Checks the weight bookkeeping, block-diagonality of phi, the slope
    support of each weight block (0 / [0,1] / 1), invertibility, full
    column rank of fil1, and Fil1 meeting the weight-0 block trivially.
    """
    if not m.graded:
        raise ValueError("validate_graded on a non-graded module")
    if m.phi.kind != RATIONAL:
        raise ValueError("graded validation expects a rational Frobenius matrix")
    dims = [d for _, d in m.weights]
    if any(d < 1 for d in dims) or sum(dims) != m.dim:
        raise ValueError(f"weight blocks {m.weights} do not fill dimension {m.dim}")
    ws = [w for w, _ in m.weights]
    if any(w not in WEIGHTS for w in ws) or sorted(ws, reverse=True) != ws or len(set(ws)) != len(ws):
        raise ValueError(f"weights {ws} are not strictly decreasing within {WEIGHTS}")
    offsets = m.weight_offsets()
    for w1, o1, d1 in offsets:
        for w2, o2, d2 in offsets:
            if w1 == w2:
                continue
            for i in range(d1):
                for j in range(d2):
                    if m.phi.at(o1 + i, o2 + j) != 0:
                        raise ValueError("phi is not block-diagonal for the stated grading")
    if m.dim > 0 and linalg.det(m.phi) == 0:
        raise ValueError("phi is singular")
    for w, off, d in offsets:
        slopes = newton_slopes(linalg.char_poly(m.phi_block(off, d)), m.ctx)
        if w == 0 and any(s != 0 for s in slopes):
            raise ValueError(f"weight 0 block has slopes {slopes}, expected all 0")
        if w == -1 and any(s < 0 or s > 1 for s in slopes):
            raise ValueError(f"weight -1 block has slopes {slopes} outside [0, 1]")
        if w == -2 and any(s != 1 for s in slopes):
            raise ValueError(f"weight -2 block has slopes {slopes}, expected all 1")
    r = m.fil1.cols
    if r > m.dim:
        raise ValueError("fil1 has more columns than the dimension")
    if r > 0:
        if linalg.rank(m.fil1) != r:
            raise ValueError("fil1 generators are linearly dependent")
        w0 = next((d for w, _, d in offsets if w == 0), 0)
        if w0 > 0:
            # a kernel vector here would be a Fil1 element supported in the
            # weight-0 block
            sub_rows = [m.fil1.row(i) for i in range(w0, m.dim)]
            sub = Matrix(m.dim - w0, r, [e for row in sub_rows for e in row], m.fil1.kind, m.fil1.ctx)
            if linalg.kernel(sub).dimension != 0:
                raise ValueError("Fil1 meets the weight-0 block nontrivially")


def _graded(ctx, phi, weights, fil1, label) -> FilteredPhiModule:
    m = FilteredPhiModule(ctx, phi.rows, phi, weights, fil1, label)
    validate_graded(m)
    return m


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
    """Weight-0 piece: Frobenius acts as the identity, Fil1 = 0."""
    if r < 0:
        raise ValueError("rank must be >= 0")
    if r == 0:
        return zero_module(ctx)
    return _graded(ctx, Matrix.identity(r), ((0, r),), Matrix.zeros(r, 0), f"lattice({r})")


def realize_torus(t: int, ctx: PadicContext) -> FilteredPhiModule:
    """Weight -2 piece: Frobenius acts as multiplication by q, Fil1 is everything."""
    if t < 0:
        raise ValueError("dimension must be >= 0")
    if t == 0:
        return zero_module(ctx)
    phi = linalg.mat_scale(Fraction(ctx.q), Matrix.identity(t))
    return _graded(ctx, phi, ((-2, t),), Matrix.identity(t), f"torus({t})")


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


def _splits_over_qp(trace: int, ctx: PadicContext) -> bool:
    """T^2 - tT + q splits over Q_p iff its discriminant is a p-adic square."""
    d = trace * trace - 4 * ctx.q
    if d == 0:
        return True
    return integer_square_root(d, ctx.p, 4) is not None


def _padic_roots(trace: int, ctx: PadicContext, digits: int) -> list[PadicScalar] | None:
    """Both roots of T^2 - tT + q in Q_p at the given precision, in the
    canonical order (valuation, then unit residue mod p); None when the
    polynomial is irreducible over Q_p."""
    p, q = ctx.p, ctx.q
    d = trace * trace - 4 * q
    work = ctx.with_precision(digits)
    if d == 0:
        lam = from_rational(Fraction(trace, 2), work)
        return [lam, lam]
    s = integer_square_root(d, p, digits)
    if s is None:
        return None
    t_s = from_rational(trace, work)
    two = from_rational(2, work)
    roots = [(t_s + s) / two, (t_s - s) / two]
    roots.sort(key=lambda r: (r.v, r.unit % p))
    return roots


def _eigenline_matrix(phi: Matrix, lam: PadicScalar, ctx: PadicContext, work: PadicContext) -> Matrix:
    line = linalg.eigen_line(linalg.to_padic(phi, work), lam)
    if line.dimension != 1:
        raise PrecisionExhausted(
            f"eigenline at {lam!r} came out {line.dimension}-dimensional"
        )
    # p-adic Hodge data is stored, and tagged, at the doubled precision so
    # the solvers can re-derive structural answers at 2N
    return Matrix(phi.rows, 1, list(line.basis[0]), PADIC, work)


def _rational_eigenline(phi: Matrix, lam: Fraction) -> Matrix:
    shifted = linalg.mat_sub(phi, linalg.mat_scale(lam, Matrix.identity(phi.rows)))
    line = linalg.kernel(shifted)
    if line.dimension != 1:
        raise ValueError(f"eigenvalue {lam} has a {line.dimension}-dimensional eigenspace")
    return Matrix(phi.rows, 1, list(line.basis[0]), RATIONAL)


def _elliptic_hodge_line(trace: int, mode: EllipticFilMode, phi: Matrix, ctx: PadicContext) -> Matrix:
    p, q = ctx.p, ctx.q
    span_e1 = Matrix(2, 1, [Fraction(1), Fraction(0)])
    if mode.kind in ("generic", "scalar", "jordan"):
        return span_e1
    if mode.kind == "auto":
        if is_ordinary(trace, ctx):
            # unit root by Hensel, then the eigenline of the complementary
            # slope-1 root q/u; this is the line of the connected part
            work = ctx.doubled()
            chi = [q, -trace, 1]
            u = hensel_lift_root(chi, trace % p, work)
            lam = from_rational(q, work) / u
            return _eigenline_matrix(phi, lam, ctx, work)
        if not _splits_over_qp(trace, ctx):
            # generic supersingular line, not phi-stable
            return span_e1
        mode = EllipticFilMode.eigenline(0)
    # explicit eigenline request
    if trace * trace == 4 * q:
        return _rational_eigenline(phi, Fraction(trace, 2))
    work = ctx.doubled()
    roots = _padic_roots(trace, ctx, work.precision)
    if roots is None:
        raise ModeMismatch(
            "characteristic polynomial is irreducible over Q_p; no eigenline exists"
        )
    return _eigenline_matrix(phi, roots[mode.root_index], ctx, work)


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
    if mode.kind in ("scalar", "jordan") and trace * trace != 4 * q:
        raise ModeMismatch(f"{mode.kind} mode needs t^2 = 4q, got t = {trace}, q = {q}")
    if mode.kind == "scalar":
        lam = Fraction(trace, 2)
        phi = linalg.mat_scale(lam, Matrix.identity(2))
    elif mode.kind == "jordan":
        lam = Fraction(trace, 2)
        phi = Matrix.from_rows([[lam, Fraction(1)], [Fraction(0), lam]])
    else:
        phi = linalg.companion(frobenius_char_poly(trace, ctx))
    fil1 = _elliptic_hodge_line(trace, mode, phi, ctx)
    label = f"elliptic(t={trace})" if mode.kind == "auto" else f"elliptic(t={trace},{mode})"
    return _graded(ctx, phi, ((-1, 2),), fil1, label)


def realize_abelian_block(phi: Matrix, fil1: Matrix, ctx: PadicContext) -> FilteredPhiModule:
    """Explicit non-elliptic abelian block; slopes must lie in [0, 1]."""
    return _graded(ctx, phi, ((-1, phi.rows),), fil1, f"abelian({phi.rows})")


def direct_sum(modules: list[FilteredPhiModule]) -> FilteredPhiModule:
    """Block-diagonal sum with weight blocks merged per weight.

    The basis is permuted so all weight-0 blocks come first, then -1,
    then -2; within a weight, summands keep their input order.
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
    global_off = []
    off = 0
    for m in modules:
        global_off.append(off)
        off += m.dim
    n = off
    blocks = []  # (weight, module index, local offset, block dim)
    for mi, m in enumerate(modules):
        for w, o, d in m.weight_offsets():
            blocks.append((w, mi, o, d))
    blocks.sort(key=lambda b: -b[0])  # weights 0, -1, -2; stable in input order
    perm = []  # new index -> old global index
    weights = []
    for w, mi, o, d in blocks:
        perm.extend(range(global_off[mi] + o, global_off[mi] + o + d))
        if weights and weights[-1][0] == w:
            weights[-1] = (w, weights[-1][1] + d)
        else:
            weights.append((w, d))
    fil_kind = PADIC if any(m.fil1.kind == PADIC for m in modules) else RATIONAL
    work = ctx.doubled()
    phis = [m.phi for m in modules]
    fils = [m.fil1 if fil_kind == RATIONAL else linalg.to_padic(m.fil1, work) for m in modules]
    big_phi = linalg.block_diag(phis)
    big_fil = linalg.block_diag(fils)
    phi = linalg.permute(big_phi, perm)
    fil1 = linalg.permute_rows(big_fil, perm)
    label = " + ".join(m.label for m in modules)
    return _graded(ctx, phi, tuple(weights), fil1, label)


def realize_one_motive(
    spec: OneMotiveSpec,
    ctx: PadicContext,
    fil_mode: EllipticFilMode | None = None,
) -> FilteredPhiModule:
    """Direct sum of lattice, elliptic/abelian blocks, and torus, in weight order."""
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
    mode = fil_mode or EllipticFilMode.auto()
    parts = []
    if spec.lattice_rank:
        parts.append(realize_lattice(spec.lattice_rank, ctx))
    for t in spec.elliptic_traces:
        parts.append(realize_elliptic(t, mode, ctx))
    for phi, fil1 in spec.abelian_explicit:
        parts.append(realize_abelian_block(phi, fil1, ctx))
    if spec.torus_dim:
        parts.append(realize_torus(spec.torus_dim, ctx))
    if not parts:
        return zero_module(ctx)
    return direct_sum(parts)


# -- duality --------------------------------------------------------------------


def dual(m: FilteredPhiModule) -> FilteredPhiModule:
    """Cartier dual at the module level.

    phi goes to q * (phi^T)^{-1}, weight w blocks to weight -2-w (basis
    permuted back into canonical order), and Fil1 to the annihilator of
    Fil1 in the dual basis.
    """
    if not m.graded:
        raise ValueError("dual of a non-graded module; split the extension first")
    ctx = m.ctx
    if m.dim == 0:
        return zero_module(ctx)
    q = Fraction(ctx.q)
    phi_core = linalg.mat_scale(q, linalg.inverse(linalg.transpose(m.phi)))
    # reversal permutation: the old last weight block comes first
    perm = []
    for w, off, d in reversed(m.weight_offsets()):
        perm.extend(range(off, off + d))
    phi_dual = linalg.permute(phi_core, perm)
    ann = linalg.annihilator_rows(m.fil1)
    fil_dual = linalg.permute_rows(linalg.transpose(ann), perm)
    weights = tuple((-2 - w, d) for w, d in reversed(m.weights))
    out = FilteredPhiModule(ctx, m.dim, phi_dual, weights, fil_dual, f"dual({m.label})")
    validate_graded(out)
    return out


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
    if all(s == 0 for s in slopes):
        return 0
    if all(s == 1 for s in slopes):
        return -2
    if all(0 <= s <= 1 for s in slopes):
        return -1
    raise ValueError(f"block slopes {slopes} fit no weight")


def split_extension(m: FilteredPhiModule, at: int | None = None) -> tuple[FilteredPhiModule, Matrix]:
    """Block-diagonalize a two-block upper-triangular module.

    Solves A C - C B = L for the corner block of the unipotent base
    change U = [[I, C], [0, I]]; the returned graded module is
    U phi U^{-1} with Fil1 carried along, and the conjugation identity is
    verified exactly.  Raises ``NonSplitExtension`` when the spectra of A
    and B meet and L is outside the image of the Sylvester operator.
    """
    k = at if at is not None else m.split_at
    if k is None or not 0 < k < m.dim:
        raise ValueError("no block split given")
    if m.phi.kind != RATIONAL:
        raise ValueError("split_extension works on rational Frobenius matrices")
    n = m.dim
    r = n - k
    a = Matrix(k, k, [m.phi.at(i, j) for i in range(k) for j in range(k)])
    b = Matrix(r, r, [m.phi.at(k + i, k + j) for i in range(r) for j in range(r)])
    lam = Matrix(k, r, [m.phi.at(i, k + j) for i in range(k) for j in range(r)])
    for i in range(r):
        for j in range(k):
            if m.phi.at(k + i, j) != 0:
                raise ValueError("lower-left block is not zero")
    # spectra disjoint iff the resultant of the characteristic polynomials is nonzero
    res = linalg.resultant(linalg.char_poly(a), linalg.char_poly(b))
    system = linalg.mat_sub(
        linalg.kron(Matrix.identity(r), a),
        linalg.kron(linalg.transpose(b), Matrix.identity(k)),
    )
    rhs = [lam.at(i, j) for j in range(r) for i in range(k)]  # column-major vec
    x = linalg.solve(system, rhs)
    if x is None:
        if res != 0:
            raise VerificationFailure(
                "the Sylvester system is inconsistent although the diagonal spectra are disjoint"
            )
        raise NonSplitExtension(
            "spectra of the diagonal blocks meet and the corner block is not in the "
            "image of the Sylvester operator"
        )
    c = Matrix(k, r, [x[j * k + i] for i in range(k) for j in range(r)])
    u = Matrix.zeros(n, n)
    for i in range(n):
        u.entries[i * n + i] = Fraction(1)
    for i in range(k):
        for j in range(r):
            u.entries[i * n + (k + j)] = c.at(i, j)
    u_inv = Matrix(n, n, list(u.entries))
    for i in range(k):
        for j in range(r):
            u_inv.entries[i * n + (k + j)] = -c.at(i, j)
    g = linalg.mat_mul(linalg.mat_mul(u, m.phi), u_inv)
    for i in range(k):
        for j in range(r):
            if g.at(i, k + j) != 0:
                raise VerificationFailure("conjugation failed to kill the corner")
    wa = _infer_block_weight(a, m.ctx)
    wb = _infer_block_weight(b, m.ctx)
    fil_new = m.fil1 if m.fil1.kind == RATIONAL else linalg.to_padic(m.fil1, m.ctx.doubled())
    u_f = u if fil_new.kind == RATIONAL else linalg.to_padic(u, m.ctx.doubled())
    fil_new = linalg.mat_mul(u_f, fil_new)
    if wa == wb:
        weights = ((wa, n),)
    elif wa > wb:
        weights = ((wa, k), (wb, r))
    else:
        perm = list(range(k, n)) + list(range(k))
        g = linalg.permute(g, perm)
        fil_new = linalg.permute_rows(fil_new, perm)
        weights = ((wb, r), (wa, k))
    out = FilteredPhiModule(m.ctx, n, g, weights, fil_new, f"split({m.label})")
    validate_graded(out)
    return out, u


# -- numerical invariants ---------------------------------------------------------


def newton_slopes_of(m: FilteredPhiModule) -> list:
    """Multiset of Newton slopes of phi, normalized by f."""
    return newton_slopes(linalg.char_poly(m.phi), m.ctx)


def hodge_newton_numbers(m: FilteredPhiModule) -> tuple[int, Fraction]:
    """(t_H, t_N) = (rank Fil1, v_p(det phi) / f)."""
    t_h = m.fil1.cols
    if m.dim == 0:
        return (t_h, Fraction(0))
    v = fraction_valuation(linalg.det(m.phi), m.ctx.p)
    return (t_h, Fraction(v, m.ctx.f))


def _stacked_rank(phi: Matrix, fil1: Matrix, work: PadicContext) -> int:
    phi_w = linalg.to_padic(phi, work)
    fil_w = linalg.to_padic(fil1, work)
    return linalg.rank(linalg.hstack([fil_w, linalg.mat_mul(phi_w, fil_w)]))


def check_filtration_stability(m: FilteredPhiModule) -> bool:
    """True iff phi maps span(Fil1) into itself, decided by rank comparison."""
    r = m.fil1.cols
    if r == 0 or r == m.dim:
        return True
    if m.phi.kind == RATIONAL and m.fil1.kind == RATIONAL:
        stacked = linalg.hstack([m.fil1, linalg.mat_mul(m.phi, m.fil1)])
        return linalg.rank(stacked) == r
    r1 = _stacked_rank(m.phi, m.fil1, m.ctx.with_precision(m.ctx.precision))
    r2 = _stacked_rank(m.phi, m.fil1, m.ctx.doubled())
    if r1 != r2:
        raise PrecisionExhausted(
            f"filtration stability rank flipped between precisions ({r1} vs {r2})"
        )
    return r1 == r


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


def module_from_jsonable(obj: dict) -> FilteredPhiModule:
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


def spec_from_jsonable(obj: dict) -> OneMotiveSpec:
    abelian = tuple(
        (linalg.matrix_from_jsonable(blk["phi"]), linalg.matrix_from_jsonable(blk["fil1"]))
        for blk in obj.get("abelian_explicit", ())
    )
    lam = obj.get("kummer_lambda")
    return OneMotiveSpec(
        lattice_rank=obj.get("lattice_rank", 0),
        torus_dim=obj.get("torus_dim", 0),
        elliptic_traces=tuple(obj.get("elliptic_traces", ())),
        abelian_explicit=abelian,
        kummer_lambda=rational_from_str(lam) if lam is not None else None,
    )
