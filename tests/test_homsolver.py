"""Hom/End solver, algebra checks, classification, and the weight-block laws."""

import random
from fractions import Fraction

import pytest

from onemotives.crystal import (
    EllipticFilMode,
    FilteredPhiModule,
    OneMotiveSpec,
    dual,
    direct_sum,
    extension_module,
    realize_elliptic,
    realize_lattice,
    realize_one_motive,
    realize_torus,
    split_extension,
    zero_module,
)
from onemotives import homsolver
from onemotives.errors import (
    ClosureFailure,
    ContextMismatch,
    PrecisionExhausted,
    UnclassifiedShape,
    VerificationFailure,
)
from onemotives.homsolver import (
    HomSpace,
    LATTICE_SCALARS,
    POLYNOMIAL_ALGEBRA_OF_PHI,
    SCALAR_ONLY,
    TORUS_SCALARS,
    UPPER_TRIANGULAR_FULL,
    classify_end,
    end_algebra,
    frobenius_membership,
    hom_space,
    homspace_to_jsonable,
    in_span,
    weight_block_structure,
)
from onemotives import linalg
from onemotives.linalg import Matrix, PADIC, RATIONAL
from onemotives.padic import PadicContext, PadicScalar

C5 = PadicContext(5, 1, 40)
C25 = PadicContext(5, 2, 40)
AUTO = EllipticFilMode.auto()


def frac_matrix(rows):
    return Matrix.from_rows([[Fraction(e) for e in row] for row in rows])


def kummer(ctx):
    return realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), ctx)


def z_to_e(trace, ctx, mode=AUTO):
    return direct_sum([realize_lattice(1, ctx), realize_elliptic(trace, mode, ctx)])


# -- frozen Hom values -----------------------------------------------------------


def test_hom_lattice_to_lattice():
    m = realize_lattice(1, C5)
    assert hom_space(m, m).dimension == 1


def test_hom_torus_to_elliptic_vanishes():
    t1 = realize_torus(1, C5)
    for t in range(-4, 5):
        assert hom_space(t1, realize_elliptic(t, AUTO, C5)).dimension == 0


def test_hom_lattice_to_torus_vanishes():
    assert hom_space(realize_lattice(1, C5), realize_torus(1, C5)).dimension == 0


def test_hom_context_mismatch():
    with pytest.raises(ContextMismatch):
        hom_space(realize_lattice(1, C5), realize_lattice(1, C25))


def test_hom_zero_module():
    z = zero_module(C5)
    assert hom_space(z, realize_torus(1, C5)).dimension == 0
    assert end_algebra(z).dimension == 0


# -- End algebras of the worked examples -------------------------------------------


def test_kummer_end_is_diagonal_plane():
    e = end_algebra(kummer(C5))
    assert e.dimension == 2
    assert e.basis[0] == frac_matrix([[1, 0], [0, 0]])
    assert e.basis[1] == frac_matrix([[0, 0], [0, 1]])
    c = classify_end(kummer(C5), e)
    assert c.blocks == ((0, LATTICE_SCALARS), (-2, TORUS_SCALARS))
    assert frobenius_membership(kummer(C5), e)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49])
def test_kummer_end_dimension_is_q_independent(q):
    ctx = PadicContext.from_q(q)
    assert end_algebra(kummer(ctx)).dimension == 2


def test_ordinary_z_to_e():
    m = z_to_e(1, C5)
    e = end_algebra(m)
    assert e.dimension == 3
    c = classify_end(m, e)
    assert c.tag_for_weight(0) == LATTICE_SCALARS
    assert c.tag_for_weight(-1) == POLYNOMIAL_ALGEBRA_OF_PHI
    assert frobenius_membership(m, e)
    for h in e.basis:
        structure = weight_block_structure(h, m)
        assert structure[(0, -1)] and structure[(-1, 0)]


def test_supersingular_z_to_e():
    m = z_to_e(0, C5)
    e = end_algebra(m)
    assert e.dimension == 2
    assert classify_end(m, e).tag_for_weight(-1) == SCALAR_ONLY
    assert not frobenius_membership(m, e)


def test_scalar_mode_z_to_e():
    m = z_to_e(10, C25, EllipticFilMode.scalar())
    e = end_algebra(m)
    assert e.dimension == 4
    assert classify_end(m, e).tag_for_weight(-1) == UPPER_TRIANGULAR_FULL
    assert frobenius_membership(m, e)


def test_jordan_mode_z_to_e():
    m = z_to_e(10, C25, EllipticFilMode.jordan())
    e = end_algebra(m)
    assert e.dimension == 3
    assert classify_end(m, e).tag_for_weight(-1) == POLYNOMIAL_ALGEBRA_OF_PHI


def test_split_distinct_roots_supersingular():
    # q = 25, t = 0: the eigenline Hodge choice keeps the polynomial algebra
    m = z_to_e(0, C25)
    e = end_algebra(m)
    assert e.dimension == 3
    assert classify_end(m, e).tag_for_weight(-1) == POLYNOMIAL_ALGEBRA_OF_PHI
    assert frobenius_membership(m, e)


def test_precision_stability_of_dimensions():
    for prec in (40, 80):
        ctx = PadicContext(5, 1, prec)
        m = z_to_e(1, ctx)
        assert end_algebra(m).dimension == 3


# -- general laws -----------------------------------------------------------------


def test_identity_always_present():
    for build in (
        lambda: kummer(C5),
        lambda: z_to_e(1, C5),
        lambda: z_to_e(0, C5),
        lambda: realize_one_motive(
            OneMotiveSpec(lattice_rank=2, torus_dim=1, elliptic_traces=(2,)), C5
        ),
    ):
        m = build()
        e = end_algebra(m)  # raises ClosureFailure if I or products escape
        assert e.dimension >= len(m.weights)


def test_hom_respects_duality():
    pairs = [
        (kummer(C5), kummer(C5)),
        (realize_lattice(1, C5), realize_torus(1, C5)),
        (z_to_e(1, C5), z_to_e(1, C5)),
        (realize_torus(1, C5), realize_elliptic(2, AUTO, C5)),
        (z_to_e(0, C5), kummer(C5)),
    ]
    for a, b in pairs:
        assert hom_space(a, b).dimension == hom_space(dual(b), dual(a)).dimension


def test_weight_block_diagonality():
    a = realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1, elliptic_traces=(1,)), C5)
    b = realize_one_motive(OneMotiveSpec(lattice_rank=2, torus_dim=1, elliptic_traces=(2,)), C5)
    h = hom_space(a, b)
    assert h.dimension > 0
    for mat in h.basis:
        for (wr, orow, dr) in b.weight_offsets():
            for (wc, ocol, dc) in a.weight_offsets():
                if wr == wc:
                    continue
                for i in range(dr):
                    for j in range(dc):
                        e = mat.at(orow + i, ocol + j)
                        dead = e == 0 if mat.kind == RATIONAL else e.negligible(mat.ctx.threshold)
                        assert dead


def test_unclassified_shape_for_doubled_elliptic():
    m = direct_sum([realize_elliptic(0, AUTO, C5), realize_elliptic(0, AUTO, C5)])
    e = end_algebra(m)
    with pytest.raises(UnclassifiedShape):
        classify_end(m, e)


def test_in_span_empty_basis():
    assert in_span([], Matrix.zeros(2, 2)) == []
    assert in_span([], Matrix.identity(2)) is None


# -- the End closure check can fail ----------------------------------------------------


def _end_with_basis(monkeypatch, basis):
    """end_algebra of lattice:2 with hom_space forced to return ``basis``."""
    monkeypatch.setattr(homsolver, "hom_space", lambda s, t: HomSpace(s, t, len(basis), basis))
    return end_algebra(realize_lattice(2, C5))


def _padic_2x2(rows):
    """2x2 p-adic matrix over C5 from 0 (exact zero), 1, or a PadicScalar."""
    def entry(e):
        if isinstance(e, PadicScalar):
            return e
        return PadicScalar.one(5, 40) if e == 1 else PadicScalar.exact_zero(5)

    return Matrix(2, 2, [entry(e) for row in rows for e in row], PADIC, C5)


def test_end_closure_rejects_a_span_without_the_identity(monkeypatch):
    with pytest.raises(ClosureFailure, match="identity is missing"):
        _end_with_basis(monkeypatch, [frac_matrix([[1, 0], [0, 0]])])


def test_end_closure_rejects_a_product_outside_the_span(monkeypatch):
    # E12 * E21 = E11 is not a combination of I, E12 and E21
    basis = [frac_matrix([[1, 0], [0, 1]]), frac_matrix([[0, 1], [0, 0]]), frac_matrix([[0, 0], [1, 0]])]
    with pytest.raises(ClosureFailure, match="basis product escaped"):
        _end_with_basis(monkeypatch, basis)


def test_end_closure_first_failing_target_decides(monkeypatch):
    # with F = [[0, 0], [1, O(5^10)]] the residual of F itself is O(5^10),
    # an ambiguous consistency check, while E12 * F = [[1, O(5^10)], [0, 0]]
    # is certainly outside the span
    fuzz = PadicScalar.unresolved_zero(5, 10)
    ident = _padic_2x2([[1, 0], [0, 1]])
    e12 = _padic_2x2([[0, 1], [0, 0]])
    f = _padic_2x2([[0, 0], [1, fuzz]])
    # targets: I, E12*E12, E12*I, E12*F (escapes), ..., I*F (ambiguous), ...
    with pytest.raises(ClosureFailure, match="basis product escaped"):
        _end_with_basis(monkeypatch, [e12, ident, f])
    # targets: I, I*I, I*E12, I*F (ambiguous), ..., E12*F (escapes), ...
    with pytest.raises(PrecisionExhausted, match="consistency check is ambiguous"):
        _end_with_basis(monkeypatch, [ident, e12, f])


def test_hom_rejects_a_non_equivariant_kernel_vector(monkeypatch):
    m = kummer(C5)
    assert m.phi.kind == RATIONAL and m.phi != Matrix.identity(2)
    # E12 does not commute with phi = diag(1, 5); only the 4-unknown Hom
    # system is answered wrongly, the annihilator of Fil1 is left intact
    bogus = linalg.KernelResult(1, [[Fraction(0), Fraction(1), Fraction(0), Fraction(0)]])
    real = linalg.kernel
    monkeypatch.setattr(linalg, "kernel", lambda system: bogus if system.cols == 4 else real(system))
    with pytest.raises(VerificationFailure, match="non-equivariant"):
        hom_space(m, m)


def test_homspace_serialization():
    e = end_algebra(kummer(C5))
    obj = homspace_to_jsonable(e, "lattice_scalars+torus_scalars")
    assert obj["dimension"] == 2
    assert len(obj["basis"]) == 2
    assert obj["precision_report"] is None


# -- independent brute-force oracle (small smoke version; the full sweep lives in
#    the acceptance suite) ----------------------------------------------------------


def naive_hom_dimension(src, tgt):
    """Entry-by-entry equation assembly plus textbook Fraction elimination.

    Unknowns: the entries of h (row-major) followed by auxiliary
    coordinates expressing each image of a Fil1 generator in the target
    Fil1 basis.  Kernel dimension equals dim Hom because the auxiliary
    coordinates are determined by h.
    """
    na, nb = src.dim, tgt.dim
    ra, rb = src.fil1.cols, tgt.fil1.cols
    nh = nb * na
    nvars = nh + rb * ra
    rows = []
    for i in range(nb):
        for j in range(na):
            row = [Fraction(0)] * nvars
            for k in range(nb):
                row[k * na + j] += tgt.phi.at(i, k)
            for k in range(na):
                row[i * na + k] -= src.phi.at(k, j)
            rows.append(row)
    for c in range(ra):
        for i in range(nb):
            row = [Fraction(0)] * nvars
            for k in range(na):
                row[i * na + k] += src.fil1.at(k, c)
            for s in range(rb):
                row[nh + c * rb + s] -= tgt.fil1.at(i, s)
            rows.append(row)
    # plain elimination, coded independently of the package
    rank = 0
    ncols = nvars
    data = [r[:] for r in rows]
    for col in range(ncols):
        piv = next((i for i in range(rank, len(data)) if data[i][col] != 0), None)
        if piv is None:
            continue
        data[rank], data[piv] = data[piv], data[rank]
        pval = data[rank][col]
        data[rank] = [x / pval for x in data[rank]]
        for i in range(len(data)):
            if i != rank and data[i][col] != 0:
                f = data[i][col]
                data[i] = [a - f * b for a, b in zip(data[i], data[rank])]
        rank += 1
    return nvars - rank


def random_rational_module(rng, ctx):
    n = rng.randint(1, 3)
    while True:
        phi = Matrix(n, n, [Fraction(rng.randint(-5, 5)) for _ in range(n * n)])
        if linalg.det(phi) != 0:
            break
    r = rng.randint(0, n)
    while True:
        fil = Matrix(n, r, [Fraction(rng.randint(-3, 3)) for _ in range(n * r)])
        if r == 0 or linalg.rank(fil) == r:
            break
    return FilteredPhiModule(ctx, n, phi, ((-1, n),), fil, label="random")


def test_solver_agrees_with_naive_oracle_smoke():
    rng = random.Random(5050)
    for _ in range(30):
        a = random_rational_module(rng, C5)
        b = random_rational_module(rng, C5)
        assert hom_space(a, b).dimension == naive_hom_dimension(a, b)


# -- non-graded modules, multi-factor motives, base-change consistency ----------------


def test_end_of_nonsplit_extension_is_scalars():
    # the off-diagonal scalar obstructs everything except scalars: for
    # h = xI + y*phi, preserving span(e2) forces lambda*y = 0
    assert end_algebra(extension_module(3, C5)).dimension == 1
    assert end_algebra(extension_module(0, C5)).dimension == 2


def test_split_extension_base_change_is_a_hom():
    ext = extension_module(3, C5)
    graded, u = split_extension(ext)
    h = hom_space(ext, graded)
    assert h.dimension == 1
    assert in_span(h.basis, u) is not None


def test_hom_extension_vs_kummer():
    ext = extension_module(3, C5)
    k = kummer(C5)
    # no isomorphism: only the torus-line projection survives in each direction
    assert hom_space(ext, k).dimension == 1
    assert hom_space(k, ext).dimension == 1


def test_hom_between_elliptic_blocks():
    e1 = realize_elliptic(1, AUTO, C5)
    e2 = realize_elliptic(2, AUTO, C5)
    assert hom_space(e1, e2).dimension == 0  # disjoint Weil eigenvalues
    e1_again = realize_elliptic(1, AUTO, C5)
    assert hom_space(e1, e1_again).dimension == 2


def test_two_elliptic_factors_end_dimension():
    m = realize_one_motive(
        OneMotiveSpec(lattice_rank=1, elliptic_traces=(1, 2)), C5
    )
    e = end_algebra(m)
    assert e.dimension == 5  # 1 + K0[phi_1] + K0[phi_2], no cross maps
    with pytest.raises(UnclassifiedShape):
        classify_end(m, e)  # the merged weight -1 block is not a table shape


def test_weight_block_structure_of_identity():
    m = kummer(C5)
    structure = weight_block_structure(Matrix.identity(2), m)
    assert structure[(0, 0)] is False and structure[(-2, -2)] is False
    assert structure[(0, -2)] and structure[(-2, 0)]


def test_hom_between_different_eigenline_choices():
    # h = x I + y phi must kill the source line before landing in the
    # target line, leaving exactly the rank-one map phi - u I
    e0 = realize_elliptic(1, EllipticFilMode.eigenline(0), C5)
    e1 = realize_elliptic(1, EllipticFilMode.eigenline(1), C5)
    assert hom_space(e0, e1).dimension == 1
    assert hom_space(e1, e0).dimension == 1
    assert end_algebra(e0).dimension == 2
    assert end_algebra(e1).dimension == 2


@pytest.mark.parametrize("prec", [9, 12, 16, 24, 40])
def test_ordinary_end_dimension_across_precisions(prec):
    ctx = PadicContext(5, 1, prec)
    m = realize_one_motive(
        OneMotiveSpec(lattice_rank=1, elliptic_traces=(1,)), ctx
    )
    assert end_algebra(m).dimension == 3


def test_hom_raises_on_ambiguous_hodge_data():
    from fractions import Fraction as F

    from onemotives.errors import PrecisionExhausted
    from onemotives.linalg import PADIC
    from onemotives.padic import PadicScalar

    # a Fil1 entry that cancelled far short of the zero threshold cannot
    # support a rank decision
    fuzzy = Matrix(
        2, 1,
        [PadicScalar.unresolved_zero(5, 10), PadicScalar.one(5, 80)],
        PADIC, C5.doubled(),
    )
    phi = Matrix.from_rows([[F(1), F(0)], [F(0), F(5)]])
    bad = FilteredPhiModule(C5, 2, phi, ((0, 1), (-2, 1)), fuzzy, label="fuzzy")
    with pytest.raises(PrecisionExhausted):
        hom_space(bad, bad)


def test_split_supersingular_odd_prime_f2():
    # q = 49, t = 7: discriminant -147 is a square in Q_7, equal-valuation
    # roots, eigenline Hodge choice
    ctx = PadicContext(7, 2, 40)
    m = realize_one_motive(OneMotiveSpec(lattice_rank=1, elliptic_traces=(7,)), ctx)
    e = end_algebra(m)
    assert e.dimension == 3
    assert classify_end(m, e).tag_for_weight(-1) == POLYNOMIAL_ALGEBRA_OF_PHI
    assert frobenius_membership(m, e)


def test_exotic_traces_at_q8_stay_classifiable():
    from fractions import Fraction as F

    from onemotives.crystal import newton_slopes_of

    ctx = PadicContext(2, 3, 40)
    # t = 2 is no elliptic curve trace: distinct-valuation roots, slopes 1/3, 2/3
    m2 = realize_one_motive(OneMotiveSpec(lattice_rank=1, elliptic_traces=(2,)), ctx)
    e2 = end_algebra(m2)
    assert e2.dimension == 3
    assert newton_slopes_of(realize_elliptic(2, AUTO, ctx)) == [F(1, 3), F(2, 3)]
    # t = 4 is the genuine supersingular class: irreducible, isoclinic
    m4 = realize_one_motive(OneMotiveSpec(lattice_rank=1, elliptic_traces=(4,)), ctx)
    e4 = end_algebra(m4)
    assert e4.dimension == 2
    assert classify_end(m4, e4).tag_for_weight(-1) == SCALAR_ONLY
    assert newton_slopes_of(realize_elliptic(4, AUTO, ctx)) == [F(1, 2), F(1, 2)]


def test_concurrent_solves_match_sequential():
    # modules are immutable values and solvers are pure, so parallel
    # invocation must reproduce the sequential answers
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(t, C5) for t in range(-4, 5)] + [(t, C25) for t in range(-10, 11)]

    def run(job):
        t, ctx = job
        m = realize_one_motive(OneMotiveSpec(lattice_rank=1, elliptic_traces=(t,)), ctx)
        return end_algebra(m).dimension

    sequential = [run(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(run, jobs))
    assert parallel == sequential
