"""Realization constructors, duality, extensions, and numeric invariants."""

import random
from fractions import Fraction

import pytest

from onemotives.crystal import (
    EllipticFilMode,
    FilteredPhiModule,
    OneMotiveSpec,
    check_filtration_stability,
    direct_sum,
    dual,
    extension_module,
    frobenius_char_poly,
    hodge_newton_numbers,
    is_ordinary,
    module_from_jsonable,
    module_to_jsonable,
    newton_slopes_of,
    realize_elliptic,
    realize_lattice,
    realize_one_motive,
    realize_torus,
    scalar_frobenius_analysis,
    spec_from_jsonable,
    spec_to_jsonable,
    split_extension,
    validate_graded,
    zero_module,
)
from onemotives.errors import (
    ContextMismatch,
    HasseViolation,
    ModeMismatch,
    NonSplitExtension,
    VerificationFailure,
)
from onemotives import linalg
from onemotives.linalg import Matrix, PADIC, RATIONAL, mat_mul, to_padic
from onemotives.padic import PadicContext, newton_slopes

C5 = PadicContext(5, 1, 40)
C25 = PadicContext(5, 2, 40)
AUTO = EllipticFilMode.auto()


def frac_matrix(rows):
    return Matrix.from_rows([[Fraction(e) for e in row] for row in rows])


# -- lattice and torus -------------------------------------------------------


def test_lattice_shapes():
    assert realize_lattice(0, C5).dim == 0
    one = realize_lattice(1, C5)
    assert one.phi == Matrix.identity(1)
    assert one.weights == ((0, 1),)
    assert one.fil1.cols == 0
    assert realize_lattice(3, C5).phi == Matrix.identity(3)


def test_torus_shapes():
    t = realize_torus(1, C5)
    assert t.phi == frac_matrix([[5]])
    assert t.weights == ((-2, 1),)
    assert t.fil1 == Matrix.identity(1)
    assert realize_torus(0, C5).dim == 0
    c9 = PadicContext(3, 2, 40)
    t2 = realize_torus(2, c9)
    assert t2.phi == frac_matrix([[9, 0], [0, 9]])


# -- elliptic blocks ----------------------------------------------------------


def test_elliptic_hasse_violation():
    with pytest.raises(HasseViolation):
        realize_elliptic(5, AUTO, C5)


def test_elliptic_mode_mismatch():
    with pytest.raises(ModeMismatch):
        realize_elliptic(1, EllipticFilMode.scalar(), C5)
    with pytest.raises(ModeMismatch):
        realize_elliptic(1, EllipticFilMode.jordan(), C5)
    # irreducible characteristic polynomial has no Q_p eigenline
    with pytest.raises(ModeMismatch):
        realize_elliptic(0, EllipticFilMode.eigenline(0), C5)


def test_elliptic_ordinary_hodge_line_is_slope_one():
    m = realize_elliptic(1, AUTO, C5)
    assert m.weights == ((-1, 2),)
    assert m.fil1.kind == PADIC
    assert check_filtration_stability(m)
    # the eigenvalue on the Hodge line has normalized valuation 1
    v = m.fil1.column(0)
    image = mat_mul(to_padic(m.phi, C5.doubled()), to_padic(m.fil1, C5.doubled())).column(0)
    i = next(i for i, e in enumerate(v) if e.is_resolved)
    ratio = image[i] / v[i].truncate(image[i].prec) if image[i].prec < v[i].prec else image[i] / v[i]
    assert ratio.v == C5.f


def test_elliptic_supersingular_generic_line():
    m = realize_elliptic(0, AUTO, C5)
    assert m.fil1 == frac_matrix([[1], [0]])
    assert not check_filtration_stability(m)


def test_elliptic_scalar_mode():
    m = realize_elliptic(10, EllipticFilMode.scalar(), C25)
    assert m.phi == frac_matrix([[5, 0], [0, 5]])
    assert m.fil1 == frac_matrix([[1], [0]])


def test_elliptic_jordan_mode():
    m = realize_elliptic(10, EllipticFilMode.jordan(), C25)
    assert m.phi == frac_matrix([[5, 1], [0, 5]])


def test_elliptic_repeated_root_auto_uses_eigenline():
    m = realize_elliptic(10, AUTO, C25)
    assert m.phi == linalg.companion(frobenius_char_poly(10, C25))
    assert m.fil1.kind == RATIONAL
    assert check_filtration_stability(m)


def test_elliptic_split_supersingular_eigenline():
    # q = 25, t = 0: T^2 + 25 splits over Q_5 into distinct valuation-1 roots
    m = realize_elliptic(0, AUTO, C25)
    assert m.fil1.kind == PADIC
    assert check_filtration_stability(m)
    assert newton_slopes_of(m) == [Fraction(1, 2), Fraction(1, 2)]


def test_elliptic_explicit_eigenlines_differ():
    a = realize_elliptic(1, EllipticFilMode.eigenline(0), C5)
    b = realize_elliptic(1, EllipticFilMode.eigenline(1), C5)
    stacked = linalg.hstack([to_padic(a.fil1, C5), to_padic(b.fil1, C5)])
    assert linalg.rank(stacked) == 2


# -- whole motives ------------------------------------------------------------


def test_kummer_module_shape():
    m = realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), C5)
    assert m.dim == 2
    assert m.phi == frac_matrix([[1, 0], [0, 5]])
    assert m.weights == ((0, 1), (-2, 1))
    assert m.fil1 == frac_matrix([[0], [1]])


def test_z_to_e_module_shape():
    m = realize_one_motive(OneMotiveSpec(lattice_rank=1, elliptic_traces=(1,)), C5)
    assert m.dim == 3
    assert m.weights == ((0, 1), (-1, 2))
    assert m.phi.at(0, 0) == 1
    assert m.phi_block(1, 2) == linalg.companion(frobenius_char_poly(1, C5))


def test_empty_motive():
    assert realize_one_motive(OneMotiveSpec(), C5).dim == 0


def test_direct_sum_single_is_identity():
    m = realize_torus(1, C5)
    assert direct_sum([m]) is m


def test_direct_sum_reorders_by_weight():
    m = direct_sum([realize_torus(1, C5), realize_lattice(1, C5)])
    assert m.weights == ((0, 1), (-2, 1))
    assert m.phi == frac_matrix([[1, 0], [0, 5]])


def test_direct_sum_elliptic_slopes_are_multiset_union():
    a = realize_elliptic(1, AUTO, C5)
    b = realize_elliptic(0, AUTO, C5)
    s = direct_sum([a, b])
    assert s.dim == 4
    assert newton_slopes_of(s) == sorted(newton_slopes_of(a) + newton_slopes_of(b))


def test_direct_sum_context_mismatch():
    with pytest.raises(ContextMismatch):
        direct_sum([realize_lattice(1, C5), realize_lattice(1, C25)])


# -- duality --------------------------------------------------------------------


def test_dual_lattice_is_torus():
    d = dual(realize_lattice(1, C5))
    assert d.phi == frac_matrix([[5]])
    assert d.weights == ((-2, 1),)
    assert d.fil1.cols == 1


def test_dual_torus_is_lattice():
    d = dual(realize_torus(1, C5))
    assert d.phi == Matrix.identity(1)
    assert d.weights == ((0, 1),)
    assert d.fil1.cols == 0


def test_dual_elliptic_keeps_char_poly():
    m = realize_elliptic(2, AUTO, C5)
    assert linalg.char_poly(dual(m).phi) == linalg.char_poly(m.phi)


def _fil_spans_equal(a: Matrix, b: Matrix) -> bool:
    if a.cols != b.cols:
        return False
    if a.cols == 0:
        return True
    work = PadicContext(a.ctx.p, a.ctx.f, 80) if a.kind == PADIC or b.kind == PADIC else None
    if work is not None:
        a, b = to_padic(a, work), to_padic(b, work)
    return linalg.rank(linalg.hstack([a, b])) == a.cols


@pytest.mark.parametrize(
    "build",
    [
        lambda: realize_lattice(2, C5),
        lambda: realize_torus(1, C5),
        lambda: realize_elliptic(1, AUTO, C5),
        lambda: realize_elliptic(0, AUTO, C5),
        lambda: realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), C5),
        lambda: realize_one_motive(OneMotiveSpec(lattice_rank=1, elliptic_traces=(1,)), C5),
    ],
)
def test_double_dual_is_identity_with_intertwiner(build):
    m = build()
    dd = dual(dual(m))
    assert dd.phi == m.phi
    assert dd.weights == m.weights
    assert linalg.char_poly(dd.phi) == linalg.char_poly(m.phi)
    assert hodge_newton_numbers(dd) == hodge_newton_numbers(m)
    assert _fil_spans_equal(dd.fil1, m.fil1)
    # explicit invertible intertwiner: the identity sits in the commutant
    res = linalg.sylvester_kernel(dd.phi, m.phi)
    vecs = [list(h.entries) for h in res.basis]
    ident = list(Matrix.identity(m.dim).entries)
    stacked = Matrix(len(ident), len(vecs), [vecs[j][i] for i in range(len(ident)) for j in range(len(vecs))])
    assert m.dim == 0 or linalg.solve(stacked, ident) is not None


def test_dual_reflects_slopes():
    for build in (
        lambda: realize_elliptic(1, AUTO, C5),
        lambda: realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), C5),
        lambda: realize_one_motive(OneMotiveSpec(lattice_rank=2, elliptic_traces=(0,), torus_dim=1), C5),
    ):
        m = build()
        reflected = sorted(1 - s for s in newton_slopes_of(m))
        assert newton_slopes_of(dual(m)) == reflected


# -- extension demo ---------------------------------------------------------------


def test_extension_module_shapes():
    for lam, q, ctx in [(0, 5, C5), (3, 5, C5), (1, 2, PadicContext(2, 1, 40))]:
        m = extension_module(lam, ctx)
        assert m.phi == frac_matrix([[1, lam], [0, q]])
        assert not m.graded
        assert m.fil1 == frac_matrix([[0], [1]])


def test_split_extension_frozen_corner():
    # lambda + c(q - 1) = 0 at lambda = 3, q = 5 gives c = -3/4
    g, u = split_extension(extension_module(3, C5))
    assert u == frac_matrix([[1, Fraction(-3, 4)], [0, 1]])
    assert g.phi == frac_matrix([[1, 0], [0, 5]])
    assert g.weights == ((0, 1), (-2, 1))
    # conjugating back reproduces the input exactly
    assert mat_mul(mat_mul(linalg.inverse(u), g.phi), u) == extension_module(3, C5).phi


def test_split_extension_trivial():
    g, u = split_extension(extension_module(0, C5))
    assert u == Matrix.identity(2)
    assert g.phi == frac_matrix([[1, 0], [0, 5]])


def test_split_extension_random_conjugation_identity():
    rng = random.Random(11)
    for q, ctx in [(2, PadicContext(2, 1, 40)), (5, C5), (9, PadicContext(3, 2, 40))]:
        for _ in range(5):
            lam = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            src = extension_module(lam, ctx)
            g, u = split_extension(src)
            assert mat_mul(mat_mul(u, src.phi), linalg.inverse(u)) == g.phi


def test_split_extension_non_split():
    stuck = FilteredPhiModule(
        C5,
        2,
        frac_matrix([[1, 1], [0, 1]]),
        (),
        Matrix.zeros(2, 0),
        label="coincident",
        graded=False,
        split_at=1,
    )
    with pytest.raises(NonSplitExtension):
        split_extension(stuck)


def test_split_extension_checks_the_sylvester_solution(monkeypatch):
    # the spectra {1} and {5} are disjoint, so the Sylvester system must be
    # solvable and its solution must kill the corner
    ext = extension_module(3, C5)
    monkeypatch.setattr(linalg, "solve", lambda system, rhs: None)
    with pytest.raises(VerificationFailure, match="spectra are disjoint"):
        split_extension(ext)
    monkeypatch.setattr(linalg, "solve", lambda system, rhs: [Fraction(0)])
    with pytest.raises(VerificationFailure, match="failed to kill the corner"):
        split_extension(ext)


def test_split_extension_coincident_but_solvable():
    loose = FilteredPhiModule(
        C5,
        2,
        frac_matrix([[1, 0], [0, 1]]),
        (),
        Matrix.zeros(2, 0),
        label="already split",
        graded=False,
        split_at=1,
    )
    g, u = split_extension(loose)
    assert u == Matrix.identity(2)
    assert g.weights == ((0, 2),)


# -- numbers ------------------------------------------------------------------------


def test_newton_slopes_of_examples():
    kummer = realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), C5)
    assert newton_slopes_of(kummer) == [0, 1]
    ss = realize_elliptic(0, AUTO, C5)
    assert newton_slopes_of(ss) == [Fraction(1, 2), Fraction(1, 2)]
    assert newton_slopes_of(realize_lattice(2, C5)) == [0, 0]


def test_hodge_newton_numbers():
    assert hodge_newton_numbers(realize_lattice(3, C5)) == (0, 0)
    assert hodge_newton_numbers(realize_torus(1, C5)) == (1, 1)
    for t in range(-4, 5):
        assert hodge_newton_numbers(realize_elliptic(t, AUTO, C5)) == (1, 1)
    assert hodge_newton_numbers(zero_module(C5)) == (0, 0)


def test_hodge_newton_additive():
    m = realize_one_motive(
        OneMotiveSpec(lattice_rank=2, torus_dim=1, elliptic_traces=(1, 0)), C5
    )
    assert hodge_newton_numbers(m) == (3, 3)


def test_is_ordinary_matches_newton_polygon():
    for p, f in [(2, 1), (3, 1), (5, 1), (5, 2), (7, 1), (3, 3), (2, 3)]:
        ctx = PadicContext(p, f, 40)
        q = ctx.q
        bound = 1
        while (bound + 1) ** 2 <= 4 * q:
            bound += 1
        for t in range(-bound, bound + 1):
            slopes = newton_slopes(frobenius_char_poly(t, ctx), ctx)
            assert is_ordinary(t, ctx) == (slopes == [0, 1])


def test_is_ordinary_examples():
    assert is_ordinary(1, C5)
    assert not is_ordinary(0, C5)
    assert not is_ordinary(10, C25)


def test_scalar_frobenius_analysis():
    c9 = PadicContext(3, 2, 40)
    assert scalar_frobenius_analysis(6, c9) == 3
    assert scalar_frobenius_analysis(1, C5) is None
    assert scalar_frobenius_analysis(-10, C25) == -5


def test_filtration_stability_examples():
    assert check_filtration_stability(realize_torus(1, C5))
    assert check_filtration_stability(realize_elliptic(1, AUTO, C5))
    assert not check_filtration_stability(realize_elliptic(0, AUTO, C5))
    assert not check_filtration_stability(
        realize_elliptic(1, EllipticFilMode.generic(), C5)
    )


# -- validation ---------------------------------------------------------------------


def test_validate_rejects_fil_in_weight_zero():
    bad = FilteredPhiModule(
        C5,
        2,
        frac_matrix([[1, 0], [0, 5]]),
        ((0, 1), (-2, 1)),
        frac_matrix([[1], [0]]),
    )
    with pytest.raises(ValueError):
        validate_graded(bad)


def test_validate_rejects_off_block_entries():
    bad = FilteredPhiModule(
        C5,
        2,
        frac_matrix([[1, 1], [0, 5]]),
        ((0, 1), (-2, 1)),
        frac_matrix([[0], [1]]),
    )
    with pytest.raises(ValueError):
        validate_graded(bad)


def test_validate_rejects_wrong_slopes():
    bad = FilteredPhiModule(C5, 1, frac_matrix([[5]]), ((0, 1),), Matrix.zeros(1, 0))
    with pytest.raises(ValueError):
        validate_graded(bad)


def test_validate_rejects_dependent_fil():
    bad = FilteredPhiModule(
        C5,
        2,
        frac_matrix([[5, 0], [0, 5]]),
        ((-2, 2),),
        frac_matrix([[1, 2], [1, 2]]),
    )
    with pytest.raises(ValueError):
        validate_graded(bad)


def test_one_motive_spec_checks():
    with pytest.raises(HasseViolation):
        realize_one_motive(OneMotiveSpec(elliptic_traces=(7,)), C5)
    demo = realize_one_motive(
        OneMotiveSpec(lattice_rank=1, torus_dim=1, kummer_lambda=Fraction(3)), C5
    )
    assert not demo.graded
    with pytest.raises(ValueError):
        realize_one_motive(
            OneMotiveSpec(lattice_rank=2, torus_dim=1, kummer_lambda=Fraction(3)), C5
        )


def test_abelian_explicit_block():
    spec = OneMotiveSpec(
        lattice_rank=1,
        abelian_explicit=(
            (frac_matrix([[0, -5], [1, 1]]), frac_matrix([[1], [0]])),
        ),
    )
    m = realize_one_motive(spec, C5)
    assert m.dim == 3
    assert m.weights == ((0, 1), (-1, 2))


# -- serialization ---------------------------------------------------------------------


def test_module_serialization_roundtrip():
    for build in (
        lambda: realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), C5),
        lambda: realize_elliptic(1, AUTO, C5),
        lambda: extension_module(Fraction(7, 2), C5),
    ):
        m = build()
        assert module_from_jsonable(module_to_jsonable(m)) == m


def test_spec_serialization_roundtrip():
    spec = OneMotiveSpec(lattice_rank=2, torus_dim=1, elliptic_traces=(1, -2))
    assert spec_from_jsonable(spec_to_jsonable(spec)) == spec
    demo = OneMotiveSpec(lattice_rank=1, torus_dim=1, kummer_lambda=Fraction(-3, 7))
    assert spec_from_jsonable(spec_to_jsonable(demo)) == demo
