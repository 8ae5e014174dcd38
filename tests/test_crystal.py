"""Realization constructors, duality, extensions, and numeric invariants."""

import dataclasses
import math
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
    realize_abelian_block,
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
    PrecisionExhausted,
    VerificationFailure,
)
from onemotives import crystal, linalg, padic
from onemotives.linalg import Matrix, PADIC, RATIONAL, mat_mul, to_padic
from onemotives.padic import (
    PadicContext,
    PadicScalar,
    fraction_valuation,
    from_rational,
    hensel_lift_root,
    newton_slopes,
)

C5 = PadicContext(5, 1, 40)
C25 = PadicContext(5, 2, 40)
AUTO = EllipticFilMode("auto")
ROOT_MODES = (AUTO, EllipticFilMode("eigenline", 0), EllipticFilMode("eigenline", 1))


def _prime_powers(bound: int) -> list[int]:
    primes = [p for p in range(2, bound + 1) if all(p % d for d in range(2, p))]
    return sorted(p**f for p in primes for f in range(1, bound.bit_length()) if p**f <= bound)


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


@pytest.mark.parametrize("realize", (realize_lattice, realize_torus), ids=("lattice", "torus"))
def test_r_copies_equal_the_direct_sum_of_their_atom(realize):
    """lattice(r) and torus(r) are built on their diagonal phi and Fil1, as
    direct_sum([one] * r) builds them: the same module, parts and label,
    and so the same dual.  The sum is not validated; its ``replace`` twin
    holds phi, so its construction validates it, one weight block, and it
    keeps no parts.  Its Fil1 is 0 or everything, so the validation
    certifies it as it certifies the atom."""
    for ctx in (C5, PadicContext(2, 3, 40)):
        for r in range(2, 5):
            m = realize(r, ctx)
            one = m.parts[0][0]
            s = direct_sum([one] * r)
            ref = dataclasses.replace(s, label=m.label)
            assert m == ref and m.parts == s.parts and m.block_invariants == ()
            [(cp, slopes, form)] = ref.block_invariants
            assert cp == linalg.char_poly(m.phi) and slopes == one.block_invariants[0][1] * r
            assert form == linalg.primitive_form(cp)
            assert m.slope_parts is None and ref.slope_parts == one.slope_parts
            assert all(a is one for a, _, _ in m.parts)
            d, d_ref = dual(m), dual(ref)
            assert d == d_ref and d.parts == dual(s).parts


def test_replace_of_a_wide_lattice_reads_its_scalar_char_poly_by_form(monkeypatch):
    """The ``replace`` twin of lattice(96) is validated whole, on phi = I of
    size 96: its characteristic polynomial (T - 1)^96 is read by form, with
    no matrix product."""
    m = realize_lattice(96, C5)
    products = []
    real = linalg.mat_mul
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: products.append((a, b)) or real(a, b))
    twin = dataclasses.replace(m, label="x")
    assert products == [] and not twin.parts
    [(cp, _, _)] = twin.block_invariants
    assert cp == [math.comb(96, k) * (-1) ** (96 - k) for k in range(97)]


# -- elliptic blocks ----------------------------------------------------------


def test_elliptic_hasse_violation():
    with pytest.raises(HasseViolation):
        realize_elliptic(5, AUTO, C5)


def test_elliptic_mode_mismatch():
    with pytest.raises(ModeMismatch):
        realize_elliptic(1, EllipticFilMode("scalar"), C5)
    with pytest.raises(ModeMismatch):
        realize_elliptic(1, EllipticFilMode("jordan"), C5)
    # irreducible characteristic polynomial has no Q_p eigenline
    with pytest.raises(ModeMismatch):
        realize_elliptic(0, EllipticFilMode("eigenline", 0), C5)


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
    m = realize_elliptic(10, EllipticFilMode("scalar"), C25)
    assert m.phi == frac_matrix([[5, 0], [0, 5]])
    assert m.fil1 == frac_matrix([[1], [0]])


def test_elliptic_jordan_mode():
    m = realize_elliptic(10, EllipticFilMode("jordan"), C25)
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
    a = realize_elliptic(1, EllipticFilMode("eigenline", 0), C5)
    b = realize_elliptic(1, EllipticFilMode("eigenline", 1), C5)
    stacked = linalg.hstack([to_padic(a.fil1, C5), to_padic(b.fil1, C5)])
    assert linalg.rank(stacked) == 2


@pytest.mark.parametrize("q", [2**f for f in range(1, 9)] + [3, 5, 9, 25, 27, 49, 125, 243])
def test_ordinary_eigenlines_share_auto_root_finder(q):
    # every mode lifts the unit root by Hensel when p does not divide t, so
    # eigenline:1 is auto's line, and eigenline:0 realizes at p = 2 as well
    ctx = PadicContext.from_q(q)
    bound = math.isqrt(4 * q)
    for t in range(-bound, bound + 1):
        if not is_ordinary(t, ctx):
            continue
        auto = realize_elliptic(t, AUTO, ctx)
        assert realize_elliptic(t, EllipticFilMode("eigenline", 1), ctx).fil1 == auto.fil1, (q, t)
        realize_elliptic(t, EllipticFilMode("eigenline", 0), ctx)


def test_closed_form_hodge_line_is_the_kernel_of_phi_minus_lambda():
    # the Hodge line span(1, -1/mu) from the other root mu is, entry for
    # entry, the eigenline that eliminating phi - lam I at 2N gives.  At
    # q = 64, t = +-10, a 2-adic square root one digit short of its claim
    # gave a lam whose eigenline came out 0-dimensional
    checked = 0
    for q in _prime_powers(64):
        ctx = PadicContext.from_q(q)
        work = ctx.doubled()
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            exact = scalar_frobenius_analysis(t, ctx)
            roots = None if exact is not None else crystal._padic_roots(t, work)
            for mode in ROOT_MODES:
                if exact is None and roots is None:
                    continue  # irreducible over Q_p: auto is span(e1), eigenline:K raises
                m = realize_elliptic(t, mode, ctx)
                if exact is not None:
                    assert m.fil1.kind == RATIONAL
                    ker = linalg.kernel(linalg.shift_diagonal(m.phi, -exact))
                else:
                    k = (1 if is_ordinary(t, ctx) else 0) if mode == AUTO else mode.root_index
                    lam = roots[k]
                    residual = lam * lam - from_rational(t, work) * lam + from_rational(q, work)
                    assert residual.negligible(work.threshold), (q, t, mode)
                    ker = linalg.kernel(linalg.shift_diagonal(to_padic(m.phi, work), -lam))
                assert ker.dimension == 1 and ker.basis[0] == m.fil1.entries, (q, t, mode)
                checked += 1
    assert checked == 1449


def test_ordinary_roots_by_vieta_equal_the_unit_root_and_q_over_it():
    # the other root is t - u read from u to N + f digits, digit for digit q / u
    checked = 0
    for q in _prime_powers(256):
        work = PadicContext.from_q(q).doubled()
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            if not is_ordinary(t, work):
                continue
            u = hensel_lift_root(frobenius_char_poly(t, work), t % work.p, work)
            want = [u, from_rational(q, work) / u]
            got = crystal._padic_roots(t, work)
            assert [(r.v, r.unit, r.prec) for r in got] == [(r.v, r.unit, r.prec) for r in want], (q, t)
            checked += 1
    assert checked == 2408


def test_hodge_line_is_span_of_one_and_minus_the_other_roots_reciprocal():
    # on an ordinary trace -1/mu is read as -lam/q; it must equal the reciprocal
    checked = 0
    for q in _prime_powers(256):
        ctx = PadicContext.from_q(q)
        work = ctx.doubled()
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            if scalar_frobenius_analysis(t, ctx) is not None:
                continue
            roots = crystal._padic_roots(t, work)
            if roots is None:
                continue
            for mode in ROOT_MODES:
                k = (1 if is_ordinary(t, ctx) else 0) if mode == AUTO else mode.root_index
                line = crystal._elliptic_hodge_line(t, mode, ctx)
                assert line.entries[1] == -roots[1 - k].reciprocal(), (q, t, mode)
                checked += 1
    assert checked == 7578


def test_ordinary_hodge_line_takes_one_modular_inverse_modulo_p(monkeypatch):
    # Hensel carries 1/f'(r), and Vieta gives the other root and 1/mu, so no
    # inverse is taken modulo a wider power than p
    moduli = []
    real = padic.modular_inverse

    def recorded(a, m):
        moduli.append(m)
        return real(a, m)

    monkeypatch.setattr(padic, "modular_inverse", recorded)
    cases = 0
    for q in (5, 25, 101, 243, 251):
        ctx = PadicContext.from_q(q)
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            if not is_ordinary(t, ctx):
                continue
            for mode in ROOT_MODES:
                moduli.clear()
                crystal._elliptic_hodge_line(t, mode, ctx)
                assert moduli == [ctx.p], (q, t, mode)
                cases += 1
    assert cases == 504


def test_slope_certificate_is_issued_exactly_on_non_isoclinic_eigenlines():
    # the Newton polygon of T^2 - tT + q is (0, f), (1, v_p(t)), (2, 0): two
    # distinct slopes v/f < 1 - v/f exactly when 2 v < f, and then the roots
    # in ``_padic_roots`` order (by valuation) have those slopes
    tagged = untagged = 0
    for q in _prime_powers(64):
        ctx = PadicContext.from_q(q)
        p, f = ctx.p, ctx.f
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            v = math.inf if t == 0 else next(k for k in range(f + 1) if t % p ** (k + 1))
            for mode in ROOT_MODES:
                want = None
                if 2 * v < f:
                    k = (1 if v == 0 else 0) if mode == AUTO else mode.root_index
                    want = frozenset({[Fraction(v, f), 1 - Fraction(v, f)][k]})
                try:
                    m = realize_elliptic(t, mode, ctx)
                except ModeMismatch:
                    assert want is None and mode != AUTO, (q, t, mode)
                    continue
                assert m.slope_parts == want, (q, t, mode)
                tagged, untagged = tagged + (want is not None), untagged + (want is None)
    assert (tagged, untagged) == (1404, 91)


def test_slope_certificate_is_derived_at_validation_and_kept_by_replace():
    # lattice 2 and torus 2 are two copies of one certified rank-1 atom
    assert realize_lattice(2, C5).parts[0][0].slope_parts == frozenset()
    assert realize_torus(2, C5).parts[0][0].slope_parts == frozenset({1})
    atom = realize_elliptic(1, AUTO, C5)
    assert atom.slope_parts == frozenset({1})
    assert dataclasses.replace(atom, label="x").slope_parts == frozenset({1})
    # the certificate is not part of ==
    assert dataclasses.replace(atom) == atom and dataclasses.replace(atom).slope_parts == frozenset({1})
    assert module_from_jsonable(module_to_jsonable(atom)).slope_parts == frozenset({1})
    # the dual's Fil1 is the annihilator, the part of slopes 1 - s for the
    # slopes s outside S: the slope-0 line's dual is the slope-0 line
    unit = realize_elliptic(1, EllipticFilMode("eigenline", 0), C5)
    assert unit.slope_parts == dual(unit).slope_parts == frozenset({0})
    assert dual(atom).slope_parts == dual(dual(atom)).slope_parts == frozenset({1})
    # Fil1 = span(e2) of lattice 1 + torus 1 as one atom is the slope-1 part
    kummer = realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), C5)
    assert module_from_jsonable(module_to_jsonable(kummer)).slope_parts == frozenset({1})
    for m in (
        direct_sum([realize_lattice(1, C5), atom]),  # a sum: its atoms carry theirs
        realize_elliptic(0, AUTO, C25),  # isoclinic, slopes 1/2 and 1/2
        realize_elliptic(1, EllipticFilMode("generic"), C5),  # span(e1) is not phi-stable
    ):
        assert m.slope_parts is None, m.label


def test_slope_certificate_checks_the_roots_it_is_built_from(monkeypatch):
    # on an ordinary trace the line span(1, -lam/q) is the eigenline at lam
    # only when lam is a root of T^2 - tT + q; a lam wrong in its fourth
    # digit leaves the line uncertified, and the realization raises
    real = crystal._padic_roots

    def perturbed(trace, work):
        mu, lam = real(trace, work)
        return [mu, lam + from_rational(5**3, work)]

    monkeypatch.setattr(crystal, "_padic_roots", perturbed)
    with pytest.raises(PrecisionExhausted, match="roots miss"):
        realize_elliptic(1, AUTO, C5)


def test_slope_certificate_reads_phi_over_its_common_denominator():
    # phi = [[1, 1/5], [0, 5]] has slopes 0 and 1: e1 is the slope-0 line,
    # (1, 20) the slope-1 line, over Q and over Q_p, and phi keeps no e2.
    # Over Q_p, (1, 20 + 5^k) is kept only when 5^k is past the threshold
    phi, work = frac_matrix([[1, Fraction(1, 5)], [0, 5]]), C5.doubled()
    for fil, want in (([1, 0], frozenset({0})), ([1, 20], frozenset({1})), ([0, 1], None)):
        line = frac_matrix([[x] for x in fil])
        for f in (line, to_padic(line, work)):
            assert realize_abelian_block(phi, f, C5).slope_parts == want, (fil, f.kind)
    for k, want in ((60, None), (72, None), (79, frozenset({1}))):
        line = Matrix(2, 1, [from_rational(1, work), from_rational(20 + 5**k, work)], work)
        assert realize_abelian_block(phi, line, C5).slope_parts == want, k


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
    assert linalg.submatrix(m.phi, range(1, 3), range(1, 3)) == linalg.companion(frobenius_char_poly(1, C5))


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


MODES = tuple(
    EllipticFilMode.parse(m) for m in ("auto", "generic", "eigenline:0", "eigenline:1", "scalar", "jordan")
)


def _summand_pool(ctx, rng):
    """Lattice, torus and elliptic blocks in every mode the field accepts (at
    a few seeded traces), their duals, and one split extension."""
    pool = [realize_lattice(1, ctx), realize_lattice(2, ctx), realize_torus(1, ctx), realize_torus(2, ctx)]
    bound = math.isqrt(4 * ctx.q)
    traces = {-bound, bound, 0, *rng.sample(range(-bound, bound + 1), 3)}
    for t in sorted(traces):
        for mode in MODES:
            try:
                pool.append(realize_elliptic(t, mode, ctx))
            except ModeMismatch:
                pass
    pool += [dual(m) for m in pool]
    pool.append(split_extension(extension_module(Fraction(rng.randint(-9, 9), 7), ctx))[0])
    return pool


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9, 25, 49))
def test_direct_sum_of_validated_summands_passes_validation(q):
    ctx = PadicContext.from_q(q)
    rng = random.Random(q)
    pool = _summand_pool(ctx, rng)
    for _ in range(60):
        parts = rng.choices(pool, k=rng.randint(2, 4))
        m = direct_sum(parts)
        validate_graded(m)
        assert m.dim == sum(x.dim for x in parts)
        assert m.fil1.cols == sum(x.fil1.cols for x in parts)


def test_direct_sum_does_not_validate_again(monkeypatch):
    parts = [realize_lattice(1, C5), realize_elliptic(1, AUTO, C5), realize_torus(1, C5)]
    calls = []
    monkeypatch.setattr(crystal, "validate_graded", calls.append)
    m = direct_sum(parts)
    assert m.weights == ((0, 1), (-1, 2), (-2, 1)) and calls == []
    # dual validates each atom's dual; the sum of those is not validated again
    d = dual(m)
    assert [x.label for x in calls] == ["dual(lattice(1))", "dual(elliptic(t=1))", "dual(torus(1))"]
    assert d.label == "dual(lattice(1) + elliptic(t=1) + torus(1))" and all(x is not d for x in calls)
    # split_extension and the realize_* constructors still validate, torus 2
    # only its one rank-1 atom
    assert split_extension(extension_module(3, C5))[0] is calls[-1]
    assert realize_torus(2, C5).parts[0][0] is calls[-1] and len(calls) == 5


def _assert_parts_cut_out_their_atoms(m):
    """Every atom's phi and Fil1 sit at its basis positions and Fil1
    columns, and the parts cover the basis and Fil1 exactly once."""
    rows = sorted(i for _, r, _ in m.parts for i in r)
    cols = sorted(j for _, _, c in m.parts for j in c)
    assert rows == list(range(m.dim)) and cols == list(range(m.fil1.cols))
    for atom, r, c in m.parts:
        assert not atom.parts
        assert linalg.submatrix(m.phi, r, r) == atom.phi
        fil = to_padic(atom.fil1, m.fil1.ctx) if m.fil1.kind == PADIC else atom.fil1
        assert linalg.submatrix(m.fil1, r, c) == fil
        others = [i for i in range(m.dim) if i not in r]
        assert linalg.is_zero(linalg.submatrix(m.phi, others, r))
        assert linalg.is_zero(linalg.submatrix(m.fil1, others, c))


def test_parts_of_a_nested_sum_and_its_dual_point_at_their_atoms():
    lat, ell, tor = realize_lattice(1, C5), realize_elliptic(1, AUTO, C5), realize_torus(1, C5)
    m = direct_sum([direct_sum([tor, ell]), lat, ell])
    # weight 0: lat; weight -1: ell from the inner sum, then ell; weight -2: tor.
    # Fil1 columns: tor, ell (inner sum), then lat's none and the outer ell
    assert [(a, r, c) for a, r, c in m.parts] == [
        (lat, (0,), range(2, 2)), (ell, (1, 2), range(1, 2)), (ell, (3, 4), range(2, 3)), (tor, (5,), range(0, 1))
    ]
    assert m.parts[1][0] is m.parts[2][0] is ell
    _assert_parts_cut_out_their_atoms(m)
    d = dual(m)
    assert [(a.label, r) for a, r, _ in d.parts] == [
        ("dual(torus(1))", (0,)), ("dual(elliptic(t=1))", (1, 2)), ("dual(elliptic(t=1))", (3, 4)),
        ("dual(lattice(1))", (5,)),
    ]
    # one dual per distinct atom
    assert d.parts[1][0] is d.parts[2][0]
    _assert_parts_cut_out_their_atoms(d)
    # the same module as the dual of the whole sum taken as one atom
    assert d == dual(dataclasses.replace(m, parts=()))


def test_dual_validates_its_output():
    m = FilteredPhiModule(C5, 1, frac_matrix([[5]]), ((-2, 1),), Matrix.zeros(1, 0))
    validate_graded(m)
    with pytest.raises(ValueError, match="Fil1 meets the weight-0 block nontrivially"):
        dual(m)


def test_direct_sum_context_mismatch():
    with pytest.raises(ContextMismatch):
        direct_sum([realize_lattice(1, C5), realize_lattice(1, C25)])


@pytest.mark.parametrize("ctx", (C5, C25), ids=("q5", "q25"))
def test_flat_realization_equals_the_nested_build(ctx, monkeypatch):
    """realize_one_motive is one sum over its atoms, and that is the module
    direct_sum of lattice(r), the blocks and torus(d) builds: same label,
    weights, dimension, JSON, parts and shared atoms."""
    abelian = _abelian_4x4(random.Random(ctx.q), ctx)
    sums, _sum = [], crystal._sum
    monkeypatch.setattr(crystal, "_sum", lambda ms, label: sums.append(label) or _sum(ms, label))
    for r in range(4):
        for d in range(4):
            for traces in ((), (1,), (1, 1), (1, 0)):
                for blocks in ((), (abelian,)):
                    spec = OneMotiveSpec(lattice_rank=r, torus_dim=d, elliptic_traces=traces, abelian_explicit=blocks)
                    sums.clear()
                    m = realize_one_motive(spec, ctx)
                    assert len(sums) <= 1 and sums == ([m.label] if m.parts else []), spec
                    elliptic = {t: realize_elliptic(t, AUTO, ctx) for t in dict.fromkeys(traces)}
                    nested = [realize_lattice(r, ctx)] * bool(r) + [elliptic[t] for t in traces]
                    nested += [realize_abelian_block(phi, fil1, ctx) for phi, fil1 in blocks]
                    nested += [realize_torus(d, ctx)] * bool(d)
                    ref = direct_sum(nested) if nested else zero_module(ctx)
                    assert (m.label, m.weights, m.dim) == (ref.label, ref.weights, ref.dim), spec
                    assert module_to_jsonable(m) == module_to_jsonable(ref), spec
                    shape = [(a.label, tuple(p), c) for a, p, c in m.atoms()]
                    assert shape == [(a.label, tuple(p), c) for a, p, c in ref.atoms()], spec
                    # every copy of a label is one atom object
                    for label, _, _ in shape:
                        assert len({id(a) for a, _, _ in m.atoms() if a.label == label}) == 1, spec


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
    vecs = linalg.kernel(linalg.sylvester(dd.phi, m.phi)).basis
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


# -- closed forms against elimination --------------------------------------------


def _eliminated_dual(m):
    """The Cartier dual of an atom by elimination: (phi^T)^-1 by
    linalg.solve_many on the identity's columns, the annihilator of Fil1 as
    the kernel of Fil1^T; one weight block, so no reordering."""
    n, t = m.dim, linalg.transpose(m.phi)
    cols = linalg.solve_many(t, [[Fraction(i == j) for i in range(n)] for j in range(n)])
    phi = linalg.mat_scale(Fraction(m.ctx.q), Matrix(n, n, [cols[j][i] for i in range(n) for j in range(n)]))
    ker = linalg.kernel(linalg.transpose(m.fil1))
    fil1 = Matrix(n, ker.dimension, [v[i] for i in range(n) for v in ker.basis], m.fil1.ctx)
    ((w, d),) = m.weights
    return FilteredPhiModule(m.ctx, n, phi, ((-2 - w, d),), fil1, f"dual({m.label})")


def _assert_same_module(m, ref, polys):
    # Matrix == compares the context and every entry; a p-adic entry's
    # == compares its valuation, unit and precision
    assert m == ref, m.label
    assert m.fil1.ctx == ref.fil1.ctx and tuple(cp for cp, _, _ in m.block_invariants) == polys and m.parts == ref.parts == ()


def test_built_in_atoms_and_their_duals_equal_the_eliminated_route():
    """Every built-in atom over every q <= 256, at every admissible trace
    and every fil mode that realizes, and its dual, equal the modules the
    generic route builds: a companion filled entry by entry, Fil1 of rank
    1 by elimination, the inverse by linalg.solve and the annihilator by
    linalg.kernel.  The Hodge line is the realized one, its rank checked by
    elimination.  Weight-block polynomials are T^2 - tT + q (scalar and
    jordan have t^2 = 4q), T - 1 and T - q, and the dual swaps the last two."""
    modes = [EllipticFilMode.parse(x) for x in ("auto", "generic", "eigenline:0", "eigenline:1", "scalar", "jordan")]
    built = 0
    for q in _prime_powers(256):
        ctx = PadicContext.from_q(q)
        one, t_q = [Fraction(-1), Fraction(1)], [Fraction(-q), Fraction(1)]
        lat, tor = realize_lattice(1, ctx), realize_torus(1, ctx)
        _assert_same_module(lat, FilteredPhiModule(ctx, 1, Matrix.identity(1), ((0, 1),), None, "lattice(1)"), (one,))
        _assert_same_module(tor, FilteredPhiModule(ctx, 1, frac_matrix([[q]]), ((-2, 1),), Matrix.identity(1), "torus(1)"), (t_q,))
        _assert_same_module(dual(lat), _eliminated_dual(lat), (t_q,))
        _assert_same_module(dual(tor), _eliminated_dual(tor), (one,))
        for t in range(-math.isqrt(4 * q), math.isqrt(4 * q) + 1):
            companion = Matrix.zeros(2, 2)
            companion.entries[1:4] = [Fraction(-q), Fraction(1), Fraction(t)]
            phis = {"scalar": frac_matrix([[Fraction(t, 2), 0], [0, Fraction(t, 2)]]), "jordan": frac_matrix([[Fraction(t, 2), 1], [0, Fraction(t, 2)]])}
            polys = (frobenius_char_poly(t, ctx),)
            for mode in modes:
                try:
                    m = realize_elliptic(t, mode, ctx)
                except ModeMismatch:
                    continue
                built += 1
                assert linalg.rank(m.fil1) == 1
                ref = FilteredPhiModule(ctx, 2, phis.get(mode.kind, companion), ((-1, 2),), m.fil1, m.label)
                _assert_same_module(m, ref, polys)
                _assert_same_module(dual(m), _eliminated_dual(m), polys)
    assert built == 10420


def test_built_in_realization_and_its_dual_run_no_elimination(monkeypatch):
    """Built-in atoms, their r-copy sums and their duals are built without
    one _rref call: every Fil1 rank, inverse and annihilator they need is
    read by form.  An explicit abelian block is still eliminated."""
    rref, calls = linalg._rref, []
    monkeypatch.setattr(linalg, "_rref", lambda *a, **k: calls.append(a[1]) or rref(*a, **k))
    modes = [EllipticFilMode.parse(x) for x in ("auto", "generic", "eigenline:0", "scalar", "jordan")]
    for ctx, traces in ((C5, (1, 0, -4, 2)), (C25, (10, 0, 5, 3)), (PadicContext(2, 2, 40), (4, 0, 1, 2))):
        for mode in modes:
            try:
                m = realize_one_motive(OneMotiveSpec(lattice_rank=3, torus_dim=2, elliptic_traces=traces), ctx, mode)
            except ModeMismatch:
                continue
            assert calls == [], (ctx, mode)
            dual(m)
            assert calls == [], (ctx, mode)
    realize_abelian_block(frac_matrix([[0, -5], [1, 1]]), frac_matrix([[1, 0], [0, 1]]), C5)
    assert calls == [2]


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


def _two_block_module(a, b, corner):
    k, r = a.rows, b.rows
    rows = [a.row(i) + corner[i] for i in range(k)]
    rows += [[Fraction(0)] * k + b.row(i) for i in range(r)]
    n = k + r
    return FilteredPhiModule(
        C5, n, frac_matrix(rows), (), Matrix.zeros(n, 0), label="two blocks", graded=False, split_at=k
    )


def test_split_extension_two_by_two_blocks():
    # 2x2 blocks, where row-major and column-major order of the corner differ
    a = linalg.companion([5, -1, 1])
    src = _two_block_module(a, frac_matrix([[5, 0], [0, 5]]), [[1, 2], [3, 4]])
    g, u = split_extension(src)
    assert g.weights == ((-1, 2), (-2, 2))
    assert u == frac_matrix(
        [
            [1, 0, Fraction(11, 25), Fraction(12, 25)],
            [0, 1, Fraction(-16, 25), Fraction(-22, 25)],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
    )
    assert mat_mul(mat_mul(u, src.phi), linalg.inverse(u)) == g.phi


def test_split_extension_non_split_two_by_two_blocks():
    # two rank-2 lattice blocks: A C - C B = 0 never reaches the corner E11
    i2 = Matrix.identity(2)
    with pytest.raises(NonSplitExtension):
        split_extension(_two_block_module(i2, i2, [[1, 0], [0, 0]]))


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


def test_split_extension_reorders_a_lower_weight_top_block():
    # [[q, lam], [0, 1]]: the torus block sits on top, so the split module
    # puts the lattice basis vector first; 5c - c = 3 gives c = 3/4
    src = FilteredPhiModule(
        C5, 2, frac_matrix([[5, 3], [0, 1]]), (), frac_matrix([[1], [1]]),
        label="torus over lattice", graded=False, split_at=1,
    )
    g, u = split_extension(src)
    assert u == frac_matrix([[1, Fraction(3, 4)], [0, 1]])
    assert g.weights == ((0, 1), (-2, 1))
    assert g.phi == frac_matrix([[1, 0], [0, 5]])
    # U carries Fil1 to (7/4, 1), which the reordering turns into (1, 7/4)
    assert g.fil1 == frac_matrix([[1], [Fraction(7, 4)]])


def test_direct_sum_places_blocks_by_weight():
    torus, elliptic, lattice = realize_torus(1, C5), realize_elliptic(1, AUTO, C5), realize_lattice(1, C5)
    m = direct_sum([torus, elliptic, lattice])
    (e00, e01), (e10, e11) = elliptic.phi.row(0), elliptic.phi.row(1)
    assert m.weights == ((0, 1), (-1, 2), (-2, 1))
    assert m.phi == frac_matrix([[1, 0, 0, 0], [0, e00, e01, 0], [0, e10, e11, 0], [0, 0, 0, 5]])
    # Fil1 columns keep the summand order (torus, elliptic); the rational
    # torus column is promoted to the elliptic line's doubled precision
    work = C5.doubled()
    z, one = PadicScalar.exact_zero(5), PadicScalar.one(5, work.precision)
    line = elliptic.fil1.column(0)
    assert m.fil1 == Matrix(4, 2, [z, z, z, line[0], z, line[1], one, z], work)
    assert m.label == "torus(1) + elliptic(t=1) + lattice(1)"


def _block_diag(mats, ctx):
    """The block-diagonal matrix of ``mats``, all over ``ctx``'s field."""
    rows, cols = sum(x.rows for x in mats), sum(x.cols for x in mats)
    out, r0, c0 = Matrix.zeros(rows, cols, ctx).entries, 0, 0
    for x in mats:
        for i in range(x.rows):
            out[(r0 + i) * cols + c0 : (r0 + i) * cols + c0 + x.cols] = x.row(i)
        r0, c0 = r0 + x.rows, c0 + x.cols
    return Matrix(rows, cols, out, ctx)


def test_a_sum_is_placed_once_and_writes_the_json_of_its_dense_twin(monkeypatch):
    """A sum holds its parts; reading phi or Fil1 places both, once, and its
    JSON is that of the dense module.  L2 + E(1) + T2, with an exact and
    with a p-adic Hodge line, against the block-diagonal of its atoms (in
    weight order already) and against its dataclasses.replace twin with no
    parts."""
    placed, place = [], crystal._place
    monkeypatch.setattr(crystal, "_place", lambda m: placed.append(m.label) or place(m))
    spec = OneMotiveSpec(lattice_rank=2, elliptic_traces=(1,), torus_dim=2)
    for mode, work in ((EllipticFilMode("generic"), None), (AUTO, C5.doubled())):
        m = realize_one_motive(spec, C5, mode)
        assert "phi" not in vars(m) and "fil1" not in vars(m) and placed == []
        atoms = [a for a, _, _ in m.parts]
        fils = [to_padic(a.fil1, work) if work else a.fil1 for a in atoms]
        ref = FilteredPhiModule(C5, 6, _block_diag([a.phi for a in atoms], None), m.weights, _block_diag(fils, work), m.label)
        assert module_to_jsonable(m) == module_to_jsonable(ref) and m.fil1.ctx == work
        twin = dataclasses.replace(m, parts=())
        assert module_to_jsonable(twin) == module_to_jsonable(m) and twin == m == ref and not twin.parts
        assert placed == [m.label]
        placed.clear()


def test_validation_keeps_each_blocks_slopes_and_primitive_form(monkeypatch):
    """validate_graded keeps each weight block's Newton slopes and primitive
    integer form beside its polynomial; newton_slopes_of and the Hom gate
    read them and compute neither.  A dense twin is validated when
    ``replace`` builds it, which computes both for each of its 3 weight
    blocks, and is then read like any module."""
    from onemotives.homsolver import hom_space

    m = realize_one_motive(OneMotiveSpec(lattice_rank=2, elliptic_traces=(1, 2), torus_dim=1), C5)
    for a, _, _ in m.parts:
        assert all(slopes == newton_slopes(cp, C5) for cp, slopes, _ in a.block_invariants)
        assert all(form == linalg.primitive_form(cp) for cp, _, form in a.block_invariants)
    calls, form = [], linalg.primitive_form
    monkeypatch.setattr(crystal, "newton_slopes", lambda *args: calls.append(args) or newton_slopes(*args))
    monkeypatch.setattr(linalg, "primitive_form", lambda h: calls.append(h) or form(h))
    slopes = newton_slopes_of(m)
    assert slopes == [0, 0, 0, 0, 1, 1, 1] and hom_space(m, m).dimension == 4 + 2 + 2 + 1 and calls == []
    twin = dataclasses.replace(m, parts=())
    assert len(calls) == 6
    assert newton_slopes_of(twin) == slopes and len(calls) == 6


def test_invariants_are_read_from_construction_alone(monkeypatch):
    """Every module that holds phi has its block invariants once built, so
    reading slopes, Hodge and Newton numbers or End computes no
    characteristic polynomial: on a sum of atoms, its dense twin, the
    non-graded extension and an atom with a generic Hodge line."""
    from onemotives.homsolver import hom_space

    m = realize_one_motive(OneMotiveSpec(lattice_rank=2, elliptic_traces=(1, 2), torus_dim=1), C5)
    generic = realize_elliptic(0, EllipticFilMode("generic"), C5)
    modules = [m, dataclasses.replace(m, parts=()), extension_module(3, C5), generic]
    calls, char_poly = [], linalg.char_poly
    monkeypatch.setattr(linalg, "char_poly", lambda x: calls.append(x) or char_poly(x))
    for x in modules:
        newton_slopes_of(x), hodge_newton_numbers(x), hom_space(x, x)
    assert calls == []


def test_a_non_graded_module_keeps_the_invariants_of_its_whole_phi():
    # phi = [[1, 3], [0, 5]]: T^2 - 6T + 5, roots 1 and 5
    cp = [Fraction(5), Fraction(-6), Fraction(1)]
    assert extension_module(3, C5).block_invariants == ((cp, [Fraction(0), Fraction(1)], [5, -6, 1]),)


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
        realize_elliptic(1, EllipticFilMode("generic"), C5)
    )


def test_filtration_stability_raises_when_the_rank_flips_between_precisions(monkeypatch):
    """A p-adic Fil1 is tested at N and again at 2N; ranks that differ
    raise, naming both."""
    m = realize_elliptic(1, AUTO, C5)
    assert m.fil1.kind == PADIC
    real, precisions = linalg.rank, []

    def rank(x):
        precisions.append(x.ctx.precision)
        return real(x) + (x.ctx.precision > C5.precision)

    monkeypatch.setattr(linalg, "rank", rank)
    with pytest.raises(PrecisionExhausted) as info:
        check_filtration_stability(m)
    assert str(info.value) == "filtration stability rank flipped between precisions (1 vs 2)"
    assert precisions == [C5.precision, C5.doubled().precision]


# -- validation ---------------------------------------------------------------------


def test_validate_rejects_fil_in_weight_zero():
    with pytest.raises(ValueError):
        FilteredPhiModule(
            C5,
            2,
            frac_matrix([[1, 0], [0, 5]]),
            ((0, 1), (-2, 1)),
            frac_matrix([[1], [0]]),
        )


def test_validate_rejects_off_block_entries():
    with pytest.raises(ValueError):
        FilteredPhiModule(
            C5,
            2,
            frac_matrix([[1, 1], [0, 5]]),
            ((0, 1), (-2, 1)),
            frac_matrix([[0], [1]]),
        )


def test_validate_rejects_wrong_slopes():
    with pytest.raises(ValueError):
        FilteredPhiModule(C5, 1, frac_matrix([[5]]), ((0, 1),), Matrix.zeros(1, 0))


@pytest.mark.parametrize(
    "weight, entry, message",
    [
        (0, 5, "weight 0 block has slopes [Fraction(1, 1)], expected all 0"),
        (-1, 25, "weight -1 block has slopes [Fraction(2, 1)] outside [0, 1]"),
        (-2, 1, "weight -2 block has slopes [Fraction(0, 1)], expected all 1"),
    ],
)
def test_slope_rules_name_the_weight_and_the_slopes(weight, entry, message):
    with pytest.raises(ValueError) as err:
        FilteredPhiModule(C5, 1, frac_matrix([[entry]]), ((weight, 1),), Matrix.zeros(1, 0))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "build, change, message",
    [
        (lambda: realize_elliptic(1, AUTO, C5), {"phi": Matrix.zeros(2, 2)}, "phi is singular"),
        (lambda: realize_lattice(1, C5), {"phi": Matrix(1, 1, [5])},
         "weight 0 block has slopes [Fraction(1, 1)], expected all 0"),
        (lambda: realize_lattice(1, C5), {"fil1": Matrix.identity(1)}, "Fil1 meets the weight-0 block nontrivially"),
    ],
    ids=("singular", "slopes", "fil1"),
)
def test_replace_refuses_what_the_constructors_refuse(build, change, message):
    m = build()
    with pytest.raises(ValueError) as err:
        dataclasses.replace(m, **change)
    assert str(err.value) == message


def _module(weights, phi, fil1=None, graded=True):
    phi = frac_matrix(phi)
    fil1 = frac_matrix(fil1) if fil1 else Matrix.zeros(phi.rows, 0)
    return FilteredPhiModule(C5, phi.rows, phi, weights, fil1, graded=graded, split_at=None if graded else 1)


@pytest.mark.parametrize(
    "weights, phi, fil1, message",
    [
        # one weight block
        ((), [[1, 0], [0, 5]], None, "validate_graded on a non-graded module"),
        (((0, 2),), [[1]], None, "weight blocks ((0, 2),) do not fill dimension 1"),
        (((1, 1),), [[1]], None, "weights [1] are not strictly decreasing within (0, -1, -2)"),
        # T has slope infinity at weight 0: singular is reported first
        (((0, 1),), [[0]], None, "phi is singular"),
        (((-2, 1),), [[5]], [[1, 1]], "fil1 has more columns than the dimension"),
        # a zero column also meets the weight-0 block: the basis is checked first
        (((0, 1),), [[1]], [[0]], "fil1 generators are linearly dependent"),
        (((0, 1),), [[1]], [[1]], "Fil1 meets the weight-0 block nontrivially"),
        # two or three weight blocks
        (((0, 1), (-2, 0)), [[1]], None, "weight blocks ((0, 1), (-2, 0)) do not fill dimension 1"),
        (((0, 1), (-2, 2)), [[1, 0], [0, 5]], None, "weight blocks ((0, 1), (-2, 2)) do not fill dimension 2"),
        (((-2, 1), (0, 1)), [[5, 0], [0, 1]], None, "weights [-2, 0] are not strictly decreasing within (0, -1, -2)"),
        (((0, 1), (0, 1)), [[1, 0], [0, 1]], None, "weights [0, 0] are not strictly decreasing within (0, -1, -2)"),
        (((0, 1), (-2, 1)), [[1, 0], [1, 5]], [[0], [1]], "phi is not block-diagonal for the stated grading"),
        # the weight-0 block's slope 1 would fail too: singular comes first
        (((0, 1), (-2, 1)), [[5, 0], [0, 0]], None, "phi is singular"),
        (((0, 1), (-2, 1)), [[1, 0], [0, 1]], None, "weight -2 block has slopes [Fraction(0, 1)], expected all 1"),
        (((0, 1), (-1, 2), (-2, 1)), [[1, 0, 0, 0], [0, 0, -125, 0], [0, 1, 0, 0], [0, 0, 0, 5]], None,
         "weight -1 block has slopes [Fraction(3, 2), Fraction(3, 2)] outside [0, 1]"),
        (((0, 1), (-2, 1)), [[1, 0], [0, 5]], [[1, 0, 0], [0, 1, 0]], "fil1 has more columns than the dimension"),
        (((0, 1), (-2, 1)), [[1, 0], [0, 5]], [[1, 2], [0, 0]], "fil1 generators are linearly dependent"),
        (((0, 1), (-2, 1)), [[1, 0], [0, 5]], [[1], [0]], "Fil1 meets the weight-0 block nontrivially"),
    ],
)
def test_every_validation_message_is_pinned(weights, phi, fil1, message):
    # a graded module is refused by its construction, a non-graded one by
    # validate_graded itself
    with pytest.raises(ValueError) as err:
        validate_graded(_module(weights, phi, fil1, graded=bool(weights)))
    assert str(err.value) == message


def test_split_extension_rejects_a_block_of_no_weight():
    src = FilteredPhiModule(
        C5, 2, frac_matrix([[25, 1], [0, 1]]), (), Matrix.zeros(2, 0), graded=False, split_at=1
    )
    with pytest.raises(ValueError) as err:
        split_extension(src)
    assert str(err.value) == "block slopes [Fraction(2, 1)] fit no weight"


def test_validate_rejects_singular_phi_in_a_later_block():
    with pytest.raises(ValueError, match="singular"):
        FilteredPhiModule(
            C5,
            2,
            frac_matrix([[1, 0], [0, 0]]),
            ((0, 1), (-2, 1)),
            frac_matrix([[0], [1]]),
        )


def test_singular_abelian_block_is_rejected_before_its_slopes():
    # char poly T^2 - T: the zero root would otherwise surface as a slope error
    with pytest.raises(ValueError, match="singular"):
        realize_abelian_block(frac_matrix([[0, 0], [1, 1]]), frac_matrix([[1], [0]]), C5)


def test_validation_reads_char_polys_of_weight_blocks_only(monkeypatch):
    sizes = []
    char_poly = linalg.char_poly

    def spy(m):
        sizes.append(m.rows)
        return char_poly(m)

    monkeypatch.setattr(linalg, "char_poly", spy)
    m = realize_one_motive(OneMotiveSpec(lattice_rank=3, elliptic_traces=(1, 1), torus_dim=3), C5)
    assert m.dim == 10 and m.weights == ((0, 3), (-1, 4), (-2, 3))
    # the atoms' blocks only: lattice and torus are copies of one rank-1
    # atom, and the merged blocks and the whole phi are never read
    assert newton_slopes_of(m) == [0] * 5 + [1] * 5
    assert hodge_newton_numbers(m) == (5, 5)
    assert max(sizes) == 2


def _abelian_4x4(rng, ctx):
    """A weight -1 block: the companion of (T^2 - aT + q)(T^2 - bT + q) for
    two seeded Weil traces, and a seeded rank-2 Fil1."""
    q = ctx.q
    traces = [t for t in range(-2 * q, 2 * q + 1) if t * t <= 4 * q]
    a, b = rng.choice(traces), rng.choice(traces)
    poly = [q * q, -q * (a + b), 2 * q + a * b, -(a + b), 1]
    while True:
        fil1 = Matrix(4, 2, [Fraction(rng.randint(-3, 3)) for _ in range(8)])
        if linalg.rank(fil1) == 2:
            return linalg.companion(poly), fil1


@pytest.mark.parametrize("ctx", (C5, C25, PadicContext(2, 2, 40)), ids=("q5", "q25", "q4"))
def test_module_invariants_read_from_atoms_equal_those_of_the_whole_phi(ctx):
    """newton_slopes_of and hodge_newton_numbers read each atom's polynomials;
    the oracle is the characteristic polynomial of the whole phi."""
    rng = random.Random(f"invariants-{ctx.q}")
    traces = [t for t in range(-2 * ctx.q, 2 * ctx.q + 1) if t * t <= 4 * ctx.q]
    modules = [zero_module(ctx), extension_module(Fraction(3), ctx)]
    for _ in range(4):
        spec = OneMotiveSpec(
            lattice_rank=rng.randint(0, 4),
            torus_dim=rng.randint(0, 4),
            elliptic_traces=tuple(rng.choice(traces) for _ in range(rng.randint(0, 3))),
            abelian_explicit=tuple(_abelian_4x4(rng, ctx) for _ in range(rng.randint(1, 2))),
        )
        m = realize_one_motive(spec, ctx)
        modules += [m, dual(m), module_from_jsonable(module_to_jsonable(m))]
    assert any(len({id(a) for a, _, _ in m.parts}) < len(m.parts) for m in modules)
    for m in modules:
        cp = linalg.char_poly(m.phi)
        assert newton_slopes_of(m) == newton_slopes(cp, ctx), m.label
        assert hodge_newton_numbers(m) == (m.fil1.cols, Fraction(fraction_valuation(cp[0], ctx.p), ctx.f)), m.label


def test_validate_rejects_dependent_fil():
    with pytest.raises(ValueError):
        FilteredPhiModule(
            C5,
            2,
            frac_matrix([[5, 0], [0, 5]]),
            ((-2, 2),),
            frac_matrix([[1, 2], [1, 2]]),
        )


@pytest.mark.parametrize(
    "fil1, message",
    [
        ([[1, 2], [1, 2]], "fil1 generators are linearly dependent"),
        ([[0], [0]], "fil1 generators are linearly dependent"),
        ([[1, 0, 1], [0, 1, 1]], "fil1 has more columns than the dimension"),
    ],
    ids=["dependent-columns", "zero-column", "three-columns-in-dimension-2"],
)
def test_a_non_graded_module_refuses_a_bad_fil1_basis_on_construction(fil1, message):
    # built directly, as the module JSON reader refuses it: end_algebra would
    # otherwise report the image of Fil1 as escaping
    with pytest.raises(ValueError, match=message):
        FilteredPhiModule(C5, 2, frac_matrix([[1, 3], [0, 5]]), (), frac_matrix(fil1), graded=False, split_at=1)


def test_a_module_refuses_a_p_adic_phi_on_construction():
    # the same phi over Q is accepted; promoted to Q_p it is refused before
    # any validation, graded or not
    phi = frac_matrix([[1, 3], [0, 5]])
    FilteredPhiModule(C5, 2, phi, (), frac_matrix([[0], [1]]), graded=False, split_at=1)
    for graded in (True, False):
        with pytest.raises(ValueError, match="phi must be a rational matrix"):
            FilteredPhiModule(C5, 2, to_padic(phi, C5), (), frac_matrix([[0], [1]]), graded=graded, split_at=1)


def test_module_from_jsonable_refuses_a_p_adic_phi():
    obj = module_to_jsonable(extension_module(3, C5))
    assert obj["graded"] is False
    obj["phi"] = linalg.matrix_to_jsonable(to_padic(extension_module(3, C5).phi, C5))
    assert all(isinstance(e, dict) for e in obj["phi"]["entries"])
    with pytest.raises(ValueError, match="phi must be a rational matrix"):
        module_from_jsonable(obj)


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


def test_module_from_jsonable_validates_graded_modules():
    obj = module_to_jsonable(realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), C5))
    obj["phi"]["entries"][1] = "1/1"
    with pytest.raises(ValueError, match="block-diagonal"):
        module_from_jsonable(obj)


def test_module_from_jsonable_names_a_missing_field():
    with pytest.raises(ValueError, match="ctx.f"):
        module_from_jsonable({"ctx": {"p": 5}, "dim": 0, "phi": {}, "weights": [], "fil1": {}})
    with pytest.raises(ValueError, match="dim"):
        module_from_jsonable({"ctx": {"p": 5}})
    obj = module_to_jsonable(realize_lattice(1, C5))
    del obj["fil1"]
    with pytest.raises(ValueError, match="fil1"):
        module_from_jsonable(obj)


@pytest.mark.parametrize(
    "fil1, message",
    [
        ({"rows": 2, "cols": 2, "entries": ["0", "0", "1", "1"]}, "linearly dependent"),
        ({"rows": 2, "cols": 3, "entries": ["1", "0", "0", "0", "1", "0"]}, "more columns than the dimension"),
    ],
    ids=["dependent-generators", "three-columns-in-dimension-2"],
)
def test_module_from_jsonable_rejects_a_bad_fil1_basis_of_a_non_graded_module(fil1, message):
    # bad input, not a solver bug: loading fails before hom_space could
    # report the image of Fil1 as escaping
    obj = module_to_jsonable(extension_module(0, C5))
    assert obj["graded"] is False
    with pytest.raises(ValueError, match=message):
        module_from_jsonable({**obj, "fil1": fil1})


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda e: e[0].pop("unit"),
        lambda e: e.__setitem__(-1, "1/1"),
        lambda e: e[0].update(prec=-2),
        lambda e: e[0].update(prec=0),
    ],
    ids=["entry-without-unit", "string-among-padic-entries", "negative-prec", "unit-without-digits"],
)
def test_module_from_jsonable_rejects_malformed_padic_entries(corrupt):
    obj = module_to_jsonable(realize_elliptic(1, AUTO, C5))
    assert obj["fil1"]["entries"][0]["prec"] > 0
    corrupt(obj["fil1"]["entries"])
    with pytest.raises(ValueError):
        module_from_jsonable(obj)


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda o: o.update(ctx=None), "'ctx'"),
        (lambda o: o["ctx"].update(p="5"), "'ctx'"),
        (lambda o: o["ctx"].update(precision=40.5), "'ctx'"),
        (lambda o: o["ctx"].update(f=True), "'ctx'"),
        (lambda o: o.update(dim="2"), "'dim'"),
        (lambda o: o.update(weights=5), "'weights'"),
        (lambda o: o["weights"][0].__setitem__(0, "0"), "'weights'"),
        (lambda o: o["weights"].__setitem__(0, [0]), "'weights'"),
        (lambda o: o.update(label=None), "'label'"),
        (lambda o: o.update(graded="no"), "'graded'"),
        (lambda o: o.update(split_at="1"), "'split_at'"),
    ],
    ids=[
        "null-ctx",
        "string-p",
        "float-precision",
        "bool-f",
        "string-dim",
        "int-weights",
        "string-weight",
        "short-weight-pair",
        "null-label",
        "string-graded",
        "string-split-at",
    ],
)
def test_module_from_jsonable_names_a_field_of_the_wrong_type(mutate, field):
    obj = module_to_jsonable(realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), C5))
    mutate(obj)
    with pytest.raises(ValueError, match=f"field {field} must be"):
        module_from_jsonable(obj)


def test_spec_from_jsonable_names_unknown_fields():
    with pytest.raises(ValueError, match="unknown field\\(s\\) 'torus', 'traces'"):
        spec_from_jsonable({"lattice_rank": 1, "torus": 1, "traces": [1]})
    phi = linalg.matrix_to_jsonable(frac_matrix([[0, -5], [1, 1]]))
    block = {"phi": phi, "fil1": {"rows": 2, "cols": 0, "entries": []}}
    with pytest.raises(ValueError, match="block has unknown field\\(s\\) 'fill1'"):
        spec_from_jsonable({"abelian_explicit": [{**block, "fill1": 3}]})


def test_module_from_jsonable_names_unknown_fields():
    obj = module_to_jsonable(realize_elliptic(1, AUTO, C5))
    with pytest.raises(ValueError, match="module JSON has unknown field\\(s\\) 'extra'"):
        module_from_jsonable({**obj, "extra": 1})
    with pytest.raises(ValueError, match="module JSON ctx has unknown field\\(s\\) 'junk'"):
        module_from_jsonable({**obj, "ctx": {**obj["ctx"], "junk": 0}})
    # every field module_to_jsonable writes is known, the non-graded ones included
    ext = extension_module(Fraction(7, 2), C5)
    assert module_from_jsonable(module_to_jsonable(ext)) == ext


def test_spec_serialization_roundtrip():
    spec = OneMotiveSpec(lattice_rank=2, torus_dim=1, elliptic_traces=(1, -2))
    assert spec_from_jsonable(spec_to_jsonable(spec)) == spec
    demo = OneMotiveSpec(lattice_rank=1, torus_dim=1, kummer_lambda=Fraction(-3, 7))
    assert spec_from_jsonable(spec_to_jsonable(demo)) == demo
