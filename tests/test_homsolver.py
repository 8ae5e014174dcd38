"""Hom/End solver, algebra checks, classification, and the weight-block laws."""

import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from hom_oracle import naive_hom_dimension, random_rational_module, weight_block_structure
from test_workload_samples import workloads  # noqa: F401  (a fixture)
from test_crystal import _prime_powers
from test_linalg import dense_product
from test_tools import _load_tool
from onemotives.crystal import (
    EllipticFilMode,
    FilteredPhiModule,
    OneMotiveSpec,
    check_filtration_stability,
    dual,
    direct_sum,
    extension_module,
    hodge_newton_numbers,
    module_from_jsonable,
    module_to_jsonable,
    newton_slopes_of,
    realize_abelian_block,
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
    ModeMismatch,
    OneMotivesError,
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
    in_span_many,
)
from onemotives import linalg
from onemotives.linalg import Matrix, PADIC, RATIONAL
from onemotives.motivic import hom_complex, realize_motive
from onemotives.padic import PadicContext, PadicScalar, fraction_valuation, from_rational

C3 = PadicContext(3, 1, 40)
C5 = PadicContext(5, 1, 40)
C25 = PadicContext(5, 2, 40)
AUTO = EllipticFilMode("auto")


def frac_matrix(rows):
    return Matrix.from_rows([[Fraction(e) for e in row] for row in rows])


def kummer(ctx):
    return realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), ctx)


def z_to_e(trace, ctx, mode=AUTO):
    return direct_sum([realize_lattice(1, ctx), realize_elliptic(trace, mode, ctx)])


def dense(m):
    """m's dense twin: the module JSON read back, one atom with m's bytes."""
    return module_from_jsonable(module_to_jsonable(m))


def dense_lattice_torus(spec, ctx):
    """The module of ``spec`` with its lattice and its torus each one dense
    atom, the single atom their JSON reads back as; the elliptic traces
    still share one atom per trace."""
    elliptic = realize_one_motive(replace(spec, lattice_rank=0, torus_dim=0), ctx)
    lattice, torus = realize_lattice(spec.lattice_rank, ctx), realize_torus(spec.torus_dim, ctx)
    return direct_sum([dense(lattice), elliptic, dense(torus)])


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
    assert frobenius_membership(z, end_algebra(z)) is True


# -- End algebras of the worked examples -------------------------------------------


def test_kummer_end_is_diagonal_plane():
    e = end_algebra(kummer(C5))
    assert e.dimension == 2
    assert e.basis[0] == frac_matrix([[1, 0], [0, 0]])
    assert e.basis[1] == frac_matrix([[0, 0], [0, 1]])
    c = classify_end(kummer(C5), e)
    assert c.blocks == ((0, LATTICE_SCALARS), (-2, TORUS_SCALARS))
    assert frobenius_membership(kummer(C5), e)


@pytest.mark.parametrize("mode", ["auto", "generic"])
def test_a_replaced_module_has_the_homs_of_the_module_it_equals(mode):
    """A module rebuilt by ``replace`` on another's phi, Fil1 and label
    equals it and has its Homs, End and invariants: its construction
    validates it and writes the block invariants and the slope certificate
    of its own phi and Fil1, none of the module it was copied from."""
    mode = EllipticFilMode(mode)
    for t_from, t_to in ((1, 2), (0, 1)):
        src, ref = realize_elliptic(t_from, mode, C5), realize_elliptic(t_to, mode, C5)
        twin = replace(src, phi=ref.phi, fil1=ref.fil1, label=ref.label)
        assert twin == ref and twin.slope_parts == ref.slope_parts
        d = hom_space(ref, ref).dimension
        assert d == (2 if mode == AUTO else 1), (mode, t_to)
        assert hom_space(twin, ref).dimension == hom_space(ref, twin).dimension == end_algebra(twin).dimension == d
        assert newton_slopes_of(twin) == newton_slopes_of(ref)
        assert hodge_newton_numbers(twin) == hodge_newton_numbers(ref)
        assert twin.block_invariants == ref.block_invariants


def test_a_replaced_sum_is_its_own_atom():
    """``replace`` of the sum L1 + E(1) on the phi, Fil1 and label of
    L1 + E(2) equals L1 + E(2) and has its Homs: a module given phi keeps
    none of the parts it was copied from, so no solver reads E(1)."""
    m, ref = z_to_e(1, C5), z_to_e(2, C5)
    twin = replace(m, phi=ref.phi, fil1=ref.fil1, label=ref.label)
    assert twin == ref and twin.parts == () and twin.atoms()[0][0] is twin
    d = hom_space(ref, ref).dimension
    assert d == 3
    assert hom_space(twin, ref).dimension == hom_space(ref, twin).dimension == end_algebra(twin).dimension == d
    assert classify_end(twin, end_algebra(twin)) == classify_end(ref, end_algebra(ref))


def test_a_hom_space_equals_only_itself():
    m = z_to_e(1, C5)
    e = end_algebra(m)
    assert e == e and e != HomSpace(m, m, {}) and e != end_algebra(m)


def test_end_readers_reject_a_space_that_is_not_the_modules_end():
    """frobenius_membership and classify_end read End(m) alone: the End of
    another module, or a Hom space that is no End, raises ValueError; an
    equal module freshly realized is read as the space's own."""
    good, bad = z_to_e(1, C5), z_to_e(0, C5)
    e = end_algebra(good)
    for reader in (frobenius_membership, classify_end):
        for m, space in ((bad, e), (good, hom_space(good, realize_lattice(1, C5))), (good, hom_space(good, z_to_e(1, C5)))):
            with pytest.raises(ValueError, match="not End"):
                reader(m, space)
    assert frobenius_membership(z_to_e(1, C5), e)
    assert classify_end(z_to_e(1, C5), e).tag_for_weight(-1) == POLYNOMIAL_ALGEBRA_OF_PHI


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
    m = z_to_e(10, C25, EllipticFilMode("scalar"))
    e = end_algebra(m)
    assert e.dimension == 4
    assert classify_end(m, e).tag_for_weight(-1) == UPPER_TRIANGULAR_FULL
    assert frobenius_membership(m, e)


def test_jordan_mode_z_to_e():
    m = z_to_e(10, C25, EllipticFilMode("jordan"))
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


def test_classification_rejects_cross_weight_relations():
    # the split Fil1 (c, 1) ties the two weight blocks: End is the scalars,
    # while each 1x1 block alone carries a 1-dimensional algebra
    split, _ = split_extension(extension_module(3, C5))
    e = end_algebra(split)
    assert e.dimension == 1
    message = (
        "block dimensions sum to 2 but the endomorphism space has dimension 1; "
        "cross-weight relations are present"
    )
    with pytest.raises(UnclassifiedShape, match=message):
        classify_end(split, e)


def test_zero_module_classifies_through_the_general_path():
    z = zero_module(C5)
    c = classify_end(z, end_algebra(z))
    assert c == homsolver.EndClassification(())
    assert c.summary() == "zero"


def test_tag_for_an_absent_weight_is_none():
    m = kummer(C5)
    c = classify_end(m, end_algebra(m))
    assert c.tag_for_weight(0) == LATTICE_SCALARS
    assert c.tag_for_weight(-2) == TORUS_SCALARS
    assert c.tag_for_weight(-1) is None


def _in_span(basis, target):
    """Coordinates of target in the span of basis, or None; raises the
    ``PrecisionExhausted`` that deciding it raises."""
    (x,) = in_span_many(basis, [target])
    if isinstance(x, PrecisionExhausted):
        raise x
    return x


def test_in_span_empty_basis():
    assert in_span_many([], [Matrix.zeros(2, 2), Matrix.identity(2)]) == [[], None]


# -- the End closure check can fail ----------------------------------------------------


def _end_with_basis(monkeypatch, basis):
    """end_algebra of a dense lattice:2 atom with hom_space forced to return
    ``basis``, the single atom's only block list."""
    monkeypatch.setattr(
        homsolver, "hom_space", lambda s, t: HomSpace(s, t, blocks={(id(s), id(s)): basis})
    )
    return end_algebra(dense(realize_lattice(2, C5)))


def _padic_2x2(rows):
    """2x2 p-adic matrix over C5 from 0 (exact zero), 1, or a PadicScalar."""
    def entry(e):
        if isinstance(e, PadicScalar):
            return e
        return PadicScalar.one(5, 40) if e == 1 else PadicScalar.exact_zero(5)

    return Matrix(2, 2, [entry(e) for row in rows for e in row], C5)


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


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([frac_matrix([[1, 0], [0, 0]])], "identity is missing"),
        (
            [frac_matrix([[1, 0], [0, 1]]), frac_matrix([[0, 1], [0, 0]]), frac_matrix([[0, 0], [1, 0]])],
            "basis product escaped",
        ),
    ],
    ids=["no-identity", "product-escapes"],
)
def test_end_closure_fails_on_one_atom_pair_of_a_sum(monkeypatch, blocks, message):
    # a dense lattice 2 atom + torus 1 with the lattice pair answered wrongly:
    # E11 alone lacks the lattice identity, and E12 * E21 = E11 is outside
    # I, E12, E21
    m = dense_lattice_torus(OneMotiveSpec(lattice_rank=2, torus_dim=1), C5)
    lattice = m.parts[0][0]
    assert lattice.dim == 2 and len(m.parts) == 2
    real = homsolver._pair_kernel
    monkeypatch.setattr(
        homsolver,
        "_pair_kernel",
        lambda a, b, reports: blocks if a is b is lattice else real(a, b, reports),
    )
    with pytest.raises(ClosureFailure, match=message):
        end_algebra(m)


def test_end_closure_tests_products_through_a_third_atom(monkeypatch):
    # three lattice 1 atoms x, y, z with Hom(x, z) answered as 0: the map
    # x -> y -> z escapes it, though neither factor starts at x and ends at z
    m = direct_sum([realize_lattice(1, C5) for _ in range(3)])
    x, z = m.parts[0][0], m.parts[2][0]
    real = homsolver._pair_kernel
    monkeypatch.setattr(
        homsolver,
        "_pair_kernel",
        lambda a, b, reports: [] if a is x and b is z else real(a, b, reports),
    )
    with pytest.raises(ClosureFailure, match="basis product escaped"):
        end_algebra(m)


def _closure_targets(monkeypatch):
    """Targets passed to every ``in_span_many`` call from now on."""
    seen = []
    real = homsolver.in_span_many

    def spy(basis, targets):
        seen.append(targets)
        return real(basis, targets)

    monkeypatch.setattr(homsolver, "in_span_many", spy)
    return seen


@pytest.mark.parametrize(
    "spec, calls",
    [
        (OneMotiveSpec(lattice_rank=2, torus_dim=2), [17, 17]),
        (OneMotiveSpec(lattice_rank=2, elliptic_traces=(1, 1, 1), torus_dim=2), [17, 5, 17]),
    ],
    ids=["lattice2-torus2", "lattice2-elliptic1x3-torus2"],
)
def test_end_closure_tests_each_distinct_atom_pair_once(monkeypatch, spec, calls):
    """One span test per distinct atom pair with targets, on that pair's
    2 x 2 blocks: the identity and every block product, 1 + 4 * 4 for the
    matrix units of dense lattice 2 and torus 2 atoms, 1 + 2 * 2 for the
    elliptic atom shared by three summands; pairs of distinct weights have
    none."""
    m = dense_lattice_torus(spec, C5)
    seen = []
    real = homsolver.in_span_many

    def spy(basis, targets):
        seen.append((len(targets), {(h.rows, h.cols) for h in basis + targets}))
        return real(basis, targets)

    monkeypatch.setattr(homsolver, "in_span_many", spy)
    end_algebra(m)
    assert seen == [(k, {(2, 2)}) for k in calls]


@pytest.mark.parametrize("q", (5, 7, 9))
def test_end_closure_of_a_conjugated_sum_forms_every_product(monkeypatch, q):
    seen = _closure_targets(monkeypatch)
    for _a, _b, _u, c in _conjugated_sums(q):
        e = end_algebra(c)
        assert len(seen[-1]) == 1 + e.dimension**2


@pytest.mark.parametrize("q", (2, 4, 5, 9, 25))
def test_end_closure_on_blocks_agrees_with_the_whole_module_closure(monkeypatch, q):
    """The block check forms no product of module-sized matrices once a
    sum has two atoms, and what it accepts passes the textbook check:
    the identity and every product of two placed basis elements, by the
    triple loop, lie in the span; rational and p-adic Hodge lines and
    repeated atoms all occur.  Only the closure's products are recorded:
    the products made inside ``hom_space`` are dropped when it returns."""
    ctx = PadicContext.from_q(q)
    rng = random.Random(q)
    traces = [t for t in range(-2 * q, 2 * q + 1) if t * t <= 4 * q]
    shapes = []
    real, real_hom = linalg.mat_mul, homsolver.hom_space
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: shapes.append((a.rows, a.cols, b.cols)) or real(a, b))

    def hom_space_then_forget(src, tgt):
        h = real_hom(src, tgt)
        shapes.clear()
        return h

    monkeypatch.setattr(homsolver, "hom_space", hom_space_then_forget)
    kinds, repeated = set(), False
    for _ in range(6):
        t = rng.choice(traces)
        spec = OneMotiveSpec(
            lattice_rank=rng.randint(0, 2),
            torus_dim=rng.randint(0, 2),
            elliptic_traces=(t, rng.choice(traces), t)[: rng.randint(0, 3)],
        )
        m = realize_one_motive(spec, ctx, fil_mode=EllipticFilMode(rng.choice(["auto", "generic"])))
        kinds.add(m.fil1.kind)
        repeated |= len(m.parts) > len({id(a) for a, _, _ in m.parts})
        shapes.clear()
        e = end_algebra(m)
        if len(m.atoms()) > 1:
            assert max(map(max, shapes)) == max(a.dim for a, _, _ in m.atoms()) < m.dim
        ctx_e = e.basis[0].ctx if e.basis else None
        products = [Matrix(m.dim, m.dim, dense_product(hi, hj), ctx_e) for hi in e.basis for hj in e.basis]
        assert all(isinstance(x, list) for x in homsolver.in_span_many(e.basis, [Matrix.identity(m.dim)] + products))
    assert kinds == {RATIONAL, PADIC} and repeated


def test_end_closure_forms_a_product_linked_by_an_unresolved_zero(monkeypatch):
    # X = [[0, 1], [O(5^10), 0]]: column 0 and row 1 of X are nonzero only
    # through the unresolved zero, so every term of X*X = O(5^10) I has it
    # as a factor; the product is formed, and its span test is ambiguous
    fuzz = PadicScalar.unresolved_zero(5, 10)
    x = _padic_2x2([[0, 1], [fuzz, 0]])
    seen = _closure_targets(monkeypatch)
    with pytest.raises(PrecisionExhausted, match="consistency check is ambiguous"):
        _end_with_basis(monkeypatch, [x, _padic_2x2([[1, 0], [0, 1]])])
    # targets: I, X*X, X*I, I*X, I*I; none is skipped
    (targets,) = seen
    assert len(targets) == 5 and targets[1] == _padic_2x2([[fuzz, 0], [0, fuzz]])


def test_hom_rejects_a_non_equivariant_kernel_vector(monkeypatch):
    split = split_extension(extension_module(3, C5))[0]
    lattice = realize_lattice(1, C5)
    assert not split.parts and split.phi == frac_matrix([[1, 0], [0, 5]])
    # E12 does not commute with phi = diag(1, 5).  The (split, split) pair
    # reads its commutant by form, span(I, phi): E12 is put in its place,
    # and fails the exact block check before any Hodge cut, whether the
    # split module is the whole source or one atom of a sum
    e12 = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    by_form = [Matrix.identity(2).entries, split.phi.entries]
    echelon_rows = linalg.echelon_rows
    monkeypatch.setattr(linalg, "echelon_rows", lambda rows, ctx: [e12] if rows == by_form else echelon_rows(rows, ctx))
    for m in (split, direct_sum([split, lattice])):
        with pytest.raises(VerificationFailure, match="non-equivariant"):
            hom_space(m, m)
    monkeypatch.undo()
    # the phis of split and lattice(1) differ, so that pair still solves a
    # Sylvester system; a bogus vector answering it, h = (1, 1) with
    # phi_b h - h phi_a = (0, -4), fails the exact check on Sylvester's matrix
    sylvester = linalg.sylvester(lattice.phi, split.phi)
    bogus = linalg.KernelResult([[Fraction(1), Fraction(1)]])
    kernel = linalg.kernel
    monkeypatch.setattr(linalg, "kernel", lambda system: bogus if system == sylvester else kernel(system))
    for src, tgt in ((split, lattice), (direct_sum([split, lattice]),) * 2):
        with pytest.raises(VerificationFailure, match="non-equivariant"):
            hom_space(src, tgt)


def test_the_commutant_of_a_non_scalar_2x2_phi_is_read_by_form_as_sylvester_solves_it(monkeypatch):
    """Oracle for the commutant read by form: every 2 x 2 built-in phi at
    q <= 256, the companion of each admissible trace, ``jordan`` at
    t^2 = 4q and the dual of each, is not scalar, and its End with Fil1 = 0
    (no Hodge condition) is span(I, phi) byte for byte as the echelon
    kernel of sylvester(phi, phi) gives it, of dimension 2, with no
    Sylvester system built.  That is Tate's count for t^2 < 4q; a scalar
    phi, ``scalar`` mode and its dual, still takes the Sylvester path and
    has all 4, Tate's count at t^2 = 4q."""
    sylvester = linalg.sylvester
    built = []
    monkeypatch.setattr(linalg, "sylvester", lambda a, b: built.append(a) or sylvester(a, b))

    def commutant(atom):
        m = replace(atom, fil1=Matrix.zeros(2, 0))
        return [json.dumps(linalg.matrix_to_jsonable(h)) for h in hom_space(m, m).blocks[id(m), id(m)]]

    def solved(phi):
        basis = linalg.echelon_rows(linalg.kernel(sylvester(phi, phi)).basis, None)
        return [json.dumps(linalg.matrix_to_jsonable(Matrix(2, 2, v))) for v in basis]

    count = 0
    for q in _prime_powers(256):
        ctx = PadicContext.from_q(q)
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            atoms = [realize_elliptic(t, EllipticFilMode("generic"), ctx)]
            if t * t == 4 * q:
                atoms.append(realize_elliptic(t, EllipticFilMode("jordan"), ctx))
                scalar = realize_elliptic(t, EllipticFilMode("scalar"), ctx)
                for m in (scalar, dual(scalar)):
                    built.clear()
                    assert len(commutant(m)) == 4 and built == [m.phi]
            for m in atoms + [dual(a) for a in atoms]:
                built.clear()
                by_form = commutant(m)
                assert built == [] and len(by_form) == 2 and by_form == solved(m.phi)
                count += 1
    assert count == 2 * (2644 + 20)


def _answer_the_cut_with_all_of_c(monkeypatch, m):
    """Make the Hodge cut of m's pair keep all of the commutant: its kernel,
    at either precision, is every coordinate vector.  m's Fil1 is one
    column, so the annihilator, the kernel of its transpose, is the one
    other 1 x 2 system; it is left intact."""
    real = linalg.kernel

    def kernel(system):
        if (system.rows, system.cols) != (1, 2) or system.entries == m.fil1.entries:
            return real(system)
        ident = Matrix.identity(2, system.ctx)
        return linalg.KernelResult([ident.row(0), ident.row(1)])

    monkeypatch.setattr(linalg, "kernel", kernel)


def test_hom_rejects_an_exact_fil1_escape_without_precision_advice(monkeypatch):
    # the commutant Q[phi] moves the generic Hodge line span(e1), so a cut
    # that keeps all of it fails the Fil1 check; rational input, so more
    # digits cannot help
    m = realize_elliptic(0, EllipticFilMode("generic"), C5)
    assert m.phi.kind == RATIONAL and m.fil1.kind == RATIONAL
    _answer_the_cut_with_all_of_c(monkeypatch, m)
    with pytest.raises(VerificationFailure, match="image of Fil1 escapes"):
        hom_space(m, m)


def test_hom_padic_fil1_escape_is_a_precision_failure(monkeypatch):
    generic = realize_elliptic(0, EllipticFilMode("generic"), C5)
    m = FilteredPhiModule(
        C5, 2, generic.phi, generic.weights, linalg.to_padic(generic.fil1, C5.doubled()), label="padic line"
    )
    _answer_the_cut_with_all_of_c(monkeypatch, m)
    with pytest.raises(PrecisionExhausted, match="image of Fil1 escapes"):
        hom_space(m, m)


def test_hom_tests_no_zero_fil1_image_for_rank(monkeypatch):
    # End of lattice 2 + torus 1 as one dense atom, of dimension 3 and so
    # uncertified, is its Hodge cut, spanned by the four maps of the lattice
    # block and E33; the four send the torus Hodge line to 0, so only E33's
    # image needs a rank test
    m = dense(realize_one_motive(OneMotiveSpec(lattice_rank=2, torus_dim=1), C5))
    assert not m.parts and m.slope_parts is None
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda a: calls.append(a) or real(a))
    assert hom_space(m, m).dimension == 5
    assert len(calls) == 1


def _lattice2_elliptic0x3_torus2():
    """End(L2 + E(0)^3 + T2) at q = 25, lattice and torus each one dense
    atom, and its three distinct atoms: the lattice and torus are rational,
    the elliptic Hodge line is p-adic, and isoclinic (slopes 1/2, 1/2), so
    no slope part and its pair stays p-adic."""
    m = dense_lattice_torus(OneMotiveSpec(lattice_rank=2, elliptic_traces=(0, 0, 0), torus_dim=2), C25)
    assert len(m.parts) == 5
    lattice, elliptic, torus = {id(a): a for a, _, _ in m.parts}.values()
    assert lattice.fil1.kind == torus.fil1.kind == RATIONAL and elliptic.fil1.kind == PADIC
    assert elliptic.slope_parts is None
    return m, lattice, elliptic, torus


def test_hom_promotes_its_inputs_once_per_precision(monkeypatch):
    m, lattice, elliptic, torus = _lattice2_elliptic0x3_torus2()
    calls = []
    to_padic = linalg.to_padic
    monkeypatch.setattr(linalg, "to_padic", lambda a, ctx: calls.append((a, ctx.precision)) or to_padic(a, ctx))
    h = hom_space(m, m)
    # last, the exact pairs' verified blocks are promoted once each, into
    # the space's field at 2N, as they are stored
    exact = h.blocks[id(lattice), id(lattice)] + h.blocks[id(torus), id(torus)]
    rest, blocks = calls[:-8], calls[-8:]
    assert len(exact) == 8 and [n for _, n in blocks] == [80] * 8
    assert [to_padic(a, C25.doubled()) for a, _ in blocks] == exact and all(a.ctx is None for a, _ in blocks)
    # before them only the elliptic pair's Hodge cut promotes: its
    # annihilator rows, Fil1 columns and commutant basis once at N and once
    # at 2N, then the target Fil1 at 2N for the block check; no atom's phi
    # ever is
    assert [n for _, n in rest] == [40] * 3 + [80] * 4 and rest[-1][0] is elliptic.fil1
    assert not any(a is x.phi for a, _ in rest for x in (lattice, elliptic, torus))
    assert not any(a is x.fil1 for a, _ in rest for x in (lattice, torus))


def test_hom_solves_each_distinct_atom_pair_once(monkeypatch):
    m, *_ = _lattice2_elliptic0x3_torus2()
    systems = []
    real = linalg.kernel

    def spy(system):
        systems.append((system.rows, system.cols, system.ctx and system.ctx.precision))
        return real(system)

    monkeypatch.setattr(linalg, "kernel", spy)
    e = end_algebra(m)
    assert e.dimension == 4 + 9 * 2 + 4
    # the commutant of each distinct pair with a shared root, once over Q:
    # the lattice's and the torus's scalar phis solve Sylvester's 4 x 4
    # system, the elliptic pair reads span(I, phi) by form; the three
    # elliptic copies share it, and the pairs of distinct weights are
    # decided by the gcd without a system.  Only the elliptic pair has a
    # Hodge cut (the lattice's Fil1 is 0, the torus's everything): the
    # annihilator of its Hodge line is read by form, then one row on the
    # commutant's 2 coordinates at N and at 2N
    assert systems == [(4, 4, None), (1, 2, 40), (1, 2, 80), (4, 4, None)]
    # the Fil1 check runs on the cut's own 2 x 2 blocks, not on every basis
    # element of the sum, and not on a commutant taken whole
    checked = []
    verify = homsolver._verify_element
    monkeypatch.setattr(homsolver, "_verify_element", lambda h, c_a, c_b: checked.append((h.rows, h.cols)) or verify(h, c_a, c_b))
    end_algebra(m)
    assert checked == [(2, 2)] * 2
    lattice, elliptic = realize_lattice(1, C25), realize_elliptic(0, AUTO, C25)
    kernels = []
    monkeypatch.setattr(linalg, "kernel", kernels.append)
    h = hom_space(lattice, elliptic)
    assert h.dimension == 0 and h.precision_report is None and kernels == []


def test_precision_report_is_the_fewest_digits_of_the_p_adic_pairs(monkeypatch):
    m, *_ = _lattice2_elliptic0x3_torus2()
    reports = []
    kernel = linalg.kernel

    def spy(system):
        k = kernel(system)
        reports.append((system.ctx and system.ctx.precision, k.precision_report))
        return k

    monkeypatch.setattr(linalg, "kernel", spy)
    e = hom_space(m, m)
    # the three commutants are exact; the annihilator of the Hodge line is
    # read by form, so the p-adic systems are the cut at N and at 2N, and
    # the report is the fewest digits of the two
    assert all(r is None for n, r in reports if n is None)
    padic = [(n, r) for n, r in reports if n is not None]
    assert [n for n, _ in padic] == [40, 80] and None not in [r for _, r in padic]
    assert e.precision_report == min(r for _, r in padic)
    # a p-adic source whose only solved pair is exact decides its space
    # exactly, and over Q: no block of the space is p-adic
    h = hom_space(z_to_e(0, C25), realize_lattice(1, C25))
    assert h.dimension == 1 and h.basis[0].kind == RATIONAL and h.precision_report is None


def _split_module_at_q3():
    """The split module g of a two-block module over F_3: an elliptic block
    of trace 1 over a Jordan torus block, rational phi, and a Fil1 with
    3^-4 in its entries."""
    rows = [[0, -3, 1, 2], [1, 1, 0, 2], [0, 0, 3, -1], [0, 0, 0, 3]]
    fil1 = Matrix(4, 1, [Fraction(x) for x in (-2, -1, 0, 2)])
    m = FilteredPhiModule(C3, 4, Matrix.from_rows(rows), (), fil1, "two blocks", graded=False, split_at=2)
    return split_extension(m)[0]


@pytest.mark.parametrize(
    "t",
    (
        -2,
        -1,
        1,
        2,
    ),
)
def test_end_of_an_exact_split_module_beside_an_ordinary_block_is_additive(t):
    """Additivity oracle: End(g + E) is End(g) + End(E) + Hom(g, E) +
    Hom(E, g), each computed on its own.  g is exact and E(t, auto) is
    p-adic, and g's pairs are solved over Q."""
    g, e = _split_module_at_q3(), realize_elliptic(t, AUTO, C3)
    assert g.phi.kind == g.fil1.kind == RATIONAL and e.fil1.kind == PADIC
    parts = [end_algebra(g), end_algebra(e), hom_space(g, e), hom_space(e, g)]
    assert end_algebra(direct_sum([g, e])).dimension == sum(x.dimension for x in parts)


def _unipotent(n, rng):
    u = Matrix.identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            u.entries[i * n + j] = Fraction(rng.randint(-2, 2))
    return u


def _integral(h):
    """h scaled by a power of p until its entries are p-integral; the span
    test then compares digits at one scale."""
    if h.kind == RATIONAL:
        return h
    v = min((e.v for e in h.entries if e.v is not None), default=0)
    return linalg.mat_scale(from_rational(Fraction(h.ctx.p) ** -v, h.ctx), h) if v < 0 else h


def _times(a, b):
    """a b, a rational factor promoted to the other's p-adic context."""
    ctx = a.ctx or b.ctx
    a, b = (linalg.to_padic(x, ctx) if ctx and x.kind == RATIONAL else x for x in (a, b))
    return linalg.mat_mul(a, b)


def _conjugated_sums(q):
    """Three seeded (a, b, U, c) over F_q: graded sums a and b, a unipotent
    U, and c, the sum a seen in the basis of U (phi -> U phi U^-1,
    Fil1 -> U Fil1)."""
    ctx = PadicContext.from_q(q)
    rng = random.Random(q)
    traces = [t for t in range(-2 * q, 2 * q + 1) if t * t <= 4 * q]

    def motive():
        spec = OneMotiveSpec(
            lattice_rank=rng.randint(1, 2),
            torus_dim=rng.randint(0, 1),
            elliptic_traces=rng.sample(traces, 2)[: rng.randint(1, 2)],
        )
        return realize_one_motive(spec, ctx)

    for _ in range(3):
        a, b = motive(), motive()
        u = _unipotent(a.dim, rng)
        phi = linalg.mat_mul(linalg.mat_mul(u, a.phi), linalg.inverse(u))
        yield a, b, u, FilteredPhiModule(ctx, a.dim, phi, (), _times(u, a.fil1), "conjugated", graded=False)


@pytest.mark.parametrize(
    "q",
    (
        4,
        5,
        7,
        9,
    ),
)
def test_conjugated_sum_has_the_per_pair_hom(q):
    """Oracle for the single-atom path: a sum seen in the basis of a seeded
    unipotent U (phi -> U phi U^-1, Fil1 -> U Fil1) has no parts, so its
    Hom is one dense system; it must match the per-pair Hom, and U carries
    one basis into the span of the other."""
    for a, b, u, c in _conjugated_sums(q):
        u_inv = linalg.inverse(u)
        assert a.parts and not c.parts
        for per_pair, dense, carry in (
            (hom_space(a, b), hom_space(c, b), lambda h: _times(h, u_inv)),
            (hom_space(b, a), hom_space(b, c), lambda h: _times(u, h)),
        ):
            assert dense.dimension == per_pair.dimension
            for h in per_pair.basis:
                assert _in_span(dense.basis, _integral(carry(h))) is not None


def _in_coset(x, y):
    """Whether the rational x lies in the coset y + O(p^a) of the p-adic y,
    a its absolute precision (an exact zero's coset is {0})."""
    if y.v is None:
        return x == 0
    d = x - Fraction(y.unit) * Fraction(y.p) ** y.v
    return d == 0 or fraction_valuation(d, y.p) >= y.v + y.prec


def _uncertified(m):
    """m's ``replace`` twin with its slope certificate cleared, so that its
    pairs take the Hodge cut."""
    twin = replace(m)
    twin.slope_parts = None
    return twin


def test_slope_certified_end_is_the_p_adic_end_made_exact():
    """Oracle for the slope-part path: End(L1 + E) of a certified elliptic
    atom, solved over Q, against End of the same sum of ``replace``d atoms
    whose certificates are cleared, solved over Q_p at N and 2N."""
    answered = raised = 0
    for q in _prime_powers(32):
        ctx = PadicContext.from_q(q)
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            for mode in (AUTO, EllipticFilMode("eigenline", 0), EllipticFilMode("eigenline", 1)):
                try:
                    e = realize_elliptic(t, mode, ctx)
                except ModeMismatch:
                    continue
                if e.slope_parts is None:
                    continue
                lattice = realize_lattice(1, ctx)
                exact = end_algebra(direct_sum([lattice, e]))
                assert exact.precision_report is None and all(h.kind == RATIONAL for h in exact.basis)
                try:
                    padic = end_algebra(direct_sum([_uncertified(lattice), _uncertified(e)]))
                except PrecisionExhausted:
                    # the lattice's scalars and the commutant Q_p[phi] of the
                    # non-scalar 2 x 2 block
                    assert exact.dimension == 1 + 2, (q, t, mode)
                    raised += 1
                    continue
                assert padic.dimension == exact.dimension, (q, t, mode)
                for h, g in zip(exact.basis, padic.basis):
                    assert all(_in_coset(x, y) for x, y in zip(h.entries, g.entries)), (q, t, mode)
                answered += 1
    assert (answered, raised) == (648, 36)


def _end_record(m):
    """End of m as output reads it: dimension, basis bytes, precision report."""
    e = end_algebra(m)
    return e.dimension, json.dumps([linalg.matrix_to_jsonable(h) for h in e.basis]), e.precision_report


def test_every_presentation_of_an_atom_has_the_same_end():
    """End of an elliptic atom is End of its JSON round trip, of
    dual(dual(E)) and of its ``replace`` twin, byte for byte and with the
    same precision report: each is validated, so each derives the atom's
    slope certificate from its own phi and Fil1.  The same holds for
    L1 + E + T1 and its double dual."""
    rows = 0
    for q in _prime_powers(32):
        ctx = PadicContext.from_q(q)
        lattice, torus = realize_lattice(1, ctx), realize_torus(1, ctx)
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            for mode in (AUTO, EllipticFilMode("eigenline", 0), EllipticFilMode("eigenline", 1)):
                try:
                    e = realize_elliptic(t, mode, ctx)
                except ModeMismatch:
                    continue
                want = _end_record(e)
                for twin in (dense(e), dual(dual(e)), replace(e)):
                    assert _end_record(twin) == want, (q, t, mode)
                m = direct_sum([lattice, e, torus])
                assert _end_record(dual(dual(m))) == _end_record(m), (q, t, mode)
                rows += 1
    assert rows == 746


def test_the_p_adic_hodge_cut_runs_only_on_isoclinic_eigenlines(monkeypatch):
    """Over the rows of ``tools/sweep.py`` with q <= 49, End(m) and
    Hom(dual m, m) of m = L1 + E(t) + T1, an atom pair takes the p-adic
    Hodge cut only when neither slope set can tell its two lines apart:
    the split isoclinic traces, p | t with v(t) = f / 2, in the three modes
    that read a p-adic eigenline, one cut for End and one for Hom."""
    cuts, padic_kernels = [], []
    kernel, pair_kernel = linalg.kernel, homsolver._pair_kernel

    def spied_pair_kernel(a, b, reports):
        before = len(padic_kernels)
        blocks = pair_kernel(a, b, reports)
        if len(padic_kernels) > before:
            cuts.append(row)
        return blocks

    monkeypatch.setattr(linalg, "kernel", lambda a: (a.kind == PADIC and padic_kernels.append(a)) or kernel(a))
    monkeypatch.setattr(homsolver, "_pair_kernel", spied_pair_kernel)
    for row in _load_tool("sweep").domain(49):
        q, t, mode = row
        try:
            m = realize_one_motive(OneMotiveSpec(1, 1, (t,)), PadicContext.from_q(q), EllipticFilMode.parse(mode))
        except ModeMismatch:
            continue
        end_algebra(m), hom_space(dual(m), m)
    isoclinic = [(25, 0), (49, -7), (49, 7)]
    assert Counter(cuts) == {(q, t, mode): 2 for q, t in isoclinic for mode in ("auto", "eigenline:0", "eigenline:1")}


def _assert_reduced_echelon(space):
    """The basis is its own echelon form, and its pivots (first nonzero
    Fraction or resolved p-adic entry; unresolved zeros may come before
    it) strictly increase."""
    vectors = [h.entries for h in space.basis]
    if not vectors:
        return
    kind, ctx = space.basis[0].kind, space.basis[0].ctx
    assert linalg.echelon_rows(vectors, ctx) == vectors
    leads = bool if kind == RATIONAL else (lambda x: x.is_resolved)
    pivots = [next(k for k, x in enumerate(v) if leads(x)) for v in vectors]
    assert pivots == sorted(set(pivots))


def _classification(m, e):
    """classify_end(m, e), or the message of the UnclassifiedShape it raised."""
    try:
        return classify_end(m, e)
    except UnclassifiedShape as err:
        return str(err)


def _records(m):
    """What the engine prints for m: its module JSON, its End JSON,
    classification and phi-membership, and Hom from and to its dual."""
    e, d = end_algebra(m), dual(m)
    return [
        json.dumps(module_to_jsonable(m)),
        json.dumps(homspace_to_jsonable(e)),
        _classification(m, e),
        frobenius_membership(m, e),
        json.dumps(homspace_to_jsonable(hom_space(d, m))),
        json.dumps(homspace_to_jsonable(hom_space(m, d))),
    ]


_COPY_SHAPES = [
    (2, 1, (1, 1)),  # ordinary
    (2, 8, (-1,)),
    (4, 3, (2, 2)),  # p | t
    (5, 8, (1, 1)),
    (5, 2, (0,)),
    (5, 4, ()),
    (25, 2, (0, 0)),  # isoclinic: a p-adic line with no slope part
    (125, 3, (5,)),  # p | t with slopes 1/3 and 2/3
]


@pytest.mark.parametrize(
    "q, r, traces", _COPY_SHAPES, ids=[f"q{q}-r{r}-t{'.'.join(map(str, ts))}" for q, r, ts in _COPY_SHAPES]
)
def test_copies_of_a_rank_1_atom_answer_as_the_dense_atom(q, r, traces):
    """Oracle for lattice r and torus r as r copies of one rank-1 atom: the
    same module with each of them one dense r x r atom, read back from its
    JSON, is solved as one r^2-unknown pair, and every record agrees byte
    for byte."""
    ctx = PadicContext.from_q(q)
    spec = OneMotiveSpec(lattice_rank=r, elliptic_traces=traces, torus_dim=r)
    m, twin = realize_one_motive(spec, ctx), dense_lattice_torus(spec, ctx)
    assert len(m.parts) == 2 * r + len(traces) and len(twin.parts) == 2 + len(traces)
    assert _records(m) == _records(twin)


def test_end_of_copies_of_a_rank_1_atom_solves_no_system_wider_than_a_pair_of_2x2_atoms(monkeypatch):
    """End(L6 + E(1) + T6) at p = 5: every lattice and torus pair has one
    unknown, where one dense lattice 6 atom had 36, and the elliptic pair,
    whose 2 x 2 phi is not scalar, reads its commutant by form and solves
    no system."""
    widths = []
    real = linalg.kernel
    monkeypatch.setattr(linalg, "kernel", lambda system: widths.append(system.cols) or real(system))
    e = end_algebra(realize_one_motive(OneMotiveSpec(lattice_rank=6, elliptic_traces=(1,), torus_dim=6), C5))
    assert e.dimension == 36 + 2 + 36 and max(widths) == 1


@pytest.mark.parametrize("q", (4, 5, 9, 25))
def test_hom_basis_is_ordered_reduced_echelon(q):
    """The per-pair vectors, placed and sorted by pivot, are the reduced
    echelon basis of the whole space: sums with repeated atoms and with
    rational and p-adic Hodge lines, and sums without parts."""
    ctx = PadicContext.from_q(q)
    rng = random.Random(q)
    traces = [t for t in range(-2 * q, 2 * q + 1) if t * t <= 4 * q]
    kinds, repeated = set(), False
    for _ in range(6):
        t = rng.choice(traces)
        spec = OneMotiveSpec(
            lattice_rank=rng.randint(0, 2),
            torus_dim=rng.randint(0, 2),
            elliptic_traces=(t, rng.choice(traces), t)[: rng.randint(1, 3)],
        )
        m = realize_one_motive(spec, ctx, fil_mode=EllipticFilMode(rng.choice(["auto", "generic"])))
        kinds.add(m.fil1.kind)
        repeated |= len(m.parts) > len({id(a) for a, _, _ in m.parts})
        _assert_reduced_echelon(end_algebra(m))
        _assert_reduced_echelon(hom_space(dual(m), m))
    assert kinds == {RATIONAL, PADIC} and repeated
    if q != 4:  # ROADMAP item 1: the dense systems at p = 2 exhaust the precision
        for _a, b, _u, c in _conjugated_sums(q):
            for space in (hom_space(c, c), hom_space(c, b), hom_space(b, c)):
                _assert_reduced_echelon(space)


# -- phi-membership and classification read from the atom-pair blocks ----------------


def _whole_basis_membership(m, e):
    """phi-membership as one span test against every placed basis matrix."""
    return _in_span(e.basis, m.phi) is not None


def _whole_basis_classification(m, e):
    """classify_end as a scan of every placed basis matrix: the weight
    blocks of each element, then one echelon pass per weight block."""
    if not m.graded:
        raise UnclassifiedShape("classification needs a graded module")
    for h in e.basis:
        for (w1, w2), is_zero in weight_block_structure(h, m).items():
            if w1 != w2 and not is_zero:
                raise UnclassifiedShape(f"an endomorphism couples weight {w2} into weight {w1}")
    ctx = e.basis[0].ctx if e.basis else None
    tags, total = [], 0
    for w, off, d in m.weight_offsets():
        block = range(off, off + d)
        vectors = [linalg.submatrix(h, block, block).entries for h in e.basis]
        span = [Matrix(d, d, v, ctx) for v in linalg.echelon_rows(vectors, ctx)]
        total += len(span)
        tags.append((w, _whole_basis_tag(m, w, block, span)))
    if total != e.dimension:
        raise UnclassifiedShape(
            f"block dimensions sum to {total} but the endomorphism space has "
            f"dimension {e.dimension}; cross-weight relations are present"
        )
    return homsolver.EndClassification(tuple(tags))


def _whole_basis_tag(m, w, block, span):
    d, bd = len(block), len(span)
    if w != -1:
        if bd == d * d:
            return LATTICE_SCALARS if w == 0 else TORUS_SCALARS
        raise UnclassifiedShape(f"weight {w} block algebra has dimension {bd}, expected {d * d}")
    if d == 2:
        if bd == 1 and linalg.is_zero(linalg.shift_diagonal(span[0], -span[0].at(0, 0))):
            return SCALAR_ONLY
        if bd == 2 and _in_span(span, linalg.submatrix(m.phi, block, block)) is not None:
            return POLYNOMIAL_ALGEBRA_OF_PHI
        if bd == 3:
            return UPPER_TRIANGULAR_FULL
    raise UnclassifiedShape(f"weight {w} block of size {d} with algebra dimension {bd} matches no known case")


def _outcome(compute):
    """compute(), or the class and message of the package error it raised."""
    try:
        return compute()
    except OneMotivesError as exc:
        return type(exc).__name__, str(exc)


def _block_reading_outcomes(m):
    """frobenius_membership and classify_end of m in End(m), each asserted
    equal to the whole-basis scan's answer, or to its error class and
    message; None when End itself raises.  Membership is also asserted
    equal to Fil1 stability: phi commutes with itself, so it lies in End
    exactly when it keeps Fil1, a test that reads no basis."""
    e = _outcome(lambda: end_algebra(m))
    if isinstance(e, tuple):
        return None
    out = []
    for on_blocks, on_basis in ((frobenius_membership, _whole_basis_membership), (classify_end, _whole_basis_classification)):
        answer = _outcome(lambda: on_blocks(m, e))
        assert answer == _outcome(lambda: on_basis(m, e)), (m.label, on_blocks.__name__)
        out.append(answer.summary() if isinstance(answer, homsolver.EndClassification) else answer)
    assert out[0] == _outcome(lambda: check_filtration_stability(m)), m.label
    return tuple(out)


_SURVEY_QS = [q for q in range(2, 65) if len({p for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))}) == 1]


def test_block_reading_answers_as_the_whole_basis_on_every_survey_row_up_to_q64():
    seen, rows = set(), 0
    for q in _SURVEY_QS:
        ctx = PadicContext.from_q(q)
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            for mode in ("auto", "eigenline:0", "eigenline:1") + (("scalar", "jordan") if t * t == 4 * q else ()):
                try:
                    elliptic = realize_elliptic(t, EllipticFilMode.parse(mode), ctx)
                except ModeMismatch:
                    continue  # an irreducible polynomial has no Q_p eigenline
                seen.add(_block_reading_outcomes(direct_sum([realize_lattice(1, ctx), elliptic])))
                rows += 1
    assert rows > 1500 and None not in seen
    assert {member for member, _ in seen} == {True, False}
    assert {tag.split("+")[1] for _, tag in seen} == {
        SCALAR_ONLY, POLYNOMIAL_ALGEBRA_OF_PHI, UPPER_TRIANGULAR_FULL
    }


def test_p_adic_systems_under_hom_space_are_no_wider_than_the_commutant(monkeypatch):
    """On every survey row up to q = 64, in every mode, each p-adic system
    that hom_space solves for an atom pair has at most as many columns as
    the pair's commutant has dimensions: at most 4 for two 2 x 2 atoms."""
    kernel, pair_kernel = linalg.kernel, homsolver._pair_kernel
    solved, widths = [], []
    monkeypatch.setattr(linalg, "kernel", lambda system: solved.append(system) or kernel(system))

    def spy(a, b, reports):
        solved.clear()
        blocks = pair_kernel(a, b, reports)
        d = kernel(linalg.sylvester(b.phi, a.phi)).dimension
        widths.extend((system.cols, d, a.dim * b.dim) for system in solved if system.ctx)
        return blocks

    monkeypatch.setattr(homsolver, "_pair_kernel", spy)
    rows = 0
    for q in _SURVEY_QS:
        ctx = PadicContext.from_q(q)
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            for mode in ("auto", "generic", "eigenline:0", "eigenline:1") + (("scalar", "jordan") if t * t == 4 * q else ()):
                try:
                    elliptic = realize_elliptic(t, EllipticFilMode.parse(mode), ctx)
                except ModeMismatch:
                    continue
                m = direct_sum([realize_lattice(1, ctx), elliptic])
                hom_space(m, m)
                rows += 1
    assert rows > 2000 and widths
    assert all(cols <= d <= n == 4 for cols, d, n in widths)


def test_block_reading_answers_as_the_whole_basis_on_the_end_bench_items(workloads):
    make, _op = workloads.WORKLOADS["end"]
    items = make(1)
    for r, d, k, _cls, p, f, t, mode in items:
        spec = OneMotiveSpec(lattice_rank=r, torus_dim=d, elliptic_traces=(t,) * k)
        m = realize_one_motive(spec, PadicContext(p, f, 40), fil_mode=EllipticFilMode.parse(mode))
        assert _block_reading_outcomes(m) is not None
    assert items


def _companion_block(q, lam):
    """Weight -1 block with phi the companion of (T - 1)(T - q) and Fil1 its
    lam-eigenline: its slope-0 line receives a lattice, and with lam = q it
    also maps onto one."""
    phi = linalg.companion([Fraction(q), Fraction(-1 - q), Fraction(1)])
    return phi, frac_matrix([[Fraction(-q, lam)], [1]])


def _rank_1_block(lam, fil_dim):
    """Rank-1 weight -1 block: phi = [lam], Fil1 0 or everything."""
    return frac_matrix([[lam]]), Matrix.identity(1) if fil_dim else Matrix.zeros(1, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: kummer(C5),
        lambda: split_extension(extension_module(3, C5))[0],
        lambda: split_extension(extension_module(0, C5))[0],
        lambda: _split_module_at_q3(),
        lambda: direct_sum([_split_module_at_q3(), realize_lattice(1, C3), realize_elliptic(-2, AUTO, C3)]),
        lambda: direct_sum([split_extension(extension_module(3, C5))[0], realize_elliptic(1, AUTO, C5)]),
        lambda: dense(direct_sum([split_extension(extension_module(3, C5))[0], realize_elliptic(1, AUTO, C5)])),
        lambda: dense_lattice_torus(OneMotiveSpec(lattice_rank=3, elliptic_traces=(1,), torus_dim=2), C5),
        lambda: dense_lattice_torus(OneMotiveSpec(lattice_rank=2, elliptic_traces=(0,), torus_dim=2), C25),
        lambda: dense(realize_one_motive(OneMotiveSpec(lattice_rank=2, elliptic_traces=(1,), torus_dim=2), C5)),
        lambda: dense(realize_one_motive(OneMotiveSpec(lattice_rank=1, elliptic_traces=(0,), torus_dim=1), C25)),
        lambda: zero_module(C5),
        lambda: realize_one_motive(OneMotiveSpec(lattice_rank=1, abelian_explicit=(_companion_block(5, 1),)), C5),
        lambda: realize_one_motive(OneMotiveSpec(lattice_rank=1, abelian_explicit=(_companion_block(5, 5),)), C5),
        lambda: realize_one_motive(
            OneMotiveSpec(lattice_rank=2, abelian_explicit=(_companion_block(5, 5),), torus_dim=1), C5
        ),
        lambda: direct_sum([realize_torus(1, C5), realize_abelian_block(*_companion_block(5, 5), C5)]),
        lambda: realize_one_motive(OneMotiveSpec(elliptic_traces=(1, 1)), C5),
        lambda: realize_one_motive(OneMotiveSpec(elliptic_traces=(1, 1, 1)), C5),
        lambda: realize_one_motive(OneMotiveSpec(lattice_rank=1, elliptic_traces=(1, 2)), C5),
        lambda: realize_one_motive(OneMotiveSpec(elliptic_traces=(0,)), C25),
        lambda: realize_one_motive(OneMotiveSpec(elliptic_traces=(0, 0)), C25),
        lambda: realize_one_motive(OneMotiveSpec(elliptic_traces=(0, 0, 0)), C25),
        lambda: realize_one_motive(OneMotiveSpec(lattice_rank=1, elliptic_traces=(0, 0), torus_dim=1), C25),
        lambda: realize_one_motive(OneMotiveSpec(abelian_explicit=(_rank_1_block(1, 0), _rank_1_block(5, 1))), C5),
        lambda: realize_one_motive(OneMotiveSpec(abelian_explicit=(_rank_1_block(5, 1), _rank_1_block(5, 0))), C5),
    ],
    ids=[
        "kummer", "split-3", "split-0", "split-q3", "split-q3+L1+E(-2)", "split-3+E(1)", "dense-split-3+E(1)",
        "dense-twin-L3+E(1)+T2", "dense-twin-L2+E(0)+T2@25", "dense-L2+E(1)+T2", "dense-L1+E(0)+T1@25", "zero",
        "L1+A(1)", "L1+A(q)", "L2+A(q)+T1", "T1+A(q)", "E(1)^2", "E(1)^3", "L1+E(1)+E(2)", "E(0)@25", "E(0)^2@25", "E(0)^3@25",
        "L1+E(0)^2+T1@25", "A(1)+A(q,Fil1)", "A(q,Fil1)+A(q)",
    ],
)
def test_block_reading_answers_as_the_whole_basis(build):
    """Atoms of several weights (split and dense modules), cross-weight
    Homs (a weight -1 block with a slope-0 line beside a lattice), repeated
    atoms, p-adic End spaces and 2 x 2 weight -1 blocks of two rank-1
    atoms (algebra dimension 2 and 3): membership and classification read
    from the atom-pair blocks answer, or fail, as the whole-basis scans do."""
    assert _block_reading_outcomes(build()) is not None


@pytest.mark.parametrize("lam, w2, w1", [(1, 0, -1), (5, -1, 0)])
def test_cross_weight_homs_raise_the_first_coupling_in_basis_order(lam, w2, w1):
    # with Fil1 the q-eigenline, Hom(A, L) sits in row 0, ahead of Hom(L, A)
    m = realize_one_motive(OneMotiveSpec(lattice_rank=1, abelian_explicit=(_companion_block(5, lam),)), C5)
    with pytest.raises(UnclassifiedShape, match=f"^an endomorphism couples weight {w2} into weight {w1}$"):
        classify_end(m, end_algebra(m))


def test_classify_end_refuses_a_large_weight_minus_1_block_without_eliminating(monkeypatch):
    """E(1)^8: the 16 x 16 weight -1 block matches no known case, and its
    algebra dimension is a count of blocks, with no echelon pass."""
    m = realize_one_motive(OneMotiveSpec(elliptic_traces=(1,) * 8), C5)
    e = end_algebra(m)
    calls, real = [], linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda *args: calls.append(args) or real(*args))
    message = "^weight -1 block of size 16 with algebra dimension 128 matches no known case$"
    with pytest.raises(UnclassifiedShape, match=message):
        classify_end(m, e)
    assert calls == []


def test_lattice_and_torus_pairs_make_no_elimination(monkeypatch):
    """An (L, L) or (T, T) pair's Sylvester matrix is the 1x1 zero, whose
    kernel is read by form: Hom(L^2 + T, L^3 + T^2) calls no _rref."""
    src = realize_one_motive(OneMotiveSpec(lattice_rank=2, torus_dim=1), C5)
    tgt = realize_one_motive(OneMotiveSpec(lattice_rank=3, torus_dim=2), C5)
    calls, real = [], linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda *args: calls.append(args) or real(*args))
    assert hom_space(src, tgt).dimension == 2 * 3 + 1 * 2
    assert calls == []


def test_the_solver_path_reads_no_basis(monkeypatch):
    """End, its closure, phi-membership, the classification and a complex's
    Hom read the atom-pair blocks: none of them reads ``HomSpace.basis``,
    the one placement of dense maps."""
    reads, basis = [], HomSpace.basis

    def spy(e):
        reads.append(e)
        return basis.fget(e)

    monkeypatch.setattr(HomSpace, "basis", property(spy))
    spec = OneMotiveSpec(lattice_rank=2, elliptic_traces=(1, 1), torus_dim=2)
    big = realize_one_motive(spec, C5)
    # survey rows: ordinary, irreducible, and scalar phi at t^2 = 4q
    rows = [
        direct_sum([realize_lattice(1, ctx), realize_elliptic(t, EllipticFilMode(mode), ctx)])
        for ctx, t, mode in ((C5, 1, "auto"), (C5, 0, "auto"), (C25, 10, "scalar"))
    ]
    dims, members, tags = [], [], []
    for m in (big, *rows):
        e = end_algebra(m)
        dims.append(e.dimension)
        members.append(frobenius_membership(m, e))
        try:
            tags.append(classify_end(m, e).tag_for_weight(-1))
        except UnclassifiedShape:
            tags.append(None)
    assert dims == [4 + 8 + 4, 3, 2, 4] and members == [True, True, False, True]
    assert tags == [None, POLYNOMIAL_ALGEBRA_OF_PHI, SCALAR_ONLY, UPPER_TRIANGULAR_FULL]
    x, y = realize_motive(spec, C5), realize_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), C5)
    assert hom_complex(x, x).dimension == dims[0] and hom_complex(x, y).dimension == hom_space(big, kummer(C5)).dimension
    assert reads == []
    # the spy sees every read: one read places the whole space
    e = end_algebra(big)
    placed = e.basis
    assert reads == [e] and len(placed) == dims[0] and all(h.rows == h.cols == big.dim for h in placed)


@pytest.mark.parametrize(
    "q, t, mode, tag",
    [
        (5, 1, "auto", POLYNOMIAL_ALGEBRA_OF_PHI),
        (5, 0, "auto", SCALAR_ONLY),
        (25, 0, "auto", POLYNOMIAL_ALGEBRA_OF_PHI),
        (25, 10, "scalar", UPPER_TRIANGULAR_FULL),
        (25, 10, "jordan", POLYNOMIAL_ALGEBRA_OF_PHI),
    ],
)
def test_classify_end_tags_by_block_count_with_no_elimination(monkeypatch, q, t, mode, tag):
    """L2 + E + T2 with each weight -1 tag, p-adic End at q = 25, t = 0:
    every weight block is tagged by its count of blocks, with no _rref and
    no span test."""
    ctx = PadicContext.from_q(q)
    spec = OneMotiveSpec(lattice_rank=2, elliptic_traces=(t,), torus_dim=2)
    m = realize_one_motive(spec, ctx, fil_mode=EllipticFilMode(mode))
    e = end_algebra(m)
    assert (e.ctx is not None) == ((q, t) == (25, 0))
    calls, rref, span = [], linalg._rref, homsolver.in_span_many
    monkeypatch.setattr(linalg, "_rref", lambda *args: calls.append("_rref") or rref(*args))
    monkeypatch.setattr(homsolver, "in_span_many", lambda *args: calls.append("in_span_many") or span(*args))
    c = classify_end(m, e)
    assert calls == []
    assert c.blocks == ((0, LATTICE_SCALARS), (-1, tag), (-2, TORUS_SCALARS))


def _membership_on_forged_blocks(xx, yy):
    """frobenius_membership of the sum of two lattice:2 atoms X and Y when
    End's (X, X) blocks are ``xx``, its (Y, Y) blocks ``yy`` and the two
    cross pairs have none."""
    x, y = dense(realize_lattice(2, C5)), dense(realize_lattice(2, C5))
    m = direct_sum([x, y])
    blocks = {(id(a), id(c)): [] for a in (x, y) for c in (x, y)}
    blocks[id(x), id(x)], blocks[id(y), id(y)] = xx, yy
    return frobenius_membership(m, HomSpace(m, m, blocks=blocks))


def test_membership_checks_that_each_pair_span_is_complete():
    identity = _padic_2x2([[1, 0], [0, 1]])
    assert _membership_on_forged_blocks([identity], [identity]) is True
    # phi's (Y, Y) restriction is the identity, outside an empty span
    assert _membership_on_forged_blocks([identity], []) is False
    assert _membership_on_forged_blocks([_padic_2x2([[1, 0], [0, 0]])], [identity]) is False


def test_membership_makes_one_span_test_per_distinct_atom(monkeypatch):
    """phi of L^2 + E(1)^2 + T^2 is tested once per distinct atom, each
    atom's phi against its own blocks; the zeros of phi at every other
    place are never built."""
    m = realize_one_motive(OneMotiveSpec(lattice_rank=2, elliptic_traces=(1, 1), torus_dim=2), C5)
    e = end_algebra(m)
    calls, zeros, real, real_zeros = [], [], homsolver.in_span_many, Matrix.zeros.__func__
    monkeypatch.setattr(homsolver, "in_span_many", lambda basis, targets: calls.append((basis, targets)) or real(basis, targets))
    monkeypatch.setattr(Matrix, "zeros", classmethod(lambda cls, *args: zeros.append(args) or real_zeros(cls, *args)))
    assert frobenius_membership(m, e) is True
    own_blocks = {id(a.phi): e.blocks[id(a), id(a)] for a, _, _ in m.atoms()}
    assert [len(targets) for _, targets in calls] == [1, 1, 1] and zeros == []
    assert all(basis is own_blocks[id(phi)] for basis, (phi,) in calls)


def test_membership_answers_false_before_raising_an_ambiguous_test():
    # I against span(diag(1, 1 + O(5^10))) leaves the residual O(5^10)
    fuzzy = _padic_2x2([[1, 0], [0, PadicScalar.one(5, 10)]])
    with pytest.raises(PrecisionExhausted, match="consistency check is ambiguous"):
        _membership_on_forged_blocks([fuzzy], [_padic_2x2([[1, 0], [0, 1]])])
    assert _membership_on_forged_blocks([fuzzy], []) is False


def test_homspace_serialization():
    e = end_algebra(kummer(C5))
    obj = homspace_to_jsonable(e, "lattice_scalars+torus_scalars")
    assert obj["dimension"] == 2
    assert len(obj["basis"]) == 2
    assert obj["precision_report"] is None


# -- independent brute-force oracle (small smoke version; the full sweep lives in
#    the acceptance suite) ----------------------------------------------------------


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
    assert _in_span(h.basis, u) is not None


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
    e0 = realize_elliptic(1, EllipticFilMode("eigenline", 0), C5)
    e1 = realize_elliptic(1, EllipticFilMode("eigenline", 1), C5)
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
    from onemotives.padic import PadicScalar

    # a Fil1 entry that cancelled far short of the zero threshold cannot
    # support a rank decision
    fuzzy = Matrix(
        2, 1,
        [PadicScalar.unresolved_zero(5, 10), PadicScalar.one(5, 80)],
        C5.doubled(),
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
