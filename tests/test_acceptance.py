"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 06b states the Newton slopes of every non-ordinary elliptic block,
that is of the Newton polygon of T^2 - tT + q for p | t, q = p^f: they are
{1/2, 1/2} when t = 0 or 2 v_p(t) >= f, and {v_p(t)/f, 1 - v_p(t)/f}
otherwise (q = 8, t = 2 gives {1/3, 2/3}).  The expected values come from
that closed form, not from the library.  On every trace of an actual
elliptic curve with p | t one has 2 v_p(t) >= f (Waterhouse, "Abelian
varieties over finite fields", 1969), so there the rule reduces to the
isoclinic {1/2, 1/2}; the other branch covers the non-curve traces that
``realize_elliptic`` also accepts.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hom_oracle import naive_hom_dimension, random_rational_module, weight_block_structure
from onemotives import linalg
from onemotives.cli import main
from onemotives.crystal import (
    EllipticFilMode,
    FilteredPhiModule,
    OneMotiveSpec,
    dual,
    extension_module,
    hodge_newton_numbers,
    newton_slopes_of,
    realize_elliptic,
    realize_lattice,
    realize_one_motive,
    realize_torus,
    scalar_frobenius_analysis,
    split_extension,
)
from onemotives.errors import NonSimpleRoot, NonSplitExtension
from onemotives.homsolver import (
    LATTICE_SCALARS,
    POLYNOMIAL_ALGEBRA_OF_PHI,
    SCALAR_ONLY,
    UPPER_TRIANGULAR_FULL,
    classify_end,
    end_algebra,
    frobenius_membership,
    hom_space,
)
from onemotives.linalg import Matrix
from onemotives.padic import PadicContext, hensel_lift_root, poly_eval_mod

GOLDEN = Path(__file__).parent / "golden"
PRIME_POWERS_LE_49 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49]
AUTO = EllipticFilMode("auto")


def report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {label}: {status}{suffix}")


def frac_matrix(rows):
    return Matrix.from_rows([[Fraction(e) for e in row] for row in rows])


def kummer(ctx):
    return realize_one_motive(OneMotiveSpec(lattice_rank=1, torus_dim=1), ctx)


def z_to_e(trace, ctx, mode=AUTO):
    return realize_one_motive(
        OneMotiveSpec(lattice_rank=1, elliptic_traces=(trace,)), ctx, fil_mode=mode
    )


def hasse_traces(q):
    bound = math.isqrt(4 * q)
    return range(-bound, bound + 1)


def test_criterion_01_kummer_end_every_prime_power():
    for q in [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49]:
        ctx = PadicContext.from_q(q)
        e = end_algebra(kummer(ctx))
        assert e.dimension == 2, f"q={q}"
        assert e.basis[0] == frac_matrix([[1, 0], [0, 0]]), f"q={q}"
        assert e.basis[1] == frac_matrix([[0, 0], [0, 1]]), f"q={q}"
        assert all(b.kind == "rational" for b in e.basis)
    report("01", True, "Kummer end = K0 + K0, diagonal, exact, 11 prime powers")


def test_criterion_02_ordinary_z_to_e():
    for prec in (40, 80):
        ctx = PadicContext(5, 1, prec)
        m = z_to_e(1, ctx)
        e = end_algebra(m)
        assert e.dimension == 3, f"precision {prec}"
        c = classify_end(m, e)
        assert c.tag_for_weight(-1) == POLYNOMIAL_ALGEBRA_OF_PHI
        assert c.tag_for_weight(0) == LATTICE_SCALARS
        assert frobenius_membership(m, e)
        for h in e.basis:
            blocks = weight_block_structure(h, m)
            assert blocks[(0, -1)] and blocks[(-1, 0)], "lattice-elliptic blocks must vanish"
    report("02", True, "q=5 t=1: dim 3, K0[phi] block, frobenius member, stable at 80")


def test_criterion_03_supersingular_z_to_e():
    dims = []
    for prec in (40, 80):
        ctx = PadicContext(5, 1, prec)
        m = z_to_e(0, ctx)
        e = end_algebra(m)
        dims.append(e.dimension)
        assert classify_end(m, e).tag_for_weight(-1) == SCALAR_ONLY
    assert dims == [2, 2]
    report("03", True, "q=5 t=0: dim 2, scalar block, stable under doubling")


def test_criterion_04_scalar_mode():
    ctx = PadicContext(5, 2, 40)
    m = z_to_e(10, ctx, EllipticFilMode("scalar"))
    e = end_algebra(m)
    assert e.dimension == 4
    assert classify_end(m, e).tag_for_weight(-1) == UPPER_TRIANGULAR_FULL
    assert scalar_frobenius_analysis(10, ctx) == 5
    report("04", True, "q=25 t=10 scalar: dim 4, UT_2 block, lambda = 5")


def test_criterion_05_torus_to_elliptic_vanishes():
    count = 0
    for q in PRIME_POWERS_LE_49:
        ctx = PadicContext.from_q(q)
        torus = realize_torus(1, ctx)
        for t in hasse_traces(q):
            assert hom_space(torus, realize_elliptic(t, AUTO, ctx)).dimension == 0, f"q={q} t={t}"
            count += 1
    report("05", True, f"hom(torus, elliptic) = 0 across {count} instances")


def test_criterion_06a_slopes_iff_ordinary_and_pure_pieces():
    for q in PRIME_POWERS_LE_49:
        ctx = PadicContext.from_q(q)
        assert newton_slopes_of(kummer(ctx)) == [0, 1], f"q={q}"
        assert newton_slopes_of(realize_lattice(1, ctx)) == [0]
        assert newton_slopes_of(realize_torus(1, ctx)) == [1]
        for t in hasse_traces(q):
            slopes = newton_slopes_of(realize_elliptic(t, AUTO, ctx))
            assert (slopes == [0, 1]) == (t % ctx.p != 0), f"q={q} t={t}"
    report("06a", True, "slopes {0,1} iff p does not divide t; Kummer/lattice/torus pure")


def test_criterion_06b_supersingular_isoclinic_as_stated():
    mismatches = []
    count = 0
    for q in PRIME_POWERS_LE_49:
        ctx = PadicContext.from_q(q)
        for t in hasse_traces(q):
            if t % ctx.p != 0:
                continue
            want = _expected_non_ordinary_slopes(t, ctx.p, ctx.f)
            got = newton_slopes_of(realize_elliptic(t, AUTO, ctx))
            if got != want:
                mismatches.append((q, t, [str(s) for s in want], [str(s) for s in got]))
            count += 1
    ok = not mismatches
    report("06b", ok, f"p | t: slopes {{1/2,1/2}} iff 2 v_p(t) >= f, else "
           f"{{v_p(t)/f, 1 - v_p(t)/f}}; exact at {count} traces" if ok
           else f"{len(mismatches)} of {count} traces disagree")
    assert ok, f"(q, t, expected, got) mismatches: {mismatches}"


def _expected_non_ordinary_slopes(t, p, f):
    """Newton slopes of T^2 - tT + q for p | t, read off the polygon of
    (0, f), (1, v_p(t)), (2, 0) without going through the library."""
    v = _vp(t, p)
    if 2 * v >= f:
        return [Fraction(1, 2), Fraction(1, 2)]
    return [Fraction(v, f), 1 - Fraction(v, f)]


def _vp(n, p):
    """p-adic valuation of an integer; infinite at 0."""
    if n == 0:
        return math.inf
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_criterion_07_conservation_duality_reflection():
    builders = []
    for q in [2, 5, 9, 25, 49]:
        ctx = PadicContext.from_q(q)
        builders += [
            realize_lattice(2, ctx),
            realize_torus(1, ctx),
            kummer(ctx),
        ]
        for t in hasse_traces(q):
            builders.append(realize_elliptic(t, AUTO, ctx))
            builders.append(z_to_e(t, ctx))
    for m in builders:
        t_h, t_n = hodge_newton_numbers(m)
        assert Fraction(t_h) == t_n, m.label
        dd = dual(dual(m))
        assert dd.phi == m.phi and dd.weights == m.weights
        assert hodge_newton_numbers(dd) == (t_h, t_n)
        vecs = linalg.kernel(linalg.sylvester(dd.phi, m.phi)).basis
        ident = list(Matrix.identity(m.dim).entries)
        stacked = Matrix(
            len(ident), len(vecs),
            [vecs[j][i] for i in range(len(ident)) for j in range(len(vecs))],
        )
        assert linalg.solve(stacked, ident) is not None, "identity intertwiner missing"
        assert newton_slopes_of(dual(m)) == sorted(1 - s for s in newton_slopes_of(m))
    report("07", True, f"t_H = t_N, double-dual identity, slope reflection on {len(builders)} modules")


# -- criterion 8: independent brute-force oracle ------------------------------------


def test_criterion_08_oracle_equivalence():
    ctx = PadicContext(5, 1, 40)
    rng = random.Random(880)
    trials = 220
    for i in range(trials):
        a = random_rational_module(rng, ctx)
        b = a if i % 5 == 0 else random_rational_module(rng, ctx)
        got = hom_space(a, b).dimension
        want = naive_hom_dimension(a, b)
        assert got == want, f"trial {i}: solver {got} vs oracle {want}"
    report("08", True, f"solver matches the naive elimination oracle on {trials} module pairs")


def test_criterion_09_split_extension_suite():
    rng = random.Random(909)
    total = 0
    for q in (2, 5, 9):
        ctx = PadicContext.from_q(q)
        for _ in range(50):
            lam = Fraction(rng.randint(-100, 100), rng.randint(1, 30))
            src = extension_module(lam, ctx)
            graded, u = split_extension(src)
            conj = linalg.mat_mul(linalg.mat_mul(u, src.phi), linalg.inverse(u))
            assert conj == graded.phi
            assert graded.phi == frac_matrix([[1, 0], [0, q]])
            total += 1
    coincident = FilteredPhiModule(
        PadicContext(5, 1, 40), 2,
        frac_matrix([[1, 1], [0, 1]]), (), Matrix.zeros(2, 0),
        label="coincident", graded=False, split_at=1,
    )
    with pytest.raises(NonSplitExtension):
        split_extension(coincident)
    report("09", True, f"{total} random extensions split exactly; coincident case raises")


def test_criterion_10_hensel_suite():
    cases = [
        ([5, -1, 1], 1, 5),
        ([7, -3, 1], 3, 7),
        ([2, 1, 1], 1, 2),
        ([-2, 0, 1], 3, 7),
        ([11, -1, 1], 1, 11),
    ]
    for prec in (40, 80):
        for poly, r0, p in cases:
            ctx = PadicContext(p, 1, prec)
            r = hensel_lift_root(poly, r0, ctx)
            value = r.unit * p**r.v
            assert poly_eval_mod(poly, value, p**prec) == 0
            assert (value - r0) % p == 0
    with pytest.raises(NonSimpleRoot):
        hensel_lift_root([5, 0, 1], 0, PadicContext(5, 1, 40))
    with pytest.raises(NonSimpleRoot):
        hensel_lift_root([-4, 0, 1], 2, PadicContext(2, 1, 40))
    report("10", True, "lifted roots vanish mod p^N for N in {40, 80}; double roots rejected")


def test_criterion_11_motivic_layer():
    from onemotives.motivic import MotivicComplex, direct_sum_complex, hom_complex, shift

    ctx = PadicContext(5, 1, 40)
    examples = [
        kummer(ctx),
        z_to_e(1, ctx),
        z_to_e(0, ctx),
        realize_lattice(1, ctx),
        realize_torus(1, ctx),
    ]
    for m in examples:
        x = MotivicComplex.of(m, 0)
        for n in (-2, -1, 1, 2):
            assert hom_complex(x, shift(x, n)).dimension == 0, (m.label, n)
    rng = random.Random(1111)
    for _ in range(10):
        xs = [MotivicComplex.of(rng.choice(examples), rng.randint(-1, 1)) for _ in range(3)]
        y = MotivicComplex.of(rng.choice(examples), rng.randint(-1, 1))
        total = direct_sum_complex(direct_sum_complex(xs[0], xs[1]), xs[2])
        assert hom_complex(total, y).dimension == sum(hom_complex(x, y).dimension for x in xs)
        assert hom_complex(y, total).dimension == sum(hom_complex(y, x).dimension for x in xs)
    report("11", True, "shift vanishing and biadditivity over 3-summand complexes")


def test_criterion_12_survey_goldens(capsys):
    assert main(["survey", "--p", "5", "--f", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main(["survey", "--p", "5", "--f", "2"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == (GOLDEN / "survey_p5_f1.txt").read_text(encoding="utf-8")
    assert out2 == (GOLDEN / "survey_p5_f2.txt").read_text(encoding="utf-8")
    for line in out1.splitlines()[1:]:
        cells = line.split()
        t, end_dim = int(cells[1]), int(cells[5])
        assert end_dim == (2 if t == 0 else 3)
    with capsys.disabled():
        report("12", True, "survey outputs match the checked-in goldens byte-for-byte")
