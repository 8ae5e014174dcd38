"""Kernel, Sylvester, characteristic polynomial, and elimination tests."""

import random
from fractions import Fraction

import pytest

from onemotives.errors import ColumnMismatch, NonSquare, PrecisionExhausted
from onemotives.linalg import (
    Matrix,
    PADIC,
    RATIONAL,
    annihilator_rows,
    char_poly,
    companion,
    constraint_stack,
    det,
    eigen_line,
    inverse,
    kernel,
    kron,
    mat_mul,
    mat_scale,
    mat_sub,
    rank,
    resultant,
    solve,
    solve_many,
    sylvester_kernel,
    to_padic,
    matrix_to_jsonable,
    matrix_from_jsonable,
)
from onemotives.padic import PadicContext, PadicScalar, from_rational, hensel_lift_root

C5 = PadicContext(5, 1, 40)


def frac_matrix(rows):
    return Matrix.from_rows([[Fraction(e) for e in row] for row in rows])


def assert_padic_value(scalar, expected, ctx, digits=20):
    """The scalar agrees with an exact rational to at least `digits` digits."""
    diff = scalar - from_rational(Fraction(expected), ctx)
    assert diff.negligible(digits), f"{scalar!r} != {expected} to {digits} digits"


# -- kernel ---------------------------------------------------------------------


def test_kernel_zero_matrix():
    res = kernel(Matrix.zeros(2, 2))
    assert res.dimension == 2
    assert res.basis == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_kernel_identity():
    assert kernel(Matrix.identity(3)).dimension == 0


def test_kernel_rank_one_rational():
    res = kernel(frac_matrix([[5, 1], [10, 2]]))
    assert res.dimension == 1
    assert res.basis == [[Fraction(1), Fraction(-5)]]
    # substitute back: both rows vanish exactly
    for row in ([5, 1], [10, 2]):
        assert sum(Fraction(c) * x for c, x in zip(row, res.basis[0])) == 0


def test_kernel_rank_one_padic():
    m = to_padic(frac_matrix([[5, 1], [10, 2]]), C5)
    res = kernel(m)
    assert res.dimension == 1
    vec = res.basis[0]
    assert_padic_value(vec[0], 1, C5)
    assert_padic_value(vec[1], -5, C5)


def test_kernel_field_independence():
    rng = random.Random(42)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(r, c, [Fraction(rng.randint(-9, 9)) for _ in range(r * c)])
        assert kernel(m).dimension == kernel(to_padic(m, C5)).dimension


def _rank_mod_prime(rows, ncols, q):
    """Independent rank oracle over F_q (plain elimination on residues)."""
    data = [list(r) for r in rows]
    rk = 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(data)) if data[i][c] % q), None)
        if piv is None:
            continue
        data[rk], data[piv] = data[piv], data[rk]
        inv = pow(data[rk][c], -1, q)
        data[rk] = [(x * inv) % q for x in data[rk]]
        for i in range(len(data)):
            if i != rk and data[i][c] % q:
                f = data[i][c]
                data[i] = [(a - f * b) % q for a, b in zip(data[i], data[rk])]
        rk += 1
    return rk


def test_rational_rank_against_modular_oracle():
    rng = random.Random(2718)
    primes_pool = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        ints = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        m = frac_matrix(ints)
        rk = rank(m)
        assert kernel(m).dimension == c - rk
        mod_ranks = [
            _rank_mod_prime(ints, c, q) for q in rng.sample(primes_pool, 3)
        ]
        assert rk == max(mod_ranks)


def test_padic_ambiguous_pivot_raises():
    fuzz = PadicScalar.unresolved_zero(5, 10)  # vanishing order below threshold 32
    m = Matrix(1, 1, [fuzz], PADIC, C5)
    with pytest.raises(PrecisionExhausted):
        kernel(m)


def test_padic_trusted_zero_is_recorded():
    dead = PadicScalar.unresolved_zero(5, 39)
    m = Matrix(1, 1, [dead], PADIC, C5)
    res = kernel(m)
    assert res.dimension == 1
    assert res.precision_report == 39


# -- solve / inverse -------------------------------------------------------------


def test_solve_and_inconsistent():
    m = frac_matrix([[1, 1], [0, 1]])
    x = solve(m, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    m2 = frac_matrix([[1, 1], [2, 2]])
    assert solve(m2, [Fraction(1), Fraction(3)]) is None


def _random_padic(rng, p=5):
    """Exact zero, unresolved zero, or a resolved scalar of random precision."""
    roll = rng.random()
    if roll < 0.4:
        return PadicScalar.exact_zero(p)
    if roll < 0.55:
        return PadicScalar.unresolved_zero(p, rng.randint(0, 45))
    prec = rng.randint(1, 40)
    unit = rng.randrange(1, p**prec)
    while unit % p == 0:
        unit = rng.randrange(1, p**prec)
    return PadicScalar(p, rng.randint(-3, 5), unit, prec)


def _random_fraction(rng):
    if rng.random() < 0.6:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def dense_product(a, b):
    """Reference product: the textbook triple loop, summing over k in
    increasing order from the kind's zero."""
    zero = Fraction(0) if a.kind == RATIONAL else PadicScalar.exact_zero(a.ctx.p)
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = zero
            for k in range(a.cols):
                acc = acc + a.at(i, k) * b.at(k, j)
            out.append(acc)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_mat_mul_equals_dense_reference_product(seed):
    rng = random.Random(seed)
    for _ in range(10):
        r, n, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = Matrix(r, n, [_random_fraction(rng) for _ in range(r * n)])
        b = Matrix(n, c, [_random_fraction(rng) for _ in range(n * c)])
        got = mat_mul(a, b).entries
        assert got == dense_product(a, b)
        assert all(type(e) is Fraction for e in got)
        a = Matrix(r, n, [_random_padic(rng) for _ in range(r * n)], PADIC, C5)
        b = Matrix(n, c, [_random_padic(rng) for _ in range(n * c)], PADIC, C5)
        # PadicScalar equality compares p, v, unit and prec
        assert mat_mul(a, b).entries == dense_product(a, b)


def _column_outcomes_agree(m, rhss):
    """solve_many(m, rhss) gives, column by column, what solve gives alone.
    Returns the outcome kinds seen."""
    try:
        many = solve_many(m, rhss)
    except PrecisionExhausted as exc:
        many = [exc] * len(rhss)
    assert len(many) == len(rhss)
    kinds = set()
    for rhs, got in zip(rhss, many):
        try:
            want = solve(m, rhs)
        except PrecisionExhausted as exc:
            assert isinstance(got, PrecisionExhausted) and str(got) == str(exc)
            kinds.add("precision")
        else:
            assert got == want
            kinds.add("none" if want is None else "solution")
    return kinds


def test_solve_many_equals_per_column_solve_rational():
    rng = random.Random(11)
    kinds = set()
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 5)
        m = Matrix(rows, cols, [_random_fraction(rng) for _ in range(rows * cols)])
        rhss = []
        for _ in range(4):
            x = Matrix(cols, 1, [_random_fraction(rng) for _ in range(cols)])
            rhss.append(mat_mul(m, x).entries)
            rhss.append([_random_fraction(rng) for _ in range(rows)])
        kinds |= _column_outcomes_agree(m, rhss)
    assert kinds == {"solution", "none"}
    # integer right-hand sides are coerced like matrix entries
    assert all(type(e) is Fraction for e in solve(frac_matrix([[2, 0], [0, 1]]), [3, 0]))


def test_solve_many_equals_per_column_solve_padic():
    rng = random.Random(12)
    kinds = set()
    for _ in range(40):
        rows, cols = rng.randint(2, 6), rng.randint(1, 4)
        entries = [
            from_rational(Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 5])), C5)
            if rng.random() < 0.6
            else PadicScalar.exact_zero(5)
            for _ in range(rows * cols)
        ]
        m = Matrix(rows, cols, entries, PADIC, C5)
        rhss = []
        for _ in range(3):
            x = Matrix(cols, 1, [from_rational(rng.randint(-9, 9), C5) for _ in range(cols)], PADIC, C5)
            consistent = mat_mul(m, x).entries
            rhss.append(consistent)
            at = rng.randrange(rows)
            for bump in (PadicScalar.unresolved_zero(5, 10), PadicScalar.one(5, 40)):
                rhs = list(consistent)
                rhs[at] = rhs[at] + bump
                rhss.append(rhs)
        rhss.append([_random_padic(rng) for _ in range(rows)])
        kinds |= _column_outcomes_agree(m, rhss)
    assert kinds == {"solution", "none", "precision"}


def test_solve_many_raises_an_ambiguous_pivot_for_every_column():
    fuzz = PadicScalar.unresolved_zero(5, 10)
    m = Matrix(2, 1, [fuzz, fuzz], PADIC, C5)
    rhss = [[PadicScalar.exact_zero(5)] * 2, [PadicScalar.one(5, 40)] * 2]
    with pytest.raises(PrecisionExhausted, match="pivot decision in column 0"):
        solve_many(m, rhss)
    assert _column_outcomes_agree(m, rhss) == {"precision"}


def test_inverse_roundtrip():
    m = frac_matrix([[1, 2], [3, 4]])
    assert mat_mul(m, inverse(m)) == Matrix.identity(2)
    with pytest.raises(ValueError):
        inverse(frac_matrix([[1, 2], [2, 4]]))


# -- sylvester --------------------------------------------------------------------


def _span_contains(mats, target):
    vecs = [list(b.entries) for b in mats]
    stacked = Matrix(
        len(target.entries),
        len(vecs),
        [vecs[j][i] for i in range(len(target.entries)) for j in range(len(vecs))],
        target.kind,
        target.ctx,
    )
    return solve(stacked, list(target.entries)) is not None


def test_sylvester_identity():
    i2 = Matrix.identity(2)
    res = sylvester_kernel(i2, i2)
    assert res.dimension == 4


def test_sylvester_diagonal():
    d = frac_matrix([[1, 0], [0, 7]])
    res = sylvester_kernel(d, d)
    assert res.dimension == 2
    for h in res.basis:
        assert h.at(0, 1) == 0 and h.at(1, 0) == 0
        assert mat_mul(d, h) == mat_mul(h, d)


@pytest.mark.parametrize("t,q", [(1, 5), (0, 5), (10, 25), (-10, 25)])
def test_sylvester_companion_centralizer(t, q):
    c = companion([Fraction(q), Fraction(-t), Fraction(1)])
    res = sylvester_kernel(c, c)
    assert res.dimension == 2
    assert _span_contains(res.basis, Matrix.identity(2))
    assert _span_contains(res.basis, c)


def test_sylvester_scalar_matrix_full():
    s = mat_scale(Fraction(3), Matrix.identity(3))
    assert sylvester_kernel(s, s).dimension == 9


# -- char poly ---------------------------------------------------------------------


def test_char_poly_diagonal():
    m = frac_matrix([[1, 0], [0, 5]])
    assert char_poly(m) == [Fraction(5), Fraction(-6), Fraction(1)]


def test_char_poly_companion_roundtrip():
    rng = random.Random(314)
    for _ in range(60):
        deg = rng.randint(1, 8)
        poly = [Fraction(rng.randint(-9, 9)) for _ in range(deg)] + [Fraction(1)]
        assert char_poly(companion(poly)) == poly


def test_char_poly_block():
    t = 3
    m = frac_matrix([[0, -5, 0], [1, t, 0], [0, 0, 1]])
    # (T^2 - tT + 5)(T - 1) = T^3 - (t+1)T^2 + (5+t)T - 5
    assert char_poly(m) == [Fraction(-5), Fraction(5 + t), Fraction(-t - 1), Fraction(1)]


def test_char_poly_non_square():
    with pytest.raises(NonSquare):
        char_poly(Matrix.zeros(2, 3))


def test_det():
    assert det(frac_matrix([[2, 1], [1, 1]])) == 1
    assert det(frac_matrix([[0, -5], [1, 1]])) == 5


# -- eigen lines --------------------------------------------------------------------


def test_eigen_line_diagonal():
    m = to_padic(frac_matrix([[1, 0], [0, 5]]), C5)
    res = eigen_line(m, from_rational(1, C5))
    assert res.dimension == 1
    assert_padic_value(res.basis[0][0], 1, C5)
    assert res.basis[0][1].negligible(C5.threshold)


def test_eigen_line_at_hensel_root():
    comp = companion([Fraction(5), Fraction(-1), Fraction(1)])
    u = hensel_lift_root([5, -1, 1], 1, C5)
    m = to_padic(comp, C5)
    res = eigen_line(m, u)
    assert res.dimension == 1
    vec = res.basis[0]
    shifted = mat_sub(m, mat_scale(u, Matrix.identity(2, PADIC, C5)))
    image = [
        shifted.at(i, 0) * vec[0] + shifted.at(i, 1) * vec[1] for i in range(2)
    ]
    assert all(e.negligible(C5.threshold) for e in image)


def test_eigen_line_invertible():
    m = to_padic(Matrix.identity(2), C5)
    assert eigen_line(m, from_rational(0, C5)).dimension == 0


# -- constraint stacking --------------------------------------------------------------


def test_constraint_stack_single():
    b = frac_matrix([[1, 2]])
    assert constraint_stack([b]) == b


def test_constraint_stack_with_zero_block():
    b = frac_matrix([[1, 2]])
    z = Matrix.zeros(1, 2)
    assert kernel(constraint_stack([b, z])).basis == kernel(b).basis


def test_constraint_stack_full_rank():
    res = kernel(constraint_stack([frac_matrix([[1, 0]]), frac_matrix([[0, 1]])]))
    assert res.dimension == 0


def test_constraint_stack_mismatch():
    with pytest.raises(ColumnMismatch):
        constraint_stack([frac_matrix([[1, 0]]), frac_matrix([[1]])])


# -- misc -------------------------------------------------------------------------------


def test_annihilator_rows():
    f = frac_matrix([[0], [1]])
    q = annihilator_rows(f)
    assert (q.rows, q.cols) == (1, 2)
    assert mat_mul(q, f) == Matrix.zeros(1, 1)


def test_resultant_detects_shared_roots():
    # (T-1)(T-2) against (T-3): no shared root
    assert resultant([2, -3, 1], [-3, 1]) != 0
    # (T-1)(T-2) against (T-2): shared root
    assert resultant([2, -3, 1], [-2, 1]) == 0
    # degree-zero convention
    assert resultant([5], [2, -3, 1]) == 25


def test_kron_shapes():
    a = frac_matrix([[1, 2]])
    b = frac_matrix([[0], [3]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (2, 2)
    assert k.entries == [Fraction(0), Fraction(0), Fraction(3), Fraction(6)]


def test_matrix_serialization_roundtrip():
    m = frac_matrix([[1, Fraction(-2, 3)], [0, 7]])
    obj = matrix_to_jsonable(m)
    assert obj["entries"][1] == "-2/3"
    assert matrix_from_jsonable(obj) == m
    mp = to_padic(m, C5)
    assert matrix_from_jsonable(matrix_to_jsonable(mp), C5) == mp
