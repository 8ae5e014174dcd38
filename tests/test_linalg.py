"""Kernel, Sylvester, characteristic polynomial, and elimination tests."""

import math
import random
from fractions import Fraction

import pytest

from onemotives.errors import NonSquare, PrecisionExhausted
from onemotives.linalg import (
    Matrix,
    PADIC,
    RATIONAL,
    annihilator_rows,
    char_poly,
    companion,
    inverse,
    is_zero,
    kernel,
    mat_mul,
    mat_scale,
    rank,
    share_root,
    shift_diagonal,
    solve,
    solve_many,
    submatrix,
    sylvester,
    to_padic,
    transpose,
    matrix_to_jsonable,
    matrix_from_jsonable,
)
from onemotives import homsolver, linalg, padic
from onemotives.padic import PadicContext, PadicScalar, from_rational, hensel_lift_root

C5 = PadicContext(5, 1, 40)


def frac_matrix(rows):
    return Matrix.from_rows([[Fraction(e) for e in row] for row in rows])


def assert_padic_value(scalar, expected, ctx, digits=20):
    """The scalar agrees with an exact rational to at least `digits` digits."""
    diff = scalar - from_rational(Fraction(expected), ctx)
    assert diff.negligible(digits), f"{scalar!r} != {expected} to {digits} digits"


# -- the scalar field is the context ------------------------------------------------


def test_kind_is_read_from_the_context():
    x = from_rational(3, C5)
    m = Matrix(1, 1, [x], C5)
    assert (m.kind, m.ctx, m.entries) == (PADIC, C5, [x])
    q = Matrix(1, 1, [1])
    assert (q.kind, q.ctx, q.entries) == (RATIONAL, None, [Fraction(1)])
    assert type(q.entries[0]) is Fraction


def test_zeros_identity_and_from_rows_take_a_context_or_none():
    zero, one = PadicScalar.exact_zero(5), PadicScalar.one(5, C5.precision)
    cases = [
        (Matrix.zeros(2, 1), Matrix(2, 1, [0, 0])),
        (Matrix.zeros(2, 1, C5), Matrix(2, 1, [zero, zero], C5)),
        (Matrix.identity(2), Matrix(2, 2, [1, 0, 0, 1])),
        (Matrix.identity(2, C5), Matrix(2, 2, [one, zero, zero, one], C5)),
        (Matrix.from_rows([[2, 0]]), Matrix(1, 2, [Fraction(2), Fraction(0)])),
        (Matrix.from_rows([[one, zero]], C5), Matrix(1, 2, [one, zero], C5)),
    ]
    for got, expected in cases:
        assert got == expected and got.kind == (RATIONAL if got.ctx is None else PADIC)
        assert all(type(e) is (Fraction if got.ctx is None else PadicScalar) for e in got.entries)


def test_a_kind_argument_is_rejected_at_construction():
    x = from_rational(3, C5)
    # the old call shape, a kind before the context
    with pytest.raises(TypeError):
        Matrix(1, 1, [x], PADIC, C5)
    # a stale positional kind lands where the context goes
    with pytest.raises(TypeError, match="PadicContext"):
        Matrix(1, 1, [x], "padic")
    # and where the constructors build their entries from the context
    with pytest.raises(TypeError, match="PadicContext, got 'padic'"):
        Matrix.zeros(2, 2, "padic")
    with pytest.raises(TypeError, match="PadicContext, got 'rational'"):
        Matrix.identity(2, "rational")


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


@pytest.mark.parametrize("x", [0, 1, -3, Fraction(2, 7)])
def test_rational_1x1_kernel_is_read_by_form(x, monkeypatch):
    """The kernel of a rational [x] is [[1]] when x is 0 and nothing
    otherwise, with no elimination: what _rref gives on [x] (its pivots) and
    on [x; 0], the same null space, basis and precision report included."""
    calls, rref = [], linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda *args: calls.append(args) or rref(*args))
    got = kernel(Matrix(1, 1, [x]))
    assert calls == []
    ref = kernel(Matrix(2, 1, [x, 0]))
    assert calls
    assert (got.dimension, got.basis, got.precision_report) == (ref.dimension, ref.basis, ref.precision_report)
    assert got.dimension == 1 - len(rref([[Fraction(x)]], 1, None))
    assert all(type(e) is Fraction for v in got.basis for e in v)


@pytest.mark.parametrize("x, dimension", [(0, 1), (5, 0)])
def test_padic_1x1_kernel_still_eliminates(x, dimension, monkeypatch):
    calls, rref = [], linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda *args: calls.append(args) or rref(*args))
    assert kernel(Matrix(1, 1, [from_rational(x, C5)], C5)).dimension == dimension
    assert calls


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
    m = Matrix(1, 1, [fuzz], C5)
    with pytest.raises(PrecisionExhausted):
        kernel(m)


def test_padic_trusted_zero_is_recorded():
    dead = PadicScalar.unresolved_zero(5, 39)
    m = Matrix(1, 1, [dead], C5)
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
        a = Matrix(r, n, [_random_padic(rng) for _ in range(r * n)], C5)
        b = Matrix(n, c, [_random_padic(rng) for _ in range(n * c)], C5)
        # PadicScalar equality compares p, v, unit and prec
        assert mat_mul(a, b).entries == dense_product(a, b)


@pytest.mark.parametrize("seed", range(4))
def test_submatrix_cuts_blocks_and_permutes(seed):
    rng = random.Random(seed)
    for draw, kind, ctx in ((_random_fraction, RATIONAL, None), (_random_padic, PADIC, C5)):
        for _ in range(10):
            n, c = rng.randint(1, 6), rng.randint(1, 6)
            a = Matrix(n, c, [draw(rng) for _ in range(n * c)], ctx)
            i0, i1 = sorted(rng.choices(range(n + 1), k=2))
            j0, j1 = sorted(rng.choices(range(c + 1), k=2))
            perm = rng.sample(range(n), n)
            cases = ((range(i0, i1), range(j0, j1)), (range(0), range(c)), (range(n), range(0)), (perm, range(c)))
            for rows, cols in cases:
                got = submatrix(a, rows, cols)
                assert (got.rows, got.cols, got.kind, got.ctx) == (len(rows), len(cols), kind, ctx)
                assert got.entries == [a.at(i, j) for i in rows for j in cols]
        square = Matrix(4, 4, [draw(rng) for _ in range(16)], ctx)
        perm = rng.sample(range(4), 4)
        got = submatrix(square, perm, perm)
        assert got.entries == [square.at(perm[i], perm[j]) for i in range(4) for j in range(4)]


def test_is_zero_on_each_kind_of_entry():
    assert is_zero(Matrix.zeros(2, 3)) and is_zero(Matrix.zeros(0, 0))
    assert not is_zero(frac_matrix([[0, 0], [0, Fraction(1, 3)]]))
    threshold = C5.threshold

    def padic_row(e):
        return Matrix(1, 2, [PadicScalar.exact_zero(5), e], C5)

    assert is_zero(Matrix.zeros(2, 2, C5))
    assert is_zero(padic_row(PadicScalar.exact_zero(5)))
    # an unresolved zero at or above the threshold counts as zero
    assert is_zero(padic_row(PadicScalar.unresolved_zero(5, threshold)))
    assert is_zero(padic_row(PadicScalar.unresolved_zero(5, threshold + 5)))
    assert not is_zero(padic_row(PadicScalar.unresolved_zero(5, threshold - 1)))
    # a resolved scalar is nonzero however large its valuation
    assert not is_zero(padic_row(PadicScalar(5, threshold + 5, 1, 3)))
    assert not is_zero(padic_row(from_rational(Fraction(1, 5), C5)))


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
        m = Matrix(rows, cols, entries, C5)
        rhss = []
        for _ in range(3):
            x = Matrix(cols, 1, [from_rational(rng.randint(-9, 9), C5) for _ in range(cols)], C5)
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
    m = Matrix(2, 1, [fuzz, fuzz], C5)
    rhss = [[PadicScalar.exact_zero(5)] * 2, [PadicScalar.one(5, 40)] * 2]
    with pytest.raises(PrecisionExhausted, match="pivot decision in column 0"):
        solve_many(m, rhss)
    assert _column_outcomes_agree(m, rhss) == {"precision"}


def _plain_rref(rows, ncols, kind, ctx):
    """Reference Gauss-Jordan with the kernel's pivot rule (first nonzero
    rational, least p-adic valuation), dividing the pivot row entry by entry
    and subtracting over whole rows.  Returns the rows and the pivots."""
    data = [list(r) for r in rows]
    if kind == RATIONAL:
        dead = lambda x: x == 0  # noqa: E731
    else:
        dead = lambda x: x.negligible(ctx.threshold)  # noqa: E731
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        live = [i for i in range(rank, len(data)) if not dead(data[i][c])]
        if not live:
            continue
        best = live[0] if kind == RATIONAL else min(live, key=lambda i: (data[i][c].v, i))
        data[rank], data[best] = data[best], data[rank]
        piv = data[rank][c]
        data[rank] = [e / piv for e in data[rank]]
        for i in range(len(data)):
            if i != rank and not dead(data[i][c]):
                factor = data[i][c]
                data[i] = [e - factor * g for e, g in zip(data[i], data[rank])]
        pivots.append((c, piv))
    return data, pivots


def _assert_plain_rref_answers(m, rhs):
    """kernel, rank and solve_many of m equal what the plain RREF gives."""
    one, zero = (
        (Fraction(1), Fraction(0)) if m.kind == RATIONAL
        else (PadicScalar.one(m.ctx.p, m.ctx.precision), PadicScalar.exact_zero(m.ctx.p))
    )
    rows = [m.row(i) for i in range(m.rows)]
    red, pivots = _plain_rref(rows, m.cols, m.kind, m.ctx)
    assert rank(m) == len(pivots)
    basis = []
    for fc in sorted(set(range(m.cols)) - {c for c, _ in pivots}):
        vec = [zero] * m.cols
        vec[fc] = one
        for r, (c, _) in enumerate(pivots):
            vec[c] = -red[r][fc]
        basis.append(vec)
    basis_red, basis_pivots = _plain_rref(basis, m.cols, m.kind, m.ctx)
    assert kernel(m).basis == basis_red[: len(basis_pivots)]
    aug, _ = _plain_rref([row + [b] for row, b in zip(rows, rhs)], m.cols, m.kind, m.ctx)
    x = [zero] * m.cols
    for r, (c, _) in enumerate(pivots):
        x[c] = aug[r][m.cols]
    assert solve_many(m, [rhs]) == [x]
    return [piv for _, piv in pivots]


def test_rref_takes_one_reciprocal_per_pivot_and_equals_plain_rref(monkeypatch):
    rng = random.Random(1406)
    ints = [[rng.randint(-30, 30) * 5 ** rng.randint(0, 2) for _ in range(9)] for _ in range(6)]
    m = to_padic(frac_matrix(ints), C5)
    rhs = [from_rational(rng.randint(-9, 9), C5) for _ in range(6)]
    assert len(_assert_plain_rref_answers(m, rhs)) == 6
    inverses, pivots = [], []
    real_inverse, real_rref = padic.modular_inverse, linalg._rref

    def counted_inverse(a, mod):
        inverses.append(a)
        return real_inverse(a, mod)

    def counted_rref(*args):
        out = real_rref(*args)
        pivots.extend(out)
        return out

    monkeypatch.setattr(padic, "modular_inverse", counted_inverse)
    monkeypatch.setattr(linalg, "_rref", counted_rref)
    for run in (lambda: kernel(m), lambda: rank(m), lambda: solve_many(m, [rhs])):
        inverses.clear()
        pivots.clear()
        run()
        assert pivots and 0 < len(inverses) <= len(pivots)


def test_rational_rref_with_unit_pivots_equals_plain_rref():
    # the first pivot is 1, and so is the second after eliminating the first
    m = frac_matrix([[1, 2, 3, 4, 5], [2, 5, 7, 1, 0], [3, 1, 4, 1, 6], [0, 2, -1, 3, Fraction(1, 2)]])
    pivots = _assert_plain_rref_answers(m, [Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(0)])
    assert pivots[:2] == [1, 1] and any(piv != 1 for piv in pivots)


def test_inverse_roundtrip():
    m = frac_matrix([[1, 2], [3, 4]])
    assert mat_mul(m, inverse(m)) == Matrix.identity(2)
    with pytest.raises(ValueError):
        inverse(frac_matrix([[1, 2], [2, 4]]))


def test_small_rational_inverse_equals_elimination():
    """A 1 x 1 or 2 x 2 rational inverse is the adjugate over the
    determinant: the matrix solve_many gives on the identity's columns,
    and the same ValueError on a singular matrix."""
    rng = random.Random(2027)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 2)
        m = Matrix(n, n, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n * n)])
        cols = solve_many(m, [[Fraction(i == j) for i in range(n)] for j in range(n)])
        if None in cols:
            singular += 1
            with pytest.raises(ValueError, match="matrix is singular"):
                inverse(m)
            continue
        assert inverse(m) == Matrix(n, n, [cols[j][i] for i in range(n) for j in range(n)])
    assert 20 < singular < 200


# -- sylvester -------------------------------------------------


def kron(a, b):
    """Reference Kronecker product: row (i, k), column (j, l) is a[i,j] * b[k,l]."""
    out = [a.at(i, j) * b.at(k, l) for i in range(a.rows) for k in range(b.rows)
           for j in range(a.cols) for l in range(b.cols)]
    return Matrix(a.rows * b.rows, a.cols * b.cols, out, a.ctx)


@pytest.mark.parametrize("seed", range(6))
def test_sylvester_equals_kronecker_reference(seed):
    """sylvester(A, B) is kron(A, I) - kron(I, B^T) entry for entry,
    p-adic v, unit and prec included."""
    rng = random.Random(seed)
    seen = {"n != m": 0, "exact zero": 0, "unresolved zero": 0}
    for _ in range(12):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        seen["n != m"] += n != m
        for kind, draw, ctx in ((RATIONAL, _random_fraction, None), (PADIC, _random_padic, C5)):
            a = Matrix(n, n, [draw(rng) for _ in range(n * n)], ctx)
            b = Matrix(m, m, [draw(rng) for _ in range(m * m)], ctx)
            left, right = kron(a, Matrix.identity(m, ctx)), kron(Matrix.identity(n, ctx), transpose(b))
            got = sylvester(a, b)
            assert (got.rows, got.cols) == (n * m, n * m)
            assert got.entries == [x - y for x, y in zip(left.entries, right.entries)]
            if kind == PADIC:
                entries = a.entries + b.entries
                seen["exact zero"] += any(e.is_exact_zero for e in entries)
                seen["unresolved zero"] += any(e.is_unresolved for e in entries)
    assert all(seen.values()), seen


def test_sylvester_rejects_non_square():
    with pytest.raises(NonSquare):
        sylvester(Matrix.zeros(2, 3), Matrix.identity(2))


def _commutant(a, b):
    """Basis of {H : A H = H B}, reshaped row-major into a.rows x b.rows matrices."""
    res = kernel(sylvester(a, b))
    return [Matrix(a.rows, b.rows, vec, a.ctx) for vec in res.basis]


def _span_contains(mats, target):
    vecs = [list(b.entries) for b in mats]
    stacked = Matrix(
        len(target.entries),
        len(vecs),
        [vecs[j][i] for i in range(len(target.entries)) for j in range(len(vecs))],
        target.ctx,
    )
    return solve(stacked, list(target.entries)) is not None


def test_sylvester_identity():
    i2 = Matrix.identity(2)
    assert len(_commutant(i2, i2)) == 4


def test_sylvester_diagonal():
    d = frac_matrix([[1, 0], [0, 7]])
    basis = _commutant(d, d)
    assert len(basis) == 2
    for h in basis:
        assert h.at(0, 1) == 0 and h.at(1, 0) == 0
        assert mat_mul(d, h) == mat_mul(h, d)


@pytest.mark.parametrize("t,q", [(1, 5), (0, 5), (10, 25), (-10, 25)])
def test_sylvester_companion_centralizer(t, q):
    c = companion([Fraction(q), Fraction(-t), Fraction(1)])
    basis = _commutant(c, c)
    assert len(basis) == 2
    assert _span_contains(basis, Matrix.identity(2))
    assert _span_contains(basis, c)


def test_sylvester_scalar_matrix_full():
    s = mat_scale(Fraction(3), Matrix.identity(3))
    assert len(_commutant(s, s)) == 9


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


def test_char_poly_of_a_scalar_block_is_read_by_form(monkeypatch):
    """(T - c)^n for c I, coefficient k of T^k being C(n, k) (-c)^(n-k),
    with no matrix product, for every n up to 8."""
    monkeypatch.setattr(linalg, "mat_mul", lambda a, b: pytest.fail("a scalar block needs no product"))
    for n in range(1, 9):
        for c in (Fraction(7, 3), Fraction(0), Fraction(-2), Fraction(1)):
            got = char_poly(mat_scale(c, Matrix.identity(n)))
            assert got == [math.comb(n, k) * (-c) ** (n - k) for k in range(n + 1)]
            assert all(type(x) is Fraction for x in got)


def test_char_poly_non_square():
    with pytest.raises(NonSquare):
        char_poly(Matrix.zeros(2, 3))


def test_char_poly_constant_term_is_the_signed_determinant():
    # det m = (-1)^n char_poly(m)[0]
    assert char_poly(frac_matrix([[2, 1], [1, 1]]))[0] == 1
    assert char_poly(frac_matrix([[0, -5], [1, 1]]))[0] == 5
    assert -char_poly(frac_matrix([[2, 0, 0], [0, 3, 0], [0, 0, 1]]))[0] == 6


def _oracle_matrix(rng, n, shape):
    """Random n x n rational matrix: dense, sparse, block-diagonal, or
    scalar (c I, with c = 0 about half the time)."""
    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    if shape == "scalar":
        return mat_scale(rng.choice([Fraction(0), entry()]), Matrix.identity(n))
    if shape == "dense":
        return Matrix(n, n, [entry() for _ in range(n * n)])
    if shape == "sparse":
        return Matrix(n, n, [entry() if rng.random() < 0.25 else Fraction(0) for _ in range(n * n)])
    m = Matrix.zeros(n, n)
    start = 0
    while start < n:
        size = rng.randint(1, n - start)
        for i in range(start, start + size):
            for j in range(start, start + size):
                m.entries[i * n + j] = entry()
        start += size
    return m


@pytest.mark.parametrize("shape", ["dense", "sparse", "block", "scalar"])
def test_char_poly_and_det_match_sympy(shape):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"char_poly-{shape}")
    for n in range(1, 8):
        for _ in range(4):
            m = _oracle_matrix(rng, n, shape)
            sm = sympy.Matrix(n, n, [sympy.Rational(e.numerator, e.denominator) for e in m.entries])
            expected = [Fraction(int(c.p), int(c.q)) for c in reversed(sm.charpoly().all_coeffs())]
            assert char_poly(m) == expected, m
            d = sympy.Rational(sm.det())
            assert (-1) ** n * char_poly(m)[0] == Fraction(int(d.p), int(d.q)), m


# -- eigen lines: kernels of m - lam I ----------------------------------------------


def test_eigen_line_diagonal():
    m = to_padic(frac_matrix([[1, 0], [0, 5]]), C5)
    res = kernel(shift_diagonal(m, -from_rational(1, C5)))
    assert res.dimension == 1
    assert_padic_value(res.basis[0][0], 1, C5)
    assert res.basis[0][1].negligible(C5.threshold)


def test_eigen_line_at_hensel_root():
    comp = companion([Fraction(5), Fraction(-1), Fraction(1)])
    u = hensel_lift_root([5, -1, 1], 1, C5)
    m = to_padic(comp, C5)
    res = kernel(shift_diagonal(m, -u))
    assert res.dimension == 1
    vec = res.basis[0]
    shift = mat_scale(u, Matrix.identity(2, C5))
    image = [
        (m.at(i, 0) - shift.at(i, 0)) * vec[0] + (m.at(i, 1) - shift.at(i, 1)) * vec[1] for i in range(2)
    ]
    assert all(e.negligible(C5.threshold) for e in image)


def test_eigen_line_invertible():
    m = to_padic(Matrix.identity(2), C5)
    assert kernel(shift_diagonal(m, -from_rational(0, C5))).dimension == 0


def test_eigen_line_rational():
    m = frac_matrix([[2, 1], [0, 3]])
    assert kernel(shift_diagonal(m, Fraction(-2))).basis == [[Fraction(1), Fraction(0)]]
    assert kernel(shift_diagonal(m, Fraction(-3))).basis == [[Fraction(1), Fraction(1)]]
    assert kernel(shift_diagonal(m, Fraction(-5))).dimension == 0


# -- stacked constraints ---------------------------------------------------------------


def test_constraint_stack_with_zero_block():
    assert kernel(frac_matrix([[1, 2], [0, 0]])).basis == kernel(frac_matrix([[1, 2]])).basis


def test_constraint_stack_full_rank():
    assert kernel(frac_matrix([[1, 0], [0, 1]])).dimension == 0


# -- misc -------------------------------------------------------------------------------


def test_annihilator_rows():
    f = frac_matrix([[0], [1]])
    q = annihilator_rows(f)
    assert (q.rows, q.cols) == (1, 2)
    assert mat_mul(q, f) == Matrix.zeros(1, 1)


def _kernel_annihilator(f):
    """The annihilator's rows as the kernel of f^T, by elimination."""
    ker = kernel(transpose(f))
    return Matrix(ker.dimension, f.rows, [e for v in ker.basis for e in v], f.ctx)


def test_annihilator_rows_by_form_equals_the_kernel():
    """Every shape read by form (no columns, one row, a 2 x 1 column with a
    certainly nonzero first entry) gives the kernel's rows entry for entry,
    p-adic valuation, unit and precision included, or raises what the
    kernel raises; entries run over every p-adic state."""
    rng = random.Random(8128)
    ctx = PadicContext(3, 1, 12)
    p = ctx.p

    def entry(padic):
        if not padic:
            return Fraction(rng.choice([0, 0, rng.randint(-9, 9)]), rng.randint(1, 9))
        kind = rng.randrange(4)
        if kind == 0:
            return PadicScalar.exact_zero(p)
        if kind == 1:
            return PadicScalar.unresolved_zero(p, rng.randint(-2, 2 * ctx.precision))
        x = PadicScalar.from_residue(p, rng.randrange(1, p**8), rng.randint(1, 8))
        return PadicScalar(p, x.v + rng.randint(-3, 3), x.unit, x.prec)

    outcomes = set()
    for _ in range(1500):
        padic = rng.random() < 0.7
        rows, cols = rng.choice([(2, 1), (2, 1), (1, 1), (1, 2), (3, 0), (1, 0), (2, 2)])
        f = Matrix(rows, cols, [entry(padic) for _ in range(rows * cols)], ctx if padic else None)
        try:
            expected = _kernel_annihilator(f)
        except PrecisionExhausted as exc:
            with pytest.raises(PrecisionExhausted, match=str(exc)):
                annihilator_rows(f)
            outcomes.add("raises")
            continue
        assert annihilator_rows(f) == expected, f
        outcomes.add((rows, cols, expected.rows))
    assert "raises" in outcomes and {(2, 1, 1), (2, 1, 2), (1, 1, 0), (1, 1, 1), (3, 0, 3)} <= outcomes


def test_share_root_detects_shared_roots():
    # (T-1)(T-2) against (T-3): no shared root
    assert not share_root([2, -3, 1], [-3, 1])
    # (T-1)(T-2) against (T-2): shared root
    assert share_root([2, -3, 1], [-2, 1])
    # a nonzero constant has no root; trailing zero coefficients are ignored
    assert not share_root([5], [2, -3, 1]) and share_root([2, -3, 1, 0], [-2, 1])
    # T^2 + 1 and T^2 - T + 1 are irreducible over Q and coprime; T^4 - 1 meets T^2 + 1
    assert not share_root([1, 0, 1], [1, -1, 1]) and share_root([-1, 0, 0, 0, 1], [1, 0, 1])
    with pytest.raises(ValueError, match="zero polynomial"):
        share_root([0], [1, 1])


def test_primitive_forms_share_a_root_as_their_polynomials_do():
    """primitive_form is the primitive integer multiple, trailing zeros
    dropped; forms_share_root on two forms answers as share_root on the
    polynomials and changes neither form, which atoms keep and share."""
    assert linalg.primitive_form([Fraction(1, 2), Fraction(-3, 4), Fraction(1), 0]) == [2, -3, 4]
    assert linalg.primitive_form([6, -4, 2]) == [3, -2, 1] and linalg.primitive_form([0, 0]) == []
    rng = random.Random("primitive-forms")
    for _ in range(200):
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 5))] + [Fraction(1)]
        g = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))] + [Fraction(1)]
        if rng.random() < 0.4:
            h = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(1)]  # a common factor
            f, g = _poly_mul(h, f), _poly_mul(h, g)
        a, b = linalg.primitive_form(f), linalg.primitive_form(g)
        kept = (list(a), list(b))
        assert linalg.forms_share_root(a, b) == share_root(f, g), (f, g)
        assert (a, b) == kept
    with pytest.raises(ValueError, match="zero polynomial"):
        linalg.forms_share_root([], [1, 1])


def test_rational_zero_and_one_are_shared_constants():
    assert linalg._zero(None) is linalg._zero(None) == 0 and linalg._one(None) is linalg._one(None) == 1
    assert all(x is linalg._zero(None) for x in Matrix.zeros(2, 3).entries)
    assert type(linalg._zero(None)) is type(linalg._one(None)) is Fraction


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_share_root_matches_sympy_gcd_degree():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(66)
    shared = 0
    for _ in range(300):
        # a common factor of degree 0 to 2 makes shared roots common
        common = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        common[-1] = common[-1] or 1
        f, g = (
            _poly_mul(common, [rng.randint(-5, 5) for _ in range(rng.randint(1, 8 - len(common)))])
            for _ in range(2)
        )
        if not any(f) or not any(g):
            continue
        as_sympy = [sympy.Poly(list(reversed(h)), x, domain="QQ") for h in (f, g)]
        expected = sympy.gcd(*as_sympy).degree() >= 1
        assert share_root(f, g) == expected, (f, g)
        shared += expected
    assert 50 < shared < 250



def _fraction_euclid_share_root(f, g):
    """Reference: Euclid's algorithm over Q on Fraction coefficients."""

    def trimmed(h):
        h = [Fraction(c) for c in h]
        while h and h[-1] == 0:
            h.pop()
        return h

    a, b = trimmed(f), trimmed(g)
    while b:
        while len(a) >= len(b):
            k, s = a[-1] / b[-1], len(a) - len(b)
            a = trimmed([c - k * b[i - s] if i >= s else c for i, c in enumerate(a)])
        a, b = b, a
    return len(a) > 1


def test_share_root_matches_fraction_euclid():
    rng = random.Random(6020)
    shared = 0
    for _ in range(2000):
        common = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        common[-1] = common[-1] or Fraction(1)
        f, g = (
            _poly_mul(common, [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))])
            if rng.random() < 0.5
            else [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 7))]
            for _ in range(2)
        )
        if not any(f) or not any(g):
            continue
        expected = _fraction_euclid_share_root(f, g)
        assert share_root(f, g) == expected, (f, g)
        shared += expected
    assert 200 < shared < 1800


def test_share_root_of_a_linear_polynomial_matches_the_euclid_path():
    """A linear f = a0 + a1 T is decided by one evaluation, a1^n g(-a0/a1)
    = 0; f^2 has f's roots and takes Euclid's path against a g of degree 2
    or more, and the Fraction Euclid is a second reference."""
    rng = random.Random(1729)
    answers = []
    for _ in range(600):
        f = [rng.randint(-6, 6), rng.choice([-3, -2, -1, 1, 2, 3])]
        if rng.random() < 0.5:
            g = _poly_mul(f, [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)])
        else:
            g = [rng.randint(-5, 5) for _ in range(rng.randint(2, 4))] + [rng.randint(1, 4)]
        expected = share_root(_poly_mul(f, f), g)
        assert share_root(f, g) == share_root(g, f) == expected == _fraction_euclid_share_root(f, g), (f, g)
        answers.append(expected)
        # against a linear or constant g, the Fraction Euclid alone
        h = [rng.choice([-4, -2, -1, 1, 3, 5])] + [rng.randint(1, 3)] * rng.randint(0, 1)
        assert share_root(f, h) == share_root(h, f) == _fraction_euclid_share_root(f, h), (f, h)
    assert 200 < sum(answers) < 400


def test_matrix_serialization_roundtrip():
    m = frac_matrix([[1, Fraction(-2, 3)], [0, 7]])
    obj = matrix_to_jsonable(m)
    assert obj["entries"][1] == "-2/3"
    assert matrix_from_jsonable(obj) == m
    mp = to_padic(m, C5)
    assert matrix_from_jsonable(matrix_to_jsonable(mp), C5) == mp


def test_matrix_from_jsonable_rejects_a_negative_shape():
    with pytest.raises(ValueError, match="non-negative"):
        matrix_from_jsonable({"rows": -1, "cols": -1, "entries": ["1"]})


def test_matrix_from_jsonable_padic_entries_need_a_context():
    obj = matrix_to_jsonable(to_padic(frac_matrix([[1], [0]]), C5))
    with pytest.raises(ValueError, match="context"):
        matrix_from_jsonable(obj)


def test_rational_add_product_is_one_fraction_equal_to_the_composed_operations():
    rng = random.Random(1707)
    values = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(60)]
    for _ in range(500):
        x, f, y = rng.sample(values, 3)
        for sign, composed in ((1, x + f * y), (-1, x - f * y)):
            out = linalg._fraction_add_product(x, f, y, sign)
            assert type(out) is Fraction and out == composed
            assert (out.numerator, out.denominator) == (composed.numerator, composed.denominator)


def test_padic_elimination_and_products_use_only_fused_updates(monkeypatch):
    rng = random.Random(1707)
    ints = [[rng.randint(-30, 30) * 5 ** rng.randint(0, 2) for _ in range(9)] for _ in range(6)]
    m = to_padic(frac_matrix(ints), C5)
    b = to_padic(frac_matrix([[rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(4)] for _ in range(9)]), C5)
    rhs = [from_rational(rng.randint(-9, 9), C5) for _ in range(6)]
    # the plain triple loop, summing over k from the exact zero
    product = []
    for i in range(m.rows):
        for j in range(b.cols):
            acc = PadicScalar.exact_zero(5)
            for k in range(m.cols):
                acc = acc + m.at(i, k) * b.at(k, j)
            product.append(acc)
    assert len(_assert_plain_rref_answers(m, rhs)) == 6
    calls = []
    for name in ("__add__", "__sub__"):
        real = getattr(PadicScalar, name)

        def spy(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(PadicScalar, name, spy)
    kernel(m), rank(m), solve_many(m, [rhs])
    assert mat_mul(m, b).entries == product
    assert calls == []
