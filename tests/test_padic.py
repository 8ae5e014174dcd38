"""Scalar arithmetic, Hensel lifting, and Newton polygon tests."""

import math
import random
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import pytest

from onemotives.errors import (
    DivisionByZero,
    NonSimpleRoot,
    PrecisionExhausted,
    ZeroPolynomial,
)
from onemotives import padic
from onemotives.padic import (
    PadicContext,
    PadicScalar,
    from_rational,
    hensel_lift_root,
    integer_square_root,
    is_padic_square,
    is_prime,
    newton_slopes,
    poly_eval_mod,
    rational_from_str,
    rational_to_str,
    scalar_from_jsonable,
    scalar_to_jsonable,
)

C5 = PadicContext(5, 1, 40)


def test_context_validation():
    with pytest.raises(ValueError):
        PadicContext(4, 1, 40)
    with pytest.raises(ValueError):
        PadicContext(5, 0, 40)
    with pytest.raises(ValueError):
        PadicContext(5, 1, 3)
    assert PadicContext(5, 2).q == 25
    assert PadicContext.from_q(27).p == 3
    assert PadicContext.from_q(27).f == 3
    with pytest.raises(ValueError):
        PadicContext.from_q(12)


def test_is_prime_small():
    # below 37^2 trial division by the witnesses decides; above it Miller-Rabin
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for n in range(2, math.isqrt(limit) + 1):
        if sieve[n]:
            sieve[n * n :: n] = [False] * len(range(n * n, limit, n))
    assert [n for n in range(limit) if is_prime(n) != sieve[n]] == []
    assert is_prime(10**9 + 7)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(10**9 + 9 + 2)


def test_from_rational_zero_and_one():
    z = from_rational(0, C5)
    assert z.is_exact_zero
    one = from_rational(1, C5)
    assert (one.v, one.unit) == (0, 1)


def test_from_rational_ten_thirds():
    # 10/3 = 5 * (2/3); the unit is 2/3 mod 5^N, which reduces to 9 mod 25
    x = from_rational(Fraction(10, 3), C5)
    assert x.v == 1
    assert x.unit % 25 == 9
    assert (3 * (x.unit % 25) - 2) % 25 == 0


def test_arith_add_identity():
    a = from_rational(Fraction(7, 4), C5)
    z = from_rational(0, C5)
    assert a + z == a


def test_arith_p_times_p():
    p = from_rational(5, C5)
    sq = p * p
    assert (sq.v, sq.unit) == (2, 1)


def test_arith_div_units():
    a = from_rational(2, C5)
    b = from_rational(3, C5)
    c = a / b
    assert c.v == 0
    assert c.unit % 25 == 9
    assert (3 * (c.unit % 25) - 2) % 25 == 0


def test_division_by_exact_zero():
    with pytest.raises(DivisionByZero):
        from_rational(1, C5) / from_rational(0, C5)


def test_division_by_unresolved_zero():
    fuzz = PadicScalar.unresolved_zero(5, 12)
    with pytest.raises(PrecisionExhausted):
        from_rational(1, C5) / fuzz


def test_subtraction_cancellation_tracks_bound():
    a = from_rational(Fraction(7, 3), C5)
    d = a - a
    assert d.is_unresolved
    assert d.v == C5.precision


def test_from_rational_is_multiplicative():
    rng = random.Random(20260809)
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        y = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if x == 0 or y == 0:
            continue
        assert from_rational(x * y, C5) == from_rational(x, C5) * from_rational(y, C5)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_from_rational_matches_the_textbook_formula(p):
    """Strip p from numerator and denominator, then num * den^-1 mod p^N."""
    ctx = PadicContext(p, 1, 12)
    mod = p**ctx.precision

    def textbook(x: Fraction) -> PadicScalar:
        if x == 0:
            return PadicScalar.exact_zero(p)
        num, den, v = x.numerator, x.denominator, 0
        while num % p == 0:
            num, v = num // p, v + 1
        while den % p == 0:
            den, v = den // p, v - 1
        return PadicScalar(p, v, num * pow(den, -1, mod) % mod, ctx.precision)

    rng = random.Random(f"from_rational-{p}")
    values = [0, 1, -1, p, -p**3, Fraction(1, p), Fraction(-7, p**2)]
    for _ in range(400):
        num = rng.randint(-10**6, 10**6) * p ** rng.randint(0, 3)
        den = rng.choice([1, rng.randint(1, 10**4) * p ** rng.randint(0, 3)])
        values.append(Fraction(num, den))
    values += [int(x) for x in values if x.denominator == 1]
    for x in values:
        assert from_rational(x, ctx) == textbook(Fraction(x)), x
    kinds = {
        "p | num": any(x and Fraction(x).numerator % p == 0 for x in values),
        "p | den": any(Fraction(x).denominator % p == 0 for x in values),
        "den 1, coprime to p": any(Fraction(x).denominator == 1 and x % p for x in values),
        "den coprime to p, not 1": any(Fraction(x).denominator % p and Fraction(x).denominator > 1 for x in values),
        "negative": any(x < 0 for x in values),
        "zero": 0 in values,
    }
    assert all(kinds.values()), kinds


def test_valuation_stable_under_precision_doubling():
    big = PadicContext(5, 1, 80)
    rng = random.Random(7)
    for _ in range(100):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        if x == 0:
            continue
        assert from_rational(x, C5).v == from_rational(x, big).v
    r40 = hensel_lift_root([5, -1, 1], 1, C5)
    r80 = hensel_lift_root([5, -1, 1], 1, big)
    assert r40.v == r80.v
    assert r80.unit % 5**40 == r40.unit


def test_hensel_frozen_example():
    # T^2 - T + 5 at p=5: the lift of 1 is congruent to 21 mod 25
    r = hensel_lift_root([5, -1, 1], 1, C5)
    assert r.v == 0
    assert r.unit % 25 == 21
    assert (21**2 - 21 + 5) % 25 == 0


def test_hensel_linear_polynomial():
    r = hensel_lift_root([-1, 1], 1, C5)
    assert (r.v, r.unit) == (0, 1)


def test_hensel_non_simple_root():
    with pytest.raises(NonSimpleRoot):
        hensel_lift_root([5, 0, 1], 0, C5)


def test_hensel_rejects_non_roots():
    with pytest.raises(ValueError):
        hensel_lift_root([5, -1, 1], 2, C5)


def _plain_newton_lift(coeffs: list, r0: int, p: int, digits: int) -> int:
    """The root modulo p**digits by Newton steps that each take a fresh
    inverse of the derivative modulo the doubled power."""
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    r, k = r0 % p, 1
    while k < digits:
        k = min(2 * k, digits)
        mod = p**k
        r = (r - poly_eval_mod(coeffs, r, mod) * pow(poly_eval_mod(deriv, r, mod), -1, mod)) % mod
    return r


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251])
def test_hensel_lift_root_equals_a_plain_newton_lift(p):
    rng = random.Random(2300 + p)
    checked = 0
    for degree in range(1, 5):
        found = 0
        while found < 6:
            coeffs = [rng.randint(-(10**6), 10**6) for _ in range(degree)] + [1]
            r0 = rng.randrange(p)
            coeffs[0] -= poly_eval_mod(coeffs, r0, p)  # a root modulo p, not over Z
            deriv = [i * c for i, c in enumerate(coeffs)][1:]
            if poly_eval_mod(deriv, r0, p) == 0:
                continue
            found += 1
            for digits in (1, 2, 3, 40, 81):
                # hensel_lift_root reads only p and precision of its context,
                # and a PadicContext carries at least 4 digits
                ctx = SimpleNamespace(p=p, precision=digits)
                want = _plain_newton_lift(coeffs, r0, p, digits)
                assert poly_eval_mod(coeffs, want, p**digits) == 0
                assert hensel_lift_root(coeffs, r0, ctx) == PadicScalar.from_residue(p, want, digits)
                checked += 1
    assert checked == 4 * 6 * 5


@pytest.mark.parametrize("prec", [40, 80])
@pytest.mark.parametrize(
    "poly,r0,p",
    [
        ([5, -1, 1], 1, 5),
        ([7, -3, 1], 3, 7),
        ([2, 1, 1], 1, 2),
        ([-2, 0, 1], 3, 7),  # sqrt(2) in Z_7
    ],
)
def test_hensel_residue_vanishes(poly, r0, p, prec):
    ctx = PadicContext(p, 1, prec)
    r = hensel_lift_root(poly, r0, ctx)
    value = r.unit * p**r.v
    assert poly_eval_mod(poly, value, p**prec) == 0
    assert (value - r0) % p == 0


def test_newton_slopes_ordinary():
    assert newton_slopes([5, -1, 1], C5) == [0, 1]


def test_newton_slopes_supersingular():
    assert newton_slopes([5, 0, 1], C5) == [Fraction(1, 2), Fraction(1, 2)]


def test_newton_slopes_unit_root():
    assert newton_slopes([-1, 1], C5) == [0]


def test_newton_slopes_normalization():
    ctx = PadicContext(5, 2, 40)
    assert newton_slopes([25, -10, 1], ctx) == [Fraction(1, 2), Fraction(1, 2)]
    assert newton_slopes([25, -26, 1], ctx) == [0, 1]


def test_newton_slopes_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        newton_slopes([0, 0], C5)


def test_newton_slopes_zero_constant_term():
    # T^2 - T = T(T - 1): one unit root plus one root at zero
    slopes = newton_slopes([0, -1, 1], C5)
    assert slopes == [0, math.inf]


def test_newton_slopes_equal_for_int_and_fraction_coefficients():
    rng = random.Random("newton-int-fraction")
    for ctx in (C5, PadicContext(2, 3, 40), PadicContext(3, 2, 40)):
        p = ctx.p
        for _ in range(60):
            deg = rng.randint(1, 6)
            ints = [rng.choice([0, 1, -2, p, -(p**2), 7 * p**3]) for _ in range(deg)] + [rng.choice([1, p])]
            from_ints = newton_slopes(ints, ctx)
            from_fractions = newton_slopes([Fraction(c) for c in ints], ctx)
            assert from_ints == from_fractions, ints
            assert [type(s) for s in from_ints] == [type(s) for s in from_fractions], ints
            assert all(type(s) is Fraction or s == math.inf for s in from_ints), ints


def test_newton_slopes_sum_matches_constant_valuation():
    rng = random.Random(99)
    for _ in range(100):
        ctx = PadicContext(rng.choice([2, 3, 5, 7]), rng.choice([1, 2]), 40)
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)]
        lead = rng.choice([c for c in range(-10, 11) if c and c % ctx.p != 0])
        a0 = rng.choice([c for c in range(1, 200) if c % ctx.p != 0]) * ctx.p ** rng.randint(0, 3)
        coeffs = [a0] + coeffs[1:] + [lead]
        slopes = newton_slopes(coeffs, ctx)
        total = sum(slopes)
        v0 = 0
        m = a0
        while m % ctx.p == 0:
            m //= ctx.p
            v0 += 1
        assert total == Fraction(v0, ctx.f)


def test_newton_slopes_closed_form_matches_the_hull(monkeypatch):
    """A monic linear or quadratic polynomial with a nonzero constant term
    takes the closed form, never the hull, and answers as the hull does,
    value and type: over seeded polynomials at p in {2, 3, 5, 7, 101} and
    f <= 3, with zero, unit and non-unit middle coefficients, int and
    rational coefficients, p in numerators and denominators."""
    rng = random.Random("newton-closed-form")
    hull, calls = padic._hull_slopes, []
    monkeypatch.setattr(padic, "_hull_slopes", lambda poly, ctx: calls.append(poly) or hull(poly, ctx))
    compared = 0
    for p in (2, 3, 5, 7, 101):
        units = [c for c in range(-40, 41) if c % p]

        def scalar():
            x = Fraction(rng.choice(units), rng.choice([1, 1, 2, 3, 7])) * Fraction(p) ** rng.randint(-2, 4)
            return int(x) if x.denominator == 1 and rng.random() < 0.5 else x

        for f in (1, 2, 3):
            ctx = PadicContext(p, f, 40)
            for _ in range(400):
                if rng.random() < 0.25:
                    poly = [scalar(), 1]
                else:
                    poly = [scalar(), rng.choice([0, Fraction(0), rng.choice(units), scalar()]), rng.choice([1, Fraction(1)])]
                got = newton_slopes(poly, ctx)
                expected = hull(poly, ctx)
                assert got == expected and [type(s) for s in got] == [type(s) for s in expected], (p, f, poly)
                compared += 1
    assert compared == 6000 and calls == []
    # a zero constant term or a polynomial that is not monic takes the hull
    assert newton_slopes([0, -1, 1], C5) == [0, math.inf] and newton_slopes([5, 0, 5], C5) == [0, 0]
    assert len(calls) == 2


def test_rational_to_str_reads_fractions_and_ints_as_they_are():
    for x, text in ((Fraction(-6, 4), "-3/2"), (Fraction(0), "0/1"), (Fraction(7, 5), "7/5"), (7, "7/1"), (-3, "-3/1"), (0, "0/1")):
        assert rational_to_str(x) == text and rational_from_str(text) == x


def test_integer_square_root():
    s = integer_square_root(-19, 5, 40)
    assert s is not None
    assert (s.unit**2 + 19) % 5**40 == 0
    assert integer_square_root(-75, 5, 40) is None  # odd-looking unit: -3 is not a QR mod 5
    assert integer_square_root(5, 5, 40) is None  # odd valuation
    s2 = integer_square_root(-7, 2, 40)
    assert s2 is not None
    assert (s2.unit**2 + 7) % 2**40 == 0
    assert integer_square_root(3, 2, 40) is None  # 3 mod 8 is not a square


def test_square_root_at_two_has_every_digit_it_claims():
    # a root claiming `digits` digits is fixed mod 2^digits, so its square
    # is fixed mod 2^(digits + 1); the bit loop must run through k = digits
    for u in range(1, 1 << 12, 8):
        for digits in range(4, 65):
            s = integer_square_root(u, 2, digits)
            assert s.v == 0 and s.prec == digits
            assert (s.unit * s.unit - u) % (1 << (digits + 1)) == 0, (u, digits)


def test_unit_sqrt_starts_from_the_smaller_root_mod_p():
    # the root mod p is the one a scan over 1, ..., p - 1 would choose: the
    # smaller of r and p - r, which the Hensel lift keeps
    odd_primes = [p for p in range(3, 300) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    checked = 0
    for p in odd_primes:
        scan: dict = {}
        for r in range(1, p):  # u -> the first r with r^2 = u mod p
            scan.setdefault(r * r % p, r)
        for u, r in scan.items():
            root = padic._unit_sqrt(u, p, 3)
            assert root % p == min(r, p - r) and (root * root - u) % p**3 == 0
            checked += 1
    assert len(odd_primes) == 61 and checked == sum((p - 1) // 2 for p in odd_primes)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_is_padic_square_matches_brute_force_residues(p):
    # d with v = v_p(d) is a square in Q_p iff it is a square modulo
    # p^(v+3): a root mod p^(v+3) has valuation v/2, so the unit part is a
    # square mod p^3, resp. mod 8, and lifts
    for d in range(-300, 301):
        if d == 0:
            continue
        v = 0
        while d % p ** (v + 1) == 0:
            v += 1
        mod = p ** (v + 3)
        squares = {x * x % mod for x in range(mod)}
        assert is_padic_square(d, p) == (d % mod in squares), (d, p)


def test_truncate_keeps_value():
    x = from_rational(Fraction(10, 3), C5)
    t = x.truncate(10)
    assert t.prec == 10
    assert t.v == x.v
    assert t.unit == x.unit % 5**10


def test_scalar_serialization_roundtrip():
    for value in [Fraction(0), Fraction(1), Fraction(10, 3), Fraction(-7, 25)]:
        s = from_rational(value, C5)
        assert scalar_from_jsonable(scalar_to_jsonable(s), C5) == s


def test_scalar_from_jsonable_accepts_every_written_state():
    for s in [PadicScalar.exact_zero(5), PadicScalar.unresolved_zero(5, 7), PadicScalar(5, -2, 124, 3)]:
        assert scalar_from_jsonable(scalar_to_jsonable(s), C5) == s
    assert scalar_from_jsonable({"v": "inf", "unit": "0"}, C5) == PadicScalar.exact_zero(5)
    assert scalar_from_jsonable({"v": 1, "unit": "3"}, C5) == PadicScalar(5, 1, 3, C5.precision)


@pytest.mark.parametrize(
    "obj",
    [
        "7", [0, "1", 3], None,
        {"unit": "1", "prec": 3}, {"v": 0, "prec": 3},
        {"v": 0, "unit": "7", "prec": -2}, {"v": 0, "unit": "10", "prec": 3}, {"v": 0, "unit": "126", "prec": 3},
        {"v": 0, "unit": "0", "prec": 3}, {"v": 2, "unit": "3", "prec": 0}, {"v": "inf", "unit": "1", "prec": 1},
        {"v": "1", "unit": "1", "prec": 3}, {"v": 1.0, "unit": "1", "prec": 3}, {"v": 0, "unit": "-1", "prec": 3},
        {"v": 0, "unit": "x", "prec": 3}, {"v": 0, "unit": "1", "prec": "3"},
    ],
)
def test_scalar_from_jsonable_rejects_impossible_states(obj):
    with pytest.raises(ValueError):
        scalar_from_jsonable(obj, C5)


def test_rational_from_str_rejects_a_zero_denominator():
    assert rational_from_str("-3/6") == Fraction(-1, 2) and rational_from_str(4) == Fraction(4)
    with pytest.raises(ValueError, match="zero denominator"):
        rational_from_str("1/0")


def test_arithmetic_chains_stable_under_precision_doubling():
    """Random op chains evaluated at N and 2N give the same valuations for
    every result that resolves at N."""
    rng = random.Random(424242)
    big = PadicContext(5, 1, 80)
    for _ in range(50):
        seeds = []
        while len(seeds) < 4:
            x = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
            if x != 0:
                seeds.append(x)
        pools = {
            ctx: [from_rational(x, ctx) for x in seeds] for ctx in (C5, big)
        }
        ops = [rng.choice("+-*/") for _ in range(8)]
        picks = [(rng.randrange(4), rng.randrange(4)) for _ in range(8)]
        for op, (i, j) in zip(ops, picks):
            results = {}
            for ctx, pool in pools.items():
                a, b = pool[i], pool[j]
                try:
                    if op == "+":
                        r = a + b
                    elif op == "-":
                        r = a - b
                    elif op == "*":
                        r = a * b
                    else:
                        r = a / b
                except (DivisionByZero, PrecisionExhausted):
                    r = None
                results[ctx] = r
            lo, hi = results[C5], results[big]
            if lo is None or hi is None:
                continue
            for ctx, r in results.items():
                pools[ctx].append(r)
                pools[ctx].pop(0)
            if lo.is_resolved:
                assert hi.is_resolved and hi.v == lo.v
                assert hi.unit % 5**lo.prec == lo.unit


def _coset(x):
    """(exact rational representative, absolute bound) of a scalar's coset:
    the scalar is that rational + O(p^bound)."""
    if x.is_exact_zero:
        return Fraction(0), math.inf
    return Fraction(x.unit) * Fraction(x.p) ** x.v, x.v + x.prec


def _model(p, r, bound):
    """The scalar a representative r known to O(p^bound) must come out as:
    exact zero, the unresolved zero O(p^bound), or v = v_p(r) with the unit
    of r / p^v modulo p^(bound - v)."""
    if bound == math.inf:
        assert r == 0
        return PadicScalar.exact_zero(p)
    v = math.inf if r == 0 else (
        _valuation(r.numerator, p) - _valuation(r.denominator, p)
    )
    if v >= bound:
        return PadicScalar.unresolved_zero(p, bound)
    mod = p ** (bound - v)
    u = r / Fraction(p) ** v
    return PadicScalar(p, v, u.numerator * pow(u.denominator, -1, mod) % mod, bound - v)


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _any_state(rng, p):
    roll = rng.random()
    if roll < 0.15:
        return PadicScalar.exact_zero(p)
    if roll < 0.35:
        return PadicScalar.unresolved_zero(p, rng.randint(-3, 9))
    prec = rng.randint(1, 9)
    unit = rng.randrange(1, p**prec)
    while unit % p == 0:
        unit = rng.randrange(1, p**prec)
    return PadicScalar(p, rng.randint(-3, 6), unit, prec)


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_arithmetic_matches_the_coset_model(p):
    """add, sub, mul, div and neg over every pair of states agree with the
    cosets they stand for: a sum is known to min(v1 + prec1, v2 + prec2),
    a product or quotient to its valuation plus min(prec1, prec2)."""
    rng = random.Random(7000 + p)
    for _ in range(3000):
        x, y = _any_state(rng, p), _any_state(rng, p)
        (rx, bx), (ry, by) = _coset(x), _coset(y)
        assert -x == _model(p, -rx, bx)
        assert x + y == _model(p, rx + ry, min(bx, by))
        assert x - y == _model(p, rx - ry, min(bx, by))
        if x.is_exact_zero or y.is_exact_zero:
            assert x * y == PadicScalar.exact_zero(p)
        else:
            prec = min(x.prec, y.prec)
            assert x * y == _model(p, rx * ry, x.v + y.v + prec)
        if y.is_exact_zero:
            with pytest.raises(DivisionByZero, match="exact p-adic zero"):
                x / y
        elif y.is_unresolved:
            with pytest.raises(PrecisionExhausted, match=rf"O\({p}\^{y.v}\)"):
                x / y
        elif x.is_exact_zero:
            assert x / y == PadicScalar.exact_zero(p)
        else:
            assert x / y == _model(p, rx / ry, x.v - y.v + min(x.prec, y.prec))
        other = PadicScalar.one(7, 3)
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            with pytest.raises(ValueError, match="mixed primes"):
                getattr(x, op)(other)


def _composed(x, f, y, sign):
    return x + f * y if sign == 1 else x - f * y


@pytest.mark.parametrize("p", [2, 3, 5, 251])
def test_add_product_equals_multiply_then_add_or_subtract(p):
    rng = random.Random(8100 + p)
    unit = 1 if p == 2 else p - 1
    a = PadicScalar(p, 0, unit, 3)
    cases = [
        # the product's valuation 20 lies far beyond x's 3 digits, and back
        (a, PadicScalar(p, 10, 1, 3), PadicScalar(p, 10, unit, 5)),
        (PadicScalar(p, 25, 1, 2), a, PadicScalar(p, -2, unit, 4)),
        # an ambiguous factor: the product is an unresolved zero
        (a, PadicScalar.unresolved_zero(p, 4), PadicScalar(p, 1, unit, 6)),
        (PadicScalar.exact_zero(p), PadicScalar.unresolved_zero(p, -1), a),
    ]
    for _ in range(3000):
        cases.append((_any_state(rng, p), _any_state(rng, p), _any_state(rng, p)))
    for x, f, y in cases:
        for sign in (1, -1):
            # == compares p, v, unit and prec
            assert x.add_product(f, y, sign) == _composed(x, f, y, sign)
    # x = f * y: x - f * y cancels to the unresolved zero O(p^bound)
    for _ in range(200):
        f, y = _any_state(rng, p), _any_state(rng, p)
        x = f * y
        out = x.add_product(f, y, -1)
        assert out == x - f * y
        if x.is_resolved:
            assert out == PadicScalar.unresolved_zero(p, x.v + x.prec)


def test_add_product_rejects_mixed_primes_as_the_composed_operations_do():
    five, seven = PadicScalar.one(5, 4), PadicScalar.one(7, 4)
    for x, f, y in [(five, five, seven), (five, seven, five), (seven, five, five), (five, seven, seven)]:
        with pytest.raises(ValueError, match="mixed primes") as composed:
            _composed(x, f, y, -1)
        with pytest.raises(ValueError, match="mixed primes") as fused:
            x.add_product(f, y, -1)
        assert str(fused.value) == str(composed.value)


def test_power_memo_holds_the_powers():
    for p in (2, 3, 5, 251):
        for k in (0, 1, 7, 40, 80, 161):
            # a miss fills the entry, a hit reads it
            assert padic._POWERS[p, k] == p**k and padic._POWERS[p, k] == p**k
    assert all(type(v) is int and v == p**k for (p, k), v in padic._POWERS.items())


def test_power_memo_filled_from_many_threads_holds_the_powers():
    # primes no other test uses, so every thread fills entries anew
    primes, exponents = (1009, 1013, 1019), range(0, 240, 3)
    errors = []

    def fill(offset):
        for k in exponents:
            for p in primes[offset:] + primes[:offset]:
                if padic._POWERS[p, k] != p**k:
                    errors.append((p, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(i % 3,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert all(padic._POWERS[p, k] == p**k for p in primes for k in exponents)
