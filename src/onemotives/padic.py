"""Fixed-precision p-adic scalars, Hensel lifting, and Newton polygons.

A nonzero scalar is stored as ``unit * p**valuation`` where ``unit`` is a
residue coprime to p known modulo ``p**prec``; the represented coset is
``unit * p**valuation + O(p**(valuation + prec))``.  Exact zero is kept
distinct from "zero to every digit we know": the latter remembers only a
lower bound on its valuation.  Rank decisions elsewhere in the package
treat an entry as zero only if it is exact zero or its guaranteed
vanishing order clears the working precision minus ``ZERO_MARGIN``;
anything in between is an ambiguity and raises ``PrecisionExhausted``
rather than guessing.

Division is multiplication by ``reciprocal()``, whose unit is inverted
modulo ``p**prec`` once; so elimination normalises a pivot row with one
modular inverse, digit for digit as if it divided every entry.
``x.add_product(f, y, sign)``, the cell update of elimination and matrix
products, is ``x + f * y`` or ``x - f * y`` in one step, digit for digit.
Every modulus ``p**k`` comes from ``_POWERS``, a memo keyed by (p, k).

Hensel lifting carries ``s = 1/f'(r)`` and refines it by ``s(2 - f'(r)s)``
as the modulus doubles, so a lift takes one modular inverse, modulo p
(von zur Gathen and Gerhard, Modern Computer Algebra, ch. 9); the units
``reciprocal()`` inverts are mostly small, where Euclid is cheaper.

Scalars are immutable after construction and all operations are pure, so
values may be shared freely between threads.  The memo only ever stores
``p**k`` under (p, k), so concurrent fills write equal values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZero,
    NonSimpleRoot,
    PrecisionExhausted,
    ZeroPolynomial,
)

# Digits of slack below the working precision before an unresolved zero is
# trusted to really be zero.
ZERO_MARGIN = 8

# Witness set making Miller-Rabin deterministic for n < 3.3 * 10**24,
# far beyond any prime usable here.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for sp in _MR_WITNESSES:
        if n % sp == 0:
            return n == sp
    if n < _MR_WITNESSES[-1] ** 2:  # a composite has a prime factor below its root
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_valuation(n: int, p: int) -> int:
    """v_p of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is undefined; handle it upstream")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def fraction_valuation(x: Fraction, p: int) -> int | float:
    """v_p extended to rationals; +inf for zero."""
    if x == 0:
        return math.inf
    return padic_valuation(x.numerator, p) - padic_valuation(x.denominator, p)


def modular_inverse(a: int, m: int) -> int:
    return pow(a, -1, m)


@dataclass(frozen=True)
class PadicContext:
    """The arithmetic world: prime p, exponent f with q = p**f, precision N.

    ``precision`` is the number of significant p-adic digits carried by
    scalars created from exact data.  Realization constructors store
    internally computed p-adic data (Hensel roots, eigenlines) with
    ``2 * precision`` digits so that structural answers can be re-derived
    at doubled precision and compared.
    """

    p: int
    f: int = 1
    precision: int = 40

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.f < 1:
            raise ValueError(f"f = {self.f} must be >= 1")
        if self.precision < 4:
            raise ValueError(f"precision {self.precision} must be >= 4")

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def threshold(self) -> int:
        """Vanishing order beyond which an entry counts as zero."""
        return self.precision - ZERO_MARGIN

    def doubled(self) -> PadicContext:
        return PadicContext(self.p, self.f, 2 * self.precision)

    @classmethod
    def from_q(cls, q: int, precision: int = 40) -> PadicContext:
        """Context from a prime power, factoring q = p**f."""
        if q < 2:
            raise ValueError(f"q = {q} is not a prime power")
        p = 2
        while p * p <= q and q % p != 0:
            p += 1
        if q % p != 0:
            p = q
        f = 0
        m = q
        while m % p == 0:
            m //= p
            f += 1
        if m != 1:
            raise ValueError(f"q = {q} is not a prime power")
        return cls(p, f, precision)


class _PowerTable(dict):
    """p**k keyed by (p, k), computed on first use."""

    def __missing__(self, key: tuple[int, int]) -> int:
        value = self[key] = key[0] ** key[1]
        return value


_POWERS = _PowerTable()  # the only state this module keeps


class PadicScalar:
    """One element of Q_p known to finitely many digits.

    Three states:

    * exact zero:       ``v is None``;
    * resolved scalar:  ``v`` is the exact valuation and ``unit`` is
      coprime to p, known modulo ``p**prec`` with ``prec >= 1``;
    * unresolved zero:  ``prec == 0``; all that is known is that the
      valuation is at least ``v``.
    """

    __slots__ = ("p", "v", "unit", "prec")

    def __init__(self, p: int, v: int | None, unit: int, prec: int):
        self.p = p
        self.v = v
        self.unit = unit
        self.prec = prec

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact_zero(cls, p: int) -> PadicScalar:
        return cls(p, None, 0, 0)

    @classmethod
    def unresolved_zero(cls, p: int, bound: int) -> PadicScalar:
        return cls(p, bound, 0, 0)

    @classmethod
    def one(cls, p: int, prec: int) -> PadicScalar:
        return cls(p, 0, 1, prec)

    @classmethod
    def from_residue(cls, p: int, value: int, abs_prec: int) -> PadicScalar:
        """Scalar from an integer known modulo p**abs_prec."""
        if abs_prec <= 0:
            return cls.unresolved_zero(p, 0)
        value %= p**abs_prec
        if value == 0:
            return cls.unresolved_zero(p, abs_prec)
        w = 0
        while value % p == 0:
            value //= p
            w += 1
        return cls(p, w, value % p ** (abs_prec - w), abs_prec - w)

    # -- state predicates --------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.v is None

    @property
    def is_resolved(self) -> bool:
        """True when the valuation is exact and at least one digit is known."""
        return self.v is not None and self.prec >= 1

    @property
    def is_unresolved(self) -> bool:
        return self.v is not None and self.prec == 0

    def negligible(self, threshold: int) -> bool:
        """Zero for rank purposes.

        Exact zero, or an unresolved zero whose guaranteed vanishing order
        clears the threshold.  A resolved scalar is never negligible: its
        valuation is exact, so it is certainly nonzero.
        """
        return self.v is None or (self.prec == 0 and self.v >= threshold)

    def ambiguous(self, threshold: int) -> bool:
        """Unresolved zero whose bound does not clear the threshold."""
        return self.is_unresolved and self.v < threshold

    def truncate(self, digits: int) -> PadicScalar:
        """Forget digits beyond the given relative precision."""
        if not self.is_resolved or digits >= self.prec:
            return self
        if digits < 1:
            raise ValueError("cannot truncate a resolved scalar below one digit")
        return PadicScalar(self.p, self.v, self.unit % self.p**digits, digits)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: PadicScalar) -> None:
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def __neg__(self) -> PadicScalar:
        if self.v is None or self.prec == 0:
            return self
        return PadicScalar(self.p, self.v, (-self.unit) % _POWERS[self.p, self.prec], self.prec)

    def _add(self, other: PadicScalar, sign: int) -> PadicScalar:
        """self + sign * other, for sign = 1 or -1."""
        if not isinstance(other, PadicScalar):
            return NotImplemented
        self._check(other)
        sv, ov = self.v, other.v
        if sv is None:
            return other if sign == 1 else -other
        if ov is None:
            return self
        return _sum(self.p, sv, self.unit, self.prec, ov, other.unit if sign == 1 else -other.unit, other.prec)

    def __add__(self, other: PadicScalar) -> PadicScalar:
        return self._add(other, 1)

    def __sub__(self, other: PadicScalar) -> PadicScalar:
        return self._add(other, -1)

    def __mul__(self, other: PadicScalar) -> PadicScalar:
        if not isinstance(other, PadicScalar):
            return NotImplemented
        self._check(other)
        if self.v is None or other.v is None:
            return PadicScalar.exact_zero(self.p)
        prec = self.prec if self.prec < other.prec else other.prec
        if prec == 0:
            return PadicScalar.unresolved_zero(self.p, self.v + other.v)
        unit = self.unit * other.unit % _POWERS[self.p, prec]
        return PadicScalar(self.p, self.v + other.v, unit, prec)

    def add_product(self, f: PadicScalar, y: PadicScalar, sign: int = 1) -> PadicScalar:
        """self + sign * (f * y), for sign = 1 or -1: digit for digit, and
        with the same errors, ``self + f * y`` or ``self - f * y``, without
        reducing the product's unit on its own, which the sum does."""
        p = f.p
        if p != y.p:
            raise ValueError(f"mixed primes {p} and {y.p}")
        if self.p != p:
            raise ValueError(f"mixed primes {self.p} and {p}")
        fv, yv = f.v, y.v
        if fv is None or yv is None:
            return self
        prec = f.prec if f.prec < y.prec else y.prec
        unit = f.unit * y.unit if sign == 1 else -f.unit * y.unit
        if self.v is None:
            if prec == 0:
                return PadicScalar(p, fv + yv, 0, 0)
            return PadicScalar(p, fv + yv, unit % _POWERS[p, prec], prec)
        return _sum(p, self.v, self.unit, self.prec, fv + yv, unit, prec)

    def reciprocal(self) -> PadicScalar:
        """1 / self to as many digits as self.  Its unit, the inverse modulo
        ``p**prec``, is the inverse modulo every lower power too, so
        ``x * self.reciprocal()`` equals ``x / self`` digit for digit."""
        if self.v is None:
            raise DivisionByZero("division by exact p-adic zero")
        if self.prec == 0:
            raise PrecisionExhausted(f"divisor is zero to the known precision O({self.p}^{self.v})")
        return PadicScalar(self.p, -self.v, modular_inverse(self.unit, _POWERS[self.p, self.prec]), self.prec)

    def __truediv__(self, other: PadicScalar) -> PadicScalar:
        if not isinstance(other, PadicScalar):
            return NotImplemented
        self._check(other)
        return self * other.reciprocal()

    # -- comparison and display --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return (self.p, self.v, self.unit, self.prec) == (
            other.p,
            other.v,
            other.unit,
            other.prec,
        )

    def __hash__(self) -> int:
        return hash((self.p, self.v, self.unit, self.prec))

    def __repr__(self) -> str:
        if self.is_exact_zero:
            return "0"
        if self.is_unresolved:
            return f"O({self.p}^{self.v})"
        return f"{self.unit}*{self.p}^{self.v} + O({self.p}^{self.v + self.prec})"


def _sum(p: int, sv: int, su: int, sprec: int, ov: int, ou: int, oprec: int) -> PadicScalar:
    """The scalar ``su * p**sv + O(p**(sv + sprec))`` plus ``ou * p**ov +
    O(p**(ov + oprec))``, neither of them exact zero.  The units need not be
    reduced or positive, and that of an operand with no digits is ignored:
    the sum keeps the digits both operands know and strips its factors of p."""
    bound = sv + sprec if sv + sprec < ov + oprec else ov + oprec
    base = sv if sv < ov else ov
    width = bound - base
    if width <= 0:
        return PadicScalar(p, bound, 0, 0)
    a = su if sv == base else su * _POWERS[p, sv - base]
    b = ou if ov == base else ou * _POWERS[p, ov - base]
    s = (a + b) % _POWERS[p, width]
    if s == 0:
        return PadicScalar(p, bound, 0, 0)
    w = 0
    while s % p == 0:
        s //= p
        w += 1
    return PadicScalar(p, base + w, s, width - w)


# -- scalar construction ------------------------------------------------------


def from_rational(x: Fraction | int, ctx: PadicContext) -> PadicScalar:
    """Image of an exact rational in Q_p to ``ctx.precision`` digits."""
    if type(x) is not Fraction:
        x = Fraction(x)
    if not x:
        return PadicScalar.exact_zero(ctx.p)
    p, digits = ctx.p, ctx.precision
    num, den = x.numerator, x.denominator
    vn = padic_valuation(num, p)
    vd = padic_valuation(den, p) if den != 1 else 0
    if vn:
        num //= p**vn
    if vd:
        den //= p**vd
    mod = _POWERS[p, digits]
    unit = (num if den == 1 else num * modular_inverse(den, mod)) % mod
    return PadicScalar(p, vn - vd, unit, digits)


# -- polynomial utilities ----------------------------------------------------
# Polynomials are ascending coefficient lists: [a0, a1, ..., an].


def poly_degree(coeffs: list) -> int:
    d = len(coeffs) - 1
    while d >= 0 and coeffs[d] == 0:
        d -= 1
    return d


def poly_derivative(coeffs: list) -> list:
    return [i * c for i, c in enumerate(coeffs)][1:]


def poly_eval_mod(coeffs: list, x: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def hensel_lift_root(poly: list, r0: int, ctx: PadicContext) -> PadicScalar:
    """Lift a simple root of a monic integer polynomial to ``ctx.precision`` digits.

    Newton iteration ``r <- r - poly(r)/poly'(r)`` with doubling modulus.
    The result satisfies ``poly(r) = 0 mod p**N`` and ``r = r0 mod p``.
    Raises ``NonSimpleRoot`` when the derivative vanishes at r0 modulo p.
    """
    p, target = ctx.p, ctx.precision
    coeffs = []
    for c in poly:
        c = Fraction(c)
        if c.denominator != 1:
            raise ValueError("integer coefficients required")
        coeffs.append(int(c))
    deg = poly_degree(coeffs)
    if deg < 1 or coeffs[deg] != 1:
        raise ValueError("monic polynomial of degree >= 1 required")
    coeffs = coeffs[: deg + 1]
    deriv = poly_derivative(coeffs)
    r = r0 % p
    if poly_eval_mod(coeffs, r, p) != 0:
        raise ValueError(f"{r0} is not a root modulo {p}")
    dr = poly_eval_mod(deriv, r, p)
    if dr == 0:
        raise NonSimpleRoot(f"derivative vanishes at {r0} modulo {p}")
    # s = 1/poly'(r) mod p**k: a step to at most 2k digits needs s to k
    # digits only, and s(2 - poly'(r) s) is then right to 2k
    s, k = modular_inverse(dr, p), 1
    while k < target:
        k = min(2 * k, target)
        mod = _POWERS[p, k]
        r = (r - poly_eval_mod(coeffs, r, mod) * s) % mod
        if k < target:
            s = s * (2 - poly_eval_mod(deriv, r, mod) * s) % mod
    return PadicScalar.from_residue(p, r, target)


def _lower_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Lower convex hull of points sorted by abscissa (monotone chain)."""
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # pop the middle point unless it makes a strict left turn
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def newton_slopes(poly: list, ctx: PadicContext) -> list:
    """Root valuations with multiplicity, normalized by f, sorted ascending.

    Read from the lower convex hull of ``(i, v_p(a_i))``.  A monic linear or
    quadratic polynomial with a nonzero constant term takes the hull's
    closed form in v0 = v_p(a0) and v1 = v_p(a1): for T^2 + a1 T + a0 one
    segment of slope v0/2 when v0 <= 2 v1 (a1 = 0 has v1 infinite), else
    the slopes v1 and v0 - v1.  A zero constant coefficient contributes
    roots of infinite slope.  When the leading coefficient is a p-unit the
    slopes sum to ``v_p(a_0)/f``.
    """
    if len(poly) in (2, 3) and poly[-1] == 1 and poly[0] != 0:
        v0, f = fraction_valuation(poly[0], ctx.p), ctx.f
        if len(poly) == 2:
            return [Fraction(v0, f)]
        v1 = fraction_valuation(poly[1], ctx.p)
        if v0 <= 2 * v1:
            return [Fraction(v0, 2 * f)] * 2
        return [Fraction(v1, f), Fraction(v0 - v1, f)]
    return _hull_slopes(poly, ctx)


def _hull_slopes(poly: list, ctx: PadicContext) -> list:
    """``newton_slopes`` of any polynomial, from the lower convex hull."""
    coeffs = [c if type(c) is Fraction else Fraction(c) for c in poly]
    deg = poly_degree(coeffs)
    if deg < 0:
        raise ZeroPolynomial("newton_slopes of the zero polynomial")
    points = [(i, fraction_valuation(coeffs[i], ctx.p)) for i in range(deg + 1) if coeffs[i] != 0]
    slopes: list = [math.inf] * points[0][0]
    hull = _lower_hull(points)
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        val = Fraction(y0 - y1, x1 - x0)  # common valuation of the segment's roots
        slopes.extend([val / ctx.f] * (x1 - x0))
    return sorted(slopes)


# -- square roots in Q_p -----------------------------------------------------


def _sqrt_mod_p(u: int, p: int) -> int:
    """The smaller square root of a quadratic-residue unit u modulo an odd
    prime p, by Tonelli-Shanks with p - 1 = q * 2^s, q odd."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)  # a non-residue
    c, t, r = pow(z, q, p), pow(u, q, p), pow(u, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:  # the least i with t^(2^i) = 1
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def _unit_sqrt(u: int, p: int, digits: int) -> int:
    """Square root of a unit modulo p**digits, from u mod p**(digits + 1); one must exist."""
    if p != 2:
        r0 = _sqrt_mod_p(u % p, p)
        ctx = PadicContext(p, 1, max(digits, 4))
        return hensel_lift_root([-u, 0, 1], r0, ctx).unit % p**digits
    # p = 2: u = 1 mod 8, known mod 2**(digits + 1); step k makes
    # s^2 = u mod 2**(k + 1), which fixes s mod 2**k
    s = 1
    for k in range(3, digits + 1):
        if (s * s - u) % (1 << (k + 1)):
            s += 1 << (k - 1)
    return s % (1 << digits)


def is_padic_square(d: int, p: int) -> bool:
    """Whether a nonzero integer is a square in Q_p: its valuation is even
    and its unit part is a square modulo p, or modulo 8 when p = 2 (Serre,
    A Course in Arithmetic, II.3.3)."""
    v = padic_valuation(d, p)
    u = d // p**v
    unit_is_square = u % 8 == 1 if p == 2 else pow(u % p, (p - 1) // 2, p) == 1
    return v % 2 == 0 and unit_is_square


def integer_square_root(d: int, p: int, digits: int) -> PadicScalar | None:
    """A square root of a nonzero integer in Q_p, or None when d is not a square."""
    if d == 0:
        raise ValueError("use exact zero directly")
    if not is_padic_square(d, p):
        return None
    v = padic_valuation(d, p)
    root = _unit_sqrt(d // p**v % p ** (digits + 1), p, digits)
    return PadicScalar(p, v // 2, root, digits)


# -- serialization -----------------------------------------------------------


def scalar_to_jsonable(s: PadicScalar) -> dict:
    """Object form: {"v": int | "inf", "unit": decimal string, "prec": int}."""
    return {
        "v": "inf" if s.is_exact_zero else s.v,
        "unit": str(s.unit),
        "prec": s.prec,
    }


def scalar_from_jsonable(obj: dict, ctx: PadicContext) -> PadicScalar:
    """Inverse of ``scalar_to_jsonable``.  Raises ``ValueError`` unless ``v``
    is "inf" (exact zero) or an integer, and ``unit`` is 0 exactly when
    ``prec`` is 0 and otherwise a p-adic unit below p**prec; a missing
    ``prec`` means 0 for exact zero and the context precision otherwise."""
    if not isinstance(obj, dict) or "v" not in obj or "unit" not in obj:
        raise ValueError(f"a p-adic scalar must be an object with 'v' and 'unit', got {obj!r}")
    p, v, unit = ctx.p, obj["v"], obj["unit"]
    prec = obj.get("prec", 0 if v == "inf" else ctx.precision)
    if type(unit) is str and unit.isascii() and unit.isdigit():
        unit = int(unit)
    valid = (v == "inf" or type(v) is int) and type(unit) is int and type(prec) is int
    if valid and prec == 0:
        valid = unit == 0
    elif valid:
        # p**prec is computed only when prec is at most the unit's bit length
        below = prec > unit.bit_length() or unit < p**prec
        valid = v != "inf" and prec > 0 and unit > 0 and unit % p != 0 and below
    if not valid:
        raise ValueError(
            f"{obj!r} is no p-adic scalar: v must be an integer or 'inf', and unit a decimal "
            f"that is 0 exactly when prec is 0 and otherwise a unit below {p}^prec"
        )
    return PadicScalar.exact_zero(p) if v == "inf" else PadicScalar(p, v, unit, prec)


def rational_to_str(x: Fraction | int) -> str:
    """The string "num/den" of a ``Fraction`` or an ``int``, read as it is."""
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "num/den" or an integer; raises ``ValueError`` on a zero denominator."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"rational {s!r} has a zero denominator") from None
