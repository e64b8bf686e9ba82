"""Exact scalar arithmetic: rationals and real cyclotomic numbers.

The irrational numbers that appear in Coxeter Gram matrices are the values
cos(pi/m).  We represent them inside Q[x]/Phi_N(x) where Phi_N is the N-th
cyclotomic polynomial and x stands for exp(2*pi*i/N), so that

    cos(pi/m) = (x**(N/(2m)) + x**(N - N/(2m))) / 2        (2m divides N).

Rationals are plain ``fractions.Fraction``.  One exact polynomial division,
`_divmod`, builds Phi_n from x**n - 1 (both live in `gencactus.cyclotomic`),
reduces every value modulo Phi_N and runs the Euclid steps of an inverse.
Zero-testing of a CycloReal is exact (reduce and compare coefficients); the
sign of a nonzero value is certified by interval evaluation of the embedding
x -> exp(2*pi*i/N) at increasing precision until the interval excludes zero.
That evaluation and `to_mpf` share one sum of c_k*cos(2*pi*k/N).
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Union

from .cyclotomic import _divmod, cyclotomic_polynomial

__all__ = [
    "Scalar",
    "CycloReal",
    "cyclotomic_polynomial",
    "cos_pi_over",
    "rational_cos_pi_over",
    "scalar_sign",
    "format_scalar",
    "parse_scalar",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _reduce(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    """Reduce a coefficient list modulo Phi_n to degree < deg(Phi_n)."""
    phi = cyclotomic_polynomial(n)
    rem = _divmod(coeffs, phi)[1]
    rem += [_ZERO] * (len(phi) - 1 - len(rem))
    return tuple(rem)


class CycloReal:
    """An element of Q[x]/Phi_N(x), used only for values fixed by x -> 1/x.

    Instances are immutable.  Arithmetic between different conductors lifts
    both operands to the least common conductor.  Hashing is consistent with
    equality at any conductor: a value hashes on its mean trace down to Q,
    which a lift does not change.
    """

    __slots__ = ("conductor", "coeffs", "_sign", "_hash")

    def __init__(self, conductor: int, coeffs) -> None:
        coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        self.conductor = conductor
        self.coeffs = _reduce(coeffs, conductor)
        self._sign = None
        self._hash = None

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> "CycloReal":
        return cls(conductor, [Fraction(value)])

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def lift(self, conductor: int) -> "CycloReal":
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("target conductor must be a multiple")
        step = conductor // self.conductor
        out = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return CycloReal(conductor, out)

    def conjugate(self) -> "CycloReal":
        """Image under x -> x**(N-1), i.e. complex conjugation."""
        n = self.conductor
        out = [_ZERO] * n
        for k, c in enumerate(self.coeffs):
            out[(n - k) % n] += c
        return CycloReal(n, out)

    def is_conjugation_fixed(self) -> bool:
        return self.conjugate() == self

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloReal):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloReal(self.conductor, [Fraction(other)])
        return None

    def _aligned(self, other: "CycloReal"):
        if self.conductor == other.conductor:
            return self, other
        n = math.lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._aligned(other)
        return CycloReal(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloReal(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._aligned(other)
        return CycloReal(a.conductor, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._aligned(other)
        if a.is_rational():
            q = a.coeffs[0]
            return CycloReal(b.conductor, [q * c for c in b.coeffs])
        if b.is_rational():
            q = b.coeffs[0]
            return CycloReal(a.conductor, [q * c for c in a.coeffs])
        return CycloReal(a.conductor, _poly_mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CycloReal":
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.is_rational():
            return CycloReal(self.conductor, [1 / self.coeffs[0]])
        # extended Euclid against Phi_N over Q; Phi_N is irreducible, so the
        # last nonzero remainder is a constant
        n = self.conductor
        r0, r1 = cyclotomic_polynomial(n), self.coeffs
        s0, s1 = [_ZERO], [_ONE]
        while any(r1):
            q, r = _divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        return CycloReal(n, [c / r0[0] for c in s0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self.inverse() if k < 0 else self
        k = abs(k)
        out = CycloReal.from_rational(1, self.conductor)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, CycloReal):
            a, b = self._aligned(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            # the mean trace down to Q does not change under lifts, and it is
            # the value itself when that is rational
            n = self.conductor
            self._hash = hash(sum(c * _mean_trace(k, n) for k, c in enumerate(self.coeffs)))
        return self._hash

    # -- sign and numeric evaluation ----------------------------------------

    def sign(self) -> int:
        """-1, 0 or +1, certified.  Zero is decided exactly."""
        if self._sign is None:
            self._sign = self._compute_sign()
        return self._sign

    def _compute_sign(self) -> int:
        if self.is_zero():
            return 0
        if self.is_rational():
            q = self.coeffs[0]
            return -1 if q < 0 else 1
        if not self.is_conjugation_fixed():
            raise ValueError("sign of a non-real cyclotomic value")
        prec = 64
        while True:
            val = self._interval_value(prec)
            if val > 0:
                return 1
            if val < 0:
                return -1
            prec *= 2

    def _interval_value(self, prec: int):
        # imported here, not at module level: only an infinite W with an
        # irrational bond certifies signs, and no other process should pay
        # for the import
        import mpmath

        return self._cos_sum(mpmath.iv, prec)

    def to_mpf(self, prec: int = 80):
        """High-precision floating approximation (for tests and display)."""
        import mpmath

        return self._cos_sum(mpmath.mp, prec)

    def _cos_sum(self, ctx, prec: int):
        """The sum of c_k*cos(2*pi*k/N) in the mpmath context ctx (iv or mp)."""
        saved = ctx.prec
        try:
            ctx.prec = prec
            total = ctx.mpf(0)
            n = self.conductor
            for k, c in enumerate(self.coeffs):
                if c:
                    total += ctx.mpf(c.numerator) / c.denominator * ctx.cos(ctx.pi * (2 * k) / n)
            return total
        finally:
            ctx.prec = saved

    def __float__(self):
        return float(self.to_mpf())

    def __repr__(self):
        return f"CycloReal({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


@functools.lru_cache(maxsize=None)
def _mean_trace(k: int, n: int) -> Fraction:
    """Mean of the Galois conjugates of x**k at conductor n: the Ramanujan sum
    c_n(k) over phi(n), which is mu(m)/phi(m) for m = n/gcd(n, k)."""
    m, value, p = n // math.gcd(n, k), _ONE, 2
    while m > 1:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return _ZERO
            value /= 1 - p
        p += 1
    return value


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [_ZERO] * (n - len(a))
    b = b + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def rational_cos_pi_over(m: int) -> Fraction | None:
    """cos(pi/m) when it is rational (m in {1, 2, 3}), else None."""
    if m == 1:
        return Fraction(-1)
    if m == 2:
        return Fraction(0)
    if m == 3:
        return Fraction(1, 2)
    return None


def cos_pi_over(m: int, conductor: int | None = None) -> CycloReal:
    """Exact cos(pi/m) as a CycloReal.

    The value lives at conductor 2m by default; an explicit conductor must be
    a multiple of 2m (rational values accept any conductor).
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    q = rational_cos_pi_over(m)
    if q is not None:
        return CycloReal.from_rational(q, conductor or 1)
    n = conductor or 2 * m
    if n % (2 * m):
        raise ValueError(f"conductor {n} does not contain cos(pi/{m})")
    e = n // (2 * m)
    coeffs = [_ZERO] * n
    coeffs[e] += Fraction(1, 2)
    coeffs[n - e] += Fraction(1, 2)
    return CycloReal(n, coeffs)


Scalar = Union[Fraction, CycloReal]


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, CycloReal):
        return x.sign()
    return -1 if x < 0 else (0 if x == 0 else 1)


def format_scalar(x: Scalar) -> str:
    """Exact string form: "p/q" for rationals, else c(k,N) polynomial terms.

    c(k,N) denotes x**k at conductor N under x -> exp(2*pi*i/N); for example
    cos(pi/4) prints as "-1/2*c(3,8)+1/2*c(1,8)".
    """
    if isinstance(x, CycloReal):
        if x.is_rational():
            return str(x.coeffs[0])
        parts = []
        n = x.conductor
        for k in range(len(x.coeffs) - 1, 0, -1):
            c = x.coeffs[k]
            if not c:
                continue
            if c == 1:
                term = f"c({k},{n})"
            elif c == -1:
                term = f"-c({k},{n})"
            else:
                term = f"{c}*c({k},{n})"
            parts.append(term)
        if x.coeffs[0]:
            parts.append(str(x.coeffs[0]))
        out = "+".join(parts)
        return out.replace("+-", "-")
    return str(x)


# one term of format_scalar's output: [sign][coef*]c(k,N), or [sign]p/q
_TERM = re.compile(r"([+-]?)(?:(?:(\d+(?:/\d+)?)\*)?c\((\d+),(\d+)\)|(\d+(?:/\d+)?))")


def parse_scalar(text: str) -> Scalar:
    """Inverse of format_scalar: terms as `_TERM`, each after the first signed,
    all c(k,N) at one conductor N with 0 <= k < N."""
    text = text.strip().replace(" ", "")
    if "c(" not in text:
        return Fraction(text)
    terms, pos = [], 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (pos and not m[1]):
            raise ValueError(f"malformed scalar string {text!r}")
        sign, coef, k, n, const = m.groups()
        terms.append((Fraction(sign + (const or coef or "1")), int(k or 0), n and int(n)))
        pos = m.end()
    conductors = {n for _, _, n in terms if n is not None}
    if len(conductors) != 1:
        raise ValueError("mixed conductors in scalar string")
    conductor = conductors.pop()
    coeffs = [_ZERO] * conductor
    for value, k, _ in terms:
        if k >= conductor:
            raise ValueError(f"c({k},{conductor}) is out of range")
        coeffs[k] += value
    return CycloReal(conductor, coeffs)
