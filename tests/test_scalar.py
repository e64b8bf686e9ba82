import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gencactus.cyclotomic import MAX_CONDUCTOR
from gencactus.errors import CactusError
from gencactus.scalar import (
    CycloReal,
    _divmod,
    cos_pi_over,
    cyclotomic_polynomial,
    format_scalar,
    parse_scalar,
    scalar_sign,
)
from oracle_former_api import rational_value


@pytest.mark.parametrize("n", range(1, 121))
def test_cyclotomic_polynomial_matches_sympy(n):
    ours = cyclotomic_polynomial(n)
    assert all(type(c) is int for c in ours)
    x = sympy.Symbol("x")
    ref = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
    assert list(ours) == [int(c) for c in reversed(ref)]


def test_conductor_above_the_limit_is_refused():
    assert MAX_CONDUCTOR >= 1386  # I2(7)*I2(9)*I2(11)
    for make in (lambda: cyclotomic_polynomial(MAX_CONDUCTOR + 1),
                 lambda: CycloReal(MAX_CONDUCTOR + 1, [1]),
                 lambda: cos_pi_over(10007)):
        with pytest.raises(CactusError, match="conductor too large"):
            make()


@pytest.mark.parametrize("text", ["c(1,1000000)", "c(999999,1000000)"])
def test_parse_refuses_a_large_conductor_before_allocating(text):
    tracemalloc.start()
    try:
        with pytest.raises(CactusError, match="^conductor too large: N = 1000000 exceeds "):
            parse_scalar(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


@pytest.mark.parametrize("seed", range(40))
def test_divmod_matches_sympy(seed):
    rng = random.Random(seed)
    x = sympy.Symbol("x")
    fractions = seed % 2
    monic = seed % 4 < 2

    def coeff():
        c = rng.randint(-9, 9)
        return Fraction(c, rng.randint(1, 5)) if fractions else c

    den = [coeff() for _ in range(rng.randint(0, 6))] + [1 if monic else rng.choice([-3, 2, 7])]
    if fractions and not monic:
        den[-1] = Fraction(den[-1], 4)
    num = [coeff() for _ in range(rng.randint(0, 14))]

    def poly(p):
        return sympy.Poly(list(reversed(p)) or [0], x, domain="QQ")

    q_ref, r_ref = poly(num).div(poly(den))
    quot, rem = _divmod(num, den)
    assert len(rem) <= len(den) - 1
    for ours, ref in ((quot, q_ref), (rem, r_ref)):
        ref = [Fraction(int(c.p), int(c.q)) for c in reversed(ref.all_coeffs())]
        assert _trim(ours) == _trim(ref)
    if monic and not fractions:
        assert all(type(c) is int for c in quot + rem)


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 12])
def test_cos_value_numeric(m):
    val = cos_pi_over(m)
    assert val.is_conjugation_fixed()
    approx = float(val)
    assert abs(approx - math.cos(math.pi / m)) < 1e-12


def test_cos_rational_cases():
    # cos(pi/m) for m <= 3 is rational and lives at conductor 1, or at any
    # conductor asked for
    for m, value in ((1, -1), (2, 0), (3, Fraction(1, 2))):
        c = cos_pi_over(m)
        assert c.is_rational() and c == value and c.conductor == 1
        assert cos_pi_over(m, 35).conductor == 35 and cos_pi_over(m, 35) == value
    assert not cos_pi_over(5).is_rational()
    assert rational_value(cos_pi_over(3)) == Fraction(1, 2)


@pytest.mark.parametrize("n", [5, 8, 12, 126])
def test_int_coefficients_reduce_like_fractions(n):
    # an int list reduces in ints; the stored coefficients and the hash are
    # those of the same values given as Fractions
    rng = random.Random(n)
    for _ in range(25):
        ints = [rng.randint(-9, 9) for _ in range(rng.randint(0, 2 * n))]
        a, b = CycloReal(n, ints), CycloReal(n, [Fraction(c) for c in ints])
        assert a.coeffs == b.coeffs and hash(a) == hash(b)
        assert all(type(c) is Fraction for c in a.coeffs)


def test_cos_square_identities():
    # cos(pi/4)^2 = 1/2 and cos(pi/6)^2 = 3/4, exactly
    c4 = cos_pi_over(4)
    assert rational_value(c4 * c4) == Fraction(1, 2)
    c6 = cos_pi_over(6)
    assert rational_value(c6 * c6) == Fraction(3, 4)


def test_golden_ratio_relation():
    # x = 2cos(pi/5) satisfies x^2 = x + 1
    x = cos_pi_over(5) * 2
    assert x * x == x + 1
    assert (x * x - x - 1).is_zero()


def test_sign_certification_near_value():
    x = cos_pi_over(5) * 2  # golden ratio, 1.6180339887...
    assert (x - Fraction(1618, 1000)).sign() == 1
    assert (x - Fraction(16181, 10000)).sign() == -1
    assert (x - x).sign() == 0
    assert scalar_sign(Fraction(-3, 7)) == -1
    assert scalar_sign(Fraction(0)) == 0


def test_sign_doubles_the_precision_until_the_interval_excludes_zero(monkeypatch):
    # cos(pi/5) is half the golden ratio, and F(62)/F(61) falls short of it
    # by about 7e-26, so x is about 3.6e-26: a 64-bit interval around x
    # holds 0, and the 128-bit one certifies its sign
    fib = [0, 1]
    while len(fib) < 63:
        fib.append(fib[-1] + fib[-2])
    x = cos_pi_over(5) - Fraction(fib[62], 2 * fib[61])
    precs = []

    def interval_value(self, prec, read=CycloReal._interval_value):
        precs.append(prec)
        return read(self, prec)

    monkeypatch.setattr(CycloReal, "_interval_value", interval_value)
    assert x.sign() == 1 and precs == [64, 128]
    assert mpmath.mpf(0) < x.to_mpf(300) < mpmath.mpf("4e-26")


def test_sign_against_mpmath_intervals():
    for m in (5, 7, 8, 12):
        v = cos_pi_over(m) - Fraction(1, 3)
        expect = 1 if mpmath.cos(mpmath.pi / m) > mpmath.mpf(1) / 3 else -1
        assert v.sign() == expect


def test_truthiness_is_nonzero_without_a_sign():
    # a zero test by truthiness, as for int and Fraction, that decides no sign
    x = cos_pi_over(7)
    assert x and not (x - x) and not CycloReal(12, [0, 0, 0])
    assert bool(x * 0 + Fraction(-1, 3)) and not x.lift(28) * 0
    assert (x - x)._sign is None and x._sign is None


def test_hash_agrees_with_equality_across_conductors():
    c = cos_pi_over(4)
    lifted = c.lift(16)
    assert c == lifted and hash(c) == hash(lifted)
    assert len({c, lifted}) == 1


def test_lift_and_mixed_conductors():
    a = cos_pi_over(5)
    b = cos_pi_over(5, 20)
    assert a.lift(20) == b
    assert a == b  # equality lifts internally
    with pytest.raises(ValueError):
        a.lift(7)
    with pytest.raises(ValueError):
        cos_pi_over(5, 12)


def test_inverse_and_division():
    x = cos_pi_over(7)
    assert x * x.inverse() == 1
    assert (1 / x) * x == 1
    zero = x - x
    with pytest.raises(ZeroDivisionError):
        zero.inverse()


@pytest.mark.parametrize("n", range(1, 121))
def test_format_parse_roundtrip_every_conductor(n):
    rng = random.Random(n)
    x = CycloReal(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)])
    y = x + x.conjugate()
    assert parse_scalar(format_scalar(y)) == y


@pytest.mark.parametrize(
    "text",
    ["c(9,8)", "c(1,0)", "1/2*c(1,8)+", "2c(1,8)", "c(1,8)c(3,8)", "c(1,8)+c(1,5)", "", "c(1,8)+*2"],
)
def test_parse_refuses_malformed_text(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_format_parse_examples():
    assert format_scalar(Fraction(-5, 3)) == "-5/3"
    assert parse_scalar("-5/3") == Fraction(-5, 3)
    c = cos_pi_over(4)
    text = format_scalar(c)
    assert "c(" in text and ",8)" in text
    assert parse_scalar(text) == c


def test_str_is_format_scalar():
    # the CLI prints every scalar with str
    values = [0, 7, -3, Fraction(0), Fraction(-5, 3), Fraction(4),
              CycloReal.from_rational(Fraction(-1, 2), 10), CycloReal.from_rational(0, 8),
              cos_pi_over(5), -cos_pi_over(4, 24), cos_pi_over(7) + cos_pi_over(9),
              cos_pi_over(5) * cos_pi_over(8) - Fraction(1, 3)]
    for x in values:
        assert str(x) == format_scalar(x)
    assert {str(x) for x in values[6:8]} == {"-1/2", "0"}
    assert values[-2].conductor == 126 and "c(" in str(values[-2])


coeff = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@given(st.lists(coeff, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip_conductor8(coeffs):
    x = CycloReal(8, coeffs)
    y = x + x.conjugate()  # force a conjugation-fixed value
    assert parse_scalar(format_scalar(y)) == y


@given(st.lists(coeff, min_size=1, max_size=4), st.lists(coeff, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_ring_axioms_conductor5(a_coeffs, b_coeffs):
    a = CycloReal(5, a_coeffs)
    b = CycloReal(5, b_coeffs)
    c = cos_pi_over(5) * 2 - 1
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    if not a.is_zero():
        assert a * a.inverse() == 1


@given(
    st.lists(coeff, min_size=1, max_size=6),
    st.sampled_from([5, 7, 8, 9, 10, 12]),
    st.integers(min_value=2, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_hash_is_conductor_invariant(coeffs, conductor, factor):
    x = CycloReal(conductor, coeffs)
    lifted = x.lift(conductor * factor)
    assert x == lifted and hash(x) == hash(lifted)
    # a rational value hashes like the Fraction it equals
    q = CycloReal(conductor * factor, [coeffs[0]])
    assert hash(q) == hash(coeffs[0])


def test_power_and_conjugate():
    x = cos_pi_over(5)
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert x.conjugate() == x  # real value
    # a non-real element is moved by conjugation
    zeta = CycloReal(5, [0, 1])
    assert zeta.conjugate() != zeta
    assert not zeta.is_conjugation_fixed()


def test_reduction_is_canonical():
    # x^4 = -(1 + x + x^2 + x^3) mod Phi_5
    raw = CycloReal(5, [0, 0, 0, 0, 1])
    red = CycloReal(5, [-1, -1, -1, -1])
    assert raw == red
    assert raw.coeffs == red.coeffs
