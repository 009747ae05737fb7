"""least_positive_integer_root against a divisor-enumeration reference and
sympy, on generated and hand-picked polynomials, plus its cost bounds."""
import os
import subprocess
import sys
from fractions import Fraction
from math import floor, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.polynomials import Poly, least_positive_integer_root

F = Fraction


def divisor_roots(q: Poly) -> list[int]:
    """Reference: every positive integer root of q by the rational root
    theorem. Once the factor t is stripped from the denominator-cleared q,
    an integer root divides the constant term; the divisors are found by
    trial division up to sqrt|c0|, so keep |c0| small."""
    if q.is_zero():
        raise ValueError("zero polynomial has every root")
    den = lcm(*(c.denominator for c in q.coeffs))
    ints = [int(c * den) for c in q.coeffs]
    while ints[0] == 0:
        ints.pop(0)
    c0 = abs(ints[0])
    divisors = set()
    d = 1
    while d * d <= c0:
        if c0 % d == 0:
            divisors.update((d, c0 // d))
        d += 1
    return sorted(d for d in divisors if q(d) == 0)


def least_below(roots, cap):
    return min((r for r in roots if cap is None or r <= cap), default=None)


def from_roots(roots, lead=F(1)) -> Poly:
    return prod((Poly.of(-F(r), 1) for r in roots), start=Poly.of(lead))


roots_st = st.lists(
    st.one_of(st.integers(-30, 30),
              st.builds(lambda k: F(2 * k + 1, 2), st.integers(-30, 30)),
              st.builds(F, st.integers(-40, 40), st.integers(1, 5))),
    min_size=0, max_size=5)
lead_st = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 4))
cap_st = st.one_of(st.none(), st.integers(-2, 40))


@st.composite
def polys(draw):
    """A product of linear factors (integer, half-integer and other rational
    roots, repeats allowed), times t^k and an optional factor with no real
    root, or else dense small integer and rational coefficients."""
    if draw(st.booleans()):
        q = from_roots(draw(roots_st), draw(lead_st))
        q = q * Poly.of(*([0] * draw(st.integers(0, 2)) + [1]))
        if draw(st.booleans()):
            q = q * Poly.of(draw(st.integers(1, 9)), 0, 1)
        return q
    coeffs = draw(st.lists(st.builds(F, st.integers(-60, 60), st.integers(1, 3)),
                           min_size=1, max_size=6))
    q = Poly.of(*coeffs)
    return q if not q.is_zero() else Poly.of(1)


@settings(max_examples=300, deadline=None)
@given(polys(), cap_st)
def test_matches_divisor_reference(q, cap):
    assert least_positive_integer_root(q, cap) == least_below(divisor_roots(q), cap)


@settings(max_examples=150, deadline=None)
@given(polys(), cap_st)
def test_matches_sympy(q, cap):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    sq = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(q.coeffs)],
                    t, domain="QQ")
    roots = [int(r) for r in sq.ground_roots() if r.is_integer and r > 0]
    assert least_positive_integer_root(q, cap) == least_below(roots, cap)


def test_roots_on_bisection_endpoints():
    # The bisection runs over integer intervals (a, b], so its endpoints are
    # integers: an integer root can be an endpoint, a half-integer root never.
    # Integer roots at 4 and 8 sit on the endpoints of the first splits of
    # (0, 8], next to half-integer roots at 7/2 and 9/2; every cap 0..12
    # puts the right end of the search somewhere else.
    q = Poly.of(0, 1) * from_roots([4, 8, F(7, 2), F(9, 2)])
    for cap in range(13):
        assert least_positive_integer_root(q, cap) == least_below([4, 8], cap)
    # The benchmark's rejections: roots r1 + 1/2 and R + 1/2 only.
    R = 10 ** 11 + 3
    assert least_positive_integer_root(Poly.of(0, 1) * from_roots([F(5, 2), R + F(1, 2)])) is None
    # Roots at every power of two up to the Cauchy bound's neighbourhood.
    powers = [2 ** k for k in range(1, 8)]
    q = from_roots(powers + [F(2 ** k + 1, 2) for k in range(1, 8)])
    assert least_positive_integer_root(q) == 2
    assert least_positive_integer_root(q, cap=127) == 2
    assert least_positive_integer_root(from_roots([F(1, 2), 128])) == 128


def test_repeated_roots():
    q = Poly.of(0, 1) * from_roots([3, 3, 3, 5, 5, F(1, 2), F(1, 2)])
    assert least_positive_integer_root(q) == 3
    assert least_positive_integer_root(q, cap=2) is None
    assert least_positive_integer_root(from_roots([7] * 6)) == 7
    # Repeated roots on the endpoints of the bisection over (0, hi]: the
    # chain is divided by gcd(f, f') there, so a root of any multiplicity
    # at a or b is counted once, in (a, b] only.
    q = Poly.of(0, 1) * from_roots([2, 2, 2, 4, 4])
    for cap in range(1, 5):
        assert least_positive_integer_root(q, cap) == least_below([2, 4], cap)
    for k in range(1, 8):
        q = from_roots([2 ** k] * 3 + [F(2 ** k + 1, 2)])
        assert least_positive_integer_root(q) == 2 ** k
        assert least_positive_integer_root(q, cap=2 ** k - 1) is None


def test_root_at_cap_and_just_above():
    q = Poly.of(0, 1) * from_roots([17, 40])
    assert least_positive_integer_root(q, cap=17) == 17
    assert least_positive_integer_root(q, cap=16) is None
    assert least_positive_integer_root(q, cap=39) == 17
    q = Poly.of(0, 1) * from_roots([18])
    assert least_positive_integer_root(q, cap=17) is None
    assert least_positive_integer_root(q, cap=18) == 18
    assert least_positive_integer_root(q, cap=0) is None
    assert least_positive_integer_root(q, cap=-5) is None


def test_negative_leading_coefficient():
    q = from_roots([-4, 6, 9], lead=F(-3, 7))
    assert q.coeffs[-1] < 0
    assert least_positive_integer_root(q) == 6
    assert least_positive_integer_root(-q) == 6


def test_constant_and_monomials_have_no_positive_root():
    assert least_positive_integer_root(Poly.of(5)) is None
    assert least_positive_integer_root(Poly.of(F(-1, 3))) is None
    assert least_positive_integer_root(Poly.of(0, 0, 0, 2)) is None


def test_zero_polynomial_has_least_root_one():
    # every t is a root of 0: the least one is 1, when the cap admits it
    assert least_positive_integer_root(Poly.zero()) == 1
    for cap in (1, F(3, 2), 2, 10 ** 30):
        assert least_positive_integer_root(Poly.zero(), cap) == 1
    for cap in (0, -5, F(1, 2)):
        assert least_positive_integer_root(Poly.zero(), cap) is None


def test_root_just_inside_the_cauchy_bound():
    # 2t^3 - 7t^2 - 5t + 4 = 2(t - 1/2)(t + 1)(t - 4): Cauchy's bound is
    # 1 + 7/2 and the root 4 lies just inside it; a bound one lower misses it.
    q = from_roots([F(1, 2), -1, 4], lead=F(2))
    assert q == Poly.of(4, -5, -7, 2)
    assert least_positive_integer_root(q) == 4


def test_no_real_roots():
    assert least_positive_integer_root(Poly.of(1, 0, 1) * Poly.of(3, 1, 1)) is None


def test_cost_grows_with_bit_size():
    # q = c1 t - t^2 has the single positive root c1; a divisor scan of the
    # constant term (or of c1, after stripping t) would take sqrt(c1) = 1e10
    # steps, a linear scan 1e20.
    c1 = 10 ** 20 + 39
    assert least_positive_integer_root(Poly.of(0, c1, -1)) == c1
    assert least_positive_integer_root(Poly.of(0, c1, -1), cap=c1 - 1) is None
    big = 10 ** 60 + 7
    assert least_positive_integer_root(from_roots([big, big + 1, F(3, 2)])) == big


def test_one_remainder_sequence_per_query(monkeypatch):
    # A square-free q of degree d (no factor t) needs the d divisions of one
    # Euclidean pass on (q, q'), and no second pass for a gcd.
    calls = []
    divide = Poly.__divmod__

    def counting(a, b):
        calls.append(b.degree)
        return divide(a, b)

    monkeypatch.setattr(Poly, "__divmod__", counting)
    roots = [1, 3, F(5, 2), -2, 7, 11]
    for d in range(1, len(roots) + 1):
        calls.clear()
        assert least_positive_integer_root(from_roots(roots[:d])) == 1
        assert 0 < len(calls) <= d


def test_divmod_identity():
    a = Poly.of(F(1, 2), -3, 0, 5, 7)
    b = Poly.of(2, F(-1, 3), 1)
    quo, rem = divmod(a, b)
    assert quo * b + rem == a and rem.degree < b.degree
    assert divmod(b, a) == (Poly.zero(), b)
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly.zero())


def test_reference_agrees_on_planted_roots():
    q = Poly.of(0, 1) * from_roots([2, 9, -3, F(5, 2)])
    assert divisor_roots(q) == [2, 9]


# A rational cap used to split the bisection interval (1, 5/2] into
# (1, 1] and itself forever; the call runs in a child process so that a
# hang fails this test instead of stalling the suite.
RATIONAL_CAP = """
from fractions import Fraction
from cherednik.polynomials import Poly, least_positive_integer_root
print(least_positive_integer_root(Poly.of(0, -2, 1), cap=Fraction(5, 2)),
      least_positive_integer_root(Poly.of(0, 6, -5, 1), cap=Fraction(5, 2)))
"""


def test_a_rational_cap_returns():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    res = subprocess.run([sys.executable, "-c", RATIONAL_CAP], timeout=20,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["2", "2"]


def test_a_float_cap_is_a_type_error():
    # read before anything else, even where no root search is needed
    for q in (Poly.of(0, -2, 1), Poly.of(0, 1)):
        with pytest.raises(TypeError, match="exact rational"):
            least_positive_integer_root(q, cap=2.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(F, st.integers(-40, 40), st.integers(1, 4)),
                min_size=1, max_size=6, unique=True),
       lead_st, st.builds(F, st.integers(-20, 120), st.integers(1, 7)))
def test_rational_cap_is_read_as_its_floor(roots, lead, cap):
    # distinct linear factors: the positive integer roots are the listed ones
    listed = [int(r) for r in roots if r.denominator == 1 and r > 0]
    assert least_positive_integer_root(from_roots(roots, lead), cap) == \
        least_below(listed, floor(cap))
