"""polynomials.horner, the one polynomial evaluation of the package, against
the sum of c_k x^k taken term by term: over ints and Fractions, and over
the Clifford algebra at a rank-one gamma."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.clifford import CliffordElement, gamma_rank_one
from cherednik.polynomials import horner

F = Fraction

INTS = st.integers(-10 ** 6, 10 ** 6)
FRACTIONS = st.fractions(min_value=-1000, max_value=1000, max_denominator=30)
COEFFS = st.one_of(
    st.lists(INTS, max_size=12),
    st.lists(FRACTIONS, max_size=12),
    st.integers(0, 8).map(lambda k: [0] * k),
    st.integers(0, 8).map(lambda k: [F(0)] * k),
)
POINTS = st.lists(st.one_of(INTS, FRACTIONS), max_size=8)


def by_powers(coeffs, x):
    """sum_k coeffs[k] x^k, each power taken with pow."""
    return sum((c * x ** k for k, c in enumerate(coeffs)), 0)


@settings(max_examples=300, deadline=None)
@given(COEFFS, POINTS)
def test_values_are_the_sums_of_powers_in_point_order(coeffs, points):
    values = horner(coeffs, points)
    assert len(values) == len(points)
    assert values == [by_powers(coeffs, x) for x in points]


def test_points_may_be_any_iterable():
    assert horner([1, 1], iter(range(4))) == [1, 2, 3, 4]
    assert horner([], iter([])) == []


def test_no_coefficients_give_the_zero_of_the_points_ring():
    values = horner([], [3, F(1, 2)])
    assert values == [0, 0]
    assert type(values[0]) is int and type(values[1]) is Fraction
    zero = horner([], [gamma_rank_one((F(1),))])[0]
    assert isinstance(zero, CliffordElement) and zero.is_zero()


UNITS = [(F(1),), (F(3, 5), F(4, 5)), (F(5, 13), F(12, 13))]


@settings(max_examples=40, deadline=None)
@given(st.lists(FRACTIONS, max_size=6), st.sampled_from(UNITS),
       st.lists(FRACTIONS, min_size=1, max_size=3))
def test_clifford_values_are_sums_of_repeated_products(coeffs, unit, shifts):
    g = gamma_rank_one(unit)
    points = [g] + [CliffordElement.scalar(s) + g for s in shifts]
    values = horner([CliffordElement.scalar(c) for c in coeffs], points)
    assert len(values) == len(points)
    for x, value in zip(points, values):
        want, power = CliffordElement.zero(), CliffordElement.scalar(1)
        for c in coeffs:
            want = want + power * c
            power = power * x
        assert value == want
