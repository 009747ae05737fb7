"""The difference polynomial q_i(t) = P(s) - P(s - t e_i), which membership
and nu root-find, built from the line kernel (weights.line_coeffs and one
Taylor shift), against two references: the Poly-valued evaluation it
replaced (the h-recurrence run in Poly arithmetic with s_i - t as a
coordinate), and P(s) - P(s - t e_i) by CentralCharPoly.evaluate at
deg P + 2 integer values of t."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.modules import _difference_poly
from cherednik.polynomials import Poly
from cherednik.weights import CentralCharPoly

F = Fraction


def poly_valued_evaluate(P: CentralCharPoly, point: list[Poly]) -> Poly:
    """sum_k c_k h_k(point) with Poly coordinates: the h-recurrence once per
    coefficient, in Poly arithmetic."""
    acc = Poly.zero()
    for k, c in enumerate(P.h_coeffs):
        row = [Poly.const(1)] + [Poly.zero()] * k
        for x in point:
            for j in range(1, k + 1):
                row[j] = row[j] + x * row[j - 1]
        acc = acc + row[k] * c
    return acc


def poly_valued_difference(P: CentralCharPoly, s: tuple[Fraction, ...], i: int) -> Poly:
    point = [Poly.const(c) for c in s]
    point[i - 1] = Poly.const(s[i - 1]) - Poly.x()
    return Poly.const(P.evaluate(s)) - poly_valued_evaluate(P, point)


def rationals(bound: int):
    """p/q with |p| <= bound and q in {1, 2, 3, 7}, the denominators the
    classify-roots queries use."""
    return st.builds(F, st.integers(-bound, bound), st.sampled_from((1, 2, 3, 7)))


@st.composite
def instances(draw):
    """(P, s, i): rank 1-6, every coordinate i, P of degree -1 (zero) to 6
    with small or 10^12-sized coefficients, and s with coordinates up to
    10^12."""
    n = draw(st.integers(1, 6))
    coeff = st.one_of(rationals(9), rationals(10 ** 12))
    coeffs = [draw(coeff) for _ in range(draw(st.integers(-1, 6)) + 1)]
    s = tuple(draw(rationals(10 ** 12)) for _ in range(n))
    return CentralCharPoly.from_h_coeffs(coeffs, n), s, draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(instances())
def test_difference_poly_equals_the_poly_valued_evaluation(instance):
    P, s, i = instance
    assert _difference_poly(P, s, i) == poly_valued_difference(P, s, i)


@settings(max_examples=300, deadline=None)
@given(instances(), st.data())
def test_difference_poly_interpolates_evaluate(instance, data):
    P, s, i = instance
    deg = len(P.h_coeffs) - 1
    q = _difference_poly(P, s, i)
    # b_K = c_K, so q has exactly the degree of P when that is positive; a
    # constant or zero P gives q == 0, the degenerate deformation.
    assert q.degree == (deg if deg >= 1 else -1)
    assert q.coeff(0) == 0
    ts = data.draw(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=deg + 2,
                            max_size=deg + 2, unique=True))
    base = P.evaluate(s)
    for t in ts:
        lowered = s[:i - 1] + (s[i - 1] - t,) + s[i:]
        assert q(t) == base - P.evaluate(lowered)


def test_zero_and_constant_P_give_q_zero_at_every_coordinate():
    s = (F(10 ** 12, 7), F(-1, 2), F(3))
    for coeffs in ([], [F(-5, 6)], [7, 0, 0]):
        P = CentralCharPoly.from_h_coeffs(coeffs, 3)
        for i in (1, 2, 3):
            assert _difference_poly(P, s, i).is_zero()
