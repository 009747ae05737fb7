"""The closed-form spin grid against independent routes: the enumerative
tensor (every box weight shifted by every sign vector) for the classes and
multiplicities, and, for the values of P, both CentralCharPoly.evaluate and
P_by_definition, which shares no code with the package's h-recurrence."""
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.modules import Box, axis_points, guaranteed_classes, nu_vector
from cherednik.weights import CentralCharPoly, Weight, complete_homogeneous, half_vector, rho
from helpers import classes, is_shift_weakly_decreasing, total_dimension

F = Fraction
HALF = F(1, 2)


def enumerative_tensor(L: dict[Weight, int]) -> dict[Weight, int]:
    """Reference L (x) spin: every weight of L shifted by every sign vector in
    {+-1/2}^n, kept when its rho-shift stays weakly decreasing."""
    out: dict[Weight, int] = {}
    for w, mult in L.items():
        for signs in product((HALF, -HALF), repeat=w.rank):
            cand = Weight(tuple(c + s for c, s in zip(w.coords, signs)))
            if is_shift_weakly_decreasing(cand):
                out[cand] = out.get(cand, 0) + mult
    return out


def grid_cells(P: CentralCharPoly, box: Box):
    """Box.grid(P) as (point, multiplicity, P at the point) per class, in
    product order."""
    axes, multiplicities, values, den = box.grid(P)
    return zip(axis_points(axes), multiplicities, (F(v, den) for v in values))


def P_by_definition(P: CentralCharPoly, point) -> Fraction:
    """sum_k c_k h_k(point), each h_k the sum of all degree-k monomials: one
    product per multiset of k coordinates."""
    return sum((c * sum(map(prod, combinations_with_replacement(point, k)))
                for k, c in enumerate(P.h_coeffs)), Fraction(0))


def _fraction(draw, size: int = 12) -> Fraction:
    return F(draw(st.integers(-size, size)), draw(st.sampled_from((1, 2, 3, 4, 5, 7))))


@st.composite
def boxes(draw):
    """A dominant lam of rank 1-5 whose common offset lies anywhere in Q
    (lam_1 in 1/3 + Z, 2/7 + Z, ...), a box nu within its dominance gaps, and
    a P with rational h-coefficients: zero, constant or of degree up to 5.
    The grid has at most 400 points."""
    n = draw(st.integers(1, 5))
    cap = (1, 12, 5, 3, 2, 1)[n]
    nu = tuple(draw(st.integers(0, cap)) for _ in range(n))
    gaps = [v + draw(st.integers(0, 2)) for v in nu[:-1]]
    last = _fraction(draw)
    lam = Weight(tuple(last + sum(gaps[i:]) for i in range(n)))
    degree = draw(st.integers(-1, 5))
    P = CentralCharPoly.from_h_coeffs([_fraction(draw) for _ in range(degree + 1)], n)
    return P, lam, nu


@settings(max_examples=120, deadline=None)
@given(boxes())
def test_spin_grid_matches_enumerative_tensor_and_evaluate(box):
    P, lam, nu = box
    n = lam.rank
    checked = Box(lam, nu)
    reference = enumerative_tensor(classes(checked.L))
    top = lam.shifted()
    shift = half_vector(n) - rho(n)
    cells = list(grid_cells(P, checked))
    # product order over o in [0, nu + 1], one cell per class of the tensor
    offsets = list(product(*(range(v + 2) for v in nu)))
    assert [pt for pt, _, _ in cells] == [
        tuple(c - o for c, o in zip(top, off)) for off in offsets]
    assert len(cells) == len(reference)
    for point, mult, value in cells:
        assert reference.get(Weight(point) + shift, 0) == mult
        assert value == P.evaluate(point)
    assert classes(checked.spin) == reference


@settings(max_examples=40, deadline=None)
@given(boxes())
def test_spin_grid_values_equal_P_by_definition(box):
    P, lam, nu = box
    for point, _, value in grid_cells(P, Box(lam, nu)):
        assert value == P_by_definition(P, point)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=5, max_size=5),
       st.lists(st.sampled_from((1, 2, 3, 7)), min_size=5, max_size=5), st.data())
def test_evaluate_equals_P_by_definition(n, numerators, denominators, data):
    P = CentralCharPoly.from_h_coeffs(
        [_fraction(data.draw) for _ in range(data.draw(st.integers(-1, 6)) + 1)], n)
    ints = numerators[:n]
    fractions = tuple(map(F, ints, denominators))
    for point in (ints, fractions):
        value = P.evaluate(point)
        assert isinstance(value, Fraction)
        assert value == P_by_definition(P, point)


@settings(max_examples=120, deadline=None)
@given(boxes())
def test_tensor_dimension_is_two_to_the_n_times_dim_L(box):
    _, lam, nu = box
    box = Box(lam, nu)
    assert total_dimension(classes(box.spin)) == 2 ** lam.rank * total_dimension(classes(box.L))


@st.composite
def members(draw):
    """A member weight: P's h_1 coefficient is solved so that
    q_n(t) = P(lam + rho) - P(lam + rho - t e_n) vanishes at a chosen t >= 1,
    the other coefficients rational; gaps and t are kept small enough that
    the grid has at most 243 points."""
    n = draw(st.integers(1, 5))
    gap_cap, t_cap = (None, 8, 4, 3, 2, 1)[n], (None, 12, 5, 3, 2, 2)[n]
    gaps = [draw(st.integers(0, gap_cap)) for _ in range(n - 1)]
    last = _fraction(draw)
    lam = Weight(tuple(last + sum(gaps[i:]) for i in range(n)))
    s = lam.shifted()
    t = draw(st.integers(1, t_cap))
    lowered = s[:-1] + (s[-1] - t,)
    coeffs = [_fraction(draw), F(0)] + [_fraction(draw) for _ in range(draw(st.integers(0, 3)))]
    # h_1(s) - h_1(s - t e_n) = t
    coeffs[1] = -sum((c * (complete_homogeneous(k, s) - complete_homogeneous(k, lowered))
                      for k, c in enumerate(coeffs) if k > 1), F(0)) / t
    return CentralCharPoly.from_h_coeffs(coeffs, n), lam


@settings(max_examples=100, deadline=None)
@given(members())
def test_cohomology_selection_and_guaranteed_classes(member):
    P, lam = member
    nu = nu_vector(P, lam)
    box = Box(lam, nu)
    coh = classes(box.cohomology(P))
    target = P.value(lam)
    reference = enumerative_tensor(classes(box.L))
    assert coh == {mu: m for mu, m in reference.items()
                   if P.value(mu - half_vector(lam.rank)) == target}
    for w in guaranteed_classes(lam, nu):
        assert coh.get(w) == 1


def test_zero_and_constant_P_take_the_whole_grid():
    lam, nu = Weight.of(F(7, 3), F(4, 3), F(1, 3)), (1, 0, 2)
    for coeffs in ([], [F(-5, 6)]):
        P = CentralCharPoly.from_h_coeffs(coeffs, 3)
        box = Box(lam, nu)
        values = {value for _, _, value in grid_cells(P, box)}
        assert values == {sum(coeffs, F(0))}
        assert box.cohomology(P) == box.spin


@settings(max_examples=80, deadline=None)
@given(boxes())
def test_box_equals_its_weights_added_one_by_one(box):
    # Box.L is made from its axes; the weights added one by one, each
    # rho-shift checked, are the reference, class order included.
    _, lam, nu = box
    want: dict[Weight, int] = {}
    for offsets in product(*(range(v + 1) for v in nu)):
        w = Weight(tuple(c - o for c, o in zip(lam.coords, offsets)))
        assert is_shift_weakly_decreasing(w)
        want[w] = want.get(w, 0) + 1
    got = classes(Box(lam, nu).L)
    assert got == want and list(got) == list(want)
    for w in got:
        assert w.shifted() == (w + rho(lam.rank)).coords
