"""The one checked box (modules.Box), the one class list (modules.Block) and
the two Weyl dimension routines (weights.box_dimension per class, and
weights.product_dimension in closed form), against a Fraction Weyl product."""
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.modules import (
    MAX_GRID,
    Block,
    Box,
    BoxTooLargeError,
    axis_points,
)
from cherednik.weights import (
    Axis,
    CentralCharPoly,
    Weight,
    box_dimension,
    integer_det,
    is_dominant,
    product_dimension,
)
from helpers import classes, fraction_weyl_dim, total_dimension

F = Fraction
P = CentralCharPoly.from_h_coeffs([0, 18, F(-9, 2), -2, F(1, 2)], 2)

MALFORMED = [
    (Weight.of(3, 1), (1,)),         # too short: used to give rank-1 weights
    (Weight.of(2), (-1,)),           # negative: used to give the class 5/2
    (Weight.of(3, 1), (1, 0, 5)),    # too long: used to raise IndexError
    (Weight.of(3, 1), (1, F(1, 2))),  # not an integer
]
# Box and each read of it; an id names the library call the read stands for.
PUBLIC = [
    ("Box", Box),
    ("L_decomposition", lambda lam, nu: Box(lam, nu).L),
    ("tensor_with_spin", lambda lam, nu: Box(lam, nu).spin),
    ("spin_grid", lambda lam, nu: Box(lam, nu).grid(P_of(lam.rank))),
    ("select_cohomology", lambda lam, nu: Box(lam, nu).cohomology(P_of(lam.rank))),
]


def P_of(rank: int) -> CentralCharPoly:
    return CentralCharPoly.from_h_coeffs(P.h_coeffs, rank)


@pytest.mark.parametrize("lam,nu", MALFORMED)
@pytest.mark.parametrize("name,call", PUBLIC, ids=[name for name, _ in PUBLIC])
def test_malformed_nu_is_rejected(name, call, lam, nu):
    with pytest.raises(ValueError, match="nonnegative integers") as err:
        call(lam, nu)
    assert type(err.value) is ValueError


def reference_check(lam: Weight, nu: tuple) -> type | None:
    """The exception the box of nu below lam must raise, or None: the check
    that _check_box and check_grid_size made before Box, with the
    malformed-nu rule (ints, not bools) in front of it."""
    if len(nu) != lam.rank or any(type(v) is not int or v < 0 for v in nu):
        return ValueError
    if not is_dominant(lam) or any(
            v > lam.coords[i] - lam.coords[i + 1] for i, v in enumerate(nu[:-1])):
        return ValueError
    if prod(v + 2 for v in nu) > MAX_GRID:
        return BoxTooLargeError
    return None


@st.composite
def requests(draw):
    """A weight of rank 1-4, dominant or not, and a nu of any length 0-5
    whose entries run past the gaps, below zero and past the grid budget."""
    n = draw(st.integers(1, 4))
    offset = draw(st.sampled_from((F(0), F(1, 2), F(1, 3))))
    steps = [draw(st.one_of(st.integers(-1, 4), st.integers(990, 1010),
                            st.just(F(1, 2)))) for _ in range(n - 1)]
    lam = Weight(tuple(offset + sum(steps[i:]) for i in range(n)))
    length = draw(st.sampled_from((n, n, n, n - 1, n + 1)))
    nu = tuple(draw(st.one_of(st.integers(-2, 5), st.integers(990, 1010)))
               for _ in range(length))
    return lam, nu


@settings(max_examples=400, deadline=None)
@given(requests())
def test_box_accepts_and_rejects_what_the_checks_did(request):
    lam, nu = request
    want = reference_check(lam, nu)
    if want is None:
        box = Box(lam, nu)
        assert box.L.axes == [Axis(c, v + 1) for c, v in zip(lam.coords, nu)]
        assert box.spin.axes == [Axis(c + F(1, 2), v + 2) for c, v in zip(lam.coords, nu)]
        return
    with pytest.raises(ValueError) as err:
        Box(lam, nu)
    assert type(err.value) is want


def test_box_over_budget_reports_nu_and_the_grid_size():
    with pytest.raises(BoxTooLargeError) as err:
        Box(Weight.of(2000, 0), (998, 999))
    assert err.value.nu == (998, 999) and err.value.grid_size == 1000 * 1001
    assert Box(Weight.of(2000, 0), (998, 998)).nu == (998, 998)


@st.composite
def axes_and_multiplicities(draw):
    """Axes of rank 1-4 whose tops share one coset of Z (so every class has
    integral shifted differences), in any order: dominant classes, boundary
    classes (a repeated shifted coordinate, dimension 0) and classes whose
    shift is not weakly decreasing, with their multiplicities."""
    n = draw(st.integers(1, 4))
    offset = draw(st.sampled_from((F(0), F(1, 2), F(1, 3), F(2, 7))))
    axes = [Axis(offset + draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
            for _ in range(n)]
    size = prod(a.count for a in axes)
    mults = draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
    return axes, mults


@settings(max_examples=200, deadline=None)
@given(axes_and_multiplicities())
def test_box_dimension_is_the_sum_of_weyl_dimensions(case):
    axes, mults = case
    classes = list(map(Weight, axis_points(axes)))
    assert box_dimension(axes, mults) == sum(
        m * fraction_weyl_dim(w) for w, m in zip(classes, mults))



@settings(max_examples=200, deadline=None)
@given(axes_and_multiplicities(), st.data())
def test_block_dimension_is_the_sum_over_its_classes(case, data):
    # Some classes are set to 0: the list leaves them out, so they add
    # nothing to the dimension.
    axes, mults = case
    keep = data.draw(st.lists(st.booleans(), min_size=len(mults), max_size=len(mults)))
    mults = [m if k else 0 for m, k in zip(mults, keep)]
    block = Block(axes, mults)
    assert len(classes(block)) == sum(keep)
    assert block.dimension() == total_dimension(classes(block))


@st.composite
def dominant_boxes(draw):
    """Boxes of rank 1-5 below a dominant lam in 1/d + Z, d = 1, 2 or 3, with
    nu within the dominance gaps; a gap of nu_i puts the box against a
    chamber wall, and L (x) spin then holds boundary classes."""
    n = draw(st.integers(1, 5))
    nu = [draw(st.integers(0, (6, 4, 3, 2, 1)[n - 1])) for _ in range(n)]
    gaps = [v + draw(st.sampled_from((0, 0, 1, 3))) for v in nu[:-1]]
    last = F(draw(st.integers(-9, 9)), draw(st.sampled_from((1, 2, 3))))
    return Box(Weight(tuple(last + sum(gaps[i:]) for i in range(n))), tuple(nu))


@settings(max_examples=150, deadline=None)
@given(dominant_boxes())
def test_closed_form_dimensions_are_the_per_class_sums(box):
    dim_L = box.L.dimension()
    assert dim_L == total_dimension(classes(box.L))
    assert box.spin.dimension() == total_dimension(classes(box.spin)) == 2 ** box.lam.rank * dim_L


@settings(max_examples=200, deadline=None)
@given(axes_and_multiplicities(), st.data())
def test_product_dimension_is_box_dimension_of_the_products(case, data):
    # Any axes, classes whose shift is not weakly decreasing included, and
    # any per-axis factors, zeros included.
    axes, _ = case
    factors = [data.draw(st.lists(st.integers(0, 5), min_size=a.count, max_size=a.count))
               for a in axes]
    assert product_dimension(axes, factors) == box_dimension(
        axes, list(map(prod, product(*factors))))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_integer_det_is_the_leibniz_sum(matrix):
    # Small entries: zero pivots, zero rows and singular matrices are common.
    n = len(matrix)

    def sign(p):
        return (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))

    assert integer_det(matrix) == sum(sign(p) * prod(matrix[i][p[i]] for i in range(n))
                                      for p in permutations(range(n)))


def test_cohomology_block_keeps_the_spin_classes_with_zeros():
    # The worked example: 5 of the 16 classes of L (x) spin are selected.
    box = Box(Weight.of(F(5, 2), F(1, 2)), (2, 2))
    coh = box.cohomology(P)
    assert coh.axes == box.spin.axes and len(coh.multiplicities) == 16
    assert sum(1 for m in coh.multiplicities if m) == 5
    assert coh.dimension() == total_dimension(classes(coh)) == 24
    assert Block(coh.axes, [0] * 16).dimension() == 0


@pytest.mark.parametrize("nu", [(True, 0), (1, False), (1.0, 0), (F(1), 0)])
def test_nu_entries_must_be_ints(nu):
    # a bool, a float or a Fraction is not a box bound, whatever its value
    with pytest.raises(ValueError, match="nonnegative integers"):
        Box(Weight.of(1, 0), nu)
    assert Box(Weight.of(1, 0), (1, 0)).nu == (1, 0)
