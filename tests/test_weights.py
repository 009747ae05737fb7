"""Weight arithmetic, symmetric function evaluation, central characters."""
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.polynomials import InvariantViolation
from cherednik.weights import (
    CentralCharPoly,
    Weight,
    complete_homogeneous,
    is_dominant,
    rho,
    weyl_dim,
    weyl_dim_formal,
)
from helpers import fraction_weyl_dim, is_shift_weakly_decreasing

F = Fraction

# Central character of the rank-2 worked example: P = 18h1 - (9/2)h2 - 2h3 + (1/2)h4
EXAMPLE_P = CentralCharPoly.from_h_coeffs([0, 18, F(-9, 2), -2, F(1, 2)], 2)

# P over the 4x4 grid of shifted points (3,0)..(0,-3), recomputed from the
# h-basis definition (rows: second coordinate descending; columns: first
# descending). This grid circulates in a transposed orientation as well; the
# transpose relation is pinned in test_example_grid_transposition.
EXAMPLE_P_GRID = [
    [F(0), F(10), F(12), F(0)],
    [F(-5), F(0), F(-4), F(-20)],
    [F(-12), F(-10), F(-16), F(-30)],
    [F(0), F(4), F(3), F(0)],
]


def brute_force_h(k, point):
    total = F(0)
    for exps in product(range(k + 1), repeat=len(point)):
        if sum(exps) == k:
            term = F(1)
            for x, e in zip(point, exps):
                term *= x ** e
            total += term
    return total


def test_rho_values():
    assert rho(1).coords == (F(0),)
    assert rho(2).coords == (F(1, 2), F(-1, 2))
    assert rho(3).coords == (F(1), F(0), F(-1))


@pytest.mark.parametrize("n", range(1, 6))
def test_rho_invariants(n):
    r = rho(n).coords
    assert all(a - b == 1 for a, b in zip(r, r[1:]))
    assert sum(r) == 0


def test_dominance():
    assert is_dominant(Weight.of(F(5, 2), F(1, 2)))
    assert not is_dominant(Weight.of(0, 1))
    assert is_dominant(Weight.of(F(-17, 3)))
    assert not is_dominant(Weight.of(1, F(1, 2)))  # non-integral difference
    # boundary weights: weakly decreasing shift but not dominant
    assert not is_dominant(Weight.of(0, 1))
    assert is_shift_weakly_decreasing(Weight.of(0, 1))
    assert not is_shift_weakly_decreasing(Weight.of(0, 2))


def test_weyl_dim_examples():
    assert weyl_dim(Weight.of(1, 0)) == 2
    for k in range(8):
        assert weyl_dim(Weight.of(k, 0)) == k + 1
    assert weyl_dim(Weight.of(F(9, 4))) == 1
    with pytest.raises(ValueError):
        weyl_dim(Weight.of(0, 1))
    assert weyl_dim_formal(Weight.of(0, 1)) == 0


def test_weyl_dim_shift_invariance():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        coords = []
        prev = F(rng.randint(0, 5), 2)
        for _ in range(n):
            coords.append(prev)
            prev = prev - rng.randint(0, 4)
        w = Weight(tuple(coords))
        c = F(rng.randint(-9, 9), rng.randint(1, 3))
        shifted = Weight(tuple(x + c for x in coords))
        assert weyl_dim(w) == weyl_dim(shifted) >= 1


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in range(7)])
def test_complete_homogeneous_against_brute_force(n, k):
    rng = random.Random(100 * n + k)
    for _ in range(10):
        point = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        assert complete_homogeneous(k, point) == brute_force_h(k, point)


def test_complete_homogeneous_examples():
    assert complete_homogeneous(0, [F(7), F(-2)]) == 1
    assert complete_homogeneous(2, [F(3), F(0)]) == 9
    assert complete_homogeneous(2, [F(1), F(1)]) == 3


def test_complete_homogeneous_rejects_negative_degree():
    with pytest.raises(ValueError):
        complete_homogeneous(-1, [F(1), F(2)])


def test_eval_permutation_invariance():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        coeffs = [F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 7))]
        P = CentralCharPoly.from_h_coeffs(coeffs, n)
        point = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        base = P.evaluate(point)
        for perm in permutations(point):
            assert P.evaluate(list(perm)) == base


def test_example_grid_values():
    grid = [[EXAMPLE_P.evaluate([F(a), F(b)]) for a in (3, 2, 1, 0)]
            for b in (0, -1, -2, -3)]
    assert grid == EXAMPLE_P_GRID
    # spot values
    assert EXAMPLE_P.evaluate([F(2), F(0)]) == 10
    assert EXAMPLE_P.evaluate([F(3), F(-1)]) == -5
    assert EXAMPLE_P.evaluate([F(1), F(-1)]) == -4
    assert EXAMPLE_P.evaluate([F(2), F(-2)]) == -10
    assert EXAMPLE_P.evaluate([F(1), F(-2)]) == -16
    # corners vanish
    for a, b in ((3, 0), (0, 0), (3, -3), (0, -3)):
        assert EXAMPLE_P.evaluate([F(a), F(b)]) == 0


def test_example_grid_transposition():
    # the transposed variant of the same table
    swapped = [
        [F(0), F(-5), F(-12), F(0)],
        [F(10), F(0), F(-10), F(4)],
        [F(12), F(-4), F(-16), F(3)],
        [F(0), F(-20), F(-30), F(0)],
    ]
    grid = [[EXAMPLE_P.evaluate([F(a), F(b)]) for a in (3, 2, 1, 0)]
            for b in (0, -1, -2, -3)]
    assert grid == [[swapped[j][i] for j in range(4)] for i in range(4)]
    assert grid != swapped  # orientation genuinely matters here
    for i in range(4):
        assert grid[i][i] == swapped[i][i]


def test_h_coeff_trimming():
    P = CentralCharPoly.from_h_coeffs([F(1, 2), 0, 3, 0, 0], 2)
    assert P.h_coeffs == (F(1, 2), F(0), F(3))
    # leading (constant) coefficient may be nonzero when user-supplied
    assert P.evaluate([F(0), F(0)]) == F(1, 2)


def test_value_shifts_by_rho():
    lam = Weight.of(F(5, 2), F(1, 2))
    assert EXAMPLE_P.value(lam) == EXAMPLE_P.evaluate([F(3), F(0)]) == 0


@st.composite
def rational_weights(draw):
    """Weights of rank 1-5 with small rational coordinates, some consecutive
    pairs forced onto a boundary (w_{i+1} = w_i + 1, equal shifted
    coordinates, formal dimension 0) and some made integral steps apart."""
    n = draw(st.integers(1, 5))
    coords = [F(draw(st.integers(-30, 30)), draw(st.sampled_from((1, 2, 3, 4, 6))))]
    for _ in range(n - 1):
        kind = draw(st.sampled_from(("boundary", "integral", "free")))
        if kind == "boundary":
            coords.append(coords[-1] + 1)
        elif kind == "integral":
            coords.append(coords[-1] - draw(st.integers(-3, 12)))
        else:
            coords.append(F(draw(st.integers(-30, 30)), draw(st.sampled_from((1, 2, 3, 5)))))
    return Weight(tuple(coords))


@settings(max_examples=400, deadline=None)
@given(rational_weights())
def test_weyl_dim_formal_matches_fraction_product(w):
    try:
        want = fraction_weyl_dim(w)
    except InvariantViolation:
        with pytest.raises(InvariantViolation):
            weyl_dim_formal(w)
        return
    assert weyl_dim_formal(w) == want


def test_weyl_dim_formal_integer_edges():
    assert weyl_dim_formal(Weight.of(3, 4)) == 0              # boundary: shifts coincide
    assert weyl_dim_formal(Weight.of(F(1, 3), F(1, 3), F(-2, 3))) == fraction_weyl_dim(
        Weight.of(F(1, 3), F(1, 3), F(-2, 3)))
    assert weyl_dim_formal(Weight.of(F(7, 2), F(3, 2), F(-1, 2))) == 3 * 6 * 3 // 2
    with pytest.raises(InvariantViolation):
        weyl_dim_formal(Weight.of(F(1, 3), 0))                # (4/3) is no integer


@pytest.mark.parametrize("point", [[0.5, F(1, 4)], [F(1, 2), 0.25], ["1/2", 0]])
def test_evaluate_rejects_inexact_points(point):
    P = CentralCharPoly.from_h_coeffs([0, 1, 1], 2)
    with pytest.raises(TypeError, match="exact rational"):
        P.evaluate(point)
    assert P.evaluate([F(1, 2), F(1, 4)]) == F(19, 16)


@pytest.mark.parametrize("build", [lambda: Weight.of(True, 0),
                                   lambda: CentralCharPoly.from_h_coeffs([0, True], 1)],
                         ids=["Weight.of", "CentralCharPoly.from_h_coeffs"])
def test_a_bool_is_not_an_exact_rational(build):
    # one rule for an exact integer, as for nu in modules: an int, not a bool
    with pytest.raises(TypeError, match="expected an exact rational, got bool"):
        build()


def test_complete_homogeneous_rejects_inexact_points():
    with pytest.raises(TypeError, match="exact rational"):
        complete_homogeneous(2, [0.1, 0.2])
    assert complete_homogeneous(2, [F(1, 10), 2]) == F(1, 100) + F(2, 10) + 4
