"""The closed-form spin grid against independent routes: the enumerative
tensor (every box weight shifted by every sign vector) for the classes and
multiplicities, and CentralCharPoly.evaluate (the Fraction h-basis
recurrence) for the values of P."""
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.modules import (
    L_decomposition,
    ModuleDecomposition,
    guaranteed_classes,
    nu_vector,
    select_cohomology,
    spin_grid,
    tensor_with_spin,
)
from cherednik.weights import (
    CentralCharPoly,
    Weight,
    complete_homogeneous,
    half_vector,
    is_shift_weakly_decreasing,
    rho,
)

F = Fraction
HALF = F(1, 2)


def enumerative_tensor(L: ModuleDecomposition) -> ModuleDecomposition:
    """Reference L (x) spin: every weight of L shifted by every sign vector in
    {+-1/2}^n, kept when its rho-shift stays weakly decreasing."""
    n = L.rank
    out = ModuleDecomposition(rank=n)
    for w, mult in L.entries.items():
        for signs in product((HALF, -HALF), repeat=n):
            cand = Weight(tuple(c + s for c, s in zip(w.coords, signs)))
            if is_shift_weakly_decreasing(cand):
                out.add(cand, mult)
    return out


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
    reference = enumerative_tensor(L_decomposition(lam, nu))
    top = lam.shifted()
    shift = half_vector(n) - rho(n)
    cells = list(spin_grid(P, lam, nu))
    # product order over o in [0, nu + 1], one cell per class of the tensor
    offsets = list(product(*(range(v + 2) for v in nu)))
    assert [pt for pt, _, _ in cells] == [
        tuple(c - o for c, o in zip(top, off)) for off in offsets]
    assert len(cells) == len(reference.entries)
    for point, mult, value in cells:
        assert reference.multiplicity(Weight(point) + shift) == mult
        assert value == P.evaluate(point)
    assert tensor_with_spin(lam, nu) == reference


@settings(max_examples=120, deadline=None)
@given(boxes())
def test_tensor_dimension_is_two_to_the_n_times_dim_L(box):
    _, lam, nu = box
    L = L_decomposition(lam, nu)
    assert tensor_with_spin(lam, nu).total_dimension() == 2 ** lam.rank * L.total_dimension()


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
    coh = select_cohomology(P, lam, nu)
    target = P.value(lam)
    reference = enumerative_tensor(L_decomposition(lam, nu))
    assert coh.entries == {mu: m for mu, m in reference.entries.items()
                           if P.value(mu - half_vector(lam.rank)) == target}
    for w in guaranteed_classes(P, lam, nu):
        assert coh.multiplicity(w) == 1


def test_zero_and_constant_P_take_the_whole_grid():
    lam, nu = Weight.of(F(7, 3), F(4, 3), F(1, 3)), (1, 0, 2)
    for coeffs in ([], [F(-5, 6)]):
        P = CentralCharPoly.from_h_coeffs(coeffs, 3)
        values = {value for _, _, value in spin_grid(P, lam, nu)}
        assert values == {sum(coeffs, F(0))}
        assert select_cohomology(P, lam, nu) == tensor_with_spin(lam, nu)
