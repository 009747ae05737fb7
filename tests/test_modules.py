"""Classification, decompositions, and the cohomology selection rule."""
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cherednik.modules as modules
from cherednik.modules import (
    Box,
    NotInClassificationError,
    axis_points,
    dirac_cohomology,
    guaranteed_classes,
    membership_detail,
    nu_vector,
)
from cherednik.polynomials import Poly
from cherednik.verify import random_rank_one_instance
from cherednik.weights import (
    CentralCharPoly,
    Weight,
    complete_homogeneous,
    half_vector,
    is_dominant,
    weyl_dim_formal,
)
from helpers import classes, total_dimension

F = Fraction

EXAMPLE_P = CentralCharPoly.from_h_coeffs([0, 18, F(-9, 2), -2, F(1, 2)], 2)
EXAMPLE_LAM = Weight.of(F(5, 2), F(1, 2))  # shifted coordinates (3, 0)


def is_submultiset(a: dict[Weight, int], b: dict[Weight, int]) -> bool:
    return all(b.get(w, 0) >= m for w, m in a.items())


def shifted_multiset(d: dict[Weight, int]):
    return sorted((w.shifted(), m) for w, m in d.items())


def test_membership_examples():
    P1 = CentralCharPoly.from_xi(Poly.of(0, 1), 1)   # w = z^2 + z
    assert membership_detail(P1, Weight.of(F(3, 2)))[0] == 3
    assert membership_detail(EXAMPLE_P, EXAMPLE_LAM)[0] == 2
    Pconst = CentralCharPoly.from_xi(Poly.of(7), 1)  # w = 7z, no positive root
    for lam in (F(0), F(1), F(5, 2), F(-3)):
        assert membership_detail(Pconst, Weight.of(lam))[0] is None


def test_membership_degenerate_deformation():
    Pzero = CentralCharPoly.from_xi(Poly.zero(), 2)
    value, degenerate = membership_detail(Pzero, Weight.of(1, 0))
    assert value == 0 and degenerate
    value, degenerate = membership_detail(EXAMPLE_P, EXAMPLE_LAM)
    assert value == 2 and not degenerate


def test_membership_rejects_non_dominant():
    with pytest.raises(ValueError):
        membership_detail(EXAMPLE_P, Weight.of(0, 1))[0]


@pytest.mark.parametrize("P_rank,lam", [(1, Weight.of(1, 0)), (2, Weight.of(2, 1, 0)),
                                          (2, Weight.of(1))])
def test_a_weight_of_another_rank_than_P_is_a_value_error(P_rank, lam):
    # Not "no member": the pair is rejected, like P.value on it, wherever
    # modules first pairs P with a weight or with the axes of a grid.
    P = CentralCharPoly.from_xi(Poly.of(0, 1), P_rank)
    nu = (0,) * lam.rank
    calls = [lambda: membership_detail(P, lam), lambda: nu_vector(P, lam),
             lambda: nu_vector(P, lam, membership=(0, False)),
             lambda: dirac_cohomology(P, lam), lambda: Box(lam, nu).grid(P),
             lambda: Box(lam, nu).cohomology(P), lambda: P.value(lam)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert not isinstance(info.value, NotInClassificationError)


def test_nu_vector_examples():
    assert nu_vector(EXAMPLE_P, EXAMPLE_LAM) == (2, 2)
    P1 = CentralCharPoly.from_xi(Poly.of(0, 1), 1)
    assert nu_vector(P1, Weight.of(F(3, 2))) == (3,)
    with pytest.raises(NotInClassificationError):
        nu_vector(CentralCharPoly.from_xi(Poly.of(7), 1), Weight.of(2))


def test_nu_vector_dominance_escape():
    # equal coordinates: lowering the first immediately breaks dominance,
    # so nu_1 = 0 regardless of P; xi = z at rank 2 gives P = (3/2)h1 + h2
    # and lam = (1,1) is a member with last-coordinate bound 3
    P = CentralCharPoly.from_xi(Poly.of(0, 1), 2)
    assert P.h_coeffs == (F(0), F(3, 2), F(1))
    lam = Weight.of(1, 1)
    assert membership_detail(P, lam)[0] == 3
    assert nu_vector(P, lam) == (0, 3)


def test_nu_minimality_recheck():
    for P, lam in [(EXAMPLE_P, EXAMPLE_LAM),
                   (CentralCharPoly.from_xi(Poly.of(0, 1), 1), Weight.of(F(3, 2)))]:
        nu = nu_vector(P, lam)
        n = lam.rank
        p_lam = P.value(lam)
        for i, bound in enumerate(nu):
            for k in range(bound):
                lowered = Weight(tuple(
                    c - (k + 1 if j == i else 0) for j, c in enumerate(lam.coords)))
                from cherednik.weights import is_dominant
                assert is_dominant(lowered)
                assert P.value(lowered) != p_lam


def test_L_decomposition_box():
    L = classes(Box(EXAMPLE_LAM, (2, 2)).L)
    assert len(L) == 9
    assert all(m == 1 for m in L.values())
    shifted = {w.shifted() for w in L}
    assert shifted == {(F(a), F(b)) for a in (3, 2, 1) for b in (0, -1, -2)}
    assert total_dimension(L) == 27

    single = classes(Box(Weight.of(4), (0,)).L)
    assert shifted_multiset(single) == [((F(4),), 1)]

    box1 = classes(Box(Weight.of(F(3, 2)), (3,)).L)
    assert {w.coords[0] for w in box1} == {F(3, 2), F(1, 2), F(-1, 2), F(-3, 2)}


def test_tensor_with_spin_rank_one_pattern():
    lam, nu = F(3, 2), 3
    T = classes(Box(Weight.of(lam), (nu,)).spin)
    got = {w.coords[0]: m for w, m in T.items()}
    expected = {lam + F(1, 2): 1, lam - nu - F(1, 2): 1}
    for k in range(nu + 1):
        if lam - k - F(1, 2) != lam - nu - F(1, 2):
            expected[lam - k - F(1, 2)] = 2
    assert got == expected


def test_tensor_with_spin_example_grid():
    T = classes(Box(EXAMPLE_LAM, (2, 2)).spin)
    # multiplicities over the shifted grid (3.5,0.5)..(0.5,-2.5): 1,2,2,1 pattern
    for i1, a in enumerate((F(7, 2), F(5, 2), F(3, 2), F(1, 2))):
        for i2, b in enumerate((F(1, 2), F(-1, 2), F(-3, 2), F(-5, 2))):
            m1 = 1 if i1 in (0, 3) else 2
            m2 = 1 if i2 in (0, 3) else 2
            w = Weight.of(a, b) - Weight.of(F(1, 2), F(-1, 2))  # un-shift by rho
            assert T.get(w) == m1 * m2
    assert total_dimension(T) == 4 * 27


def test_tensor_with_spin_trivial():
    T = classes(Box(Weight.of(2), (0,)).spin)
    assert {w.coords[0]: m for w, m in T.items()} == {F(5, 2): 1, F(3, 2): 1}


def test_dirac_cohomology_worked_example():
    coh = classes(dirac_cohomology(EXAMPLE_P, EXAMPLE_LAM))
    assert shifted_multiset(coh) == sorted([
        ((F(7, 2), F(1, 2)), 1),
        ((F(1, 2), F(1, 2)), 1),
        ((F(5, 2), F(-1, 2)), 4),
        ((F(7, 2), F(-5, 2)), 1),
        ((F(1, 2), F(-5, 2)), 1),
    ])


def test_dirac_cohomology_rank_one():
    P = CentralCharPoly.from_xi(Poly.of(0, 1), 1)
    coh = classes(dirac_cohomology(P, Weight.of(1)))
    assert {w.coords[0]: m for w, m in coh.items()} == {F(3, 2): 1, F(-3, 2): 1}


def test_dirac_cohomology_degenerate_keeps_everything():
    Pzero = CentralCharPoly.from_xi(Poly.zero(), 2)
    lam = Weight.of(2, 0)
    coh = dirac_cohomology(Pzero, lam)
    full = Box(lam, nu_vector(Pzero, lam)).spin
    assert coh == full


def test_dirac_cohomology_rejects_nonmember():
    with pytest.raises(NotInClassificationError):
        dirac_cohomology(CentralCharPoly.from_xi(Poly.of(7), 1), Weight.of(1))


def test_cohomology_subset_of_tensor():
    for _ in range(5):
        coh = classes(dirac_cohomology(EXAMPLE_P, EXAMPLE_LAM))
        T = classes(Box(EXAMPLE_LAM, (2, 2)).spin)
        assert is_submultiset(coh, T)


def test_guaranteed_classes_examples():
    P1 = CentralCharPoly.from_xi(Poly.of(0, 1), 1)
    got = guaranteed_classes(Weight.of(1), nu_vector(P1, Weight.of(1)))
    assert [w.coords[0] for w in got] == [F(3, 2), F(-3, 2)]

    got2 = guaranteed_classes(EXAMPLE_LAM, nu_vector(EXAMPLE_P, EXAMPLE_LAM))
    # the middle class is NOT guaranteed: its companion (shifted (0,0)) is not dominant
    assert [w.shifted() for w in got2] == [(F(7, 2), F(1, 2)), (F(7, 2), F(-5, 2))]


def test_guaranteed_classes_in_cohomology_with_multiplicity_one():
    cases = [(EXAMPLE_P, EXAMPLE_LAM),
             (CentralCharPoly.from_xi(Poly.of(0, 1), 1), Weight.of(F(5, 2)))]
    rng = random.Random(23)
    for _ in range(10):
        xi, lam = random_rank_one_instance(rng)
        cases.append((CentralCharPoly.from_xi(xi, 1), Weight.of(lam)))
    for P, lam in cases:
        nu = nu_vector(P, lam)
        coh = Box(lam, nu).cohomology(P)
        assert coh == dirac_cohomology(P, lam)
        for w in guaranteed_classes(lam, nu):
            assert classes(coh).get(w) == 1


def guaranteed_by_weight_arithmetic(lam: Weight, nu) -> list[Weight]:
    """Reference: the rule as Weight arithmetic, with e_i a basis weight. The
    spike at i < n is kept when its companion lam - (nu_i+1)e_i is dominant;
    the spike at n always is."""
    n = lam.rank

    def e(i: int) -> Weight:
        return Weight(tuple(F(1 if j == i - 1 else 0) for j in range(n)))

    def spiked(i: int) -> Weight:
        return lam + half_vector(n) - e(i) * (nu[i - 1] + 1)

    out = [lam + half_vector(n)]
    for i in range(1, n):
        if is_dominant(lam - e(i) * (nu[i - 1] + 1)):
            out.append(spiked(i))
    out.append(spiked(n))
    return out


@st.composite
def dominant_boxes(draw):
    """A dominant lam of rank 1-5 with a rational offset and gaps up to 6,
    and nu_i in [0, gap_i] for i < n, drawn as gap_i minus 0-2 so that
    nu_i = gap_i (the spike at i drops out) is common; nu_n is any bound."""
    n = draw(st.integers(1, 5))
    gaps = [draw(st.integers(0, 6)) for _ in range(n - 1)]
    offset = F(draw(st.integers(-20, 20)), draw(st.integers(1, 7)))
    lam = Weight(tuple(offset + sum(gaps[i:]) for i in range(n)))
    nu = [max(g - draw(st.integers(0, 2)), 0) for g in gaps]
    return lam, tuple(nu + [draw(st.integers(0, 10 ** 6))])


@settings(max_examples=300, deadline=None)
@given(dominant_boxes())
def test_guaranteed_classes_match_the_weight_arithmetic_rule(box):
    lam, nu = box
    got = guaranteed_classes(lam, nu)
    assert got == guaranteed_by_weight_arithmetic(lam, nu)
    gaps = [lam.coords[i] - lam.coords[i + 1] for i in range(lam.rank - 1)]
    assert len(got) == 2 + sum(v < g for v, g in zip(nu, gaps))


def test_guaranteed_spike_drops_where_nu_reaches_the_gap():
    lam = Weight.of(F(17, 3), F(11, 3), F(2, 3))     # gaps 2 and 3
    # nu_1, nu_2 at their gaps: only lam + 1/2 and the spike at n remain
    assert guaranteed_classes(lam, (2, 3, 4)) == [
        Weight.of(F(37, 6), F(25, 6), F(7, 6)), Weight.of(F(37, 6), F(25, 6), F(-23, 6))]
    assert guaranteed_classes(lam, (1, 2, 4)) == guaranteed_by_weight_arithmetic(lam, (1, 2, 4))
    assert len(guaranteed_classes(lam, (1, 2, 4))) == 4
    for nu in ((1, 2), (1, 2, 4, 0), (F(1), 2, 4), (1, 2, -1), (1.0, 2, 4), (1, True, 4)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            guaranteed_classes(lam, nu)


def test_constant_shift_of_P_is_invisible():
    shifted_P = CentralCharPoly.from_h_coeffs(
        [EXAMPLE_P.h_coeffs[0] + F(17, 3)] + list(EXAMPLE_P.h_coeffs[1:]), 2)
    assert dirac_cohomology(shifted_P, EXAMPLE_LAM) == dirac_cohomology(EXAMPLE_P, EXAMPLE_LAM)
    assert nu_vector(shifted_P, EXAMPLE_LAM) == nu_vector(EXAMPLE_P, EXAMPLE_LAM)


def _conservation_holds(lam: Weight, nu: tuple[int, ...]) -> bool:
    box = Box(lam, nu)
    L = classes(box.L)
    n = lam.rank
    half = F(1, 2)
    total = 0
    for w, mult in L.items():
        for signs in product((half, -half), repeat=n):
            cand = Weight(tuple(c + s for c, s in zip(w.coords, signs)))
            total += mult * weyl_dim_formal(cand)
    if total != 2 ** n * total_dimension(L):
        return False
    return total_dimension(classes(box.spin)) == 2 ** n * total_dimension(L)


def test_dimension_conservation():
    # classified instances at ranks 1 and 2
    boxes = [(Weight.of(F(3, 2)), (3,)), (EXAMPLE_LAM, (2, 2)),
             # synthetic boxes at rank 3 (conservation is independent of P)
             (Weight.of(5, 2, 0), (2, 1, 3)), (Weight.of(F(7, 2), F(5, 2), F(5, 2)), (0, 0, 4))]
    for lam, nu in boxes:
        assert _conservation_holds(lam, nu)


def test_rank_three_classified_instance():
    # xi = z at rank 3: w = z^2 + 2z, so P = 2h1 + h2
    P = CentralCharPoly.from_xi(Poly.of(0, 1), 3)
    assert P.h_coeffs == (F(0), F(2), F(1))
    lam = Weight.of(2, 1, 0)   # shifted (3, 1, -1)
    assert membership_detail(P, lam)[0] == 3
    nu = nu_vector(P, lam)
    assert nu == (1, 1, 3)
    box = Box(lam, nu)
    assert len(classes(box.L)) == 2 * 2 * 4
    assert _conservation_holds(lam, nu)
    coh = classes(dirac_cohomology(P, lam))
    assert is_submultiset(coh, classes(box.spin))
    for w in guaranteed_classes(lam, nu):
        assert coh.get(w) == 1

    # the zero weight: trivial module, box (0,0,0)
    zero = Weight.of(0, 0, 0)
    assert nu_vector(P, zero) == (0, 0, 0)
    assert _conservation_holds(zero, (0, 0, 0))


def test_block_classes_are_in_descending_lex_order_on_shift():
    coh = dirac_cohomology(EXAMPLE_P, EXAMPLE_LAM)
    shifts = [Weight(point).shifted() for point in axis_points(coh.axes)]
    assert len(shifts) == len(coh.multiplicities)
    assert shifts == sorted(set(shifts), reverse=True)


def scan_nu_prefix(P: CentralCharPoly, lam: Weight) -> tuple[int, ...]:
    """Reference for nu_1..nu_{n-1}: step k up until lam - (k+1)e_i is
    non-dominant or P-equal to lam (linear in the dominance gap)."""
    n = lam.rank
    p_lam = P.value(lam)
    out = []
    for i in range(1, n):
        k = 0
        while True:
            lowered = Weight(tuple(
                c - (k + 1 if j == i - 1 else 0) for j, c in enumerate(lam.coords)))
            if not is_dominant(lowered) or P.value(lowered) == p_lam:
                break
            k += 1
        out.append(k)
    return tuple(out)


def _difference_coeff(k: int, s, i: int, t) -> F:
    """h_k(s) - h_k(s - t e_i): the coefficient of c_k in q_i(t)."""
    lowered = [c - (t if j == i - 1 else 0) for j, c in enumerate(s)]
    return complete_homogeneous(k, s) - complete_homogeneous(k, lowered)


def planted_instance(rng: random.Random):
    """A random P of degree 3-4 and dominant lam at rank 2-3 with gaps up to
    25, where c_1 and c_2 are solved so that q_i(t0) = 0 for a random i < n
    and t0 <= gap + 2, and q_n(t1) = 0 for a random t1 (so lam is usually a
    member and nu_i usually stops at a P-hit, not at the gap)."""
    n = rng.choice((2, 3))
    gaps = [rng.randint(0, 25) for _ in range(n - 1)]
    base = F(rng.randint(-5, 5), rng.choice((1, 2)))
    coords = [base + sum(gaps[j:]) for j in range(n)]
    lam = Weight.of(*coords)
    s = lam.shifted()
    coeffs = [F(0), F(0), F(0)] + [F(rng.randint(-4, 4)) for _ in range(rng.choice((1, 2)))]
    if not any(coeffs[3:]):
        coeffs[3] = F(1)
    i = rng.randint(1, n - 1)
    t0 = rng.randint(1, gaps[i - 1] + 2)
    t1 = rng.randint(1, 12)
    rows = [(i, t0), (n, t1)]
    a = [[_difference_coeff(k, s, j, t) for k in (1, 2)] for j, t in rows]
    b = [-sum(c * _difference_coeff(k, s, j, t) for k, c in enumerate(coeffs) if k > 2)
         for j, t in rows]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if det:
        coeffs[1] = (b[0] * a[1][1] - b[1] * a[0][1]) / det
        coeffs[2] = (a[0][0] * b[1] - a[1][0] * b[0]) / det
    return CentralCharPoly.from_h_coeffs(coeffs, n), lam


def test_nu_vector_matches_scan_on_planted_instances():
    rng = random.Random(20261018)
    members = hits = 0
    for _ in range(150):
        P, lam = planted_instance(rng)
        last = membership_detail(P, lam)[0]
        if last is None:
            with pytest.raises(NotInClassificationError):
                nu_vector(P, lam)
            continue
        nu = nu_vector(P, lam)
        assert nu == scan_nu_prefix(P, lam) + (last,)
        members += 1
        gaps = [lam.coords[j] - lam.coords[j + 1] for j in range(lam.rank - 1)]
        hits += any(v < g for v, g in zip(nu, gaps))
    assert members >= 100 and hits >= 50


def test_nu_vector_reuses_given_membership(monkeypatch):
    membership = membership_detail(EXAMPLE_P, EXAMPLE_LAM)
    guaranteed = guaranteed_classes(EXAMPLE_LAM, nu_vector(EXAMPLE_P, EXAMPLE_LAM))

    def fail(*args):
        raise AssertionError("membership recomputed")

    monkeypatch.setattr(modules, "membership_detail", fail)
    assert nu_vector(EXAMPLE_P, EXAMPLE_LAM, membership) == (2, 2)
    with pytest.raises(NotInClassificationError):
        nu_vector(EXAMPLE_P, EXAMPLE_LAM, (None, False))
    assert guaranteed_classes(EXAMPLE_LAM, (2, 2)) == guaranteed


def test_nu_vector_large_gap_is_not_a_scan():
    # xi = z at rank 2 gives P = (3/2)h1 + h2, so at lam + rho = (s1, s2)
    # q_1(t) = t(2 s1 + s2 + 3/2 - t) and q_n(t) = t(s1 + 2 s2 + 3/2 - t).
    # For lam = (G, 0): q_1's root 2G + 2 lies beyond the gap G, so the scan
    # answers nu_1 = G, and q_n's root G + 1 gives nu_n = G. The scan takes
    # about 8 s at G = 1e5 and grows linearly.
    P = CentralCharPoly.from_xi(Poly.of(0, 1), 2)
    G = 10 ** 5
    start = time.perf_counter()
    assert nu_vector(P, Weight.of(G, 0)) == (G, G)
    assert time.perf_counter() - start < 1.0
    small = Weight.of(300, 0)
    assert nu_vector(P, small) == scan_nu_prefix(P, small) + (300,)


def test_L_decomposition_rejects_nu_beyond_the_gap():
    with pytest.raises(ValueError):
        Box(EXAMPLE_LAM, (3, 2))     # gap lam_1 - lam_2 = 2
    with pytest.raises(ValueError):
        Box(Weight.of(0, 1), (0, 0))  # lam itself not dominant
    assert len(classes(Box(EXAMPLE_LAM, (2, 5)).L)) == 18


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_L_decomposition_invariant_survives_optimized_python(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys\n"
            "from cherednik.modules import Box\n"
            "from cherednik.weights import Weight\n"
            "assert sys.flags.optimize == int(sys.argv[1])\n"
            "try:\n"
            "    Box(Weight.of(5, 2, 0), (4, 0, 1))\n"
            "except ValueError:\n"
            "    sys.exit(3)\n")
    res = subprocess.run([sys.executable, *flags, "-c", code, str(len(flags))],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert res.returncode == 3, res.stderr


def test_grid_budget_is_checked_before_the_box_is_built():
    # prod(nu_i + 2) at the budget passes; one more point is refused.
    assert (998 + 2) ** 2 == modules.MAX_GRID
    assert Box(Weight.of(998, 0), (998, 998)).nu == (998, 998)
    with pytest.raises(modules.BoxTooLargeError) as err:
        Box(Weight.of(998, 0), (998, 999))
    assert err.value.nu == (998, 999) and err.value.grid_size == 1000 * 1001
    assert str(err.value) == ("nu = [998, 999] gives a grid of 1001000 points, "
                              "over the budget of 1000000")
    # a box of 10^20 weights is refused at once instead of overflowing
    big = 10 ** 20 + 38
    with pytest.raises(modules.BoxTooLargeError):
        Box(Weight.of(0), (big,))
    P = CentralCharPoly.from_h_coeffs([0, big + 1, 1], 1)
    with pytest.raises(modules.BoxTooLargeError):
        dirac_cohomology(P, Weight.of(0))
    assert guaranteed_classes(Weight.of(0), nu_vector(P, Weight.of(0))) == [
        Weight.of(F(1, 2)), Weight.of(-big - F(1, 2))]
