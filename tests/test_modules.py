"""Classification, decompositions, and the cohomology selection rule."""
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

import cherednik.modules as modules
from cherednik.modules import (
    L_decomposition,
    ModuleDecomposition,
    NotInClassificationError,
    dirac_cohomology,
    guaranteed_classes,
    membership_detail,
    nu_vector,
    tensor_with_spin,
)
from cherednik.polynomials import Poly
from cherednik.verify import random_rank_one_instance
from cherednik.weights import (
    CentralCharPoly,
    Weight,
    basis_weight,
    complete_homogeneous,
    is_dominant,
    weyl_dim_formal,
)

F = Fraction

EXAMPLE_P = CentralCharPoly.from_h_coeffs([0, 18, F(-9, 2), -2, F(1, 2)], 2)
EXAMPLE_LAM = Weight.of(F(5, 2), F(1, 2))  # shifted coordinates (3, 0)


def shifted_multiset(d: ModuleDecomposition):
    return sorted((w.shifted(), m) for w, m in d.entries.items())


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
    L = L_decomposition(EXAMPLE_LAM, (2, 2))
    assert len(L.entries) == 9
    assert all(m == 1 for m in L.entries.values())
    shifted = {w.shifted() for w in L.entries}
    assert shifted == {(F(a), F(b)) for a in (3, 2, 1) for b in (0, -1, -2)}
    assert L.total_dimension() == 27

    single = L_decomposition(Weight.of(4), (0,))
    assert shifted_multiset(single) == [((F(4),), 1)]

    box1 = L_decomposition(Weight.of(F(3, 2)), (3,))
    assert {w.coords[0] for w in box1.entries} == {F(3, 2), F(1, 2), F(-1, 2), F(-3, 2)}


def test_tensor_with_spin_rank_one_pattern():
    lam, nu = F(3, 2), 3
    T = tensor_with_spin(Weight.of(lam), (nu,))
    got = {w.coords[0]: m for w, m in T.entries.items()}
    expected = {lam + F(1, 2): 1, lam - nu - F(1, 2): 1}
    for k in range(nu + 1):
        if lam - k - F(1, 2) != lam - nu - F(1, 2):
            expected[lam - k - F(1, 2)] = 2
    assert got == expected


def test_tensor_with_spin_example_grid():
    T = tensor_with_spin(EXAMPLE_LAM, (2, 2))
    # multiplicities over the shifted grid (3.5,0.5)..(0.5,-2.5): 1,2,2,1 pattern
    for i1, a in enumerate((F(7, 2), F(5, 2), F(3, 2), F(1, 2))):
        for i2, b in enumerate((F(1, 2), F(-1, 2), F(-3, 2), F(-5, 2))):
            m1 = 1 if i1 in (0, 3) else 2
            m2 = 1 if i2 in (0, 3) else 2
            w = Weight.of(a, b) - Weight.of(F(1, 2), F(-1, 2))  # un-shift by rho
            assert T.multiplicity(w) == m1 * m2
    assert T.total_dimension() == 4 * 27


def test_tensor_with_spin_trivial():
    T = tensor_with_spin(Weight.of(2), (0,))
    assert {w.coords[0]: m for w, m in T.entries.items()} == {F(5, 2): 1, F(3, 2): 1}


def test_dirac_cohomology_worked_example():
    coh = dirac_cohomology(EXAMPLE_P, EXAMPLE_LAM)
    assert shifted_multiset(coh) == sorted([
        ((F(7, 2), F(1, 2)), 1),
        ((F(1, 2), F(1, 2)), 1),
        ((F(5, 2), F(-1, 2)), 4),
        ((F(7, 2), F(-5, 2)), 1),
        ((F(1, 2), F(-5, 2)), 1),
    ])


def test_dirac_cohomology_rank_one():
    P = CentralCharPoly.from_xi(Poly.of(0, 1), 1)
    coh = dirac_cohomology(P, Weight.of(1))
    assert {w.coords[0]: m for w, m in coh.entries.items()} == {F(3, 2): 1, F(-3, 2): 1}


def test_dirac_cohomology_degenerate_keeps_everything():
    Pzero = CentralCharPoly.from_xi(Poly.zero(), 2)
    lam = Weight.of(2, 0)
    coh = dirac_cohomology(Pzero, lam)
    full = tensor_with_spin(lam, nu_vector(Pzero, lam))
    assert coh == full


def test_dirac_cohomology_rejects_nonmember():
    with pytest.raises(NotInClassificationError):
        dirac_cohomology(CentralCharPoly.from_xi(Poly.of(7), 1), Weight.of(1))


def test_cohomology_subset_of_tensor():
    for _ in range(5):
        coh = dirac_cohomology(EXAMPLE_P, EXAMPLE_LAM)
        T = tensor_with_spin(EXAMPLE_LAM, (2, 2))
        assert coh.is_submultiset_of(T)


def test_guaranteed_classes_examples():
    P1 = CentralCharPoly.from_xi(Poly.of(0, 1), 1)
    got = guaranteed_classes(P1, Weight.of(1))
    assert [w.coords[0] for w in got] == [F(3, 2), F(-3, 2)]

    got2 = guaranteed_classes(EXAMPLE_P, EXAMPLE_LAM)
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
        coh = dirac_cohomology(P, lam)
        for w in guaranteed_classes(P, lam):
            assert coh.multiplicity(w) == 1


def test_constant_shift_of_P_is_invisible():
    shifted_P = CentralCharPoly.from_h_coeffs(
        [EXAMPLE_P.h_coeffs[0] + F(17, 3)] + list(EXAMPLE_P.h_coeffs[1:]), 2)
    assert dirac_cohomology(shifted_P, EXAMPLE_LAM) == dirac_cohomology(EXAMPLE_P, EXAMPLE_LAM)
    assert nu_vector(shifted_P, EXAMPLE_LAM) == nu_vector(EXAMPLE_P, EXAMPLE_LAM)


def _conservation_holds(lam: Weight, nu: tuple[int, ...]) -> bool:
    L = L_decomposition(lam, nu)
    n = L.rank
    half = F(1, 2)
    total = 0
    for w, mult in L.entries.items():
        for signs in product((half, -half), repeat=n):
            cand = Weight(tuple(c + s for c, s in zip(w.coords, signs)))
            total += mult * weyl_dim_formal(cand)
    if total != 2 ** n * L.total_dimension():
        return False
    return tensor_with_spin(lam, nu).total_dimension() == 2 ** n * L.total_dimension()


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
    L = L_decomposition(lam, nu)
    assert len(L.entries) == 2 * 2 * 4
    assert _conservation_holds(lam, nu)
    coh = dirac_cohomology(P, lam)
    assert coh.is_submultiset_of(tensor_with_spin(lam, nu))
    for w in guaranteed_classes(P, lam):
        assert coh.multiplicity(w) == 1

    # the zero weight: trivial module, box (0,0,0)
    zero = Weight.of(0, 0, 0)
    assert nu_vector(P, zero) == (0, 0, 0)
    assert _conservation_holds(zero, (0, 0, 0))


def test_sorted_items_order_is_descending_lex_on_shift():
    coh = dirac_cohomology(EXAMPLE_P, EXAMPLE_LAM)
    shifts = [w.shifted() for w, _ in coh.sorted_items()]
    assert shifts == sorted(shifts, reverse=True)


def scan_nu_prefix(P: CentralCharPoly, lam: Weight) -> tuple[int, ...]:
    """Reference for nu_1..nu_{n-1}: step k up until lam - (k+1)e_i is
    non-dominant or P-equal to lam (linear in the dominance gap)."""
    n = lam.rank
    p_lam = P.value(lam)
    out = []
    for i in range(1, n):
        k = 0
        while True:
            lowered = lam - basis_weight(n, i) * (k + 1)
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
    guaranteed = guaranteed_classes(EXAMPLE_P, EXAMPLE_LAM)

    def fail(*args):
        raise AssertionError("membership recomputed")

    monkeypatch.setattr(modules, "membership_detail", fail)
    assert nu_vector(EXAMPLE_P, EXAMPLE_LAM, membership) == (2, 2)
    with pytest.raises(NotInClassificationError):
        nu_vector(EXAMPLE_P, EXAMPLE_LAM, (None, False))
    assert guaranteed_classes(EXAMPLE_P, EXAMPLE_LAM, (2, 2)) == guaranteed


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
        L_decomposition(EXAMPLE_LAM, (3, 2))     # gap lam_1 - lam_2 = 2
    with pytest.raises(ValueError):
        L_decomposition(Weight.of(0, 1), (0, 0))  # lam itself not dominant
    assert len(L_decomposition(EXAMPLE_LAM, (2, 5)).entries) == 18


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_L_decomposition_invariant_survives_optimized_python(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys\n"
            "from cherednik.modules import L_decomposition\n"
            "from cherednik.weights import Weight\n"
            "assert sys.flags.optimize == int(sys.argv[1])\n"
            "try:\n"
            "    L_decomposition(Weight.of(5, 2, 0), (4, 0, 1))\n"
            "except ValueError:\n"
            "    sys.exit(3)\n")
    res = subprocess.run([sys.executable, *flags, "-c", code, str(len(flags))],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert res.returncode == 3, res.stderr


def test_grid_budget_is_checked_before_the_box_is_built():
    # prod(nu_i + 2) at the budget passes; one more point is refused.
    assert modules.check_grid_size((998, 998)) == modules.MAX_GRID
    with pytest.raises(modules.BoxTooLargeError) as err:
        modules.check_grid_size((998, 999))
    assert err.value.nu == (998, 999) and err.value.grid_size == 1000 * 1001
    # a box of 10^20 weights is refused at once instead of overflowing
    big = 10 ** 20 + 38
    with pytest.raises(modules.BoxTooLargeError):
        L_decomposition(Weight.of(0), (big,))
    P = CentralCharPoly.from_h_coeffs([0, big + 1, 1], 1)
    with pytest.raises(modules.BoxTooLargeError):
        dirac_cohomology(P, Weight.of(0))
    assert guaranteed_classes(P, Weight.of(0)) == [Weight.of(F(1, 2)),
                                                   Weight.of(-big - F(1, 2))]
