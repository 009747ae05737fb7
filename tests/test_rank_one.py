"""The rank-one matrix oracle and its agreement with the closed form."""
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cherednik.rank_one as rank_one
from cherednik.modules import NotInClassificationError, dirac_cohomology
from cherednik.polynomials import InvariantViolation, Poly, xi_to_density
from cherednik.rank_one import (
    build_module,
    dirac_matrix,
    mat_mul,
    mat_rank,
    nullity,
    oracle_cohomology,
    weight_labels,
    zeros,
)
from cherednik.verify import random_rank_one_instance
from cherednik.weights import CentralCharPoly, Weight

F = Fraction


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def test_build_module_sl2_like():
    m = build_module(Poly.of(0, 1), 1)
    assert m.nu == 2
    assert m.d == [F(0), F(2), F(2), F(0)]
    assert [m.t[k][k] for k in range(3)] == [F(1), F(0), F(-1)]


def test_build_module_trivial():
    m = build_module(Poly.of(0, 1), 0)
    assert m.nu == 0
    assert m.x == [[F(0)]] and m.y == [[F(0)]]


def test_build_module_rejects_nonmember():
    with pytest.raises(NotInClassificationError):
        build_module(Poly.of(0, 0, 1), 1)  # density 3z^2 never sums to zero
    with pytest.raises(NotInClassificationError):
        build_module(Poly.of(7), 2)


def test_module_relations_hold_as_matrices():
    rng = random.Random(47)
    for _ in range(10):
        xi, lam = random_rank_one_instance(rng, max_deg=3, max_nu=6)
        m = build_module(xi, lam)
        size = m.nu + 1
        p = xi_to_density(xi, 1)
        tx = mat_sub(mat_mul(m.t, m.x), mat_mul(m.x, m.t))
        assert tx == [[-c for c in row] for row in m.x]
        ty = mat_sub(mat_mul(m.t, m.y), mat_mul(m.y, m.t))
        assert ty == m.y
        yx = mat_sub(mat_mul(m.y, m.x), mat_mul(m.x, m.y))
        want = zeros(size, size)
        for k in range(size):
            want[k][k] = p(m.t[k][k])
        assert yx == want


def test_dirac_matrix_trivial_module_is_zero():
    m = build_module(Poly.of(0, 1), 0)
    assert dirac_matrix(m) == [[F(0), F(0)], [F(0), F(0)]]


def test_dirac_matrix_six_by_six_kernel():
    m = build_module(Poly.of(0, 1), 1)
    d = dirac_matrix(m)
    assert len(d) == 6
    d2 = mat_mul(d, d)
    assert nullity(d2) == 2
    assert nullity(d) == 2
    assert mat_rank(d) == mat_rank(d2) == 4


def test_d_squared_eigenblocks():
    rng = random.Random(53)
    for _ in range(8):
        xi, lam = random_rank_one_instance(rng, max_deg=3, max_nu=6)
        m = build_module(xi, lam)
        d2 = mat_mul(dirac_matrix(m), dirac_matrix(m))
        labels = weight_labels(m)
        P = CentralCharPoly.from_xi(xi, 1)
        p_lam = P.value(Weight.of(m.lam))
        for i, mu_i in enumerate(labels):
            for j, mu_j in enumerate(labels):
                if mu_i != mu_j:
                    assert d2[i][j] == 0
                elif i == j:
                    assert d2[i][j] == 2 * p_lam - 2 * P.value(Weight.of(mu_i - F(1, 2)))
                else:
                    assert d2[i][j] == 0


def test_oracle_examples():
    got = oracle_cohomology(Poly.of(0, 1), 1)
    assert {w.coords[0]: m for w, m in got.entries.items()} == {F(3, 2): 1, F(-3, 2): 1}
    got0 = oracle_cohomology(Poly.of(0, 1), 0)
    assert {w.coords[0]: m for w, m in got0.entries.items()} == {F(1, 2): 1, F(-1, 2): 1}


def test_oracle_agrees_with_closed_form():
    rng = random.Random(59)
    for _ in range(20):
        xi, lam = random_rank_one_instance(rng)
        oracle = oracle_cohomology(xi, lam)
        closed = dirac_cohomology(CentralCharPoly.from_xi(xi, 1), Weight.of(lam))
        assert oracle == closed


def test_half_integral_family():
    # xi = c z: members are exactly the half-integers >= 0, box size 2 lam
    for c in (F(1), F(2), F(-1, 3)):
        xi = Poly.of(0, c)
        for lam in (F(0), F(1, 2), F(1), F(3, 2), F(2), F(7, 2)):
            m = build_module(xi, lam)
            assert m.nu == 2 * lam
            coh = oracle_cohomology(xi, lam)
            assert {w.coords[0]: mm for w, mm in coh.entries.items()} == \
                {lam + F(1, 2): 1, -lam - F(1, 2): 1}


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_oracle_laws_survive_optimized_python(flags):
    # A corrupted Dirac matrix breaks the D^2 eigenvalue law; the oracle must
    # raise InvariantViolation (and oracle_suite report FAIL) even when
    # python -O strips assert statements.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys\n"
            "import cherednik.rank_one as rank_one\n"
            "from cherednik.polynomials import InvariantViolation, Poly\n"
            "from cherednik.verify import oracle_suite\n"
            "assert sys.flags.optimize == int(sys.argv[1])\n"
            "honest = rank_one.dirac_matrix\n"
            "def corrupt(module):\n"
            "    d = honest(module)\n"
            "    d[0][0] += 1\n"
            "    return d\n"
            "rank_one.dirac_matrix = corrupt\n"
            "results = oracle_suite(trials=3)\n"
            "if any(r.ok or 'D^2' not in r.detail for r in results):\n"
            "    sys.exit(4)\n"
            "try:\n"
            "    rank_one.oracle_cohomology(Poly.of(0, 1), 1)\n"
            "except InvariantViolation:\n"
            "    sys.exit(3)\n")
    res = subprocess.run([sys.executable, *flags, "-c", code, str(len(flags))],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert res.returncode == 3, res.stderr


@pytest.mark.parametrize("xi,lam", [(Poly.of(0, 1), 1), (Poly.of(0, 1), F(7, 2)),
                                    random_rank_one_instance(random.Random(61))])
def test_oracle_ranks_each_matrix_once(monkeypatch, xi, lam):
    # rank D and rank D^2 decide every kernel condition (rank-nullity), so
    # one oracle call runs exactly two eliminations.
    ranked = []
    monkeypatch.setattr(rank_one, "mat_rank", lambda a: ranked.append(len(a)) or mat_rank(a))
    got = oracle_cohomology(xi, lam)
    size = 2 * (build_module(xi, lam).nu + 1)
    assert ranked == [size, size]
    assert got == dirac_cohomology(CentralCharPoly.from_xi(xi, 1), Weight.of(lam))


def test_oracle_rejects_a_dirac_matrix_with_a_larger_rank_than_its_square(monkeypatch):
    # On the trivial module every weight block of D^2 must vanish, so a
    # nilpotent D of rank 1 passes the block laws and the final dimension
    # count; only rank D = rank D^2 (ker D = ker D^2) can reject it.
    monkeypatch.setattr(rank_one, "dirac_matrix", lambda module: [[F(0), F(1)], [F(0), F(0)]])
    with pytest.raises(InvariantViolation, match="ker D must equal ker D\\^2"):
        oracle_cohomology(Poly.of(0, 1), 0)
