"""The rank-one matrix oracle and its agreement with the closed form."""
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import cherednik.rank_one as rank_one
import cherednik.weights as weights
from cherednik.clifford import CliffordElement
from cherednik.modules import NotInClassificationError, dirac_cohomology
from cherednik.polynomials import InvariantViolation, Poly, xi_to_density
from cherednik.rank_one import (
    build_module,
    dirac_matrix,
    mat_mul,
    mat_rank,
    oracle_cohomology,
    weight_labels,
)
from cherednik.verify import random_rank_one_instance
from cherednik.weights import CentralCharPoly, Weight
from helpers import classes, total_dimension

F = Fraction


def mat_sub(a, b):
    """a - b on sparse rows, zeros dropped."""
    out = []
    for ra, rb in zip(a, b):
        row = {j: ra.get(j, 0) - rb.get(j, 0) for j in ra.keys() | rb.keys()}
        out.append({j: v for j, v in row.items() if v})
    return out


def diagonal(values):
    return [{k: v} if v else {} for k, v in enumerate(values)]


def dense(a, cols):
    """Sparse rows as a list of cols-long lists, for full-size scans."""
    zero = F(0)
    return [[row.get(j, zero) for j in range(cols)] for row in a]


def sparse(a):
    return [{j: v for j, v in enumerate(row) if v} for row in a]


def rational_fields(m):
    """The module's weights, x and y as Fractions: t over lam's denominator,
    x over 1 and y over m.scale."""
    q = m.lam.denominator
    return ([F(w, q) for w in m.t], m.x,
            [{j: F(c, m.scale) for j, c in row.items()} for row in m.y])


def rational_labels(m):
    """weight_labels, read over their scale 2q."""
    return [F(mu, 2 * m.lam.denominator) for mu in weight_labels(m)]


def test_build_module_sl2_like():
    m = build_module(Poly.of(0, 1), 1)
    assert m.nu == 2 and m.scale == 1
    assert m.d == [0, 2, 2, 0]
    assert m.t == [1, 0, -1]
    assert m.x == [{}, {0: 1}, {1: 1}]
    assert m.y == [{1: 2}, {2: 2}, {}]
    assert all(type(c) is int for c in [*m.d, *m.t, *m.y[0].values(), *m.y[1].values()])


def test_build_module_keeps_each_object_over_one_scale():
    # xi = -z/3, lam = 1/2: p(z) = -2z/3, so p(w/2) = -2w/6 over the scale 6,
    # the weights 1/2 and -1/2 are t/2, and d_1 = p(1/2) = -1/3 is -2/6.
    m = build_module(Poly.of(0, F(-1, 3)), F(1, 2))
    assert (m.nu, m.scale, m.t, m.d) == (1, 6, [1, -1], [0, -2, 0])
    assert m.y == [{1: -2}, {}]
    # the weights lam - k +- 1/2 over 2q = 4
    assert weight_labels(m) == [4, 0, 0, -4]
    # y_C = [[0, 2], [0, 0]] and x_C = [[0, 0], [1, 0]]; x enters as the scale
    assert dirac_matrix(m) == [{}, {2: -2}, {1: 6 * 2}, {}]
    assert all(type(c) is int for row in dirac_matrix(m) for c in row.values())


def test_build_module_trivial():
    m = build_module(Poly.of(0, 1), 0)
    assert m.nu == 0
    assert m.x == [{}] and m.y == [{}]


def test_build_module_rejects_nonmember():
    with pytest.raises(NotInClassificationError):
        build_module(Poly.of(0, 0, 1), 1)  # density 3z^2 never sums to zero
    with pytest.raises(NotInClassificationError):
        build_module(Poly.of(7), 2)


def test_build_module_rejects_a_nu_that_is_not_the_least_root(monkeypatch):
    # For xi = (3, 9/2, 1) and lam = 0, d_k vanishes at k = 2 and k = 4, so
    # nu = 1. Handed nu = 3, the closing condition d_4 = 0 still holds, but y
    # kills v_2 inside the box: the module would be reducible.
    xi = Poly.of(3, F(9, 2), 1)
    p = xi_to_density(xi, 1)
    d = [F(0)]
    for k in range(4):
        d.append(d[k] + p(-k))
    assert [k for k in range(1, 5) if d[k] == 0] == [2, 4]
    assert build_module(xi, 0).nu == 1
    monkeypatch.setattr(rank_one, "nu_vector", lambda P, lam: (3,))
    with pytest.raises(InvariantViolation, match="y kills some v_k with 1 <= k <= nu = 3"):
        build_module(xi, 0)


def test_module_relations_hold_as_matrices():
    # [t, x] = -x, [t, y] = y and [y, x] = p(t) on the module's own sparse
    # x and y, with t the diagonal matrix of its weights.
    rng = random.Random(47)
    for _ in range(10):
        xi, lam = random_rank_one_instance(rng, max_deg=3, max_nu=6)
        m = build_module(xi, lam)
        p = xi_to_density(xi, 1)
        weights_, x, y = rational_fields(m)
        t = diagonal(weights_)
        tx = mat_sub(mat_mul(t, x), mat_mul(x, t))
        assert tx == [{j: -c for j, c in row.items()} for row in x]
        ty = mat_sub(mat_mul(t, y), mat_mul(y, t))
        assert ty == y
        yx = mat_sub(mat_mul(y, x), mat_mul(x, y))
        assert yx == diagonal([p(w) for w in weights_])


def test_dirac_matrix_trivial_module_is_zero():
    m = build_module(Poly.of(0, 1), 0)
    assert dirac_matrix(m) == [{}, {}]


def test_dirac_matrix_six_by_six_kernel():
    m = build_module(Poly.of(0, 1), 1)
    d = dirac_matrix(m)
    assert len(d) == 6
    d2 = mat_mul(d, d)
    assert len(d2) - mat_rank(d2) == 2
    assert len(d) - mat_rank(d) == 2
    assert mat_rank(d) == mat_rank(d2) == 4


def test_d_squared_eigenblocks():
    rng = random.Random(53)
    for _ in range(8):
        xi, lam = random_rank_one_instance(rng, max_deg=3, max_nu=6)
        m = build_module(xi, lam)
        # D is over m.scale, so D^2 is over its square.
        d2 = [[F(c, m.scale ** 2) for c in row]
              for row in dense(mat_mul(dirac_matrix(m), dirac_matrix(m)), 2 * (m.nu + 1))]
        labels = rational_labels(m)
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
    assert {w.coords[0]: m for w, m in classes(got).items()} == {F(3, 2): 1, F(-3, 2): 1}
    got0 = oracle_cohomology(Poly.of(0, 1), 0)
    assert {w.coords[0]: m for w, m in classes(got0).items()} == {F(1, 2): 1, F(-1, 2): 1}


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
            assert {w.coords[0]: mm for w, mm in classes(coh).items()} == \
                {lam + F(1, 2): 1, -lam - F(1, 2): 1}


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_oracle_laws_survive_optimized_python(flags):
    # A corrupted Dirac matrix or weight labelling must make the oracle raise
    # InvariantViolation (and oracle_suite report FAIL) even when python -O
    # strips assert statements: d[0][0] breaks the D^2 eigenvalue law inside
    # one weight space, d[0][1] joins the weights lam + 1/2 and lam - 1/2,
    # labels without the weight lam - 1/2 (every instance here has nu >= 1)
    # are not one axis, and labels without the last one miss a row of D.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "import cherednik.rank_one as rank_one\n"
            "from cherednik.polynomials import InvariantViolation, Poly\n"
            "from cherednik.verify import oracle_suite\n"
            "assert sys.flags.optimize == int(sys.argv[1])\n"
            "honest = rank_one.dirac_matrix, rank_one.weight_labels\n"
            "def corrupt(i, j):\n"
            "    def dirac_matrix(module):\n"
            "        d = honest[0](module)\n"
            "        d[i][j] = d[i].get(j, 0) + 1\n"
            "        return d\n"
            "    return dirac_matrix, honest[1]\n"
            "def drop_weight(module):\n"
            "    low = 2 * module.t[0] - module.lam.denominator  # 2q (lam - 1/2)\n"
            "    return [w for w in honest[1](module) if w != low]\n"
            "for patched, message in [(corrupt(0, 0), 'D^2'),\n"
            "                         (corrupt(0, 1), 'D mixes distinct weights'),\n"
            "                         ((honest[0], drop_weight), 'not one axis'),\n"
            "                         ((honest[0], lambda module: honest[1](module)[:-1]),\n"
            "                          'one weight label per row')]:\n"
            "    rank_one.dirac_matrix, rank_one.weight_labels = patched\n"
            "    results = oracle_suite(trials=3)\n"
            "    if any(r.ok or message not in r.detail for r in results):\n"
            "        sys.exit(4)\n"
            "    try:\n"
            "        rank_one.oracle_cohomology(Poly.of(0, 1), 1)\n"
            "        sys.exit(5)\n"
            "    except InvariantViolation as exc:\n"
            "        if message not in str(exc):\n"
            "            sys.exit(6)\n"
            "sys.exit(3)\n")
    res = subprocess.run([sys.executable, *flags, "-c", code, str(len(flags))],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert res.returncode == 3, res.stderr


@pytest.mark.parametrize("xi,lam", [(Poly.of(0, 1), 1), (Poly.of(0, 1), F(7, 2)),
                                    random_rank_one_instance(random.Random(61))])
def test_oracle_ranks_each_matrix_once(monkeypatch, xi, lam):
    # D preserves weight, so the oracle ranks D_mu and D_mu^2 once in each
    # weight space: the two one-dimensional ends lam + 1/2 and lam - nu - 1/2,
    # and nu two-dimensional spaces between them.
    ranked = []
    monkeypatch.setattr(rank_one, "mat_rank", lambda a: ranked.append(len(a)) or mat_rank(a))
    got = oracle_cohomology(xi, lam)
    nu = build_module(xi, lam).nu
    assert ranked == [1, 1] + [2, 2] * nu + [1, 1]
    assert got == dirac_cohomology(CentralCharPoly.from_xi(xi, 1), Weight.of(lam))


def test_oracle_derives_P_once(monkeypatch):
    # build_module classifies lam with P; the oracle reads that P from the
    # module instead of deriving it from xi again.
    calls = []
    base = weights.xi_to_w
    monkeypatch.setattr(weights, "xi_to_w", lambda xi, n: calls.append(n) or base(xi, n))
    oracle_cohomology(*random_rank_one_instance(random.Random(67)))
    assert calls == [1]


def test_oracle_rejects_a_dirac_matrix_with_a_larger_rank_than_its_square(monkeypatch):
    # On the trivial module every weight block of D^2 must vanish, so a
    # nilpotent D of rank 1 passes the block laws and the final dimension
    # count; only rank D = rank D^2 (ker D = ker D^2) can reject it. Its
    # entry joins lam + 1/2 and lam - 1/2, so both basis vectors are given
    # the weight 1/2 (the label 1 over the labels' scale 2q = 2), where
    # D^2 = 0 is the expected scalar (P(0) = P(-1)).
    monkeypatch.setattr(rank_one, "dirac_matrix", lambda module: [{1: 1}, {}])
    monkeypatch.setattr(rank_one, "weight_labels", lambda module: [1, 1])
    with pytest.raises(InvariantViolation, match="ker D must equal ker D\\^2"):
        oracle_cohomology(Poly.of(0, 1), 0)


def test_oracle_rejects_a_dirac_matrix_across_weights(monkeypatch):
    monkeypatch.setattr(rank_one, "dirac_matrix", lambda module: [{1: F(1)}, {}])
    with pytest.raises(InvariantViolation, match="D mixes distinct weights"):
        oracle_cohomology(Poly.of(0, 1), 0)


@pytest.mark.parametrize("xi,lam", [(Poly.of(0, 1), 0), (Poly.of(0, 1), F(7, 2)),
                                    random_rank_one_instance(random.Random(71))])
def test_oracle_rejects_a_module_whose_P_is_perturbed(monkeypatch, xi, lam):
    # D^2 on the block of weight mu must be 2 P(lam) - 2 P(mu - 1/2): adding
    # h_1 to the module's P moves that scalar by 2 (lam - mu + 1/2), on every
    # block but the top one, while D itself is left as it is.
    assert oracle_cohomology(xi, lam)
    base = rank_one.build_module

    def perturbed(xi, lam):
        module = base(xi, lam)
        coeffs = [*module.P.h_coeffs, F(0), F(0)]
        coeffs[1] += 1
        module.P = CentralCharPoly.from_h_coeffs(coeffs, 1)
        return module

    monkeypatch.setattr(rank_one, "build_module", perturbed)
    with pytest.raises(InvariantViolation,
                       match="D\\^2 is not the expected scalar on a weight block"):
        oracle_cohomology(xi, lam)


def _kron(a, s):
    """The Kronecker product of two square matrices of dense rows; a zero
    entry of a leaves its zero block as it is."""
    rows = len(a) * len(s)
    out = [[F(0)] * rows for _ in range(rows)]
    for i in range(len(a)):
        for j in range(len(a)):
            if not a[i][j]:
                continue
            for si in range(len(s)):
                for sj in range(len(s)):
                    out[i * len(s) + si][j * len(s) + sj] = a[i][j] * s[si][sj]
    return out


def full_size_oracle(xi, lam):
    """The whole-matrix oracle the per-weight-space one replaced, kept as a
    reference: D from two Kronecker products, D^2 and both ranks at full size,
    and D^2 scanned entry by entry against the weight grading."""
    module = build_module(xi, lam)
    size = 2 * (module.nu + 1)
    _, x, y = rational_fields(module)
    x, y = dense(x, module.nu + 1), dense(y, module.nu + 1)
    y_c = dense(rank_one._spin_matrix(CliffordElement.vector(("y", 1))), 2)
    x_c = dense(rank_one._spin_matrix(CliffordElement.vector(("x", 1))), 2)
    d = sparse([[a + b if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(_kron(x, y_c), _kron(y, x_c))])
    d2 = mat_mul(d, d)
    rank_d, rank_d2 = mat_rank(d), mat_rank(d2)
    d2 = dense(d2, size)
    if rank_d != rank_d2:
        raise InvariantViolation("rank D != rank D^2")
    P = CentralCharPoly.from_xi(xi, 1)
    p_lam = P.value(Weight.of(module.lam))
    groups = {}
    for idx, mu in enumerate(rational_labels(module)):
        groups.setdefault(mu, []).append(idx)
    out: dict[Weight, int] = {}
    for mu, idxs in groups.items():
        expected = 2 * p_lam - 2 * P.value(Weight.of(mu - F(1, 2)))
        for i in idxs:
            for j in range(size):
                want = expected if i == j else F(0)
                if d2[i][j] != (want if j in idxs else 0):
                    raise InvariantViolation("D^2 breaks the weight-block law")
        if expected == 0:
            out[Weight.of(mu)] = len(idxs)
    if total_dimension(out) != size - rank_d2:
        raise InvariantViolation("cohomology dimension is not the nullity of D^2")
    return out


def _assert_three_routes_agree(xi, lam):
    got = oracle_cohomology(xi, lam)
    assert classes(got) == full_size_oracle(xi, lam)
    assert got == dirac_cohomology(CentralCharPoly.from_xi(xi, 1), Weight.of(lam))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_oracle_agrees_with_the_full_size_oracle(seed):
    _assert_three_routes_agree(*random_rank_one_instance(random.Random(seed),
                                                         max_deg=3, max_nu=40))


def test_oracle_agrees_with_the_full_size_oracle_on_300_instances():
    # lam in Z, Z/2 and Z/3, nu up to 80: the integer oracle, the closed
    # form and the Fraction full-size oracle return the same classes.
    rng = random.Random(83)
    denominators, largest = set(), 0
    for _ in range(300):
        xi, lam = random_rank_one_instance(rng, max_deg=3, max_nu=80)
        _assert_three_routes_agree(xi, lam)
        denominators.add(lam.denominator)
        largest = max(largest, build_module(xi, lam).nu)
    assert denominators == {1, 2, 3} and largest >= 75


def test_oracle_agrees_with_the_full_size_oracle_at_nu_80():
    xi = Poly.of(80, 1)
    assert build_module(xi, 0).nu == 80
    _assert_three_routes_agree(xi, F(0))


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_oracle_rejects_every_single_entry_corruption(seed):
    xi, lam = random_rank_one_instance(random.Random(seed), max_deg=3, max_nu=5)
    # Every one of the (2(nu + 1))^2 positions, stored in D or not; an entry
    # that the corruption makes zero is dropped from its row.
    honest = dirac_matrix(build_module(xi, lam))
    size = len(honest)
    for i in range(size):
        for j in range(size):
            d = [dict(row) for row in honest]
            d[i][j] = d[i].get(j, 0) + 1
            if not d[i][j]:
                del d[i][j]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rank_one, "dirac_matrix", lambda module: d)
                with pytest.raises(InvariantViolation):
                    oracle_cohomology(xi, lam)


def test_dirac_matrix_stores_only_the_nonzero_entries():
    # One row per basis vector of L (x) S; x and y have nu nonzero entries
    # each and each spin matrix one, so D stores at most 2 nu entries.
    rng = random.Random(71)
    for _ in range(20):
        m = build_module(*random_rank_one_instance(rng, max_deg=3, max_nu=12))
        d = dirac_matrix(m)
        assert len(d) == 2 * (m.nu + 1)
        assert sum(map(len, d)) <= 2 * m.nu
        assert all(c for row in d for c in row.values())


def test_weight_labels_reject_a_spin_weight_outside_half_integers(monkeypatch):
    # the labels are ints over 2q only while gamma(E_11) acts by halves
    base = rank_one.gamma_e
    monkeypatch.setattr(rank_one, "gamma_e", lambda *a: base(*a) * F(1, 3))
    with pytest.raises(InvariantViolation, match="gamma\\(E_11\\) has a weight outside Z/2"):
        oracle_cohomology(Poly.of(0, 1), 1)


@pytest.mark.parametrize("lam", [0.5, "3/2"])
def test_build_module_rejects_inexact_weights(lam):
    with pytest.raises(TypeError, match="expected an exact rational"):
        build_module(Poly.of(0, 1), lam)
    with pytest.raises(TypeError, match="expected an exact rational"):
        oracle_cohomology(Poly.of(0, 1), lam)


def test_mat_rank_is_exact_on_large_ints():
    # float division would see 10^20 + 1 and 10^20 as equal (rank 1), and
    # (10^17 + 1) / 3 as inexact (rank 2)
    assert mat_rank([{0: 10**20 + 1, 1: 1}, {0: 10**20, 1: 1}]) == 2
    assert mat_rank([{0: 3, 1: 10**17 + 1},
                     {0: 3 * (10**17 + 3), 1: (10**17 + 1) * (10**17 + 3)}]) == 1


rationals = st.sampled_from([F(0)] * 4 + [F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 7)])


large_ints = st.integers(-10**30, 10**30) | st.sampled_from([0, 0, 1, -1])
small_ints = st.integers(-3, 3)


@st.composite
def dense_matrices(draw, rows=None, cols=None, entries=rationals, factors=rationals):
    """Matrices up to 8 x 8 with the given entries, with zero rows and rows
    that are combinations of earlier ones (with the given factors) mixed in."""
    rows = draw(st.integers(0, 8)) if rows is None else rows
    cols = draw(st.integers(1, 8)) if cols is None else cols
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "zero":
            out.append([0 * draw(entries)] * cols)
        elif kind == "dependent" and out:
            a, b = draw(factors), draw(factors)
            r1, r2 = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append([a * u + b * v for u, v in zip(r1, r2)])
        else:
            out.append([draw(entries) for _ in range(cols)])
    return out


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([(rationals, rationals), (large_ints, small_ints)]))
def test_mat_mul_and_mat_rank_agree_with_sympy(data, kinds):
    # rational matrices, and int matrices with entries up to 10^30
    inner = data.draw(st.integers(1, 8))
    a = data.draw(dense_matrices(cols=inner, entries=kinds[0], factors=kinds[1]))
    b = data.draw(dense_matrices(rows=inner, entries=kinds[0], factors=kinds[1]))
    assert mat_rank(sparse(a)) == (sympy.Matrix(a).rank() if a else 0)
    assert mat_rank(sparse(b)) == sympy.Matrix(b).rank()
    product = mat_mul(sparse(a), sparse(b))
    assert all(v for row in product for v in row.values())  # nonzero entries only
    if a:
        assert dense(product, len(b[0])) == (sympy.Matrix(a) * sympy.Matrix(b)).tolist()
    else:
        assert product == []
