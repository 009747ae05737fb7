"""PBW engine, generating-series coefficients, and the deformation
certificates."""
import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.enveloping import (
    CPoly,
    KappaMap,
    UEAElement,
    _act_gen,
    _gl_bracket,
    _normalize,
    _ordering_sum,
    act_on_v,
    coproduct,
    h_linearity_check,
    higher_jacobi_checks,
    jacobi_check,
    kappa_from_r_matrices,
    kappa_of,
    r_matrix,
    v_basis,
)
from cherednik.polynomials import Poly
from cherednik.verify import r1_corruptions

F = Fraction
U = UEAElement


def random_monomial(rng, n, max_len):
    return tuple(sorted((rng.randint(1, n), rng.randint(1, n))
                        for _ in range(rng.randint(0, max_len))))


def test_multiplication_examples():
    e12, e21 = U.generator(1, 2), U.generator(2, 1)
    assert e12 * e21 == U({((1, 2), (2, 1)): F(1)})  # already ordered
    assert e21 * e12 == U({((1, 2), (2, 1)): F(1),
                           ((2, 2),): F(1), ((1, 1),): F(-1)})
    a = e12 * e21 + U.generator(1, 1) * 3
    assert U.one() * a == a == a * U.one()


def test_multiplication_associativity():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 3)
        a, b, c = (U({random_monomial(rng, n, 3): F(1)}) for _ in range(3))
        assert (a * b) * c == a * (b * c)


@st.composite
def rank_and_words(draw, count, max_len=4):
    """A rank n <= 3 and ``count`` generator words of length <= max_len."""
    n = draw(st.integers(1, 3))
    gen = st.tuples(st.integers(1, n), st.integers(1, n))
    return n, [tuple(draw(st.lists(gen, max_size=max_len))) for _ in range(count)]


@st.composite
def uea_triples(draw):
    n, words = draw(rank_and_words(6))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    terms = [(tuple(sorted(w)), F(c)) for w, c in zip(words, coeffs)]
    return [U.collect(terms[k:k + 2]) for k in (0, 2, 4)]


@settings(max_examples=60, deadline=None)
@given(uea_triples())
def test_multiplication_associativity_generated(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


def _act_word(word, v):
    """The action of a generator word on a V-basis vector, composed
    generator by generator through _act_gen (rightmost first)."""
    coeff = F(1)
    for gen in reversed(word):
        hit = _act_gen(gen, v)
        if hit is None:
            return {}
        v, c = hit
        coeff *= c
    return {v: coeff}


def _matrix_of_word(word, n):
    """The product of elementary matrices E_ij in the defining n x n
    representation."""
    out = [[F(int(r == c)) for c in range(n)] for r in range(n)]
    for i, j in word:
        out = [[out[r][i - 1] if c == j - 1 else F(0) for c in range(n)] for r in range(n)]
    return out


def _matrix_of_terms(terms, n):
    """The matrix of a combination of (word, coefficient) terms in the
    defining n x n representation."""
    total = [[F(0)] * n for _ in range(n)]
    for word, c in terms:
        total = [[t + c * x for t, x in zip(rt, rx)]
                 for rt, rx in zip(total, _matrix_of_word(word, n))]
    return total


@settings(max_examples=200, deadline=None)
@given(rank_and_words(1, max_len=5))
def test_pbw_normal_form_acts_like_its_word(case):
    n, (word,) = case
    normal = _normalize(word)
    for m, _ in normal:
        assert list(m) == sorted(m)
    for v in v_basis(n):
        want = {}
        for m, c in normal:
            for b, cb in _act_word(m, v).items():
                want[b] = want.get(b, F(0)) + c * cb
        assert _act_word(word, v) == {b: c for b, c in want.items() if c}
    assert _matrix_of_word(word, n) == _matrix_of_terms(normal, n)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_commutator_rule(n):
    # [E_21, E_12] = E_22 - E_11
    if n == 2:
        lhs = U.generator(2, 1).commutator(U.generator(1, 2))
        assert lhs == U.generator(2, 2) - U.generator(1, 1)
    # the one bracket and the PBW commutator of every generator pair are the
    # matrix commutator in the defining representation
    gens = list(product(range(1, n + 1), repeat=2))
    for a, b in product(gens, repeat=2):
        expected = _matrix_of_terms([((a, b), 1), ((b, a), -1)], n)
        assert _matrix_of_terms(_gl_bracket(a, b), n) == expected
        commutator = U.generator(*a).commutator(U.generator(*b))
        assert _matrix_of_terms(commutator.terms.items(), n) == expected


def test_coproduct_examples():
    assert coproduct(U.generator(1, 1)) == {
        (((1, 1),), ()): F(1), ((), ((1, 1),)): F(1)}
    d = coproduct(U({((1, 1), (1, 2)): F(1)}))
    assert d == {
        ((), ((1, 1), (1, 2))): F(1),
        (((1, 1),), ((1, 2),)): F(1),
        (((1, 2),), ((1, 1),)): F(1),
        (((1, 1), (1, 2)), ()): F(1),
    }
    assert coproduct(U.one()) == {((), ()): F(1)}
    # squares pick up binomial coefficients
    sq = coproduct(U({((1, 1), (1, 1)): F(1)}))
    assert sq[(((1, 1),), ((1, 1),))] == 2


def test_coproduct_coassociative_and_cocommutative():
    rng = random.Random(37)
    for _ in range(30):
        mono = random_monomial(rng, 3, 3)
        a = U({mono: F(1)})
        d = coproduct(a)
        # cocommutativity
        flipped = {(r, l): c for (l, r), c in d.items()}
        assert flipped == d
        # coassociativity: (coproduct x id) d == (id x coproduct) d
        left = {}
        for (l, r), c in d.items():
            for (l1, l2), c2 in coproduct(U({l: F(1)})).items():
                key = (l1, l2, r)
                left[key] = left.get(key, F(0)) + c * c2
        right = {}
        for (l, r), c in d.items():
            for (r1, r2), c2 in coproduct(U({r: F(1)})).items():
                key = (l, r1, r2)
                right[key] = right.get(key, F(0)) + c * c2
        assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


def test_action_examples():
    assert act_on_v(U.generator(1, 2), ("y", 2)) == {("y", 1): F(1)}
    assert act_on_v(U.generator(1, 2), ("x", 1)) == {("x", 2): F(-1)}
    assert act_on_v(U.generator(1, 2), ("y", 1)) == {}


def test_action_is_lie_action():
    for n in (1, 2, 3):
        gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for (a, b) in gens:
            for (c, d) in gens:
                bracket = U.generator(a, b).commutator(U.generator(c, d))
                for v in v_basis(n):
                    lhs = act_on_v(bracket, v)
                    rhs = {}
                    for w, cw in act_on_v(U.generator(c, d), v).items():
                        for u, cu in act_on_v(U.generator(a, b), w).items():
                            rhs[u] = rhs.get(u, F(0)) + cw * cu
                    for w, cw in act_on_v(U.generator(a, b), v).items():
                        for u, cu in act_on_v(U.generator(c, d), w).items():
                            rhs[u] = rhs.get(u, F(0)) - cw * cu
                    assert lhs == {k: v2 for k, v2 in rhs.items() if v2}


def test_r_matrix_low_orders():
    for n in (1, 2, 3):
        r0 = r_matrix(n, 0)
        for i in range(n):
            for j in range(n):
                assert r0[i][j] == (U.one() if i == j else U.zero())
        r1 = r_matrix(n, 1)
        trace = U.zero()
        for k in range(1, n + 1):
            trace = trace + U.generator(k, k)
        for i in range(n):
            for j in range(n):
                want = U.generator(j + 1, i + 1)
                if i == j:
                    want = want + trace
                assert r1[i][j] == want


@pytest.mark.parametrize("m", range(5))
def test_r_matrix_rank_one(m):
    assert r_matrix(1, m)[0][0] == U({((1, 1),) * m: F(m + 1)})


def symmetrize(p):
    """a_kl -> E_lk on each factor of the terms of a commutative polynomial
    {sorted multiset of a_kl: coefficient}, averaged over all factor
    orderings through the memoised integer ordering sum."""
    return U.collect((m, F(c) / factorial(len(mono)) * t) for mono, c in p.items()
                     for m, t in _ordering_sum(tuple(sorted((l, k) for k, l in mono))))


def test_symmetrization_reorder_invariance():
    # the symmetrized image may not depend on how the commutative monomial
    # was ordered before averaging
    mono = ((1, 2), (2, 1), (1, 1))
    for perm in [mono, mono[::-1], (mono[1], mono[0], mono[2])]:
        assert symmetrize({tuple(sorted(perm)): F(1)}) == symmetrize({tuple(sorted(mono)): F(1)})
    a = symmetrize({((1, 2), (2, 1)): F(1)})
    half = F(1, 2)
    expected = (U.generator(2, 1) * U.generator(1, 2)) * half \
        + (U.generator(1, 2) * U.generator(2, 1)) * half
    assert a == expected


def ordering_average(p):
    """Reference symmetrization: a_kl -> E_lk on each factor, averaged over
    all m! orderings of the factors of each monomial."""
    out = U.zero()
    for mono, c in p.items():
        perms = list(permutations((l, k) for k, l in mono))
        total = U.collect(t for perm in perms for t in _normalize(perm))
        out = out + total * Fraction(c, len(perms))
    return out


@st.composite
def commutative_polys(draw):
    """CPoly terms {sorted multiset of a_kl: coefficient}, n <= 3 and m <= 5,
    drawn from few symbols so that repeats are common."""
    n = draw(st.integers(1, 3))
    symbol = st.tuples(st.integers(1, n), st.integers(1, n))
    mono = st.lists(symbol, max_size=5).map(lambda s: tuple(sorted(s)))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    return draw(st.dictionaries(mono, coeff, max_size=3))


@settings(max_examples=80, deadline=None)
@given(commutative_polys())
def test_memoised_symmetrization_is_the_ordering_average(p):
    assert symmetrize(p) == ordering_average(p)


def test_memoised_symmetrization_of_repeated_symbols():
    for mono in [((1, 2),) * 5, ((1, 2), (1, 2), (2, 1), (2, 1), (2, 1)),
                 ((1, 1), (1, 3), (1, 3), (3, 1), (3, 2))]:
        assert symmetrize({mono: F(1)}) == ordering_average({mono: F(1)})


def fraction_r_matrix(n, m):
    """Reference r_m, the series over Fractions: det(1 - tau A)^{-1} through
    e_k = (1/k) sum_l tr_l e_{k-l}, each tau^m coefficient symmetrized
    term by term."""
    one = CPoly({(): F(1)})
    a = [[CPoly({((k + 1, l + 1),): F(1)}) for l in range(n)] for k in range(n)]
    powers = [[[one if i == j else CPoly() for j in range(n)] for i in range(n)]]
    for _ in range(m):
        prev = powers[-1]
        powers.append([[sum((prev[i][k] * a[k][j] for k in range(n)), CPoly())
                        for j in range(n)] for i in range(n)])
    traces = [sum((pw[i][i] for i in range(n)), CPoly()) for pw in powers]
    det_inv = [one]
    for mm in range(1, m + 1):
        acc = sum((traces[k] * det_inv[mm - k] for k in range(1, mm + 1)), CPoly())
        det_inv.append(acc * F(1, mm))
    return tuple(tuple(symmetrize(sum((powers[k][i][j] * det_inv[m - k] for k in range(m + 1)),
                                      CPoly()).terms)
                       for j in range(n)) for i in range(n))


@pytest.mark.parametrize("n, m", [(n, m) for n in (1, 2, 3) for m in range(6)]
                         + [(4, 4), (3, 6), (2, 8)])
def test_r_matrix_is_the_fraction_series(n, m):
    got = r_matrix(n, m)
    assert got == fraction_r_matrix(n, m)
    assert all(type(c) is Fraction for row in got for e in row for c in e.terms.values())


def test_kappa_examples():
    k1 = kappa_of(Poly.of(0, 1), 1)
    assert k1.pair(("y", 1), ("x", 1)) == U({((1, 1),): F(2)})
    k0 = kappa_of(Poly.of(3), 2)
    for i, j in product((1, 2), repeat=2):
        want = U({(): F(3)}) if i == j else U.zero()
        assert k0.pair(("y", j), ("x", i)) == want
    kz = kappa_of(Poly.zero(), 2)
    assert all(kz.pair(a, b).is_zero() for a in v_basis(2) for b in v_basis(2))
    # skew extension and same-species vanishing
    k = kappa_of(Poly.of(0, 1), 2)
    assert k.pair(("x", 1), ("y", 2)) == -k.pair(("y", 2), ("x", 1))
    assert k.pair(("y", 1), ("y", 2)).is_zero()
    assert k.pair(("x", 1), ("x", 1)).is_zero()


def test_kappa_orientations_are_built_once():
    k = kappa_of(Poly.of(0, 0, 1), 2)
    for x, y in product(v_basis(2), repeat=2):
        assert k.pair(x, y) is k.pair(x, y) or k.pair(x, y).is_zero()
        assert k.pair(x, y) == -k.pair(y, x)
    with pytest.raises(TypeError):
        k.entries[("y", 1), ("x", 1)] = U.one()


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("deg", (0, 1, 2))
def test_certificates_pass(n, deg):
    for xi in (Poly.of(*([0] * deg + [1])),
               Poly.of(*(F(1, d + 1) for d in range(deg + 1)))):
        kappa = kappa_of(xi, n)
        assert jacobi_check(kappa, n)
        assert higher_jacobi_checks(kappa, n)
        assert h_linearity_check(kappa, n)


def test_certificates_pass_degree_three():
    # r_3 brings length-3 monomials, making the wedge-cube check non-vacuous
    kappa = kappa_of(Poly.of(0, 0, 0, 1), 2)
    assert jacobi_check(kappa, 2)
    assert higher_jacobi_checks(kappa, 2)
    assert h_linearity_check(kappa, 2)


def test_r1_corruption_controls():
    seen_invisible = []
    for ((i, j), mono), kappa in r1_corruptions(2):
        jac = jacobi_check(kappa, 2)
        lin = h_linearity_check(kappa, 2)
        assert not lin, "every corruption must break adjoint linearity"
        if i == j and mono == ((i, i),):
            # the trace-aligned diagonal corruptions perturb kappa by a
            # multiple of E_ii on (y_i, x_i) -- itself a Jacobi map, so the
            # Jacobi certificate alone cannot reject it
            assert jac
            seen_invisible.append((i, j))
        else:
            assert not jac
            assert jac.witness is not None and jac.residual
    assert seen_invisible == [(1, 1), (2, 2)]


def test_r2_corruption_breaks_wedge_identities():
    rm = [r_matrix(2, m) for m in range(3)]
    entry = U(dict(rm[2][0][0].terms))
    entry.terms[((1, 1), (2, 2))] *= 2
    rows = [list(r) for r in rm[2]]
    rows[0][0] = entry
    kappa = kappa_from_r_matrices(Poly.of(0, 0, 1), [rm[0], rm[1], rows], 2)
    assert not higher_jacobi_checks(kappa, 2)
    assert not jacobi_check(kappa, 2)


def test_handcrafted_linearity_failure():
    kappa = KappaMap(2, {(("y", 1), ("x", 1)): U.generator(1, 2)})
    assert not h_linearity_check(kappa, 2)


def test_zero_kappa_passes_everything():
    kappa = KappaMap(2)
    assert jacobi_check(kappa, 2)
    assert higher_jacobi_checks(kappa, 2)
    assert h_linearity_check(kappa, 2)
