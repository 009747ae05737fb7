"""Clifford algebra, spin module, and the gamma lift."""
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cherednik.clifford as clifford
import cherednik.enveloping as enveloping
import cherednik.polynomials as polynomials
from cherednik.clifford import (
    CliffordElement,
    SpinVector,
    _cl_normalize,
    commutator_matches_action,
    gamma_e,
    gamma_lie_hom_check,
    gamma_rank_one,
    spin_action,
    spin_weights,
)
from cherednik.enveloping import v_basis
from cherednik.polynomials import Poly, nabla_inverse, twisted_identity_check

F = Fraction
C = CliffordElement


def random_element(rng, n, terms=3, max_len=3):
    out = C.zero()
    basis = v_basis(n)
    for _ in range(terms):
        word = tuple(rng.choice(basis) for _ in range(rng.randint(0, max_len)))
        out = out + C.from_word(*word) * F(rng.randint(-3, 3))
    return out


def test_multiplication_examples():
    x1, y1 = C.vector(("x", 1)), C.vector(("y", 1))
    assert (x1 * x1).is_zero()
    assert x1 * y1 + y1 * x1 == C.scalar(2)
    assert (C.vector(("x", 1)) * C.vector(("y", 2))).terms == \
        {(("x", 1), ("y", 2)): F(1)}


def test_multiplication_associativity():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 3)
        a, b, c = (random_element(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)


@st.composite
def rank_and_words(draw, count, max_len=4):
    """A rank n <= 3 and ``count`` words of length <= max_len in the V-basis."""
    n = draw(st.integers(1, 3))
    letter = st.sampled_from(v_basis(n))
    return n, [tuple(draw(st.lists(letter, max_size=max_len))) for _ in range(count)]


@st.composite
def clifford_triples(draw):
    _, words = draw(rank_and_words(6))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    terms = [C.from_word(*w) * c for w, c in zip(words, coeffs)]
    return [terms[k] + terms[k + 1] for k in (0, 2, 4)]


@settings(max_examples=80, deadline=None)
@given(clifford_triples())
def test_multiplication_associativity_generated(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


def _fock_apply(word, subset):
    """Apply a word to the basis vector e_subset of the exterior algebra on
    e_1..e_n, with x_i acting as e_i ^ (.) and y_i as 2 times contraction by
    e_i (rightmost letter first). This is the spin representation, faithful
    because the Clifford algebra of a nondegenerate form is simple."""
    state = {tuple(subset): F(1)}
    for kind, i in reversed(word):
        new = {}
        for s, c in state.items():
            if (i in s) == (kind == "x"):
                continue
            sign = F((-1) ** sum(j < i for j in s))
            if kind == "x":
                new[tuple(sorted(s + (i,)))] = c * sign
            else:
                new[tuple(j for j in s if j != i)] = 2 * c * sign
        state = new
    return state


@settings(max_examples=200, deadline=None)
@given(rank_and_words(1, max_len=5))
def test_normal_form_acts_like_its_word_in_the_spin_representation(case):
    n, (word,) = case
    normal = _cl_normalize(word)
    for m, _ in normal:
        assert list(m) == sorted(set(m))
    for size in range(n + 1):
        for subset in combinations(range(1, n + 1), size):
            want = {}
            for m, c in normal:
                for s, cs in _fock_apply(m, subset).items():
                    want[s] = want.get(s, F(0)) + c * cs
            assert _fock_apply(word, subset) == {s: c for s, c in want.items() if c}


def inversions(word):
    return sum(a > b for i, a in enumerate(word) for b in word[i + 1:])


@st.composite
def unpaired_words(draw):
    """Words of length <= 6 using, for each index i <= 5, only one of x_i, y_i."""
    n = draw(st.integers(1, 5))
    species = draw(st.lists(st.sampled_from("xy"), min_size=n, max_size=n))
    letters = [(k, i + 1) for i, k in enumerate(species)]
    return tuple(draw(st.lists(st.sampled_from(letters), max_size=6)))


@settings(max_examples=200, deadline=None)
@given(unpaired_words())
def test_unpaired_word_normalizes_to_signed_sort(word):
    # with no x_i / y_i pair the form vanishes, so the Clifford algebra acts
    # like the exterior algebra: sorted word times the inversion sign, or 0
    if len(set(word)) < len(word):
        assert _cl_normalize(word) == ()
    else:
        assert _cl_normalize(word) == ((tuple(sorted(word)), F((-1) ** inversions(word))),)


def test_defining_relations_post_hoc():
    for n in (1, 2, 3):
        for va, vb in product(v_basis(n), repeat=2):
            a, b = C.vector(va), C.vector(vb)
            pairing = 2 if (va[0] != vb[0] and va[1] == vb[1]) else 0
            assert a * b + b * a == C.scalar(pairing)


def test_gamma_normal_form_rank_one():
    assert gamma_e(1, 1, 1) == C({(): F(1, 2), (("x", 1), ("y", 1)): F(-1, 2)})


def test_gamma_commutators_move_vectors():
    g12 = gamma_e(1, 2, 2)
    assert g12.commutator(C.vector(("y", 2))) == C.vector(("y", 1))
    assert g12.commutator(C.vector(("x", 1))) == -C.vector(("x", 2))
    for n in (1, 2, 3):
        assert commutator_matches_action(n)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_gamma_lie_homomorphism(n):
    assert gamma_lie_hom_check(n)
    # spot check: [gamma(E12), gamma(E21)] = gamma(E11) - gamma(E22)
    if n >= 2:
        lhs = gamma_e(1, 2, n).commutator(gamma_e(2, 1, n))
        assert lhs == gamma_e(1, 1, n) - gamma_e(2, 2, n)
        diag = gamma_e(1, 1, n).commutator(gamma_e(2, 2, n))
        assert diag.is_zero()


def test_gamma_lie_homomorphism_fails_on_a_wrong_bracket(monkeypatch):
    # the check reads gamma([E_a, E_b]) from the bracket the PBW rewriting
    # uses; flipping the sign of its second term must make the check fail
    def flipped(a, b):
        return [(word, -c if c < 0 else c) for word, c in enveloping._gl_bracket(a, b)]

    monkeypatch.setattr(clifford, "_gl_bracket", flipped)
    report = gamma_lie_hom_check(2)
    assert not report and report.witness is not None


def test_spin_action_examples():
    u = SpinVector.basis(())
    assert spin_action(C.vector(("x", 1)), u, 1) == SpinVector.basis((1,))
    assert spin_action(C.vector(("y", 1)), u, 1).is_zero()
    assert spin_action(C.vector(("y", 2)), SpinVector.basis(()), 2).is_zero()


def test_spin_diagonal_eigenvalues():
    for n in (1, 2, 3):
        for size in range(n + 1):
            from itertools import combinations
            for e in combinations(range(1, n + 1), size):
                vec = SpinVector.basis(e)
                for i in range(1, n + 1):
                    got = spin_action(gamma_e(i, i, n), vec, n)
                    sign = -1 if i in e else 1
                    assert got == vec * F(sign, 2)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_spin_weights(n):
    ws = spin_weights(n)
    assert len(ws) == 2 ** n
    assert all(m == 1 for _, m in ws)
    coords = sorted(tuple(w.coords) for w, _ in ws)
    assert coords == sorted(set(product((F(1, 2), F(-1, 2)), repeat=n)))
    total = [sum(t[i] for t in coords) for i in range(n)]
    assert all(v == 0 for v in total)


def test_gamma_rank_one_examples():
    assert gamma_rank_one([F(1)]) == gamma_e(1, 1, 1)
    v = (F(3, 5), F(4, 5))
    got = gamma_rank_one(v)
    want = gamma_e(1, 1, 2) * F(9, 25) \
        + (gamma_e(1, 2, 2) + gamma_e(2, 1, 2)) * F(12, 25) \
        + gamma_e(2, 2, 2) * F(16, 25)
    assert got == want


@pytest.mark.parametrize("v", [
    (F(1),),
    (F(3, 5), F(4, 5)),
    (F(5, 13), F(12, 13)),
    (F(1, 3), F(2, 3), F(2, 3)),
])
def test_gamma_rank_one_squares(v):
    g = gamma_rank_one(v)
    assert g * g == C.scalar(F(1, 4))


def test_gamma_rank_one_rejects_non_unit():
    with pytest.raises(ValueError):
        gamma_rank_one((F(1, 2), F(1, 2)))


def test_twisted_identity_realized_in_clifford():
    # p(z)g = f(z+g) + p(z)/2 - f(z+1/2) holds verbatim with g a rank-one
    # gamma (g^2 = 1/4); both sides have z-degree <= 5, so 7 sample points
    # pin the polynomial identity
    samples = [F(0), F(1), F(1, 2), F(-2), F(3), F(5, 3), F(-1, 4)]
    for v in [(F(1),), (F(3, 5), F(4, 5))]:
        g = gamma_rank_one(v)
        for k in range(5):
            p = Poly.of(*([0] * k + [1]))
            f = nabla_inverse(F(1, 2), p)
            for z0 in samples:
                lhs = g * p(z0)
                zg = C.scalar(z0) + g
                rhs = C.zero()
                for coeff in reversed(f.coeffs):
                    rhs = rhs * zg + C.scalar(coeff)
                rhs = rhs + C.scalar(p(z0) / 2 - f(z0 + F(1, 2)))
                assert lhs == rhs


UNITS = [(F(1),), (F(3, 5), F(4, 5)), (F(1, 3), F(2, 3), F(2, 3))]


@pytest.mark.parametrize("v", UNITS)
@pytest.mark.parametrize("k", range(5))
def test_twisted_identity_check_with_a_rank_one_gamma(v, k):
    # the package's one check of the identity, over the Clifford algebra
    p = Poly.of(*([0] * k + [1]))
    assert twisted_identity_check(p, (gamma_rank_one(v),), C.scalar)


@pytest.mark.parametrize("v", UNITS)
@pytest.mark.parametrize("k, j", [(0, 1), (2, 1), (4, 3)])
def test_twisted_identity_check_in_clifford_fails_for_a_perturbed_antidifference(
        monkeypatch, v, k, j):
    bump = Poly.of(*([0] * j + [1]))
    base = polynomials.nabla_inverse
    monkeypatch.setattr(polynomials, "nabla_inverse", lambda eps, q: base(eps, q) + bump)
    assert not twisted_identity_check(Poly.of(*([0] * k + [1])), (gamma_rank_one(v),),
                                      C.scalar)


@pytest.mark.parametrize("v", UNITS)
@pytest.mark.parametrize("f", [Poly.zero(), Poly.of(F(3, 7))], ids=["zero", "constant"])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_twisted_identity_check_in_clifford_fails_for_an_antidifference_of_too_low_degree(
        monkeypatch, v, f, k):
    monkeypatch.setattr(polynomials, "nabla_inverse", lambda eps, q: f)
    assert not twisted_identity_check(Poly.of(*([0] * k + [1])), (gamma_rank_one(v),),
                                      C.scalar)


def test_twisted_identity_check_in_clifford_needs_g_squared_a_quarter():
    # a basis vector squares to 0, not 1/4
    g = C.vector(("x", 1))
    assert g * g == C.zero()
    assert not twisted_identity_check(Poly.x(), (g,), C.scalar)
    assert twisted_identity_check(Poly.x(), (gamma_rank_one(UNITS[2]),), C.scalar)


def test_scalar_takes_exact_rationals_only():
    for c in (0.1, 1.0, "1/2"):
        with pytest.raises(TypeError, match="exact rational"):
            C.scalar(c)
    assert C.scalar(F(1, 10)) == C.scalar(1) * F(1, 10)
    assert C.scalar(3) == C.scalar(F(3))


def test_scalar_rejects_a_bool():
    with pytest.raises(TypeError, match="expected an exact rational, got bool"):
        C.scalar(True)
