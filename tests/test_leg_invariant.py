"""The one leg invariant (v_1..v_k | h), scattered over every tuple at once
by leg_tensor, and the certificates built on it, checked against separate
constructions kept here as references: the per-tuple leg invariant, the
two-leg split, the bracket into V (x) U, the wedge invariant, and the
certificate loops that compute both sides of every ordered tuple."""
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.enveloping import (
    KappaMap,
    UEAElement,
    _act_gen,
    _legs,
    _wedge_normalize,
    act_on_v,
    h_linearity_check,
    higher_jacobi_checks,
    jacobi_check,
    kappa_from_r_matrices,
    kappa_of,
    leg_tensor,
    r_matrix,
    v_basis,
)
from cherednik.lincomb import LinComb
from cherednik.polynomials import Poly
from cherednik.verify import r1_corruptions

F = Fraction


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _leg_invariant(h, vs):
    """(v_1..v_k | h) at one tuple: loop over every deal of each monomial into
    k+1 legs whose first k legs are non-empty, act with those on v_1..v_k,
    wedge, tensor the last leg."""
    k = len(vs)
    out = []
    for mono, c in h.terms.items():
        for legs in _legs(mono, k + 1):
            if not all(legs[:k]):
                continue
            coeff, word = c, []
            for leg, v in zip(legs, vs):
                hit = _act_monomial(leg, v)
                if not hit:
                    break
                (image, sign), = hit.items()
                word.append(image)
                coeff *= sign
            else:
                out.extend(((vec, legs[k]), coeff * sign)
                           for vec, sign in _wedge_normalize(tuple(word)))
    return LinComb.collect(out)


def _splits(mono):
    """(left, right) for every subset of positions sent left."""
    for pick in product((0, 1), repeat=len(mono)):
        yield (tuple(g for g, p in zip(mono, pick) if p == 0),
               tuple(g for g, p in zip(mono, pick) if p == 1))


def _act_monomial(mono, v):
    """The image of v under a monomial as a dict (one term or none)."""
    coeff = F(1)
    for gen in reversed(mono):
        hit = _act_gen(gen, v)
        if hit is None:
            return {}
        v, c = hit
        coeff *= c
    return {v: coeff}


def _bracket_into_vh(h, v):
    """[h, v] = (h_(1) > v) h_(2) in V (x) U, keyed by (vector, monomial)."""
    return LinComb.collect(((b, right), c * c2) for mono, c in h.terms.items()
                           for left, right in _splits(mono) if left
                           for b, c2 in _act_monomial(left, v).items())


def _wedge_invariant(kappa, vs, x, y):
    """(v_1,..,v_k | x, y): apply the first k coproduct legs of kappa(x, y)
    to v_1..v_k, wedge the results, tensor the last leg."""
    k = len(vs)
    h = kappa.pair(x, y)
    out = []
    for mono, c in h.terms.items():
        for assign in product(range(k + 1), repeat=len(mono)):
            blocks = [[] for _ in range(k + 1)]
            for g, b in zip(mono, assign):
                blocks[b].append(g)
            if any(not blocks[b] for b in range(k)):
                continue
            acted = [_act_monomial(tuple(blocks[b]), vs[b]) for b in range(k)]
            if any(not a for a in acted):
                continue
            tail = tuple(blocks[k])
            for combo in product(*(a.items() for a in acted)):
                for vec, sign in _wedge_normalize(tuple(b for b, _ in combo)):
                    coeff = c * sign
                    for _, cc in combo:
                        coeff *= cc
                    out.append(((vec, tail), coeff))
    return LinComb.collect(out)


def _extend(kappa, va, vb):
    out = UEAElement.zero()
    for a, ca in va.items():
        for b, cb in vb.items():
            out = out + kappa.pair(a, b) * (ca * cb)
    return out


def ref_jacobi_witness(kappa, n):
    for u, v, w in product(v_basis(n), repeat=3):
        residual = LinComb.zero()
        for a, b, c in ((u, v, w), (v, w, u), (w, u, v)):
            residual = residual + _bracket_into_vh(kappa.pair(a, b), c)
        if not residual.is_zero():
            return (u, v, w)
    return None


def ref_wedge_witness(kappa, n):
    basis = v_basis(n)
    for z, u, x, y in product(basis, repeat=4):
        if _wedge_invariant(kappa, (z, u), x, y) != _wedge_invariant(kappa, (x, y), z, u):
            return ("square", z, u, x, y)
    for x, y in product(basis, repeat=2):
        for z, u, v in product(basis, repeat=3):
            if not _wedge_invariant(kappa, (z, u, v), x, y).is_zero():
                return ("cube", z, u, v, x, y)
    return None


def ref_linearity_witness(kappa, n):
    basis = v_basis(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e = UEAElement.generator(i, j)
            for v, w in product(basis, repeat=2):
                lhs = e.commutator(kappa.pair(v, w))
                rhs = _extend(kappa, act_on_v(e, v), {w: F(1)}) \
                    + _extend(kappa, {v: F(1)}, act_on_v(e, w))
                if lhs != rhs:
                    return ((i, j), v, w)
    return None


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def monomials(n, max_len=3):
    gen = st.tuples(st.integers(1, n), st.integers(1, n))
    return st.lists(gen, max_size=max_len).map(lambda g: tuple(sorted(g)))


def elements(n, max_terms=4):
    return st.lists(st.tuples(monomials(n), COEFFS), max_size=max_terms).map(UEAElement.collect)


@st.composite
def element_and_vectors(draw, k):
    n = draw(st.integers(1, 3))
    basis = v_basis(n)
    return n, draw(elements(n)), tuple(draw(st.sampled_from(basis)) for _ in range(k))


# ---------------------------------------------------------------------------
# the leg dealer and the leg invariant
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: monomials(n, max_len=5)))
def test_two_legs_reproduce_the_splits(mono):
    assert list(_legs(mono, 2)) == list(_splits(mono))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(monomials), st.integers(1, 4))
def test_legs_deal_every_position_to_one_leg(mono, k):
    dealt = list(_legs(mono, k))
    assert len(dealt) == k ** len(mono)
    for legs in dealt:
        assert len(legs) == k
        assert sorted(g for leg in legs for g in leg) == list(mono)
        assert all(list(leg) == sorted(leg) for leg in legs)


@settings(max_examples=150, deadline=None)
@given(element_and_vectors(1))
def test_one_leg_is_the_bracket(case):
    _, h, (v,) = case
    want = {((b,), right): c for (b, right), c in _bracket_into_vh(h, v).terms.items()}
    assert _leg_invariant(h, (v,)).terms == want
    assert leg_tensor(h, 1).get((v,), LinComb()).terms == want


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(element_and_vectors))
def test_k_legs_are_the_wedge_invariant(case):
    _, h, vs = case
    kappa = KappaMap(1, {(("y", 1), ("x", 1)): h})
    want = _wedge_invariant(kappa, vs, ("y", 1), ("x", 1))
    assert _leg_invariant(h, vs) == want
    assert leg_tensor(h, len(vs)).get(vs, LinComb()) == want


def assert_scatter_matches_every_tuple(h, n, k):
    tensor = leg_tensor(h, k)
    tuples = set(product(v_basis(n), repeat=k))
    assert set(tensor) <= tuples
    for vs in tuples:
        assert tensor.get(vs, LinComb()) == _leg_invariant(h, vs), vs


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(st.just(n), elements(n))),
       st.integers(1, 3))
def test_scatter_is_the_per_tuple_invariant_on_generated_elements(case, k):
    n, h = case
    assert_scatter_matches_every_tuple(h, n, k)


@pytest.mark.parametrize("n,deg", [(n, d) for n in (1, 2) for d in range(4)])
def test_scatter_is_the_per_tuple_invariant_on_kappa(n, deg):
    # every pair of kappa(z^deg) and every tuple (v_1..v_k), k = 1, 2, 3
    kappa = kappa_of(Poly.of(*([0] * deg + [1])), n)
    for x, y in product(v_basis(n), repeat=2):
        for k in (1, 2, 3):
            assert_scatter_matches_every_tuple(kappa.pair(x, y), n, k)


# ---------------------------------------------------------------------------
# the certificates report the references' first failing tuple
# ---------------------------------------------------------------------------

@st.composite
def kappas(draw):
    """kappa_of(xi) for a generated xi, with one entry perturbed or not."""
    n = draw(st.integers(1, 2))
    xi = Poly.of(*draw(st.lists(COEFFS, min_size=1, max_size=4 if n == 1 else 3)))
    kappa = kappa_of(xi, n)
    if draw(st.booleans()):
        key = (("y", draw(st.integers(1, n))), ("x", draw(st.integers(1, n))))
        kappa = KappaMap(n, {**kappa.entries,
                             key: kappa.pair(*key) + draw(elements(n, max_terms=2))})
    return n, kappa


@settings(max_examples=40, deadline=None)
@given(kappas())
def test_certificates_agree_with_the_ordered_tuple_loops(case):
    n, kappa = case
    assert jacobi_check(kappa, n).witness == ref_jacobi_witness(kappa, n)
    assert higher_jacobi_checks(kappa, n).witness == ref_wedge_witness(kappa, n)
    assert h_linearity_check(kappa, n).witness == ref_linearity_witness(kappa, n)


# The first failing tuples of the corruption controls, pinned so that an
# enumeration order cannot move them.
R1_WITNESSES = {
    ((1, 1), ((1, 1),)): (None, ((1, 2), ("x", 1), ("y", 1))),
    ((1, 1), ((2, 2),)): ((("x", 1), ("x", 2), ("y", 1)), ((1, 2), ("x", 1), ("y", 1))),
    ((1, 2), ((2, 1),)): ((("x", 1), ("x", 2), ("y", 2)), ((1, 2), ("x", 1), ("y", 2))),
    ((2, 1), ((1, 2),)): ((("x", 1), ("x", 2), ("y", 1)), ((1, 2), ("x", 1), ("y", 1))),
    ((2, 2), ((1, 1),)): ((("x", 1), ("x", 2), ("y", 2)), ((1, 2), ("x", 1), ("y", 2))),
    ((2, 2), ((2, 2),)): (None, ((1, 2), ("x", 1), ("y", 2))),
}


def test_r1_corruption_witnesses_are_pinned():
    got = {label: (jacobi_check(kappa, 2).witness, h_linearity_check(kappa, 2).witness)
           for label, kappa in r1_corruptions(2)}
    assert got == R1_WITNESSES


def test_r2_corruption_witnesses_are_pinned():
    rm = [r_matrix(2, m) for m in range(3)]
    entry = UEAElement(dict(rm[2][0][0].terms))
    entry.terms[((1, 1), (2, 2))] *= 2
    rows = [list(r) for r in rm[2]]
    rows[0][0] = entry
    kappa = kappa_from_r_matrices(Poly.of(0, 0, 1), [rm[0], rm[1], rows], 2)
    assert higher_jacobi_checks(kappa, 2).witness == \
        ("square", ("x", 1), ("x", 2), ("x", 1), ("y", 1))
    assert jacobi_check(kappa, 2).witness == (("x", 1), ("x", 2), ("y", 1))
