"""The certificates read each independent tuple once: Jacobi the increasing
triples, adjoint linearity the pairs (x_i, y_j), the wedge cube the stored
keys of the (x_i, y_j) tensors, all over kappa's integer view. Each must
report what the ordered scan over every tuple reports, kept here as the
reference: the same (ok, witness, residual)."""
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik import enveloping
from cherednik.enveloping import (
    CheckReport,
    KappaMap,
    UEAElement,
    _act_gen,
    _cube_witness,
    _generator_bracket,
    h_linearity_check,
    higher_jacobi_checks,
    jacobi_check,
    kappa_of,
    leg_tensor,
    v_basis,
)
from cherednik.lincomb import LinComb
from cherednik.polynomials import Poly
from cherednik.verify import _doubled, r1_corruptions

F = Fraction


# ---------------------------------------------------------------------------
# the ordered scans, over every tuple and kappa's exact entries
# ---------------------------------------------------------------------------

def ordered_pair_tensors(kappa, n, k):
    out = {}
    for x, y in product(v_basis(n), repeat=2):
        out[x, y] = ({vs: -t for vs, t in out[y, x].items()} if (y, x) in out
                     else leg_tensor(kappa.pair(x, y), k))
    return out


def ordered_jacobi(kappa, n):
    basis, zero = v_basis(n), LinComb()
    tensors = ordered_pair_tensors(kappa, n, 1)
    bracket = {(a, b, c): tensors[a, b].get((c,), zero) for a, b in tensors for c in basis}
    for u, v, w in product(basis, repeat=3):
        residual = bracket[u, v, w] + bracket[v, w, u] + bracket[w, u, v]
        if not residual.is_zero():
            return CheckReport(False, witness=(u, v, w), residual=residual.terms)
    return CheckReport(True)


def ordered_cube(kappa, n):
    basis, zero = v_basis(n), LinComb()
    for xy, cube in ordered_pair_tensors(kappa, n, 3).items():
        for zuv in product(basis, repeat=3):
            if not cube.get(zuv, zero).is_zero():
                return (*zuv, *xy)
    return None


def ordered_wedge(kappa, n):
    zero = LinComb()
    square = ordered_pair_tensors(kappa, n, 2)
    for zu, xy in combinations(square, 2):
        if square[xy].get(zu, zero) != square[zu].get(xy, zero):
            return CheckReport(False, witness=("square", *zu, *xy))
    cube = ordered_cube(kappa, n)
    return CheckReport(False, witness=("cube", *cube)) if cube else CheckReport(True)


def ordered_linearity(kappa, n):
    basis = v_basis(n)
    for gen in product(range(1, n + 1), repeat=2):
        for v, w in product(basis, repeat=2):
            lhs = UEAElement.collect((m, c * t) for mono, c in kappa.pair(v, w).terms.items()
                                     for m, t in _generator_bracket(gen, mono))
            rhs = UEAElement.zero()
            if hit := _act_gen(gen, v):
                rhs = rhs + kappa.pair(hit[0], w) * hit[1]
            if hit := _act_gen(gen, w):
                rhs = rhs + kappa.pair(v, hit[0]) * hit[1]
            if lhs != rhs:
                return CheckReport(False, witness=(gen, v, w), residual=(lhs - rhs).terms)
    return CheckReport(True)


SCANS = {"jacobi": (jacobi_check, ordered_jacobi),
         "linearity": (h_linearity_check, ordered_linearity),
         "cube": (_cube_witness, ordered_cube),
         "wedge": (higher_jacobi_checks, ordered_wedge)}


def differing(kappa, n, names=tuple(SCANS)):
    """The scans whose report differs from the ordered scan's."""
    return [name for name in names if SCANS[name][0](kappa, n) != SCANS[name][1](kappa, n)]


# ---------------------------------------------------------------------------
# generated deformation maps
# ---------------------------------------------------------------------------

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def elements(n, max_terms=3):
    gen = st.tuples(st.integers(1, n), st.integers(1, n))
    mono = st.lists(gen, max_size=3).map(lambda g: tuple(sorted(g)))
    return st.lists(st.tuples(mono, COEFFS), max_size=max_terms).map(UEAElement.collect)


@st.composite
def kappa_maps(draw):
    """kappa_of(xi) (equivariant), the same with some entries perturbed, or
    arbitrary entries (not equivariant), at n <= 3 and with coefficient
    denominators up to 6."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["equivariant", "perturbed", "arbitrary"]))
    entries = {}
    if kind != "arbitrary":
        xi = Poly.of(*draw(st.lists(COEFFS, min_size=1, max_size=4 if n < 3 else 3)))
        entries = dict(kappa_of(xi, n).entries)
    if kind != "equivariant":
        for key in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                                 min_size=1, max_size=n * n)):
            pair = (("y", key[0]), ("x", key[1]))
            entries[pair] = entries.get(pair, UEAElement()) + draw(elements(n))
    return n, KappaMap(n, entries)


@settings(max_examples=80, deadline=None)
@given(kappa_maps())
def test_reduced_scans_report_what_the_ordered_scans_report(case):
    n, kappa = case
    assert differing(kappa, n) == []


def test_reduced_scans_on_the_corruptions():
    corpus = [(kappa, n) for n in (2, 3) for _, kappa in r1_corruptions(n)]
    corpus.append((_doubled(2, 2, 0, 0, ((1, 1), (2, 2))), 2))
    for kappa, n in corpus:
        assert differing(kappa, n) == []
    # not vacuous: every corruption fails linearity, and all but the
    # trace-aligned ones Jacobi
    assert not any(h_linearity_check(kappa, n) for kappa, n in corpus[:-1])
    assert sum(bool(jacobi_check(kappa, n)) for kappa, n in corpus) == 2 + 3


def test_kappa_integer_view():
    kappa = KappaMap(2, {(("y", 1), ("x", 2)): UEAElement({((1, 2),): F(1, 4), (): F(2, 3)}),
                         (("y", 2), ("x", 2)): UEAElement({((2, 2),): F(5, 6)})})
    assert kappa.scale == 12
    assert kappa.scaled_pair(("y", 1), ("x", 2)).terms == {((1, 2),): 3, (): 8}
    assert kappa.scaled_pair(("x", 2), ("y", 2)).terms == {((2, 2),): -10}
    assert kappa.scaled_pair(("x", 1), ("x", 2)).is_zero()
    assert all(type(c) is int for key in [(("y", 1), ("x", 2)), (("y", 2), ("x", 2))]
               for c in kappa.scaled_pair(*key).terms.values())
    assert kappa.pair(("y", 1), ("x", 2)).terms == {((1, 2),): F(1, 4), (): F(2, 3)}
    assert kappa.unscaled({"k": 3}) == {"k": F(1, 4)}
    assert KappaMap(2).scale == 1


# ---------------------------------------------------------------------------
# mutation check: a scan that skips one of the tuples it reads fails the
# comparison, so each of those tuples stands for a class no other covers
# ---------------------------------------------------------------------------

def _random_kappas(seed, count, n=2):
    """Arbitrary deformation maps at rank n, drawn from a seeded source."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        entries = {}
        for i, j in product(range(1, n + 1), repeat=2):
            if rng.random() < 0.5:
                entries[("y", j), ("x", i)] = UEAElement.collect(
                    (tuple(sorted((rng.randint(1, n), rng.randint(1, n))
                                  for _ in range(rng.randint(0, 3)))),
                     F(rng.randint(-3, 3), rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 2)))
        out.append(KappaMap(n, entries))
    return out


MUTATION_CORPUS = ([kappa for _, kappa in r1_corruptions(2)]
                   + [_doubled(2, 2, 0, 0, ((1, 1), (2, 2)))] + _random_kappas(7, 40))


@contextmanager
def skipping(name, skip):
    """enveloping's `name` (combinations or product) with the tuple skip
    left out of every iteration it yields."""
    honest = getattr(enveloping, name)
    with mock.patch.object(enveloping, name,
                           lambda *a, **kw: (t for t in honest(*a, **kw) if t != skip)):
        yield


X1, X2, Y1, Y2 = ("x", 1), ("x", 2), ("y", 1), ("y", 2)


@pytest.mark.parametrize("scan, iterator, skip", [
    *(("jacobi", "combinations", t) for t in combinations([X1, X2, Y1, Y2], 3)),
    *(("linearity", "product", p) for p in product([X1, X2], [Y1, Y2])),
    *(("cube", "product", p) for p in product([X1, X2], [Y1, Y2])),
])
def test_a_scan_that_skips_a_tuple_fails_the_comparison(scan, iterator, skip):
    assert not any(differing(kappa, 2, [scan]) for kappa in MUTATION_CORPUS)
    with skipping(iterator, skip):
        assert any(differing(kappa, 2, [scan]) for kappa in MUTATION_CORPUS)
