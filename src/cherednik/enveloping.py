"""
Symbolic U(gl_n) engine and PBW-certificate checks for deformation maps.

Elements of U(gl_n) are kept in PBW normal form: linear combinations
(lincomb.LinComb) of monomials in the elementary matrices E_ij, each
monomial a non-decreasing tuple of (i, j) indices ordered lexicographically.
The shared rewriting core reduces a word as rewriting(1, _gl_bracket): an
out-of-order adjacent pair is swapped and the commutator
[E_ij, E_kl] = d_jk E_il - d_li E_kj added, _gl_bracket being the one
definition of that bracket in the package. The same core as rewriting(-1)
(a swap gives -1, a repeat gives 0) wedges vectors in the certificates.

V = h + h* is the direct sum of the standard module (basis y_1..y_n, with
E_ij . y_k = d_jk y_i) and its contragredient (basis x_1..x_n, with
E_ij . x_k = -d_ik x_j). V-basis vectors are written ('x', i) / ('y', i).

The deformation map kappa attached to a polynomial xi is assembled from the
generating-series coefficients r_m: over a commutative ring in n^2 symbols
a_kl, r_m(x_i, y_j) is the tau^m coefficient of entry (i, j) of
(1 - tau A)^{-1} * det(1 - tau A)^{-1}, with the determinant inverse expanded
through exp of the power-sum series; each commutative monomial is sent to
U(gl_n) by a_kl -> E_lk (the trace pairing) followed by symmetrization, the
average over all factor orderings. That average is computed as a sum over
the orderings memoised on sorted sub-multisets, T(S) = sum over distinct a in
S of mult(a) a T(S - a), so no ordering is visited one by one. The series,
the ordering sums and the PBW rewriting all run in Python ints: m! times the
tau^m coefficient is an integer polynomial, every monomial of it has length
m, so r_m is an integer combination over (m!)^2, and each of its
coefficients becomes one Fraction at the end. Then kappa(y_j, x_i) =
sum_m xi_m r_m, kappa vanishes on pairs of the same species, and extends
skew-symmetrically.

The certificates share one leg invariant (v_1..v_k | h): deal the PBW
positions of h into k+1 coproduct legs, act with the first k on v_1..v_k
(through h > v := h.v - eps(h) v, so an empty leg gives 0), wedge, tensor the
last leg. Jacobi is sum_cyc (c | kappa(a,b)) = 0 with (v | h) = [h, v] (k = 1),
the wedge square (z,u | kappa(x,y)) = (x,y | kappa(z,u)) (k = 2), the wedge
cube (z,u,v | kappa(x,y)) = 0 (k = 3); with adjoint linearity they certify flatness.
A leg acts nonzero on at most two basis vectors, one y and one x, fixed by
its last generator, so leg_tensor scatters each deal into the tuples it
reaches and builds the invariant at every tuple at once; a tuple it never
reaches has invariant zero.

The certificates run in integers, on KappaMap's integer view (its pairs
times the lcm of their coefficients' denominators), and divide a residual
they report back by that lcm. Each reads every independent tuple once and
reports the first failing ordered tuple, with its residual, as a scan over
all of them would: kappa is skew and vanishes on same-species pairs, and
the generators keep each species. Jacobi reads the increasing triples,
since its residual is totally antisymmetric and vanishes on a repeated
letter; adjoint linearity reads the pairs (x_i, y_j), since both sides
vanish on a same-species pair and the residual of (y_j, x_i) is the negated
one of (x_i, y_j); the wedge cube reads the stored keys of the (x_i, y_j)
tensors. The wedge square compares each unordered pair of pairs once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, lcm, perm
from types import MappingProxyType
from typing import Mapping

from .lincomb import ONE, LinComb, add_terms, rewriting
from .polynomials import Poly

Gen = tuple[int, int]                 # (i, j) index pair of E_ij, 1-based
Monomial = tuple[Gen, ...]            # non-decreasing in lexicographic order
VBasis = tuple[str, int]              # ('x', i) or ('y', i)


def _gl_bracket(a: Gen, b: Gen) -> list[tuple[Monomial, int]]:
    """[E_ij, E_kl] = d_jk E_il - d_li E_kj, the one gl_n bracket."""
    (i, j), (k, l) = a, b
    return [(((i, l),), ONE)] * (j == k) + [(((k, j),), -ONE)] * (l == i)


_normalize = rewriting(1, _gl_bracket)     # PBW normal form of a generator word


class UEAElement(LinComb):
    """Linear combination of PBW monomials with exact coefficients."""

    __slots__ = ()
    _reduce = staticmethod(_normalize)

    @staticmethod
    def one() -> UEAElement:
        return UEAElement({(): ONE})

    @staticmethod
    def generator(i: int, j: int) -> UEAElement:
        return UEAElement({((i, j),): ONE})

    def __repr__(self) -> str:
        def fmt(m: Monomial) -> str:
            return "1" if not m else "".join(f"E{i}{j}" for i, j in m)
        parts = " + ".join(f"{c}*{fmt(m)}" for m, c in sorted(self.terms.items()))
        return f"UEA({parts or '0'})"


def _legs(mono: Monomial, k: int):
    """The k legs of every assignment of a monomial's positions to k legs, in
    product order; subsequences of a sorted monomial stay sorted."""
    for assign in product(range(k), repeat=len(mono)):
        legs: list[list[Gen]] = [[] for _ in range(k)]
        for g, b in zip(mono, assign):
            legs[b].append(g)
        yield tuple(map(tuple, legs))


def coproduct(a: UEAElement) -> dict[tuple[Monomial, Monomial], Fraction]:
    """Two-fold coproduct; generators are primitive, so a monomial splits as
    the sum over position subsets."""
    return LinComb.collect((legs, c) for mono, c in a.terms.items()
                           for legs in _legs(mono, 2)).terms


def _act_gen(gen: Gen, v: VBasis) -> tuple[VBasis, int] | None:
    i, j = gen
    kind, k = v
    if kind == "y":
        return (("y", i), 1) if j == k else None
    return (("x", j), -1) if i == k else None


def _act_monomial(mono: Monomial, v: VBasis) -> tuple[VBasis, int] | None:
    """Each generator sends a basis vector to at most one basis vector, with
    sign +-1, so the image is a single term (vector, sign) or zero (None)."""
    sign = 1
    for gen in reversed(mono):
        hit = _act_gen(gen, v)
        if hit is None:
            return None
        v, c = hit
        sign *= c
    return v, sign


def act_on_v(a: UEAElement, v: VBasis) -> dict[VBasis, Fraction]:
    """The module action of U(gl_n) on V = h + h*, as a combination of basis
    vectors."""
    return LinComb.collect((hit[0], c * hit[1]) for mono, c in a.terms.items()
                           if (hit := _act_monomial(mono, v))).terms


def v_basis(n: int) -> list[VBasis]:
    return [("x", i) for i in range(1, n + 1)] + [("y", i) for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# r_m via the commutative generating series
# ---------------------------------------------------------------------------

CMono = tuple[Gen, ...]               # sorted multiset of symbols a_kl


class CPoly(LinComb):
    """Commutative polynomial in the symbols a_kl."""

    __slots__ = ()

    @staticmethod
    def _reduce(word: CMono) -> tuple[tuple[CMono, int], ...]:
        return ((tuple(sorted(word)), ONE),)


@lru_cache(maxsize=None)
def _ordering_sum(gens: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """The sum of the products of the generators of a sorted multiset S over
    all |S|! orderings of its positions, in PBW normal form and with integer
    coefficients: sum over distinct a in S of mult(a) a T(S - a), memoised
    on the sorted sub-multisets. Sym(S) is this divided by |S|!."""
    if not gens:
        return (((), 1),)
    acc: dict = {}
    for idx, a in enumerate(gens):
        if idx and gens[idx - 1] == a:
            continue
        mult = gens.count(a)
        add_terms(acc, ((m, mult * c * cc)
                        for mono, c in _ordering_sum(gens[:idx] + gens[idx + 1:])
                        for m, cc in _normalize((a,) + mono)))
    return tuple((m, c) for m, c in acc.items() if c)


@lru_cache(maxsize=None)
def r_matrix(n: int, m: int) -> tuple[tuple[UEAElement, ...], ...]:
    """Entry (i, j) [0-based] is r_m(x_{i+1}, y_{j+1}) in U(gl_n).

    In integers: E_k = k! e_k for the tau^k coefficients e_k of
    det(1 - tau A)^{-1}, so k e_k = sum_l tr_l e_{k-l} reads
    E_k = sum_l tr_l (k-1)!/(k-l)! E_{k-l}, and m! times the tau^m coefficient
    of entry (i, j) is sum_k (A^k)_ij E_{m-k} m!/(m-k)!. Each of its monomials
    has length m, so a_kl -> E_lk and the average over orderings is its
    integer _ordering_sum over m!; every coefficient is one integer over
    (m!)^2."""
    one = CPoly({(): ONE})
    a = [[CPoly({((k + 1, l + 1),): ONE}) for l in range(n)] for k in range(n)]

    powers = [[[one if i == j else CPoly() for j in range(n)] for i in range(n)]]
    for _ in range(m):
        prev = powers[-1]
        powers.append([[sum((prev[i][k] * a[k][j] for k in range(n)), CPoly())
                        for j in range(n)] for i in range(n)])
    traces = [sum((pw[i][i] for i in range(n)), CPoly()) for pw in powers]

    dets = [one]                      # E_0..E_m
    for mm in range(1, m + 1):
        dets.append(sum((traces[k] * dets[mm - k] * perm(mm - 1, k - 1)
                         for k in range(1, mm + 1)), CPoly()))

    scale = factorial(m) ** 2

    def entry(i: int, j: int) -> UEAElement:
        series = sum((powers[k][i][j] * dets[m - k] * perm(m, k) for k in range(m + 1)), CPoly())
        acc = add_terms({}, ((w, c * t) for mono, c in series.terms.items()
                             for w, t in _ordering_sum(tuple(sorted((l, k) for k, l in mono)))))
        return UEAElement({w: Fraction(c, scale) for w, c in acc.items() if c})

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# kappa and the certificates
# ---------------------------------------------------------------------------

@dataclass
class KappaMap:
    """Skew map on V-basis pairs valued in U(gl_n); zero on same-species
    pairs, stored on the (y_j, x_i) side. The entries are read once: both
    orientations of each are built at construction, and the stored mapping
    is read-only.

    The integer view: scale is the lcm of the denominators of the pairs'
    coefficients, and scaled_pair(a, b) is scale * pair(a, b) with int
    coefficients, built at construction too; pair(a, b) stays exact. The
    certificates run on the view and divide a residual they report back by
    scale (unscaled)."""

    n: int
    entries: Mapping[tuple[VBasis, VBasis], UEAElement] = field(default_factory=dict)
    _pairs: dict = field(init=False, repr=False, compare=False)
    _scaled: dict = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.entries = MappingProxyType(dict(self.entries))
        self._pairs = {}
        for (a, b), e in self.entries.items():
            if a[0] == "y" and b[0] == "x":
                self._pairs[a, b], self._pairs[b, a] = e, -e
        self.scale = lcm(*(c.denominator for e in self._pairs.values() for c in e.terms.values()))
        self._scaled = {key: UEAElement({m: c.numerator * (self.scale // c.denominator)
                                         for m, c in e.terms.items()})
                        for key, e in self._pairs.items()}

    def pair(self, a: VBasis, b: VBasis) -> UEAElement:
        return self._pairs.get((a, b)) or UEAElement()

    def scaled_pair(self, a: VBasis, b: VBasis) -> UEAElement:
        """scale * pair(a, b), with int coefficients."""
        return self._scaled.get((a, b)) or UEAElement()

    def unscaled(self, terms: dict) -> dict:
        """A residual of scaled pairs, divided back by scale."""
        return {k: Fraction(c, self.scale) for k, c in terms.items()}


def kappa_from_r_matrices(xi: Poly, rmats, n: int) -> KappaMap:
    return KappaMap(n, {
        (("y", j), ("x", i)): sum((rmats[m][i - 1][j - 1] * c
                                   for m, c in enumerate(xi.coeffs) if c), UEAElement())
        for i in range(1, n + 1) for j in range(1, n + 1)})


def kappa_of(xi: Poly, n: int) -> KappaMap:
    """kappa(y_j, x_i) = sum_m xi_m r_m(x_i, y_j)."""
    rmats = [r_matrix(n, m) for m in range(len(xi.coeffs))]
    return kappa_from_r_matrices(xi, rmats, n)


@dataclass
class CheckReport:
    ok: bool
    witness: tuple | None = None
    residual: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


_wedge_normalize = rewriting(-1)        # v w = -w v, v v = 0


@lru_cache(maxsize=None)
def _wedged_picks(legs: tuple) -> tuple[tuple[tuple[VBasis, ...], tuple], ...]:
    """For acting legs given as (start vector, image, sign) triples: each
    choice of one triple per leg as (v_1..v_k, ((wedge word, sign), ...)),
    choices whose images wedge to zero left out."""
    out = []
    for picks in product(*legs):
        sign = 1
        for _, _, s in picks:
            sign *= s
        wedge = tuple((vec, sign * ws) for vec, ws in
                      _wedge_normalize(tuple(image for _, image, _ in picks)))
        if wedge:
            out.append((tuple(v for v, _, _ in picks), wedge))
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_tensor(mono: Monomial, k: int) -> tuple[tuple[tuple, tuple], ...]:
    """The leg invariant of one monomial at every tuple it reaches, as
    (v_1..v_k, ((wedge word, last leg), sign) pairs). Positions are dealt from
    the right, in the order the generators act. An acting leg carries the
    (start vector, image, sign) triples it has not yet sent to zero: a leg
    whose first generator to act is E_ij starts from y_j and x_i only. A deal is
    dropped once an acting leg has no triple left, and one whose acting legs
    are not all non-empty gives zero."""
    acc: dict = {}

    def deal(pos: int, legs: tuple, last: Monomial) -> None:
        if pos < 0:
            if all(legs):
                for vs, wedge in _wedged_picks(legs):
                    add_terms(acc.setdefault(vs, {}), (((vec, last), s) for vec, s in wedge))
            return
        gen = mono[pos]
        deal(pos - 1, legs, (gen,) + last)
        i, j = gen
        for b, leg in enumerate(legs):
            seeds = leg or ((("x", i), ("x", i), 1), (("y", j), ("y", j), 1))
            images = tuple((v, hit[0], s * hit[1]) for v, image, s in seeds
                           if (hit := _act_gen(gen, image)))
            if images:
                deal(pos - 1, legs[:b] + (images,) + legs[b + 1:], last)

    deal(len(mono) - 1, ((),) * k, ())
    return tuple((vs, tuple((key, s) for key, s in terms.items() if s))
                 for vs, terms in acc.items())


def leg_tensor(h: UEAElement, k: int) -> dict[tuple[VBasis, ...], LinComb]:
    """The leg invariant (v_1..v_k | h) in V^(wedge k) (x) U, keyed by (wedge
    word, last leg), for every tuple at once: deal the PBW positions of each
    monomial into k+1 legs, act with the first k, wedge, tensor the last. The
    results are scattered from the legs' domains, so a tuple that is not a
    key has invariant zero."""
    acc: dict = {}
    for mono, c in h.terms.items():
        for vs, terms in _monomial_tensor(mono, k):
            add_terms(acc.setdefault(vs, {}), ((key, c * s) for key, s in terms))
    return {vs: LinComb(terms) for vs, terms in acc.items()}


def _pair_tensors(kappa: KappaMap, n: int, k: int) -> dict[tuple[VBasis, VBasis], dict]:
    """leg_tensor(kappa.scaled_pair(x, y), k) for every ordered basis pair
    (x, y); kappa is skew, so the tensor of (y, x) is the negated tensor of
    (x, y)."""
    out: dict = {}
    for x, y in product(v_basis(n), repeat=2):
        out[x, y] = ({vs: -t for vs, t in out[y, x].items()} if (y, x) in out
                     else leg_tensor(kappa.scaled_pair(x, y), k))
    return out


def jacobi_check(kappa: KappaMap, n: int) -> CheckReport:
    """Cyclic identity [kappa(u,v), w] + [kappa(v,w), u] + [kappa(w,u), v] = 0,
    reporting the first failing ordered basis triple in product order. Since
    kappa is skew and vanishes on a repeated pair, the residual is totally
    antisymmetric and vanishes on a repeated letter; so the failing triples
    are the permutations of failing triples of distinct letters, the first
    of them in product order is increasing, and the scan reads only the
    increasing triples, combinations(basis, 3), each with its own residual."""
    basis, zero = v_basis(n), LinComb()
    tensors = _pair_tensors(kappa, n, 1)
    for u, v, w in combinations(basis, 3):
        residual = (tensors[u, v].get((w,), zero) + tensors[v, w].get((u,), zero)
                    + tensors[w, u].get((v,), zero))
        if not residual.is_zero():
            return CheckReport(False, witness=(u, v, w), residual=kappa.unscaled(residual.terms))
    return CheckReport(True)


def _cube_witness(kappa: KappaMap, n: int) -> tuple | None:
    """The first (z, u, v, x, y) in product order with (z,u,v | kappa(x,y))
    nonzero, or None. It reads only the pairs (x_i, y_j) and, of each
    tensor, its keys: kappa vanishes on same-species pairs, the tensor of
    (y_j, x_i) is the negated one of (x_i, y_j), which comes first, and a
    tuple that is not a key is zero. So the witness is the least nonzero key
    of the first pair that has one; tuples of V-basis vectors compare as the
    basis orders them, x before y, each by index."""
    basis = v_basis(n)
    for xy in product(basis[:n], basis[n:]):
        cube = leg_tensor(kappa.scaled_pair(*xy), 3)
        if nonzero := [zuv for zuv, t in cube.items() if not t.is_zero()]:
            return (*min(nonzero), *xy)
    return None


def higher_jacobi_checks(kappa: KappaMap, n: int) -> CheckReport:
    """Wedge-square symmetry (z,u | kappa(x,y)) = (x,y | kappa(z,u)), each
    unordered pair of pairs compared once, and wedge-cube vanishing
    (z,u,v | kappa(x,y)) = 0 (_cube_witness); reports the first failing
    tuple in product order."""
    zero = LinComb()
    square = _pair_tensors(kappa, n, 2)
    for zu, xy in combinations(square, 2):
        if square[xy].get(zu, zero) != square[zu].get(xy, zero):
            return CheckReport(False, witness=("square", *zu, *xy))
    if cube := _cube_witness(kappa, n):
        return CheckReport(False, witness=("cube", *cube))
    return CheckReport(True)


@lru_cache(maxsize=None)
def _generator_bracket(gen: Gen, mono: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """[E_gen, mono] in PBW normal form, with integer coefficients; once per
    pair, since the entries of kappa share their monomials."""
    acc = add_terms({}, _normalize((gen,) + mono))
    add_terms(acc, ((m, -c) for m, c in _normalize(mono + (gen,))))
    return tuple((m, c) for m, c in acc.items() if c)


def h_linearity_check(kappa: KappaMap, n: int) -> CheckReport:
    """Adjoint linearity on generators: [E, kappa(v, w)] = kappa(E.v, w) +
    kappa(v, E.w) for every generator E and V-basis pair, reporting the first
    failing (E, v, w) in product order. The scan reads only the pairs
    (x_i, y_j): E keeps each species, so on a same-species pair both sides
    are 0, and the residual of (y_j, x_i) is the negated one of (x_i, y_j),
    which comes first."""
    basis = v_basis(n)
    for gen in product(range(1, n + 1), repeat=2):
        for v, w in product(basis[:n], basis[n:]):
            lhs = UEAElement.collect((m, c * t)
                                     for mono, c in kappa.scaled_pair(v, w).terms.items()
                                     for m, t in _generator_bracket(gen, mono))
            rhs = UEAElement.zero()
            if hit := _act_gen(gen, v):
                rhs = rhs + kappa.scaled_pair(hit[0], w) * hit[1]
            if hit := _act_gen(gen, w):
                rhs = rhs + kappa.scaled_pair(v, hit[0]) * hit[1]
            if lhs != rhs:
                return CheckReport(False, witness=(gen, v, w),
                                   residual=kappa.unscaled((lhs - rhs).terms))
    return CheckReport(True)
