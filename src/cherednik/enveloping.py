"""
Symbolic U(gl_n) engine and PBW-certificate checks for deformation maps.

Elements of U(gl_n) are kept in PBW normal form: linear combinations
(lincomb.LinComb) of monomials in the elementary matrices E_ij, each
monomial a non-decreasing tuple of (i, j) indices ordered lexicographically.
The shared rewriting core (lincomb.rewriting) reduces a word with the PBW
rule: an out-of-order adjacent pair is swapped and the commutator
[E_ij, E_kl] = d_jk E_il - d_li E_kj added. The same core with the exterior
rule (swap gives -1, a repeat gives 0) wedges vectors in the certificates.

V = h + h* is the direct sum of the standard module (basis y_1..y_n, with
E_ij . y_k = d_jk y_i) and its contragredient (basis x_1..x_n, with
E_ij . x_k = -d_ik x_j). V-basis vectors are written ('x', i) / ('y', i).

The deformation map kappa attached to a polynomial xi is assembled from the
generating-series coefficients r_m: over a commutative ring in n^2 symbols
a_kl, r_m(x_i, y_j) is the tau^m coefficient of entry (i, j) of
(1 - tau A)^{-1} * det(1 - tau A)^{-1}, with the determinant inverse expanded
through exp of the power-sum series; each commutative monomial is sent to
U(gl_n) by a_kl -> E_lk (the trace pairing) followed by symmetrization
(average over all factor orderings). Then kappa(y_j, x_i) = sum_m xi_m r_m,
kappa vanishes on pairs of the same species, and extends skew-symmetrically.

The certificates share one leg invariant (v_1..v_k | h): deal the PBW
positions of h into k+1 coproduct legs, act with the first k on v_1..v_k
(through h > v := h.v - eps(h) v, so an empty leg gives 0), wedge, tensor the
last leg. Jacobi is sum_cyc (c | kappa(a,b)) = 0 with (v | h) = [h, v] (k = 1),
the wedge square (z,u | kappa(x,y)) = (x,y | kappa(z,u)) (k = 2), the wedge
cube (z,u,v | kappa(x,y)) = 0 (k = 3); with adjoint linearity they certify flatness.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

from .lincomb import ONE, LinComb, rewriting
from .polynomials import Poly

Gen = tuple[int, int]                 # (i, j) index pair of E_ij, 1-based
Monomial = tuple[Gen, ...]            # non-decreasing in lexicographic order
VBasis = tuple[str, int]              # ('x', i) or ('y', i)


def _pbw_rule(a: Gen, b: Gen) -> list[tuple[Monomial, Fraction]] | None:
    """E_a E_b = E_b E_a + [E_a, E_b] for a > b."""
    if a <= b:
        return None
    (i, j), (k, l) = a, b
    out = [((b, a), ONE)]
    if j == k:
        out.append((((i, l),), ONE))
    if l == i:
        out.append((((k, j),), -ONE))
    return out


_normalize = rewriting(_pbw_rule)     # PBW normal form of a generator word


class UEAElement(LinComb):
    """Linear combination of PBW monomials with Fraction coefficients."""

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


@lru_cache(maxsize=None)
def _acting_legs(mono: Monomial, k: int) -> tuple[tuple[Monomial, ...], ...]:
    """The deals of a monomial into k+1 legs whose first k (acting) legs are
    all non-empty, since an empty leg acts through > as zero; once per monomial."""
    return tuple(legs for legs in _legs(mono, k + 1) if all(legs[:k]))


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
    def _reduce(word: CMono) -> tuple[tuple[CMono, Fraction], ...]:
        return ((tuple(sorted(word)), ONE),)


def _symmetrize_to_uea(p: dict[CMono, Fraction]) -> UEAElement:
    """a_kl -> E_lk on each factor of the terms of a CPoly, averaged over all
    factor orderings."""
    out = UEAElement.zero()
    for mono, c in p.items():
        perms = list(permutations((l, k) for k, l in mono))
        total = UEAElement.collect(t for perm in perms for t in _normalize(perm))
        out = out + total * Fraction(c, len(perms))
    return out


@lru_cache(maxsize=None)
def r_matrix(n: int, m: int) -> tuple[tuple[UEAElement, ...], ...]:
    """Entry (i, j) [0-based] is r_m(x_{i+1}, y_{j+1}) in U(gl_n).

    Symmetrization averages over all m! factor orderings, so this is meant
    for desk scale (m <= 4, n <= 3)."""
    one = CPoly({(): ONE})
    a = [[CPoly({((k + 1, l + 1),): ONE}) for l in range(n)] for k in range(n)]

    powers = [[[one if i == j else CPoly() for j in range(n)] for i in range(n)]]
    for _ in range(m):
        prev = powers[-1]
        powers.append([[sum((prev[i][k] * a[k][j] for k in range(n)), CPoly())
                        for j in range(n)] for i in range(n)])
    traces = [sum((pw[i][i] for i in range(n)), CPoly()) for pw in powers]

    # det(1 - tau A)^{-1} = exp(sum_k Tr(A^k) tau^k / k): e_m = (1/m) sum tr_k e_{m-k}
    det_inv = [one]
    for mm in range(1, m + 1):
        acc = sum((traces[k] * det_inv[mm - k] for k in range(1, mm + 1)), CPoly())
        det_inv.append(acc * Fraction(1, mm))

    return tuple(
        tuple(_symmetrize_to_uea(sum((powers[k][i][j] * det_inv[m - k]
                                      for k in range(m + 1)), CPoly()).terms)
              for j in range(n))
        for i in range(n))


# ---------------------------------------------------------------------------
# kappa and the certificates
# ---------------------------------------------------------------------------

@dataclass
class KappaMap:
    """Skew map on V-basis pairs valued in U(gl_n); zero on same-species
    pairs, stored on the (y_j, x_i) side."""

    n: int
    entries: dict[tuple[VBasis, VBasis], UEAElement] = field(default_factory=dict)

    def pair(self, a: VBasis, b: VBasis) -> UEAElement:
        if a[0] == b[0]:
            return UEAElement.zero()
        if a[0] == "y":
            return self.entries.get((a, b), UEAElement.zero())
        return -self.entries.get((b, a), UEAElement.zero())


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


def _exterior_rule(a: VBasis, b: VBasis) -> list[tuple[tuple, Fraction]] | None:
    """v w = -w v and v v = 0 in the exterior algebra."""
    if a < b:
        return None
    return [] if a == b else [((b, a), -ONE)]


_wedge_normalize = rewriting(_exterior_rule)


def _leg_invariant(h: UEAElement, vs: tuple[VBasis, ...]) -> LinComb:
    """(v_1..v_k | h) in V^(wedge k) (x) U, keyed by (wedge word, last leg): act
    with the acting legs of each monomial on v_1..v_k, wedge, tensor the last."""
    k = len(vs)
    out: list[tuple[tuple, Fraction]] = []
    for mono, c in h.terms.items():
        for legs in _acting_legs(mono, k):
            coeff, word = c, []
            for leg, v in zip(legs, vs):
                hit = _act_monomial(leg, v)
                if hit is None:
                    break
                word.append(hit[0])
                coeff *= hit[1]
            else:
                out.extend(((vec, legs[k]), coeff * sign)
                           for vec, sign in _wedge_normalize(tuple(word)))
    return LinComb.collect(out)


def jacobi_check(kappa: KappaMap, n: int) -> CheckReport:
    """Cyclic identity [kappa(u,v), w] + [kappa(v,w), u] + [kappa(w,u), v] = 0
    on all ordered basis triples, each bracket once; reports the first failing."""
    basis = v_basis(n)
    bracket = {(a, b, c): _leg_invariant(kappa.pair(a, b), (c,))
               for a, b, c in product(basis, repeat=3)}
    for u, v, w in product(basis, repeat=3):
        residual = bracket[u, v, w] + bracket[v, w, u] + bracket[w, u, v]
        if not residual.is_zero():
            return CheckReport(False, witness=(u, v, w), residual=residual.terms)
    return CheckReport(True)


def higher_jacobi_checks(kappa: KappaMap, n: int) -> CheckReport:
    """Wedge-square symmetry (z,u | kappa(x,y)) = (x,y | kappa(z,u)), each
    unordered pair of pairs compared once, and wedge-cube vanishing
    (z,u,v | kappa(x,y)) = 0; reports the first failing tuple in product order."""
    basis = v_basis(n)
    h = {pair: kappa.pair(*pair) for pair in product(basis, repeat=2)}
    for zu, xy in combinations(h, 2):
        if _leg_invariant(h[xy], zu) != _leg_invariant(h[zu], xy):
            return CheckReport(False, witness=("square", *zu, *xy))
    for xy in h:
        for zuv in product(basis, repeat=3):
            if not _leg_invariant(h[xy], zuv).is_zero():
                return CheckReport(False, witness=("cube", *zuv, *xy))
    return CheckReport(True)


def h_linearity_check(kappa: KappaMap, n: int) -> CheckReport:
    """Adjoint linearity on generators: [E, kappa(v, w)] = kappa(E.v, w) +
    kappa(v, E.w) for every generator E and V-basis pair."""
    basis = v_basis(n)
    for gen in product(range(1, n + 1), repeat=2):
        e = UEAElement.generator(*gen)
        for v, w in product(basis, repeat=2):
            lhs = e.commutator(kappa.pair(v, w))
            rhs = UEAElement.zero()
            if hit := _act_gen(gen, v):
                rhs = rhs + kappa.pair(hit[0], w) * hit[1]
            if hit := _act_gen(gen, w):
                rhs = rhs + kappa.pair(v, hit[0]) * hit[1]
            if lhs != rhs:
                return CheckReport(False, witness=(gen, v, w),
                                   residual=(lhs - rhs).terms)
    return CheckReport(True)
