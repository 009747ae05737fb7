"""
Exact Clifford algebra of V = h + h* and its spin module.

Generators are the V-basis vectors ('x', 1) < ... < ('x', n) < ('y', 1) <
... < ('y', n); the bilinear form pairs x_i with y_i (value 1) and vanishes
on same-species pairs, so v w = -w v + 2<v, w> and v v = <v, v> = 0: the
shared core as rewriting(-1, _anticommutator), the pairing 2<v, w> being
the bracket. Elements are combinations (lincomb.LinComb) of squarefree
strictly increasing monomials; the span has dimension 2^(2n).

The spin module S is the left ideal generated by u = y_1...y_n, with basis
x^e u over subsets e of {1..n}; acting on it goes through the full normal
form, which independently exercises y_i u = 0 and the +-1/2 eigenvalues of
the lifted diagonal generators rather than hard-coding fermionic rules.

gamma lifts gl_n into the Clifford algebra: gamma(E_ij) = (y_i x_j -
x_j y_i)/4, a Lie algebra map (checked against enveloping._gl_bracket, the
bracket of the PBW rewriting) whose Clifford commutator with a vector
reproduces the module action on V.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .enveloping import CheckReport, VBasis, _gl_bracket, act_on_v, UEAElement, v_basis
from .lincomb import ONE, LinComb, rewriting
from .polynomials import InvariantViolation, _as_fraction
from .weights import Weight

ClMono = tuple[VBasis, ...]           # strictly increasing


def _anticommutator(a: VBasis, b: VBasis) -> list[tuple[ClMono, int]]:
    """v w + w v = 2<v, w>, with <x_i, y_i> = 1 and 0 on every other pair."""
    return [((), 2)] if a[0] != b[0] and a[1] == b[1] else []


_cl_normalize = rewriting(-1, _anticommutator)


class CliffordElement(LinComb):
    """Combination of squarefree ordered monomials with exact
    coefficients."""

    __slots__ = ()
    _reduce = staticmethod(_cl_normalize)

    @staticmethod
    def scalar(c: int | Fraction) -> CliffordElement:
        """c times the unit, for c an int or a Fraction (TypeError otherwise)."""
        return CliffordElement({(): _as_fraction(c)})

    @staticmethod
    def from_word(*word: VBasis) -> CliffordElement:
        return CliffordElement(dict(_cl_normalize(tuple(word))))

    @staticmethod
    def vector(v: VBasis) -> CliffordElement:
        return CliffordElement({(v,): ONE})

    def __repr__(self) -> str:
        def fmt(m: ClMono) -> str:
            return "1" if not m else "".join(f"{k}{i}" for k, i in m)
        parts = " + ".join(f"{c}*{fmt(m)}" for m, c in sorted(self.terms.items()))
        return f"Clifford({parts or '0'})"


def gamma_e(i: int, j: int, n: int) -> CliffordElement:
    """gamma(E_ij) = (y_i x_j - x_j y_i) / 4 in normal form."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("generator indices out of range")
    yx = CliffordElement.from_word(("y", i), ("x", j))
    xy = CliffordElement.from_word(("x", j), ("y", i))
    return (yx - xy) * Fraction(1, 4)


class SpinVector(LinComb):
    """Element of the spin module in the subset basis {x^e u}; no product."""

    __slots__ = ()

    @staticmethod
    def basis(e: Sequence[int] = ()) -> SpinVector:
        return SpinVector({tuple(sorted(e)): ONE})

    def __repr__(self) -> str:
        parts = " + ".join(f"{c}*x{list(e)}u" for e, c in sorted(self.terms.items()))
        return f"Spin({parts or '0'})"


def _ideal_representative(e: tuple[int, ...], n: int) -> ClMono:
    return tuple(("x", i) for i in e) + tuple(("y", i) for i in range(1, n + 1))


def spin_action(c: CliffordElement, s: SpinVector, n: int) -> SpinVector:
    """Left multiplication on representatives x^e u = x^e y_1...y_n, reduced
    to normal form and re-read in the subset basis; every surviving monomial
    carries the full y-block (anything else would contradict y_i u = 0)."""
    u_block = tuple(("y", i) for i in range(1, n + 1))
    out: list[tuple[tuple[int, ...], Fraction]] = []
    for e, ce in s.terms.items():
        prod = c * CliffordElement({_ideal_representative(e, n): ce})
        for mono, coeff in prod.terms.items():
            if not (len(mono) >= n and mono[-n:] == u_block
                    and all(k == "x" for k, _ in mono[:-n])):
                raise InvariantViolation(f"product left the spin ideal: {mono}")
            out.append((tuple(i for _, i in mono[:-n]), coeff))
    return SpinVector.collect(out)


def spin_weights(n: int) -> list[tuple[Weight, int]]:
    """Diagonalize the commuting operators gamma(E_ii) on the subset basis;
    the weights are exactly {+-1/2}^n, each once."""
    diag = [gamma_e(i, i, n) for i in range(1, n + 1)]
    out = []
    for size in range(n + 1):
        for e in combinations(range(1, n + 1), size):
            vec = SpinVector.basis(e)
            coords = []
            for i in range(n):
                image = spin_action(diag[i], vec, n)
                if not set(image.terms) <= {tuple(e)}:
                    raise InvariantViolation("gamma(E_ii) must be diagonal")
                coords.append(image.terms.get(tuple(e), Fraction(0)))
            out.append((Weight(tuple(coords)), 1))
    return out


def gamma_rank_one(v: Sequence[Fraction]) -> CliffordElement:
    """gamma of the rank-one projector attached to a rational unit vector:
    sum_ij v_i v_j gamma(E_ij); squares to 1/4."""
    v = [_as_fraction(c) for c in v]
    if sum(c * c for c in v) != 1:
        raise ValueError("vector must have rational unit length")
    n = len(v)
    out = CliffordElement.zero()
    for i, j in product(range(1, n + 1), repeat=2):
        coeff = v[i - 1] * v[j - 1]
        if coeff:
            out = out + gamma_e(i, j, n) * coeff
    return out


def gamma_lie_hom_check(n: int) -> CheckReport:
    """[gamma(E_ij), gamma(E_kl)] = gamma([E_ij, E_kl]) for all generator
    pairs, the bracket on the right read from enveloping._gl_bracket."""
    gens = list(product(range(1, n + 1), repeat=2))
    for a, b in product(gens, repeat=2):
        lhs = gamma_e(*a, n).commutator(gamma_e(*b, n))
        rhs = sum((gamma_e(*g, n) * c for (g,), c in _gl_bracket(a, b)), CliffordElement())
        if lhs != rhs:
            return CheckReport(False, witness=(*a, *b))
    return CheckReport(True)


def commutator_matches_action(n: int) -> CheckReport:
    """[gamma(E_ij), v] in the Clifford algebra equals the module action
    E_ij . v embedded back, for every generator and V-basis vector."""
    for i, j in product(range(1, n + 1), repeat=2):
        g = gamma_e(i, j, n)
        e = UEAElement.generator(i, j)
        for v in v_basis(n):
            lhs = g.commutator(CliffordElement.vector(v))
            rhs = CliffordElement.zero()
            for b, c in act_on_v(e, v).items():
                rhs = rhs + CliffordElement.vector(b) * c
            if lhs != rhs:
                return CheckReport(False, witness=((i, j), v))
    return CheckReport(True)
