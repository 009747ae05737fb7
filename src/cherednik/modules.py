"""
Finite-dimensional module classification and Dirac cohomology selection.

For a deformation with central character polynomial P and a dominant weight
``lam``, the pipeline is:

* difference polynomials: q_i(t) = P(lam+rho) - P(lam+rho - t*e_i), one per
  coordinate; both membership and nu ask for the least positive integer root
  of one of them, answered exactly by polynomials.least_positive_integer_root
  (square-free part, Cauchy bound, Sturm-sequence bisection) at a cost
  polynomial in the bit size of q_i, not in its roots or coefficients.
* membership: ``lam`` heads a finite-dimensional irreducible iff q_n has a
  positive integer root; the least one is v+1 (q_n == 0 is the degenerate
  deformation, giving v = 0).
* nu vector: per coordinate i < n, nu_i + 1 is the least root of q_i up to
  the dominance gap lam_i - lam_{i+1} (a zero q_i hits at once), or
  nu_i = gap when there is none; for i = n the membership value (lowering
  the last coordinate never breaks dominance).
* L(lam) = the box of weights lam - nu' for 0 <= nu' <= nu, multiplicity one.
  Nothing is built over a box whose grid, prod(nu_i + 2) points, exceeds
  MAX_GRID; BoxTooLargeError is raised instead. The grid is L (x) spin's
  class set and the tables' P grid, the largest structure any request walks.
* tensor with spin: each box weight shifted by every sign vector in
  {+-1/2}^n; candidates are kept when their rho-shift is weakly decreasing,
  which on these candidates is automatic. Boundary candidates (repeated
  shifted coordinate) are genuine formal summands of dimension 0 and are
  retained so multiplicity grids close up; total-dimension accounting counts
  them as 0.
* Dirac cohomology: the sub-multiset of the spin tensor whose members mu
  satisfy P(lam) = P(mu - (1/2,...,1/2)).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod

from .polynomials import Poly, least_positive_integer_root
from .weights import (
    CentralCharPoly,
    Weight,
    basis_weight,
    half_vector,
    is_dominant,
    is_shift_weakly_decreasing,
    weyl_dim_formal,
)


# Budget on prod(nu_i + 2), the number of points of the largest grid built
# over the box of nu (the L (x) spin classes, the tables' P grid).
MAX_GRID = 10 ** 6


class NotInClassificationError(ValueError):
    """Raised when a weight does not head a finite-dimensional module."""


class BoxTooLargeError(ValueError):
    """Raised, before anything is built, when the grid over the box of nu
    would exceed MAX_GRID points."""

    def __init__(self, nu: tuple[int, ...], grid_size: int):
        super().__init__(f"nu = {list(nu)} gives a grid of {grid_size} points, "
                         f"over the budget of {MAX_GRID}")
        self.nu = nu
        self.grid_size = grid_size


def check_grid_size(nu: tuple[int, ...]) -> int:
    """prod(nu_i + 2), the size of the grid over the box of nu; raises
    BoxTooLargeError when it exceeds MAX_GRID."""
    grid_size = prod(v + 2 for v in nu)
    if grid_size > MAX_GRID:
        raise BoxTooLargeError(nu, grid_size)
    return grid_size


@dataclass
class ModuleDecomposition:
    """Finite multiset of (weight, multiplicity) pairs, all multiplicities >= 1.

    Weights must have a weakly decreasing rho-shift; boundary weights (formal
    Weyl dimension 0) are allowed and count 0 toward the total dimension.
    """

    rank: int
    entries: dict[Weight, int] = field(default_factory=dict)

    def add(self, w: Weight, mult: int = 1) -> None:
        if mult < 1:
            raise ValueError("multiplicity must be positive")
        if not is_shift_weakly_decreasing(w):
            raise ValueError(f"rho-shift of {w} is not weakly decreasing")
        self.entries[w] = self.entries.get(w, 0) + mult

    def multiplicity(self, w: Weight) -> int:
        return self.entries.get(w, 0)

    def total_dimension(self) -> int:
        return sum(m * weyl_dim_formal(w) for w, m in self.entries.items())

    def sorted_items(self) -> list[tuple[Weight, int]]:
        """Entries ordered by descending rho-shifted lexicographic order."""
        return sorted(self.entries.items(), key=lambda wm: wm[0].shifted(), reverse=True)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ModuleDecomposition)
                and self.rank == other.rank and self.entries == other.entries)

    def is_submultiset_of(self, other: ModuleDecomposition) -> bool:
        return all(other.multiplicity(w) >= m for w, m in self.entries.items())

    def __repr__(self) -> str:
        parts = ", ".join(f"{m} x {w}" for w, m in self.sorted_items())
        return f"ModuleDecomposition({parts or '0'})"


def _require_dominant(lam: Weight) -> None:
    if not is_dominant(lam):
        raise ValueError(f"weight is not dominant: {lam}")


def _difference_poly(P: CentralCharPoly, shifted: tuple[Fraction, ...], i: int) -> Poly:
    """q_i(t) = P(s) - P(s - t*e_i) at the rho-shifted point s, as a polynomial
    in t; q_i(0) = 0 always."""
    point = [Poly.const(c) for c in shifted]
    point[i - 1] = Poly.const(shifted[i - 1]) - Poly.x()
    return Poly.const(P.evaluate(shifted)) - P.evaluate(point)


def membership_detail(P: CentralCharPoly, lam: Weight) -> tuple[int | None, bool]:
    """(minimal v, degenerate?) where v >= 0 satisfies the last-coordinate
    P-equality at step v+1; degenerate means P does not depend on that step at
    all (q == 0), in which case v = 0."""
    _require_dominant(lam)
    q = _difference_poly(P, lam.shifted(), lam.rank)
    if q.is_zero():
        return 0, True
    root = least_positive_integer_root(q)
    return (None if root is None else root - 1), False


def lambda_tilde_member(P: CentralCharPoly, lam: Weight) -> int | None:
    """The minimal v >= 0 with P(lam) = P(lam - (0,...,0,v+1)), or None when
    no such integer exists (lam heads no finite-dimensional module)."""
    return membership_detail(P, lam)[0]


def nu_vector(P: CentralCharPoly, lam: Weight,
              membership: tuple[int | None, bool] | None = None) -> tuple[int, ...]:
    """
    The box bounds nu: for i < n the minimal k such that lam - (k+1)e_i is
    non-dominant (k = the gap lam_i - lam_{i+1}) or P-equal to lam (k+1 a root
    of q_i); for i = n the membership value. ``membership`` is the result of
    membership_detail(P, lam) when the caller already has it. Rejects
    non-member weights.
    """
    _require_dominant(lam)
    last, _ = membership_detail(P, lam) if membership is None else membership
    if last is None:
        raise NotInClassificationError(
            "no nonnegative integer v with P(lambda) = P(lambda - (0,...,0,v+1)); "
            f"lambda = {lam} heads no finite-dimensional module")
    shifted = lam.shifted()
    nu = []
    for i in range(1, lam.rank):
        gap = int(lam.coords[i - 1] - lam.coords[i])
        q = _difference_poly(P, shifted, i)
        root = 1 if q.is_zero() else least_positive_integer_root(q, cap=gap)
        nu.append(gap if root is None else root - 1)
    nu.append(last)
    return tuple(nu)


def L_decomposition(lam: Weight, nu: tuple[int, ...]) -> ModuleDecomposition:
    """The box {lam - nu' : 0 <= nu' <= nu componentwise}, multiplicity one.
    Every box weight is dominant exactly when lam is dominant and
    nu_i <= lam_i - lam_{i+1} for each i < n (the minimality of nu guarantees
    it); otherwise ValueError, raised before the box is built. A box whose
    grid exceeds MAX_GRID raises BoxTooLargeError."""
    if not is_dominant(lam) or any(
            v > lam.coords[i] - lam.coords[i + 1] for i, v in enumerate(nu[:-1])):
        raise ValueError(f"nu = {nu} takes the box below {lam} out of the dominant chamber")
    check_grid_size(nu)
    n = lam.rank
    out = ModuleDecomposition(rank=n)
    for offsets in product(*(range(v + 1) for v in nu)):
        out.add(Weight(tuple(c - o for c, o in zip(lam.coords, offsets))), 1)
    return out


def tensor_with_spin(L: ModuleDecomposition) -> ModuleDecomposition:
    """
    Decomposition of L tensored with the 2^n-dimensional spin module: every
    weight of L shifted by every sign vector in {+-1/2}^n, retained when the
    rho-shift stays weakly decreasing. Dropped candidates would be formal
    summands with a shifted coordinate inversion; on boxes of dominant
    weights nothing is ever dropped.
    """
    n = L.rank
    half = Fraction(1, 2)
    out = ModuleDecomposition(rank=n)
    for w, mult in L.entries.items():
        for signs in product((half, -half), repeat=n):
            cand = Weight(tuple(c + s for c, s in zip(w.coords, signs)))
            if is_shift_weakly_decreasing(cand):
                out.add(cand, mult)
    return out


def select_cohomology(P: CentralCharPoly, lam: Weight,
                      tensor: ModuleDecomposition) -> ModuleDecomposition:
    """The part of ``tensor`` = L(lam) (x) spin whose weights mu satisfy
    P(lam) = P(mu - (1/2,...,1/2)), with its multiplicities."""
    target = P.value(lam)
    n = lam.rank
    out = ModuleDecomposition(rank=n)
    for mu, mult in tensor.entries.items():
        if P.value(mu - half_vector(n)) == target:
            out.add(mu, mult)
    return out


def dirac_cohomology(P: CentralCharPoly, lam: Weight) -> ModuleDecomposition:
    """
    The Dirac cohomology of the finite-dimensional module headed by lam, as a
    gl_n decomposition: the part of L(lam) (x) spin whose weights mu satisfy
    P(lam) = P(mu - (1/2,...,1/2)).
    """
    nu = nu_vector(P, lam)
    return select_cohomology(P, lam, tensor_with_spin(L_decomposition(lam, nu)))


def guaranteed_classes(P: CentralCharPoly, lam: Weight,
                       nu: tuple[int, ...] | None = None) -> list[Weight]:
    """
    The classes certain to appear with multiplicity one in the Dirac
    cohomology: lam + (1/2,...,1/2) and lam + (1/2,...,1/2,-nu_n-1/2)
    unconditionally, plus lam + (1/2,..,-nu_i-1/2,..,1/2) for each i < n
    whose companion lam - (nu_i+1)e_i is dominant. ``nu`` is
    nu_vector(P, lam) when the caller already has it.
    """
    if nu is None:
        nu = nu_vector(P, lam)
    n = lam.rank
    half = Fraction(1, 2)

    def spiked(i: int) -> Weight:
        return Weight(tuple(
            c + (-nu[i - 1] - half if j == i - 1 else half)
            for j, c in enumerate(lam.coords)))

    out = [lam + half_vector(n)]
    for i in range(1, n):
        companion = lam - basis_weight(n, i) * (nu[i - 1] + 1)
        if is_dominant(companion):
            out.append(spiked(i))
    out.append(spiked(n))
    return out
