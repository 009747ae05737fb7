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
* the spin grid: L(lam) (x) spin is the grid of points lam + rho - o,
  0 <= o_i <= nu_i + 1, the class of mu = lam + 1/2 - o sitting over the
  point mu + rho - 1/2. Its multiplicity has the closed form
  prod_i (1 if o_i in {0, nu_i + 1} else 2): the ways to split o_i into a box
  offset in [0, nu_i] and a spin step in {0, 1}. spin_grid walks the grid
  once, in itertools.product order, and evaluates P at every point in scaled
  integers: with d the common denominator of lam + rho and D that of the
  h-coefficients, P(y/d) = N(y) / (D d^K) where N is an integer polynomial,
  and along the last coordinate N is one Horner evaluation per point. Every
  class has a weakly decreasing rho-shift; boundary classes (repeated
  shifted coordinate) are genuine formal summands of dimension 0 and are
  retained so multiplicity grids close up; total-dimension accounting counts
  them as 0.
* Dirac cohomology: the classes of the spin grid whose point mu + rho - 1/2
  has P(lam + rho) = P(mu + rho - 1/2), with their multiplicities.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Iterator

from .polynomials import Poly, least_positive_integer_root
from .weights import (
    CentralCharPoly,
    Weight,
    basis_weight,
    half_vector,
    is_dominant,
    is_shift_weakly_decreasing,
    rho,
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
        """Entries ordered by descending rho-shifted lexicographic order (the
        order of the plain coordinates, rho being one fixed vector)."""
        return sorted(self.entries.items(), key=lambda wm: wm[0].coords, reverse=True)

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


def _check_box(lam: Weight, nu: tuple[int, ...]) -> None:
    """Every weight of the box below lam of nu is dominant exactly when lam is
    dominant and nu_i <= lam_i - lam_{i+1} for each i < n (the minimality of
    nu guarantees it); otherwise ValueError. A grid over MAX_GRID points
    raises BoxTooLargeError. Nothing is built before this check."""
    if not is_dominant(lam) or any(
            v > lam.coords[i] - lam.coords[i + 1] for i, v in enumerate(nu[:-1])):
        raise ValueError(f"nu = {nu} takes the box below {lam} out of the dominant chamber")
    check_grid_size(nu)


def L_decomposition(lam: Weight, nu: tuple[int, ...]) -> ModuleDecomposition:
    """The box {lam - nu' : 0 <= nu' <= nu componentwise}, multiplicity one.
    Raises ValueError or BoxTooLargeError as _check_box does."""
    _check_box(lam, nu)
    n = lam.rank
    out = ModuleDecomposition(rank=n)
    for offsets in product(*(range(v + 1) for v in nu)):
        out.add(Weight(tuple(c - o for c, o in zip(lam.coords, offsets))), 1)
    return out


def _spin_multiplicities(nu: tuple[int, ...]) -> Iterator[int]:
    """The multiplicity of each spin-grid point o, in product order:
    prod_i (1 if o_i in {0, nu_i + 1} else 2)."""
    return map(prod, product(*([1] + [2] * v + [1] for v in nu)))


def _grid_values(P: CentralCharPoly, top: tuple[Fraction, ...],
                 nu: tuple[int, ...]) -> Iterator[Fraction]:
    """P(top - o) for o in product(range(nu_1 + 2), ..., range(nu_n + 2)).

    With d the common denominator of top, D that of the h-coefficients c_k
    and K = deg P, a point is y/d with y integral and h_k is homogeneous, so
    P(y/d) = N(y) / (D d^K) with N(y) = sum_k (D c_k) d^(K-k) h_k(y). Since
    h_k(x, y_n) = sum_m y_n^m h_{k-m}(x), N is, for a fixed prefix x of the
    first n - 1 coordinates, an integer polynomial in y_n whose coefficients
    take one h-recurrence per prefix; each point is then one Horner pass.
    """
    coeffs = P.h_coeffs
    K = len(coeffs) - 1
    d = lcm(*(c.denominator for c in top))
    D = lcm(*(c.denominator for c in coeffs))
    a = [c.numerator * (D // c.denominator) * d ** (K - k) for k, c in enumerate(coeffs)]
    den = D * d ** max(K, 0)
    axes = [[c.numerator * (d // c.denominator) - d * o for o in range(v + 2)]
            for c, v in zip(top, nu)]
    for prefix in product(*axes[:-1]):
        h = [1] + [0] * K
        for x in prefix:
            for j in range(1, K + 1):
                h[j] += x * h[j - 1]
        horner = [sum(a[k] * h[k - m] for k in range(m, K + 1)) for m in range(K, -1, -1)]
        for y in axes[-1]:
            value = 0
            for b in horner:
                value = value * y + b
            yield Fraction(value, den)


def spin_grid(P: CentralCharPoly, lam: Weight, nu: tuple[int, ...]
              ) -> Iterator[tuple[tuple[Fraction, ...], int, Fraction]]:
    """
    The grid of L(lam) (x) spin: for each o in product(range(nu_1 + 2), ...,
    range(nu_n + 2)), in that order, the point lam + rho - o, the
    multiplicity of the class mu = lam + 1/2 - o over it, and P at the point.
    Raises ValueError or BoxTooLargeError, as _check_box does, at the call.
    """
    _check_box(lam, nu)
    top = lam.shifted()
    points = product(*([c - o for o in range(v + 2)] for c, v in zip(top, nu)))
    return zip(points, _spin_multiplicities(nu), _grid_values(P, top, nu))


def tensor_with_spin(lam: Weight, nu: tuple[int, ...]) -> ModuleDecomposition:
    """
    Decomposition of L(lam) (x) spin, for L(lam) the box of nu below lam:
    the classes mu = lam + 1/2 - o, 0 <= o_i <= nu_i + 1, with the closed-form
    multiplicities of spin_grid. On a dominant box every class has a weakly
    decreasing rho-shift, so none is dropped.
    """
    _check_box(lam, nu)
    half = Fraction(1, 2)
    mus = product(*([c + half - o for o in range(v + 2)] for c, v in zip(lam.coords, nu)))
    return ModuleDecomposition(lam.rank, {
        Weight(mu): mult for mu, mult in zip(mus, _spin_multiplicities(nu))})


def select_cohomology(P: CentralCharPoly, lam: Weight,
                      nu: tuple[int, ...]) -> ModuleDecomposition:
    """The part of L(lam) (x) spin, for the box of nu, whose classes mu
    satisfy P(lam) = P(mu - (1/2,...,1/2)), with its multiplicities."""
    target = P.value(lam)
    shift = half_vector(lam.rank) - rho(lam.rank)
    return ModuleDecomposition(lam.rank, {
        Weight(point) + shift: mult
        for point, mult, value in spin_grid(P, lam, nu) if value == target})


def dirac_cohomology(P: CentralCharPoly, lam: Weight) -> ModuleDecomposition:
    """
    The Dirac cohomology of the finite-dimensional module headed by lam, as a
    gl_n decomposition: the part of L(lam) (x) spin whose weights mu satisfy
    P(lam) = P(mu - (1/2,...,1/2)).
    """
    return select_cohomology(P, lam, nu_vector(P, lam))


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
