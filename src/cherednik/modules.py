"""
Finite-dimensional module classification and Dirac cohomology selection.

For a deformation with central character polynomial P and a dominant weight
``lam``, the pipeline is:

* difference polynomials: q_i(t) = P(lam+rho) - P(lam+rho - t*e_i), one per
  coordinate. P along coordinate i is a polynomial C(y) whose coefficients
  weights.line_coeffs takes from one h-recurrence over the other shifted
  coordinates, so q_i(t) = C(s_i) - C(s_i - t) is one Taylor shift in exact
  rationals. Both membership and nu ask for the least positive integer root
  of one of them, answered exactly by polynomials.least_positive_integer_root
  (one remainder sequence gives the Sturm sequence of the square-free part;
  Cauchy bound, Sturm-sequence bisection) at a cost polynomial in the bit
  size of q_i, not in its roots or coefficients. q_i == 0 needs no case of
  its own: its least root is 1.
* membership: ``lam`` heads a finite-dimensional irreducible iff q_n has a
  positive integer root; the least one is v+1 (q_n == 0 is the degenerate
  deformation, giving v = 0).
* nu vector: per coordinate i < n, nu_i + 1 is the least root of q_i up to
  the dominance gap lam_i - lam_{i+1} (a zero q_i hits at once), or
  nu_i = gap when there is none; for i = n the membership value (lowering
  the last coordinate never breaks dominance).
* L(lam) = the box of weights lam - nu' for 0 <= nu' <= nu, multiplicity one.
  Box(lam, nu) is the one check on a box: nu has n nonnegative integer
  entries, the box is dominant, and its grid, prod(nu_i + 2) points, is
  within MAX_GRID (BoxTooLargeError otherwise). Nothing is built before it.
  The grid is L (x) spin's class set and the tables' P grid, the largest
  structure any request walks.
* class lists: every box and grid here is a product of per-coordinate axes
  (weights.Axis: the values top_i - o for o = 0..b_i), in itertools.product
  order, which is descending lexicographic order. Block(axes,
  multiplicities) is the one class list: one multiplicity per class of the
  product, 0 for a class the list leaves out. Its dimension is
  weights.product_dimension, in closed form, when its multiplicities are a
  product of per-axis factors (L's and L (x) spin's), and otherwise
  weights.box_dimension, one Weyl product per class (the cohomology's).
  A Box gives three Blocks: L, the classes of L (x) spin (spin), and the
  cohomology (Box.cohomology(P), the spin block with the classes P does not
  select at 0), plus the spin grid's points and P numerators (Box.grid).
  Library callers and the CLI alike build one Box per weight and read its
  Blocks (the CLI renders them from strings made once per axis value);
  dirac_cohomology(P, lam) is the one end-to-end call, nu and one Box.
* the spin grid: L(lam) (x) spin is the grid of points lam + rho - o,
  0 <= o_i <= nu_i + 1, the class of mu = lam + 1/2 - o sitting over the
  point mu + rho - 1/2. Its multiplicity has the closed form
  prod_i (1 if o_i in {0, nu_i + 1} else 2): the ways to split o_i into a box
  offset in [0, nu_i] and a spin step in {0, 1}. grid_numerators walks the
  grid once, in itertools.product order, and evaluates P at every point in
  scaled integers: with d the common denominator of lam + rho and D that of
  the h-coefficients, P(y/d) = N(y) / (D d^K) where N is an integer
  polynomial, and each line of points along the last coordinate is one call
  of polynomials.horner, N's coefficients along it taken per prefix from the
  same line kernel (weights.line_coeffs) that gives the difference
  polynomials. Every class has a weakly decreasing rho-shift; boundary
  classes (repeated shifted coordinate) are genuine formal summands of
  dimension 0 and are retained so multiplicity grids close up;
  total-dimension accounting counts them as 0.
* Dirac cohomology: the classes mu of L (x) spin whose grid point
  mu + rho - 1/2 has P(lam + rho) = P(mu + rho - 1/2), with their
  multiplicities; the selection is written once, in Box.cohomology.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import lcm, prod
from typing import Iterator, Sequence

from .polynomials import InvariantViolation, Poly, _scaled_ints, horner, least_positive_integer_root
from .weights import (
    Axis,
    CentralCharPoly,
    Weight,
    box_dimension,
    half_vector,
    is_dominant,
    line_coeffs,
    product_dimension,
    rho,
)

HALF = Fraction(1, 2)


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


def _require_rank(P: CentralCharPoly, rank: int) -> None:
    if rank != P.rank:
        raise ValueError(f"rank {rank} does not match P's rank {P.rank}")


def _require_weight(P: CentralCharPoly, lam: Weight) -> None:
    """lam is of P's rank and dominant (ValueError otherwise)."""
    _require_rank(P, lam.rank)
    if not is_dominant(lam):
        raise ValueError(f"weight is not dominant: {lam}")


def _difference_poly(P: CentralCharPoly, shifted: tuple[Fraction, ...], i: int) -> Poly:
    """q_i(t) = P(s) - P(s - t*e_i) at the rho-shifted point s, as a polynomial
    in t; q_i(0) = 0 always. With C(y) = P along coordinate i (line_coeffs
    over the other coordinates of s), q_i(t) = C(s_i) - C(s_i - t): the
    Taylor shift of -C(-u) by -s_i, less its constant term."""
    b = line_coeffs(P.h_coeffs, shifted[:i - 1] + shifted[i:])
    minus_reflected = Poly.of(*(c if m % 2 else -c for m, c in enumerate(b)))
    return minus_reflected.shift(-shifted[i - 1]).with_constant_zero()


def membership_detail(P: CentralCharPoly, lam: Weight) -> tuple[int | None, bool]:
    """(minimal v, degenerate?) where v >= 0 satisfies the last-coordinate
    P-equality at step v+1; degenerate means P does not depend on that step at
    all (q == 0), in which case v = 0. Raises ValueError when lam is not
    dominant or not of P's rank."""
    _require_weight(P, lam)
    q = _difference_poly(P, lam.shifted(), lam.rank)
    root = least_positive_integer_root(q)
    return (None if root is None else root - 1), q.is_zero()


def nu_vector(P: CentralCharPoly, lam: Weight,
              membership: tuple[int | None, bool] | None = None) -> tuple[int, ...]:
    """
    The box bounds nu: for i < n the minimal k such that lam - (k+1)e_i is
    non-dominant (k = the gap lam_i - lam_{i+1}) or P-equal to lam (k+1 a root
    of q_i); for i = n the membership value. ``membership`` is the result of
    membership_detail(P, lam) when the caller already has it. Rejects
    non-member weights, and raises ValueError as membership_detail does.
    """
    _require_weight(P, lam)
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
        root = least_positive_integer_root(q, cap=gap)
        nu.append(gap if root is None else root - 1)
    nu.append(last)
    return tuple(nu)


@dataclass(frozen=True)
class Block:
    """A class list: the classes are the product of the axes, in product
    order (already descending), with one multiplicity each; a class the list
    leaves out has multiplicity 0. ``factors``, when given, are per-axis
    factors whose product is each class's multiplicity; they take no part in
    ==, so Blocks of the same classes are equal however they were made."""

    axes: list[Axis]
    multiplicities: list[int]
    factors: list[list[int]] | None = field(default=None, compare=False, repr=False)

    def dimension(self) -> int:
        """sum m * weyl_dim_formal(w) over the classes: in closed form from
        the factors (product_dimension), else per class (box_dimension)."""
        if self.factors is None:
            return box_dimension(self.axes, self.multiplicities)
        return product_dimension(self.axes, self.factors)


def _require_nu(lam: Weight, nu: Sequence[int]) -> None:
    """nu has one entry per coordinate of lam, each a nonnegative int, not a
    bool (ValueError otherwise)."""
    if len(nu) != lam.rank or not all(type(v) is int and v >= 0 for v in nu):
        raise ValueError(f"nu = {list(nu)} is not {lam.rank} nonnegative integers")


class Box:
    """The box of nu below lam, checked once.

    Building one is the only check on a box: nu has one entry per coordinate
    of lam, each a nonnegative int (not a bool); every weight of the box is
    dominant, which holds exactly when lam is dominant and
    nu_i <= lam_i - lam_{i+1} for each i < n (the minimality of nu
    guarantees it); and the grid over the box, prod(nu_i + 2) points, is
    within MAX_GRID. Otherwise ValueError, or BoxTooLargeError for the grid,
    before anything is built.

    Its class lists are Blocks, each made on first use: L, the classes
    lam_i - o, 0 <= o <= nu_i, of multiplicity one; spin, those of
    L(lam) (x) spin, lam_i + 1/2 - o, 0 <= o <= nu_i + 1, with their
    closed-form multiplicities; and cohomology(P), the spin block with the
    classes P does not select at 0. grid(P) is the spin grid under P.
    """

    def __init__(self, lam: Weight, nu: Sequence[int]):
        nu = tuple(nu)
        _require_nu(lam, nu)
        if not is_dominant(lam) or any(
                v > lam.coords[i] - lam.coords[i + 1] for i, v in enumerate(nu[:-1])):
            raise ValueError(f"nu = {nu} takes the box below {lam} out of the dominant chamber")
        grid_size = prod(v + 2 for v in nu)
        if grid_size > MAX_GRID:
            raise BoxTooLargeError(nu, grid_size)
        self.lam, self.nu = lam, nu

    @cached_property
    def L(self) -> Block:
        return Block([Axis(c, v + 1) for c, v in zip(self.lam.coords, self.nu)],
                     [1] * prod(v + 1 for v in self.nu), [[1] * (v + 1) for v in self.nu])

    @cached_property
    def spin(self) -> Block:
        """The multiplicity of a class is prod_i (1 if o_i in {0, nu_i + 1}
        else 2)."""
        factors = [[1] + [2] * v + [1] for v in self.nu]
        return Block([Axis(c + HALF, v + 2) for c, v in zip(self.lam.coords, self.nu)],
                     list(map(prod, product(*factors))), factors)

    def grid(self, P: CentralCharPoly
             ) -> tuple[list[Axis], list[int], Iterator[int], int]:
        """The spin grid under P, in product order: (axes, multiplicities,
        values, den). The axes give the point mu + rho - 1/2 under each class
        mu of the spin block, the multiplicities those of the classes, and P
        at each point is its value over den (grid_numerators)."""
        n = self.lam.rank
        axes = shift_axes(self.spin.axes, (rho(n) - half_vector(n)).coords)
        values, den = grid_numerators(P, axes)
        return axes, self.spin.multiplicities, values, den

    def cohomology(self, P: CentralCharPoly) -> Block:
        """The spin block with multiplicity 0 at every class mu that fails
        P(lam + rho) = P(mu + rho - 1/2). The grid's values are compared as
        numerators over their common denominator with the target t, the
        first of them (mu = lam + 1/2, the point lam + rho); P(lam + rho),
        evaluated apart, must be t / den, or InvariantViolation, whatever
        flags Python runs with."""
        _, multiplicities, values, den = self.grid(P)
        t = next(values)
        if (target := P.value(self.lam) * den) != t:
            raise InvariantViolation(f"P(lambda + rho) * {den} = {target}, "
                                     f"but the grid's numerator at lambda + rho is {t}")
        return Block(self.spin.axes, [m if value == t else 0
                                      for m, value in zip(multiplicities, chain([t], values))])


def shift_axes(axes: list[Axis], by: Sequence[Fraction]) -> list[Axis]:
    """The axes moved by the vector ``by`` (rho, for the rho-shifted view)."""
    return [Axis(a.top + b, a.count) for a, b in zip(axes, by, strict=True)]


def axis_points(axes: list[Axis]) -> Iterator[tuple[Fraction, ...]]:
    """The classes of the axes, in product order, as tuples of the axes'
    Fractions (none is built per class)."""
    return product(*(a.values() for a in axes))


def grid_numerators(P: CentralCharPoly, axes: list[Axis]) -> tuple[Iterator[int], int]:
    """(N, den): P at each point of the axes, in product order, is N / den.

    With d the common denominator of the tops, D that of the h-coefficients
    c_k and K = deg P, a point is y/d with y integral and h_k is homogeneous,
    so P(y/d) = N(y) / (D d^K) with N(y) = sum_k (D c_k) d^(K-k) h_k(y), whose
    coefficients are polynomials._scaled_ints(c, d). Since h_k(x, y_n) = sum_m
    y_n^m h_{k-m}(x), N is, for a fixed prefix x of the first n - 1
    coordinates, an integer polynomial in y_n whose coefficients are
    line_coeffs of the prefix; each line's points are then one call of
    polynomials.horner. Raises ValueError unless there is one axis per
    coordinate of P's rank.
    """
    _require_rank(P, len(axes))
    K = len(P.h_coeffs) - 1
    d = lcm(*(a.top.denominator for a in axes))
    D, a = _scaled_ints(P.h_coeffs, d)
    *prefix_axes, last = [ax.scaled(d) for ax in axes]
    values = chain.from_iterable(horner(line_coeffs(a, prefix), last)
                                 for prefix in product(*prefix_axes))
    return values, D * d ** max(K, 0)


def dirac_cohomology(P: CentralCharPoly, lam: Weight) -> Block:
    """
    The Dirac cohomology of the finite-dimensional module headed by lam, as a
    Block: the classes mu of L(lam) (x) spin, with their multiplicities where
    P(lam) = P(mu - (1/2,...,1/2)) and 0 elsewhere, read off the one Box of
    nu_vector(P, lam).
    """
    return Box(lam, nu_vector(P, lam)).cohomology(P)


def guaranteed_classes(lam: Weight, nu: Sequence[int]) -> list[Weight]:
    """
    The classes certain to appear with multiplicity one in the Dirac
    cohomology of the box of nu below lam: lam + (1/2,...,1/2) and the spike
    lam + (1/2,...,1/2,-nu_n-1/2) unconditionally, plus the spike
    lam + (1/2,..,-nu_i-1/2,..,1/2) for each i < n whose companion
    lam - (nu_i+1)e_i is dominant; the spike, the companion plus
    (1/2,...,1/2), has the same differences, so it is dominant with it.
    Raises ValueError, as Box does, unless nu is rank-many nonnegative ints.
    """
    _require_nu(lam, nu)
    spikes = [Weight(tuple(c + (-v - HALF if j == i else HALF)
                           for j, c in enumerate(lam.coords))) for i, v in enumerate(nu)]
    return [lam + half_vector(lam.rank), *filter(is_dominant, spikes[:-1]), spikes[-1]]
