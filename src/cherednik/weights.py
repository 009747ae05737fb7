"""
gl_n weight arithmetic and the central character polynomial.

Conventions. A weight is a length-n vector of rationals (entries need not be
integral; only consecutive differences are constrained). The Weyl vector is
the descending half-sum rho = ((n-1)/2, (n-3)/2, ..., (1-n)/2). A weight is
dominant when every consecutive difference is a nonnegative integer; it is a
*boundary* weight when its rho-shift is only weakly decreasing (some shifted
coordinates coincide), in which case the Weyl dimension formula returns 0 and
the corresponding highest-weight module is the zero module. Boundary weights
show up as formal summands when tensoring with the spin module and are kept
(with formal dimension 0) so that multiplicity tables close up exactly.

Weyl dimensions are computed in integers. weyl_scaled scales a weight by
polynomials._scaled_ints, the package's one scaling to integers: with d the
common denominator of a weight w, y_i = d w_i - d i has the differences of d
(w + rho), so a dimension is the integer Weyl product of y over that of d
rho, one exact division (weyl_quotient). weyl_dim_formal scales one weight;
box_dimension scales the tops of a box's axes (Axis: the values top - o, o =
0..count - 1, of one coordinate), runs each axis down from its scaled top
(Axis.row, the one descent, which Axis.scaled also uses), and sums the
quotients over the classes of the product of the axes whose multiplicity is
not 0.

The central character polynomial P is stored by its coefficients in the basis
of complete homogeneous symmetric polynomials: P(point) = sum_k c_k h_k(point),
evaluated at rho-shifted rational points. The h_k come from one recurrence,
h_row, which also gives the line kernel line_coeffs: P along one coordinate,
as a polynomial in it whose coefficients are h-sums over the others. When P
comes from a deformation xi, its h-basis coefficients are exactly the
coefficients of the polynomial w computed in polynomials.xi_to_w.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from math import factorial, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .polynomials import InvariantViolation, Poly, Scalar, _as_fraction, _scaled_ints, xi_to_w


@dataclass(frozen=True)
class Weight:
    """A gl_n weight in plain (un-shifted) coordinates."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(*coords: Scalar) -> Weight:
        return Weight(tuple(_as_fraction(c) for c in coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __add__(self, other: Weight) -> Weight:
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: Weight) -> Weight:
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __mul__(self, c: Scalar) -> Weight:
        c = _as_fraction(c)
        return Weight(tuple(a * c for a in self.coords))

    __rmul__ = __mul__

    def shifted(self) -> tuple[Fraction, ...]:
        """Coordinates of self + rho(rank)."""
        return tuple(a + b for a, b in zip(self.coords, rho(self.rank).coords))

    def __repr__(self) -> str:
        return "Weight(" + ", ".join(str(c) for c in self.coords) + ")"


@lru_cache(maxsize=None)
def rho(n: int) -> Weight:
    """The Weyl vector ((n-1)/2, (n-3)/2, ..., (1-n)/2), built once per rank."""
    if n < 1:
        raise ValueError("rank must be positive")
    return Weight(tuple(Fraction(n - 1 - 2 * i, 2) for i in range(n)))


def half_vector(n: int) -> Weight:
    """(1/2, ..., 1/2)."""
    return Weight((Fraction(1, 2),) * n)


def is_dominant(w: Weight) -> bool:
    """True iff every consecutive difference is a nonnegative integer."""
    return all((d := a - b).denominator == 1 and d >= 0
               for a, b in zip(w.coords, w.coords[1:]))


def weyl_dim(w: Weight) -> int:
    """
    prod_{i<j} (w_i - w_j + j - i)/(j - i) for dominant w; always a positive
    integer. Rejects non-dominant input.
    """
    if not is_dominant(w):
        raise ValueError(f"weight is not dominant: {w}")
    d = weyl_dim_formal(w)
    if d <= 0:
        raise InvariantViolation(f"Weyl dimension {d} of dominant {w} is not positive")
    return d


def weyl_dim_formal(w: Weight) -> int:
    """The Weyl dimension product without the dominance check; 0 on boundary
    weights: one weyl_quotient of the scaled integer point weyl_scaled(w)."""
    y, d = weyl_scaled(w.coords)
    return weyl_quotient(y, weyl_denominator(w.rank, d))


def weyl_scaled(coords: Sequence[Fraction]) -> tuple[list[int], int]:
    """(y, d) for d the common denominator of coords and y_i = d c_i - d i:
    integers whose differences are d times those of coords + rho, so the
    Weyl product of coords + rho is weyl_product(y) / d^(n(n-1)/2)."""
    d, ints = _scaled_ints(coords, 1)
    return [a - d * i for i, a in enumerate(ints)], d


def weyl_product(y: Sequence[int]) -> int:
    """prod_{i<j} (y_i - y_j): the integer kernel of every Weyl dimension."""
    num = 1
    for i, a in enumerate(y):
        for b in y[i + 1:]:
            num *= a - b
    return num


def weyl_denominator(n: int, d: int) -> int:
    """prod_{i<j} d (j - i) = d^(n(n-1)/2) prod_{k<n} k!, the Weyl product of
    rho scaled by d."""
    return d ** (n * (n - 1) // 2) * prod(factorial(k) for k in range(n))


def weyl_quotient(y: Sequence[int], den: int) -> int:
    """weyl_product(y) / den, which must be exact: a remainder raises
    InvariantViolation, whatever flags Python runs with."""
    num = weyl_product(y)
    dim, rest = divmod(num, den)
    if rest:
        raise InvariantViolation(f"Weyl dimension product {Fraction(num, den)} "
                                 "is not an integer")
    return dim


class Axis(NamedTuple):
    """One coordinate of a box or grid: the values top - o, o = 0, ..., count - 1.

    The classes of a box or grid are the product of its axes, in
    itertools.product order (the last coordinate fastest), which is
    descending lexicographic order. Subtracting an integer keeps top's
    reduced denominator, so every view of an axis is made in integers."""

    top: Fraction
    count: int

    def values(self) -> list[Fraction]:
        return [self.top - o for o in range(self.count)]

    def scaled(self, d: int) -> list[int]:
        """d times each value, for d a multiple of top's denominator."""
        return list(self.row(self.top.numerator * (d // self.top.denominator), d))

    def row(self, y: int, d: int) -> range:
        """y, y - d, ..., y - d (count - 1): the axis's descent in steps of d
        from a scaled top y."""
        return range(y, y - d * self.count, -d)


def box_dimension(axes: Sequence[Axis], multiplicities: Sequence[int]) -> int:
    """sum m * weyl_dim_formal(w) over the classes w of the axes, in product
    order, and their multiplicities m, in integers: the tops scaled once by
    weyl_scaled, each axis a row of integers from its scaled top, and each
    class of nonzero multiplicity (itertools.compress) one weyl_quotient."""
    tops, d = weyl_scaled([a.top for a in axes])
    den = weyl_denominator(len(axes), d)
    rows = [a.row(y, d) for y, a in zip(tops, axes)]
    return sum(m * weyl_quotient(y, den) for y, m in zip(
        compress(product(*rows), multiplicities), filter(None, multiplicities)))


def h_row(point: Sequence, K: int) -> list:
    """
    [h_0(point), ..., h_K(point)], the complete homogeneous symmetric
    polynomials at a point of ints or Fractions, by the one recurrence
    h_k(x_1..x_m) = h_k(x_1..x_{m-1}) + x_m h_{k-1}(x_1..x_m).
    """
    row = [1] + [0] * K
    for x in point:
        for j in range(1, K + 1):
            row[j] += x * row[j - 1]
    return row


def complete_homogeneous(k: int, point: Sequence[Scalar]) -> Scalar:
    """h_k(point): the sum of all degree-k monomials, read off h_row, at a
    point of ints or Fractions (TypeError otherwise)."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return h_row([_as_fraction(x) for x in point], k)[k]


def line_coeffs(coeffs: Sequence, others: Sequence) -> list:
    """
    [b_0, ..., b_K] with sum_k c_k h_k(others, y) = sum_m b_m y^m, for the
    h-coefficients c_0..c_K and a point ``others`` of the remaining
    coordinates: since h_k(x, y) = sum_m y^m h_{k-m}(x),
    b_m = sum_{k >= m} c_k h_{k-m}(others). This is P along one coordinate.
    """
    h = h_row(others, len(coeffs) - 1)
    return [sum(map(mul, coeffs[m:], h)) for m in range(len(coeffs))]


@dataclass(frozen=True)
class CentralCharPoly:
    """
    Symmetric polynomial in the h-basis: evaluate(point) = sum_k c_k h_k(point).
    Values at rho-shifted highest weights are the central character scalars
    that drive both the classification and the Dirac kernel condition.
    """

    h_coeffs: tuple[Fraction, ...]
    rank: int

    @staticmethod
    def from_h_coeffs(coeffs: Iterable[Scalar], rank: int) -> CentralCharPoly:
        return CentralCharPoly(Poly.of(*coeffs).coeffs, rank)

    @staticmethod
    def from_xi(xi: Poly, rank: int) -> CentralCharPoly:
        return CentralCharPoly.from_h_coeffs(xi_to_w(xi, rank).coeffs, rank)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Evaluate at an already rho-shifted point of ints or Fractions
        (TypeError otherwise)."""
        if len(point) != self.rank:
            raise ValueError(f"point has length {len(point)}, expected rank {self.rank}")
        h = h_row([_as_fraction(x) for x in point], len(self.h_coeffs) - 1)
        return sum(map(mul, self.h_coeffs, h), Fraction(0))

    def value(self, w: Weight) -> Fraction:
        """Evaluate at weight w, shifting by rho internally."""
        return self.evaluate(w.shifted())
