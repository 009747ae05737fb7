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

Weyl dimensions are computed in integers. A class list is a box (the
product of its axes; Axis: the values top - o, o = 0..count - 1, of one
coordinate) with a multiplicity per class. With d the common denominator of
the tops, y_i = d w_i - d i has the differences of d (w + rho); axis i gives
the row of y_i as Axis(top - i, count).scaled(d), the same scaling to
integers the spin grid's numerators use, so each class's dimension is the
integer Weyl product of y (weyl_product) over that of d rho. Two routines sum
them, each dividing exactly: box_dimension, one Weyl product per class of
nonzero multiplicity, for any multiplicities (the Dirac cohomology's), and
product_dimension, for multiplicities that are a product of per-axis factors
(L's and L (x) spin's), in closed form: the Weyl product is the Vandermonde
determinant, linear in each row, so the sum is one integer determinant of
per-row power sums (integer_det). weyl_dim_formal is the box of one class.

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
from itertools import combinations, compress, product
from math import factorial, lcm, prod
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .polynomials import InvariantViolation, Poly, Scalar, _as_fraction, xi_to_w


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
    weights: the box of the one class w (box_dimension)."""
    return box_dimension([Axis(c, 1) for c in w.coords], [1])


def weyl_product(y: Sequence[int]) -> int:
    """prod_{i<j} (y_i - y_j): the integer kernel of every Weyl dimension."""
    return prod(a - b for a, b in combinations(y, 2))


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
        y = self.top.numerator * (d // self.top.denominator)
        return list(range(y, y - d * self.count, -d))


def _scaled_rows(axes: Sequence[Axis]) -> tuple[list[list[int]], int]:
    """(rows, den): with d the common denominator of the tops, row i is axis
    i read as Axis(top - i, count).scaled(d), the values of y_i = d w_i - d i,
    whose differences are d times those of w + rho; den =
    d^(n(n-1)/2) prod_{k<n} k! is the Weyl product of d rho."""
    n = len(axes)
    d = lcm(*(a.top.denominator for a in axes))
    return ([Axis(a.top - i, a.count).scaled(d) for i, a in enumerate(axes)],
            d ** (n * (n - 1) // 2) * prod(map(factorial, range(n))))


def _exact(num: int, den: int) -> int:
    """num / den, which must be an integer: a remainder raises
    InvariantViolation, whatever flags Python runs with."""
    dim, rest = divmod(num, den)
    if rest:
        raise InvariantViolation(f"Weyl dimension product {Fraction(num, den)} "
                                 "is not an integer")
    return dim


def box_dimension(axes: Sequence[Axis], multiplicities: Sequence[int]) -> int:
    """sum m * weyl_dim_formal(w) over the classes w of the axes, in product
    order, and their multiplicities m, in integers: each class of nonzero
    multiplicity (itertools.compress) has dimension weyl_product(y) / den
    over the rows of _scaled_rows, each division exact (_exact)."""
    rows, den = _scaled_rows(axes)
    return sum(m * _exact(weyl_product(y), den) for y, m in
               zip(compress(product(*rows), multiplicities), filter(None, multiplicities)))


def product_dimension(axes: Sequence[Axis], factors: Sequence[Sequence[int]]) -> int:
    """box_dimension of the multiplicities prod_i factors[i][o_i] at the
    class (top_i - o_i), in closed form. weyl_product(y) is the Vandermonde
    determinant det[y_i^(n-1-j)], which is linear in each row, so its sum
    over the product of the rows of _scaled_rows, weighted by the product of
    per-row factors, is the determinant of the power sums
    sum_{y in row i} m_i(y) y^(n-1-j): one integer determinant, divided
    once, exactly (_exact), by den."""
    rows, den = _scaled_rows(axes)
    n = len(rows)
    sums = [[sum(m * y ** (n - 1 - j) for y, m in zip(row, f, strict=True)) for j in range(n)]
            for row, f in zip(rows, factors, strict=True)]
    return _exact(integer_det(sums), den)


def integer_det(matrix: Sequence[Sequence[int]]) -> int:
    """The determinant of a nonempty square integer matrix, by Bareiss's
    fraction-free elimination: each step's division by the previous pivot
    is exact, so every entry stays an integer."""
    a = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


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
