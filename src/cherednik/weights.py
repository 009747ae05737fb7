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

The central character polynomial P is stored by its coefficients in the basis
of complete homogeneous symmetric polynomials: P(point) = sum_k c_k h_k(point),
evaluated at rho-shifted points. When P comes from a deformation xi, its
h-basis coefficients are exactly the coefficients of the polynomial w computed
in polynomials.xi_to_w.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .polynomials import InvariantViolation, Poly, Scalar, _as_fraction, xi_to_w


@dataclass(frozen=True)
class Weight:
    """A gl_n weight in plain (un-shifted) coordinates."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(*coords: Scalar) -> Weight:
        return Weight(tuple(_as_fraction(c) for c in coords))

    @staticmethod
    def from_seq(coords: Iterable[Scalar]) -> Weight:
        return Weight.of(*coords)

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
        return (self + rho(self.rank)).coords

    def __repr__(self) -> str:
        return "Weight(" + ", ".join(str(c) for c in self.coords) + ")"


def rho(n: int) -> Weight:
    """The Weyl vector ((n-1)/2, (n-3)/2, ..., (1-n)/2)."""
    if n < 1:
        raise ValueError("rank must be positive")
    return Weight(tuple(Fraction(n - 1 - 2 * i, 2) for i in range(n)))


def basis_weight(n: int, i: int) -> Weight:
    """The i-th coordinate weight e_i (1-based)."""
    return Weight(tuple(Fraction(1 if j == i - 1 else 0) for j in range(n)))


def half_vector(n: int) -> Weight:
    """(1/2, ..., 1/2)."""
    return Weight((Fraction(1, 2),) * n)


def is_dominant(w: Weight) -> bool:
    """True iff every consecutive difference is a nonnegative integer."""
    return all((d := a - b).denominator == 1 and d >= 0
               for a, b in zip(w.coords, w.coords[1:]))


def is_shift_weakly_decreasing(w: Weight) -> bool:
    """
    True iff every consecutive difference of w + rho is a nonnegative integer,
    i.e. w is dominant or a boundary weight of formal Weyl dimension 0.
    """
    s = w.shifted()
    return all((d := a - b).denominator == 1 and d >= 0 for a, b in zip(s, s[1:]))


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
    weights. In integers: with d the common denominator of w and s = w + rho,
    prod_{i<j} d (s_i - s_j) over d^(n(n-1)/2) prod_{i<j} (j - i), one exact
    division."""
    n = w.rank
    d = lcm(*(c.denominator for c in w.coords))
    y = [c.numerator * (d // c.denominator) for c in w.coords]
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= y[i] - y[j] + d * (j - i)
            den *= d * (j - i)
    dim, rest = divmod(num, den)
    if rest:
        raise InvariantViolation(f"Weyl dimension product {Fraction(num, den)} "
                                 "is not an integer")
    return dim


def complete_homogeneous(k: int, point: Sequence):
    """
    The complete homogeneous symmetric polynomial h_k evaluated at ``point``:
    the sum of all degree-k monomials. Entries may be Fractions or Polys (any
    commutative ring elements supporting + and *); uses the recurrence
    h_k(x_1..x_m) = h_k(x_1..x_{m-1}) + x_m h_{k-1}(x_1..x_m).
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    row = [Fraction(1)] + [Fraction(0)] * k
    for x in point:
        for j in range(1, k + 1):
            row[j] = row[j] + x * row[j - 1]
    return row[k]


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
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return CentralCharPoly(tuple(cs), rank)

    @staticmethod
    def from_w(w: Poly, rank: int) -> CentralCharPoly:
        return CentralCharPoly.from_h_coeffs(w.coeffs, rank)

    @staticmethod
    def from_xi(xi: Poly, rank: int) -> CentralCharPoly:
        return CentralCharPoly.from_w(xi_to_w(xi, rank), rank)

    def evaluate(self, point: Sequence):
        """Evaluate at an already rho-shifted point (Fractions or Polys)."""
        if len(point) != self.rank:
            raise ValueError(f"point has length {len(point)}, expected rank {self.rank}")
        acc = Fraction(0)
        for k, c in enumerate(self.h_coeffs):
            if c:
                acc = acc + c * complete_homogeneous(k, point)
        return acc

    def value(self, w: Weight) -> Fraction:
        """Evaluate at weight w, shifting by rho internally."""
        return self.evaluate(w.shifted())
