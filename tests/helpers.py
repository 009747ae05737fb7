"""Test-side readings of the package's class lists (modules.Block) and a
Weyl dimension over Fractions, each independent of the package's own
reading where a test needs it to be."""
from fractions import Fraction

from cherednik.modules import Block, axis_points
from cherednik.polynomials import InvariantViolation
from cherednik.weights import Weight


def classes(b: Block) -> dict[Weight, int]:
    """The classes of nonzero multiplicity, in product order."""
    return {Weight(c): m for c, m in zip(axis_points(b.axes), b.multiplicities) if m}


def fraction_weyl_dim(w: Weight) -> int:
    """Reference: the Weyl dimension product over Fractions, one factor
    (w_i - w_j + j - i)/(j - i) at a time; InvariantViolation when it is not
    an integer."""
    n = w.rank
    num = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            num *= Fraction(w.coords[i] - w.coords[j] + j - i, j - i)
    if num.denominator != 1:
        raise InvariantViolation(f"Weyl dimension product {num} is not an integer")
    return int(num)


def total_dimension(d: dict[Weight, int]) -> int:
    """sum m * fraction_weyl_dim(w), one Fraction Weyl product per class: a
    reference for Block.dimension that shares no code with box_dimension."""
    return sum(m * fraction_weyl_dim(w) for w, m in d.items())


def is_shift_weakly_decreasing(w: Weight) -> bool:
    """True iff every consecutive difference of w + rho is a nonnegative
    integer, i.e. w is dominant or a boundary weight of formal Weyl dimension
    0."""
    s = w.shifted()
    return all((d := a - b).denominator == 1 and d >= 0 for a, b in zip(s, s[1:]))
