"""Test-side readings of the package's class lists (modules.Block), each
independent of the package's own reading where a test needs it to be."""
from cherednik.modules import Block, axis_points
from cherednik.weights import Weight, weyl_dim_formal


def classes(b: Block) -> dict[Weight, int]:
    """The classes of nonzero multiplicity, in product order."""
    return {Weight(c): m for c, m in zip(axis_points(b.axes), b.multiplicities) if m}


def total_dimension(d: dict[Weight, int]) -> int:
    """sum m * weyl_dim_formal(w), one formal Weyl dimension per class: a
    reference for Block.dimension that shares no code with box_dimension."""
    return sum(m * weyl_dim_formal(w) for w, m in d.items())


def is_shift_weakly_decreasing(w: Weight) -> bool:
    """True iff every consecutive difference of w + rho is a nonnegative
    integer, i.e. w is dominant or a boundary weight of formal Weyl dimension
    0."""
    s = w.shifted()
    return all((d := a - b).denominator == 1 and d >= 0 for a, b in zip(s, s[1:]))
