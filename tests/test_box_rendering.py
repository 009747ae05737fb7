"""The CLI's L, L (x) spin and cohomology blocks, rendered from per-axis
strings and integer Weyl products, against the rendering they replace: the
classes of the Blocks (Box.L, Box.spin, Box.cohomology) as a dict,
sorted, one Weight at a time, with a dimension from a Fraction Weyl
product."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cherednik.cli as cli
from cherednik.modules import Box, axis_points
from cherednik.weights import CentralCharPoly, Weight
from helpers import classes

F = Fraction
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def reference_dimension(w: Weight) -> int:
    """prod_{i<j} (s_i - s_j) / (j - i) over s = w + rho, in Fractions."""
    s = w.shifted()
    dim = prod((s[i] - s[j]) / (j - i) for i in range(len(s)) for j in range(i + 1, len(s)))
    assert dim.denominator == 1
    return int(dim)


def sorted_items(d: dict[Weight, int]) -> list[tuple[Weight, int]]:
    """The classes in descending lexicographic order of their coordinates."""
    return sorted(d.items(), key=lambda wm: wm[0].coords, reverse=True)


def reference_json(d: dict[Weight, int]) -> dict:
    return {
        "dimension": sum(m * reference_dimension(w) for w, m in d.items()),
        "entries": [{"weight": [str(c) for c in w.coords],
                     "weight_plus_rho": [str(c) for c in w.shifted()],
                     "multiplicity": m} for w, m in sorted_items(d)],
    }


def reference_text(title: str, d: dict[Weight, int], decimal: bool) -> list[str]:
    lines = [f"{title}  (dimension {reference_json(d)['dimension']})"]
    for w, m in sorted_items(d):
        plain = ", ".join(cli._fmt(c, decimal) for c in w.coords)
        shifted = ", ".join(cli._fmt(c, decimal) for c in w.shifted())
        lines.append(f"  {m} x ({plain})  [mu+rho ({shifted})]")
    return lines


@st.composite
def boxes(draw):
    """A dominant lam of rank 1-5 whose common offset lies in 1/3 + Z,
    2/7 + Z, 1/2 + Z or Z, and a box nu within its dominance gaps; a gap
    equal to nu_i puts boundary classes (dimension 0) into L (x) spin."""
    n = draw(st.integers(1, 5))
    cap = (1, 12, 5, 3, 2, 1)[n]
    nu = tuple(draw(st.integers(0, cap)) for _ in range(n))
    gaps = [v + draw(st.integers(0, 2)) for v in nu[:-1]]
    last = draw(st.sampled_from((F(1, 3), F(2, 7), F(1, 2), F(0)))) + draw(st.integers(-9, 9))
    return Weight(tuple(last + sum(gaps[i:]) for i in range(n))), nu


def dumps(block: dict) -> str:
    return json.dumps(block, sort_keys=True, indent=2)


@settings(max_examples=150, deadline=None)
@given(boxes())
def test_blocks_equal_the_sorted_weight_rendering(box):
    lam, nu = box
    checked = Box(lam, nu)
    new_L, new_LS = checked.L, checked.spin
    L, LS = classes(new_L), classes(new_LS)
    assert cli._json(cli._block_json(new_L)) == dumps(reference_json(L))
    assert cli._json(cli._block_json(new_LS)) == dumps(reference_json(LS))
    for decimal in (False, True):
        lines = [*cli._block_text("L(lambda)", cli._block_json(new_L, decimal)),
                 *cli._block_text("L(lambda) (x) spin", cli._block_json(new_LS, decimal))]
        assert lines == (reference_text("L(lambda)", L, decimal)
                         + reference_text("L(lambda) (x) spin", LS, decimal))


@pytest.mark.parametrize("lam,nu", [
    (Weight.of(F(1, 3)), (4,)),                  # n = 1
    (Weight.of(F(2, 7)), (0,)),
    (Weight.of(F(7, 3), F(1, 3)), (2, 3)),       # gap 2 = nu_1: boundary classes
    (Weight.of(F(23, 7), F(9, 7), F(2, 7)), (2, 1, 2)),
])
def test_blocks_at_rank_one_and_on_boundary_classes(lam, nu):
    box = Box(lam, nu)
    LS = classes(box.spin)
    assert cli._json(cli._block_json(box.L)) == dumps(reference_json(classes(box.L)))
    assert cli._json(cli._block_json(box.spin)) == dumps(reference_json(LS))
    if lam.rank > 1:
        assert any(reference_dimension(w) == 0 for w in LS)


# P with small integer h-coefficients (the empty list is P = 0), or a
# nonzero constant P, under which every class is selected.
h_coeffs = st.one_of(st.lists(st.integers(-4, 4), max_size=5),
                     st.integers(1, 9).map(lambda c: [c]))


@settings(max_examples=150, deadline=None)
@given(boxes(), h_coeffs)
def test_cohomology_block_equals_the_sorted_weight_rendering(box, coeffs):
    # The class lam + 1/2 is always selected, so the block is never empty.
    lam, nu = box
    P = CentralCharPoly.from_h_coeffs(coeffs, lam.rank)
    block = Box(lam, nu).cohomology(P)
    coh = classes(block)
    assert cli._json(cli._block_json(block)) == dumps(reference_json(coh))
    for decimal in (False, True):
        lines = list(cli._block_text("Dirac cohomology", cli._block_json(block, decimal)))
        assert lines == reference_text("Dirac cohomology", coh, decimal)


@settings(max_examples=100, deadline=None)
@given(boxes())
def test_product_order_is_the_sorted_order(box):
    # The renderer drops the sort because the axes' product order already is
    # descending lexicographic order.
    lam, nu = box
    checked = Box(lam, nu)
    for block in (checked.L, checked.spin):
        points = list(axis_points(block.axes))
        assert len(points) == len(block.multiplicities)
        assert points == sorted(set(points), reverse=True)


@settings(max_examples=100, deadline=None)
@given(boxes())
def test_axis_strings_and_scaled_values_are_the_fractions(box):
    lam, nu = box
    checked = Box(lam, nu)
    for axis in checked.L.axes + checked.spin.axes:
        assert cli._axis_strings(axis, False) == [str(v) for v in axis.values()]
        for d in (axis.top.denominator, 6 * axis.top.denominator):
            assert axis.scaled(d) == [v * d for v in axis.values()]
    assert len(checked.spin.multiplicities) == prod(a.count for a in checked.spin.axes)


CORRUPT = """
import sys
from cherednik import cli, weights
from cherednik.polynomials import InvariantViolation
assert sys.flags.optimize == int(sys.argv[1])
orig, calls = weights.integer_det, []
def corrupt(matrix):
    # the first power sum of L's first row off by one: L's determinant
    # moves by its cofactor, 3, which the Weyl product of 2 rho, 2, does not
    # divide
    calls.append(matrix)
    if len(calls) == 1:
        matrix[0][0] += 1
    return orig(matrix)
weights.integer_det = corrupt
try:
    cli.main(sys.argv[2:])
except InvariantViolation:
    sys.exit(3)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("command", ["classify", "dirac"])
def test_corrupted_power_sum_raises_under_any_flags(flags, command):
    argv = [command, "--n", "2", "--P-h", "0,18,-9/2,-2,1/2", "--lambda-plus-rho", "3,0",
            "--json"]
    res = subprocess.run([sys.executable, *flags, "-c", CORRUPT, str(len(flags)), *argv],
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert res.returncode == 3, res.stderr
    assert res.stdout == ""


CORRUPT_GRID = """
import sys
from cherednik import cli, modules
from cherednik.polynomials import InvariantViolation
assert sys.flags.optimize == int(sys.argv[1])
orig = modules.grid_numerators
def corrupt(P, axes):
    # every numerator off by one: the selection alone would still run
    values, den = orig(P, axes)
    return (v + 1 for v in values), den
modules.grid_numerators = corrupt
try:
    cli.main(sys.argv[2:])
except InvariantViolation:
    sys.exit(3)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_corrupted_grid_numerators_raise_under_any_flags(flags):
    # Box.cohomology reads its target off the grid and checks it against
    # P(lambda + rho) evaluated apart.
    argv = ["dirac", "--n", "2", "--P-h", "0,18,-9/2,-2,1/2", "--lambda-plus-rho", "3,0",
            "--json"]
    res = subprocess.run([sys.executable, *flags, "-c", CORRUPT_GRID, str(len(flags)), *argv],
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert res.returncode == 3, res.stderr
    # every check runs while the document is built, before the first byte
    assert res.stdout == ""
