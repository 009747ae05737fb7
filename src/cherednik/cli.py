"""
Command line driver.

Subcommands: transform (deformation polynomial ladder), classify
(membership, nu, and the gl_n decomposition of L(lambda)), dirac (full
pipeline through the Dirac cohomology), tables (the mu+rho / P-value /
multiplicity grids), verify (the certificate suites of verify.SUITES, which
--suite offers in their run order). Deformations are given by exactly one of
--xi, --w, --P-h as comma-separated exact rationals (a list starting with a
minus sign may be its own token, as in --xi -3,0,1); weights by exactly one
of --lambda / --lambda-plus-rho. These list flags are declared once, in the
tables DEFORMATION_FLAGS and WEIGHT_FLAGS of (flag, dest, help), which build
the parser's two shared parent parsers, the exactly-one-of checks (_given)
and the gluing of negative lists (LIST_FLAGS). A rational is an optional
sign followed by digits with an optional /digits (3, -3/4), or by a decimal
with a point (1.5, .5, 5.), in ASCII digits; underscores, spaces inside a
token and exponents are usage errors, so every supported Python reads a
token alike. Each command builds one document, its answer, and _answer is
the one place the format is chosen: with --json the document is printed as
JSON, and otherwise the command's text function renders the document's
lines. --decimal is decided there too and reaches the text only: the
document's rationals are then rendered as decimals where they terminate, so
a --json answer is the same with or without it. _ratio is the one spelling
of a rational, in both modes: _fmt renders a Fraction through it, and
_axis_strings each value of an axis. The JSON document has sorted keys and
deterministic entry order; every rational is serialized as "p/q" (or "p"),
never as a float, whatever its number of digits (CPython's int <-> str digit
limit is lifted for the request). The JSON text is, by contract, exactly
json.dumps(doc, sort_keys=True, indent=2); _chunks produces it in pieces,
with the C string encoder, and _json joins them.

classify, dirac and tables check one modules.Box per request and read
everything from it. Its class lists (modules.Block: L(lambda),
L(lambda) (x) spin and the Dirac cohomology) come from their per-axis data
(weights.Axis): coordinate i of a class is top_i - o for o = 0..b_i, so
each coordinate's strings are made once per axis value (_axis_strings) and
the classes are their itertools.product, already in descending order, with
the classes of multiplicity 0 dropped. Dimensions come from the same axes,
in integers (Block.dimension: one determinant for L and L (x) spin, one
Weyl product per class for the cohomology), and the tables' P values
from integer numerators over one common denominator (Box.grid); no Weight
or Fraction is built per class. The class lists, the tables' points and
its rank-2 mu+rho and multiplicity grids can run to modules.MAX_GRID
entries, so each goes into the document as one Listing, the same for both
formats: the text reads its rows, and _chunks writes it from fragments made
once per axis value, each the value quoted once with the JSON text before
it (its key, separator and indentation), so that an entry is one join of
fragments and no dict or list is built per class. Only the guaranteed
classes, a few per request, go through Weight.

Exit codes: 0 success, 1 mathematical rejection (the weight heads no
finite-dimensional module: error code "not-classified", or "not-dominant"
for a weight that is not dominant) or verification failure, 2 usage or
parse error (including verify's --trials < 1, --max-n < 1, --max-deg < 0,
and --max-deg 0 for a run that includes the oracle-n1 suite),
3 box too large: the grid over the box of nu, prod(nu_i + 2) points, exceeds
modules.MAX_GRID; nu, the grid size and the guaranteed classes (which need
only nu) are reported instead, error code "box-too-large". main streams the
answer: every check of the request runs while the document is built, before
the first byte; then the JSON pieces (_chunks) or the text lines, made as
they are written, go to stdout in batches of about 64 KiB, so no copy of a
whole answer is held. A reader that closes the pipe early ends the output
quietly, with the command's own exit code. The parser is built once per
process, by the first call of main.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, product
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import Callable, Iterable, Iterator

from .modules import (
    MAX_GRID,
    Block,
    Box,
    BoxTooLargeError,
    guaranteed_classes,
    membership_detail,
    nu_vector,
    shift_axes,
)
from .polynomials import Poly, xi_to_density, xi_to_density_sum, xi_to_w
from .verify import DEFAULT_SEED, SUITES, BoundsError, run_suites
from .weights import Axis, CentralCharPoly, Weight, is_dominant, rho


class UsageError(Exception):
    pass


# The rationals every supported Python's Fraction reads alike: an optional
# sign, then digits with an optional /digits, or a decimal with a point. No
# underscores, inner spaces or exponents (an exponent's cost is exponential
# in its length).
RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def _parse_rational(tok: str) -> Fraction:
    tok = tok.strip()
    try:
        if not RATIONAL.fullmatch(tok):
            raise ValueError
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse {tok!r} as an exact rational") from None


def _parse_rational_list(text: str) -> list[Fraction]:
    if text.strip() == "":
        raise UsageError("empty rational list")
    return [_parse_rational(tok) for tok in text.split(",")]


def _ratio(num: int, den: int, decimal: bool = False) -> str:
    """num/den (den > 0) as str(Fraction(num, den)) writes it, or, with
    ``decimal``, as a decimal when it terminates."""
    g = gcd(num, den)
    num, den = num // g, den // g
    if decimal:
        rest, scale, fives = den, 0, 0
        while rest % 2 == 0:
            rest //= 2
            scale += 1
        while rest % 5 == 0:
            rest //= 5
            fives += 1
        if rest == 1:
            k = max(scale, fives)
            digits = num * 10 ** k // den
            if k == 0:
                return str(digits)
            sign = "-" if digits < 0 else ""
            digits = abs(digits)
            return f"{sign}{digits // 10**k}.{digits % 10**k:0{k}d}"
    return str(num) if den == 1 else f"{num}/{den}"


def _fmt(q: Fraction, decimal: bool = False) -> str:
    return _ratio(q.numerator, q.denominator, decimal)


def _axis_strings(axis: Axis, decimal: bool) -> list[str]:
    """The values of an axis as the document renders them: _ratio once per
    value, from the top's numerator in integers."""
    num, den = axis.top.numerator, axis.top.denominator
    return [_ratio(num - den * o, den, decimal) for o in range(axis.count)]


def _weight_text(weight: list[str], plus_rho: list[str]) -> str:
    return f"({', '.join(weight)})  [mu+rho ({', '.join(plus_rho)})]"


class Listing:
    """A list of the document that grows with the grid (a class list, the
    tables' points, a rank-2 grid), made once for both formats from strings
    made once per axis value. Iterating it gives the text its rows, read
    once; _chunks writes it as JSON from ``items(newline)``, the JSON text of
    each of its items at their newline, which joins fragments made once per
    axis value (_fragments) and never builds a dict or a list per item."""

    def __init__(self, rows: Iterable, items: Callable[[str], Iterable[str]]):
        self.rows, self.items = rows, items

    def __iter__(self) -> Iterator:
        return iter(self.rows)


# A slot of a skeleton item: _pieces splits the item's JSON text at it.
MARK = "\x00"


def _pieces(skeleton, newline: str) -> list[str]:
    """The JSON text of ``skeleton`` at ``newline``, split at each MARK: the
    fixed pieces between an item's values, keys and layout included."""
    return _json(skeleton, newline).split(_quote(MARK))


def _fragments(pieces: list[str], strings: list[list[str]]) -> list[list[str]]:
    """Per axis, each value's JSON: the piece before the axis's slot, then
    the value quoted once."""
    return [[piece + _quote(value) for value in axis]
            for piece, axis in zip(pieces, strings, strict=True)]


def _classes(block: Block, decimal: bool) -> Listing:
    """A class list's classes of nonzero multiplicity. The text's rows are
    (multiplicity, weight, weight + rho), each coordinate taken from its
    axis's _axis_strings; as JSON each class is {"multiplicity", "weight",
    "weight_plus_rho"}, one join of its coordinates' fragments. The classes
    of multiplicity 0 are dropped by compress before any string is made."""
    ms, n = block.multiplicities, len(block.axes)
    weight = [_axis_strings(axis, decimal) for axis in block.axes]
    plus_rho = [_axis_strings(axis, decimal) for axis in shift_axes(block.axes, rho(n).coords)]

    def items(newline: str) -> Iterator[str]:
        head, *pieces, tail = _pieces(
            {"multiplicity": MARK, "weight": [MARK] * n, "weight_plus_rho": [MARK] * n}, newline)
        w, s = _fragments(pieces[:n], weight), _fragments(pieces[n:], plus_rho)
        opening = {m: head + str(m) for m in set(ms)}
        return ("".join((opening[m], *a, *b, tail))
                for m, a, b in compress(zip(ms, product(*w), product(*s)), ms))

    return Listing(compress(zip(ms, product(*weight), product(*plus_rho)), ms), items)


def _block_json(block: Block, decimal: bool = False) -> dict:
    """A class list in the document: its dimension and its classes
    (_classes), which can run to MAX_GRID."""
    return {"dimension": block.dimension(), "entries": _classes(block, decimal)}


def _block_text(title: str, block: dict) -> Iterator[str]:
    """The lines of a class list of _block_json."""
    yield f"{title}  (dimension {block['dimension']})"
    for m, w, s in block["entries"]:
        yield f"  {m} x {_weight_text(w, s)}"


# The list flags, (flag, dest, help): a request gives exactly one flag of
# each table, as a comma-separated list of exact rationals. A deformation's
# dest is also its key in the document's "input".
DEFORMATION_FLAGS = (("--xi", "xi", "deformation polynomial coefficients c0,c1,..."),
                     ("--w", "w", "classification polynomial coefficients"),
                     ("--P-h", "P_h", "central character h-basis coefficients"))
WEIGHT_FLAGS = (("--lambda", "lam", "highest weight, plain coordinates"),
                ("--lambda-plus-rho", "lam_plus_rho",
                 "highest weight in rho-shifted coordinates"))
LIST_FLAGS = tuple(flag for flag, _, _ in DEFORMATION_FLAGS + WEIGHT_FLAGS)


def _given(args, flags) -> tuple[str, str]:
    """(dest, text) of the one flag of the table that the request gives."""
    given = [(dest, getattr(args, dest)) for _, dest, _ in flags
             if getattr(args, dest) is not None]
    if len(given) != 1:
        raise UsageError(f"give exactly one of {', '.join(flag for flag, _, _ in flags)}")
    return given[0]


@dataclass(frozen=True)
class Deformation:
    """Parsed deformation input: the rank, the variant given (the dest of
    its flag, which is its JSON key: "xi", "w" or "P_h") and its
    coefficients, xi and w trimmed as Poly.of trims them, P_h as given."""

    n: int
    kind: str
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_args(args) -> "Deformation":
        kind, text = _given(args, DEFORMATION_FLAGS)
        coeffs = tuple(_parse_rational_list(text))
        if args.n < 1:
            raise UsageError("--n must be a positive integer")
        return Deformation(args.n, kind, coeffs if kind == "P_h" else Poly.of(*coeffs).coeffs)

    @cached_property
    def h_coeffs(self) -> tuple[Fraction, ...]:
        """P's h-basis coefficients: w, through xi_to_w (once per request)
        for the --xi variant."""
        return xi_to_w(Poly(self.coeffs), self.n).coeffs if self.kind == "xi" else self.coeffs

    def input_json(self) -> dict:
        return {"n": self.n, self.kind: [_fmt(c) for c in self.coeffs]}

    def derived_json(self, decimal: bool = False) -> dict:
        """The --xi ladder: density, density sum, and w, which is P_h, each
        value rendered by _fmt."""
        xi, w = Poly(self.coeffs), [_fmt(c, decimal) for c in self.h_coeffs]
        return {
            "density": [_fmt(c, decimal) for c in xi_to_density(xi, self.n).coeffs],
            "density_sum": [_fmt(c, decimal) for c in xi_to_density_sum(xi, self.n).coeffs],
            "w": w,
            "P_h": w,
        }


def _parse_weight(args, n: int) -> Weight:
    dest, text = _given(args, WEIGHT_FLAGS)
    coords = _parse_rational_list(text)
    if len(coords) != n:
        raise UsageError(f"weight has {len(coords)} coordinates, expected n = {n}")
    w = Weight(tuple(coords))
    return w if dest == "lam" else w - rho(n)


# What a command hands back: its exit code, its document, and the function
# that renders the document as text lines.
Outcome = tuple[int, dict, Callable[[dict], Iterable[str]]]


def _json(doc, newline: str = "\n") -> str:
    """The exact text of json.dumps(doc, sort_keys=True, indent=2), for a
    document of dicts (with str keys), lists, tuples, str, int, bool and
    None, where a Listing stands for the list of its items, at ``newline``:
    the pieces of _chunks, joined."""
    return "".join(_chunks(doc, newline))


def _chunks(value, newline: str) -> Iterator[str]:
    """The JSON text of ``value`` at ``newline`` in pieces, made as they are
    taken: one per dict key, per Listing item and per item of a list that
    holds more than strings; any other value is one piece, its _encode."""
    inner = newline + "  "
    if isinstance(value, dict):
        brackets = "{}"
        members = ((_quote(key) + ": ", _chunks(value[key], inner)) for key in sorted(value))
    elif isinstance(value, Listing):
        brackets, members = "[]", ((item, ()) for item in value.items(inner))
    elif isinstance(value, (list, tuple)) and not all(isinstance(v, str) for v in value):
        brackets, members = "[]", (("", _chunks(item, inner)) for item in value)
    else:
        yield _encode(value, newline)
        return
    # A member is its first piece (a key, or a Listing item) and the rest.
    separator = brackets[0] + inner
    for head, rest in members:
        yield separator + head
        yield from rest
        separator = "," + inner
    yield newline + brackets[1] if separator[0] == "," else brackets


def _encode(value, newline: str) -> str:
    """The JSON text of a str, an int, a bool, None or a list of strings,
    the strings through the C string encoder, a list of them as one join."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple)):
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]" if value else "[]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _error_text(doc: dict) -> list[str]:
    """A diagnostic: the rejection's message, or a box over budget with the
    guaranteed classes."""
    error = doc["error"]
    if error["code"] != "box-too-large":
        return [f"rejected: {error['message']}"]
    return [f"box too large: {error['message']}", *_guaranteed_text(doc)]


class Answered(Exception):
    """Raised by the shared preamble when a request ends early in a
    diagnostic (a rejection, a box over budget): its exit code and its
    document, with the error under "error"."""

    def __init__(self, exit_code: int, doc: dict, **error):
        super().__init__(exit_code)
        self.outcome = exit_code, dict(doc, error=error), _error_text


# The guaranteed multiplicity-one classes, which need only nu: in the
# document of dirac and of the box-too-large diagnostic, and their lines.
def _guaranteed(lam: Weight, nu: tuple[int, ...], decimal: bool) -> list[dict]:
    return [{"weight": [_fmt(c, decimal) for c in w.coords],
             "weight_plus_rho": [_fmt(c, decimal) for c in w.shifted()]}
            for w in guaranteed_classes(lam, nu)]


def _guaranteed_text(doc: dict) -> list[str]:
    return ["guaranteed multiplicity-one classes:"] + [
        f"  {_weight_text(g['weight'], g['weight_plus_rho'])}" for g in doc["guaranteed"]]


def cmd_transform(args) -> Outcome:
    deformation = Deformation.from_args(args)
    if deformation.kind != "xi":
        raise UsageError("transform requires the --xi variant")
    return 0, {"command": "transform", "input": deformation.input_json(),
               "derived": deformation.derived_json(args.decimal)}, _transform_text


def _transform_text(doc: dict) -> list[str]:
    return [f"{key:12} [{', '.join(doc['derived'][key])}]"
            for key in ("density", "density_sum", "w", "P_h")]


REJECT_MESSAGE = ("no nonnegative integer v with "
                  "P(lambda) = P(lambda - (0,...,0,v+1)): the weight heads no "
                  "finite-dimensional module")


def _classified(args, command: str, derived: bool = True) -> tuple[CentralCharPoly, Box, dict]:
    """The stages classify, dirac and tables share, each run once: parse the
    deformation and the weight, dominance, membership, nu and the grid
    budget. Returns P, the box of a weight that heads a finite-dimensional
    module (within the grid budget) and the document so far; a non-dominant
    weight, a non-member or a box over budget ends the request in its
    diagnostic (Answered). ``derived`` adds the --xi ladder to the document.
    The weight is parsed and checked before P is computed, whose --xi
    ladder can cost far more."""
    deformation = Deformation.from_args(args)
    lam = _parse_weight(args, deformation.n)
    P = CentralCharPoly.from_h_coeffs(deformation.h_coeffs, deformation.n)
    doc = {"command": command, "input": {**deformation.input_json(),
                                         "lambda": [_fmt(c) for c in lam.coords],
                                         "lambda_plus_rho": [_fmt(c) for c in lam.shifted()]}}
    if derived and deformation.kind == "xi":
        doc["derived"] = deformation.derived_json(args.decimal)
    if not is_dominant(lam):
        raise Answered(1, doc, code="not-dominant", message=(
            f"lambda = ({', '.join(map(_fmt, lam.coords))}) is not dominant (some "
            "lambda_i - lambda_(i+1) is not a nonnegative integer): the weight "
            "heads no finite-dimensional module"))
    membership = nu_last, degenerate = membership_detail(P, lam)
    doc["membership"] = {"member": nu_last is not None, "nu_last": nu_last,
                         "degenerate_deformation": degenerate}
    if nu_last is None:
        raise Answered(1, doc, code="not-classified", message=REJECT_MESSAGE)
    nu = nu_vector(P, lam, membership)
    try:
        box = Box(lam, nu)
    except BoxTooLargeError as exc:
        doc = dict(doc, nu=list(exc.nu), guaranteed=_guaranteed(lam, exc.nu, args.decimal))
        raise Answered(3, doc, code="box-too-large", message=str(exc),
                       grid_size=exc.grid_size, max_grid=MAX_GRID) from None
    doc["nu"] = list(nu)
    return P, box, doc


# The class lists of classify and dirac: their document keys and text titles.
BLOCKS = (("L", "L(lambda)"), ("tensor_spin", "L(lambda) (x) spin"),
          ("cohomology", "Dirac cohomology"))


def _classes_text(doc: dict) -> Iterator[str]:
    """classify's and dirac's lines: membership and nu, the class lists the
    document holds, and the guaranteed classes when it holds them."""
    degenerate = doc["membership"]["degenerate_deformation"]
    yield (f"member: yes   nu = {doc['nu']}"
           + ("   (degenerate deformation)" if degenerate else ""))
    for key, title in BLOCKS:
        if key in doc:
            yield from _block_text(title, doc[key])
    if "guaranteed" in doc:
        yield from _guaranteed_text(doc)


def cmd_classify(args) -> Outcome:
    _, box, doc = _classified(args, "classify")
    doc["L"] = _block_json(box.L, args.decimal)
    return 0, doc, _classes_text


def cmd_dirac(args) -> Outcome:
    P, box, doc = _classified(args, "dirac")
    for (key, _), block in zip(BLOCKS, (box.L, box.spin, box.cohomology(P))):
        doc[key] = _block_json(block, args.decimal)
    doc["guaranteed"] = _guaranteed(box.lam, box.nu, args.decimal)
    return 0, doc, _classes_text


def cmd_tables(args) -> Outcome:
    P, box, doc = _classified(args, "tables", derived=False)
    axes, multiplicities, values, den = box.grid(P)
    strings = [_axis_strings(axis, args.decimal) for axis in axes]
    if box.lam.rank != 2:
        doc["points"] = _points(strings, (_ratio(v, den, args.decimal) for v in values),
                                multiplicities)
        return 0, doc, _points_text
    # The grid runs the second coordinate fastest, so row k2 of the layout
    # (columns over the first coordinate) is every (nu_2 + 2)-th cell.
    step = box.nu[1] + 2
    values, multiplicities = list(values), list(multiplicities)
    p_grid = [values[k2::step] for k2 in range(step)]
    transpose_symmetric = len(p_grid) == len(p_grid[0]) and all(
        p_grid[i][j] == p_grid[j][i] for i in range(step) for j in range(step))
    doc["grids"] = {
        "weight_plus_rho": _pair_grid(*strings),
        "P": [[_ratio(v, den, args.decimal) for v in row] for row in p_grid],
        "multiplicity": _int_grid([multiplicities[k2::step] for k2 in range(step)]),
        "orientation_note": "" if transpose_symmetric else (
            "rows run over the second mu+rho coordinate (descending), columns "
            "over the first (descending); this grid is not symmetric, so a "
            "transposed layout reads differently"),
    }
    return 0, doc, _grids_text


def _points(strings: list[list[str]], values: Iterator[str], multiplicities: list[int]) -> Listing:
    """The tables' points at ranks other than 2, in product order: the
    text's rows are (P, multiplicity, mu + rho), the point's coordinates
    from the axes' strings; as JSON each point is {"P", "multiplicity",
    "weight_plus_rho"}, one join of its P value, quoted, and fragments."""
    def items(newline: str) -> Iterator[str]:
        head, middle, *pieces, tail = _pieces(
            {"P": MARK, "multiplicity": MARK, "weight_plus_rho": [MARK] * len(strings)}, newline)
        point = _fragments(pieces, strings)
        after = {m: middle + str(m) for m in set(multiplicities)}
        return ("".join((head, _quote(v), after[m], *a, tail))
                for v, m, a in zip(values, multiplicities, product(*point)))

    return Listing(zip(values, multiplicities, product(*strings)), items)


def _pair_grid(xs: list[str], ys: list[str]) -> Listing:
    """The rank-2 mu+rho grid: as JSON, a row per y of the cells [x, y]
    over the xs, each row one join of the quoted xs; the text's rows are
    the two axes' strings, xs and ys."""
    def items(newline: str) -> Iterator[str]:
        opening, middle, between, _, closing = _pieces([[MARK, MARK], [MARK, MARK]], newline)
        quoted = list(map(_quote, xs))
        return (opening + (middle + y + between).join(quoted) + middle + y + closing
                for y in map(_quote, ys))

    return Listing((xs, ys), items)


def _int_grid(rows: list[list[int]]) -> Listing:
    """A grid of ints, a list of its rows for the text and as JSON."""
    def items(newline: str) -> Iterator[str]:
        opening, comma, closing = _pieces([MARK, MARK], newline)
        return (opening + comma.join(map(str, row)) + closing for row in rows)

    return Listing(rows, items)


def _points_text(doc: dict) -> Iterator[str]:
    yield f"nu = {doc['nu']}"
    for value, m, point in doc["points"]:
        yield f"mu+rho ({', '.join(point)})  P = {value}  multiplicity {m}"


def _grids_text(doc: dict) -> list[str]:
    grids, note = doc["grids"], doc["grids"]["orientation_note"]
    xs, ys = grids["weight_plus_rho"]
    return [f"nu = {doc['nu']}", "mu+rho grid:",
            *_render_grid([[f"({x},{y})" for x in xs] for y in ys]),
            "P(mu+rho) grid:", *_render_grid(grids["P"]), "multiplicity grid:",
            *_render_grid([list(map(str, row)) for row in grids["multiplicity"]]),
            *([f"note: {note}"] if note else [])]


def _render_grid(cells: list[list[str]]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(*cells)]
    return ["  " + "  ".join(map(str.rjust, row, widths)) for row in cells]


def cmd_verify(args) -> Outcome:
    try:
        results = run_suites(args.suite, max_n=args.max_n, max_deg=args.max_deg,
                             trials=args.trials, seed=args.seed)
    except BoundsError as exc:
        raise UsageError(str(exc)) from None
    ok = all(r.ok for r in results)
    return 0 if ok else 1, {"command": "verify", "suite": args.suite, "ok": ok,
                            "results": list(map(asdict, results))}, _verify_text


def _verify_text(doc: dict) -> list[str]:
    results = doc["results"]
    lines = [f"{'PASS' if r['ok'] else 'FAIL'} [{r['suite']}] {r['name']}"
             + (f"  -- {r['detail']}" if r["detail"] else "") for r in results]
    lines.append(f"{'all checks passed' if doc['ok'] else 'FAILURES PRESENT'} "
                 f"({sum(r['ok'] for r in results)}/{len(results)})")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cherednik",
        description="Exact classification and Dirac cohomology for infinitesimal "
                    "Cherednik algebras of gl_n.")
    subs = parser.add_subparsers(dest="command", required=True)

    # The flags the commands share, from the two tables: every command but
    # verify takes a deformation, and all but transform a weight.
    deformation = argparse.ArgumentParser(add_help=False)
    deformation.add_argument("--n", type=int, required=True, help="rank of gl_n")
    for flag, dest, text in DEFORMATION_FLAGS:
        deformation.add_argument(flag, dest=dest, help=text)
    deformation.add_argument("--json", action="store_true", help="emit one JSON document")
    deformation.add_argument("--decimal", action="store_true",
                             help="render terminating rationals as decimals in text output")
    weight = argparse.ArgumentParser(add_help=False)
    for flag, dest, text in WEIGHT_FLAGS:
        weight.add_argument(flag, dest=dest, help=text)
    for name, text, func, parents in (
            ("transform", "xi -> density, density sum, w, P", cmd_transform, [deformation]),
            ("classify", "membership, nu, and L(lambda)", cmd_classify, [deformation, weight]),
            ("dirac", "full pipeline through Dirac cohomology", cmd_dirac, [deformation, weight]),
            ("tables", "mu+rho / P / multiplicity grids", cmd_tables, [deformation, weight])):
        subs.add_parser(name, help=text, parents=parents).set_defaults(func=func)

    sub = subs.add_parser("verify", help="run certificate suites")
    sub.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    sub.add_argument("--max-n", type=int, default=2)
    sub.add_argument("--max-deg", type=int, default=None,
                     help="highest xi degree (default: 2 for jacobi, 3 for oracle-n1)")
    sub.add_argument("--trials", type=int, default=None,
                     help="random trials (default: 100 for poly, 20 for oracle-n1)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_verify)
    return parser


# argparse reads a value such as "-3,0,1" after --xi as an unknown option, so
# a leading-negative list given as its own token is glued to its flag.
NEGATIVE_LIST = re.compile(r"-[0-9./]")


def _glue_negative_lists(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in LIST_FLAGS and NEGATIVE_LIST.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _answer(args) -> tuple[int, Iterable[str]]:
    """The one place the format is chosen: run the command, which builds its
    document and so runs every check, then give the pieces of its output,
    made as they are taken: the document's _chunks for --json, else its
    text lines, each with its newline. --decimal reaches the text only, so
    a --json answer is the same with or without it."""
    args.decimal = getattr(args, "decimal", False) and not args.json
    try:
        code, doc, text = args.func(args)
    except Answered as early:
        code, doc, text = early.outcome
    if args.json:
        return code, chain(_chunks(doc, "\n"), ["\n"])
    return code, (line + "\n" for line in text(doc))


def _write(pieces: Iterable[str]) -> None:
    """Write the pieces to stdout, joined in batches of about 64 KiB."""
    held, size = [], 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size >= 1 << 16:
            sys.stdout.write("".join(held))
            held, size = [], 0
    sys.stdout.write("".join(held))
    sys.stdout.flush()


# The parser, built by the first call of main and kept for the process.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(_glue_negative_lists(sys.argv[1:] if argv is None else argv))
    # Exact answers can have more digits than CPython's int <-> str limit
    # (4300 by default, absent before 3.10.7) allows; it is lifted while the
    # request is answered and written.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            code, pieces = _answer(args)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            _write(pieces)
        except BrokenPipeError:
            # The reader closed the pipe (as `| head` does). Point stdout at
            # devnull so the interpreter's final flush does not raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
