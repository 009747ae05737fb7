"""
Command line driver.

Subcommands: transform (deformation polynomial ladder), classify (membership,
nu, and the gl_n decomposition of L(lambda)), dirac (full pipeline through
the Dirac cohomology), tables (the mu+rho / P-value / multiplicity grids),
verify (the certificate suites). Deformations are given by exactly one of
--xi, --w, --P-h as comma-separated exact rationals (a list starting with a
minus sign may be its own token, as in --xi -3,0,1); weights by exactly one
of --lambda / --lambda-plus-rho. Output is aligned text or, with --json, a
single JSON document with sorted keys and deterministic entry order; every
rational is serialized as "p/q" (or "p"), never as a float.

Exit codes: 0 success, 1 mathematical rejection (the weight heads no
finite-dimensional module) or verification failure, 2 usage or parse error,
3 box too large: the grid over the box of nu, prod(nu_i + 2) points, exceeds
modules.MAX_GRID; nu, the grid size and the guaranteed classes (which need
only nu) are reported instead, error code "box-too-large".
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from typing import Callable

from .modules import (
    MAX_GRID,
    BoxTooLargeError,
    L_decomposition,
    ModuleDecomposition,
    check_grid_size,
    guaranteed_classes,
    membership_detail,
    nu_vector,
    select_cohomology,
    tensor_with_spin,
)
from .polynomials import Poly, xi_to_density, xi_to_density_sum, xi_to_w
from .verify import run_suites
from .weights import CentralCharPoly, Weight, rho


class UsageError(Exception):
    pass


def _parse_rational(tok: str) -> Fraction:
    tok = tok.strip()
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse {tok!r} as an exact rational") from None


def _parse_rational_list(text: str) -> list[Fraction]:
    if text.strip() == "":
        raise UsageError("empty rational list")
    return [_parse_rational(tok) for tok in text.split(",")]


def _fmt(q: Fraction, decimal: bool = False) -> str:
    if decimal:
        num, den = q.numerator, q.denominator
        scale = 0
        while den % 2 == 0:
            den //= 2
            scale += 1
        fives = 0
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den == 1:
            k = max(scale, fives)
            digits = num * 10 ** k // q.denominator
            if k == 0:
                return str(digits)
            sign = "-" if digits < 0 else ""
            digits = abs(digits)
            return f"{sign}{digits // 10**k}.{digits % 10**k:0{k}d}"
    return str(q)


def _weight_json(w: Weight) -> dict:
    return {
        "weight": [str(c) for c in w.coords],
        "weight_plus_rho": [str(c) for c in w.shifted()],
    }


def _weight_text(w: Weight, decimal: bool) -> str:
    plain = ", ".join(_fmt(c, decimal) for c in w.coords)
    shifted = ", ".join(_fmt(c, decimal) for c in w.shifted())
    return f"({plain})  [mu+rho ({shifted})]"


def _decomp_json(d: ModuleDecomposition) -> dict:
    return {
        "dimension": d.total_dimension(),
        "entries": [dict(_weight_json(w), multiplicity=m) for w, m in d.sorted_items()],
    }


def _decomp_text(lines: list[str], title: str, d: ModuleDecomposition, dimension: int,
                 decimal: bool) -> None:
    lines.append(f"{title}  (dimension {dimension})")
    for w, m in d.sorted_items():
        lines.append(f"  {m} x {_weight_text(w, decimal)}")


class Deformation:
    """Parsed deformation input: exactly one of xi / w / P_h, plus the rank."""

    def __init__(self, n: int, xi: Poly | None, w: Poly | None,
                 p_h: list[Fraction] | None):
        self.n = n
        self.xi = xi
        self.w = w
        self.p_h = p_h
        if n < 1:
            raise UsageError("--n must be a positive integer")

    @staticmethod
    def from_args(args) -> "Deformation":
        given = [name for name in ("xi", "w", "P_h") if getattr(args, name) is not None]
        if len(given) != 1:
            raise UsageError("give exactly one of --xi, --w, --P-h")
        xi = w = p_h = None
        if args.xi is not None:
            xi = Poly.of(*_parse_rational_list(args.xi))
        elif args.w is not None:
            w = Poly.of(*_parse_rational_list(args.w))
        else:
            p_h = _parse_rational_list(args.P_h)
        return Deformation(args.n, xi, w, p_h)

    @cached_property
    def xi_w(self) -> Poly:
        """xi_to_w of the --xi variant, computed once per request."""
        return xi_to_w(self.xi, self.n)

    def central_char(self) -> CentralCharPoly:
        if self.xi is not None:
            return CentralCharPoly.from_w(self.xi_w, self.n)
        if self.w is not None:
            return CentralCharPoly.from_w(self.w, self.n)
        return CentralCharPoly.from_h_coeffs(self.p_h, self.n)

    def input_json(self) -> dict:
        doc = {"n": self.n}
        if self.xi is not None:
            doc["xi"] = [str(c) for c in self.xi.coeffs]
        if self.w is not None:
            doc["w"] = [str(c) for c in self.w.coeffs]
        if self.p_h is not None:
            doc["P_h"] = [str(c) for c in self.p_h]
        return doc

    def derived_json(self) -> dict | None:
        if self.xi is None:
            return None
        w = self.xi_w
        return {
            "density": [str(c) for c in xi_to_density(self.xi, self.n).coeffs],
            "density_sum": [str(c) for c in xi_to_density_sum(self.xi, self.n).coeffs],
            "w": [str(c) for c in w.coeffs],
            "P_h": [str(c) for c in w.coeffs],
        }


def _parse_weight(args, n: int) -> Weight:
    given = [name for name in ("lam", "lam_plus_rho") if getattr(args, name) is not None]
    if len(given) != 1:
        raise UsageError("give exactly one of --lambda, --lambda-plus-rho")
    coords = _parse_rational_list(args.lam if args.lam is not None else args.lam_plus_rho)
    if len(coords) != n:
        raise UsageError(f"weight has {len(coords)} coordinates, expected n = {n}")
    w = Weight(tuple(coords))
    return w if args.lam is not None else w - rho(n)


def _emit(args, doc: dict, text_lines: Callable[[], list[str]]) -> None:
    """Print the JSON document, or the text lines, built only when printed."""
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print("\n".join(text_lines()))


def _reject(args, doc: dict, message: str) -> int:
    doc = dict(doc)
    doc["error"] = {"code": "not-classified", "message": message}
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"rejected: {message}")
    return 1


def _too_large(args, doc: dict, P: CentralCharPoly, lam: Weight,
               exc: BoxTooLargeError) -> int:
    """The diagnostic for a box over the grid budget: nu, the grid size and
    the guaranteed classes, none of which needs the box itself."""
    guaranteed = guaranteed_classes(P, lam, exc.nu)
    doc = dict(doc, nu=list(exc.nu), guaranteed=[_weight_json(w) for w in guaranteed])
    doc["error"] = {"code": "box-too-large", "message": str(exc),
                    "grid_size": exc.grid_size, "max_grid": MAX_GRID}
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"box too large: {exc}")
        print("guaranteed multiplicity-one classes:")
        for w in guaranteed:
            print(f"  {_weight_text(w, args.decimal)}")
    return 3


def cmd_transform(args) -> int:
    deformation = Deformation.from_args(args)
    if deformation.xi is None:
        raise UsageError("transform requires the --xi variant")
    doc = {
        "command": "transform",
        "input": deformation.input_json(),
        "derived": deformation.derived_json(),
    }
    d = doc["derived"]
    _emit(args, doc, lambda: [f"{key:12} [{', '.join(d[key])}]"
                              for key in ("density", "density_sum", "w", "P_h")])
    return 0


def _membership_block(P: CentralCharPoly, lam: Weight) -> tuple[dict, tuple[int | None, bool]]:
    """The JSON membership block and the membership_detail result it shows."""
    membership = nu_last, degenerate = membership_detail(P, lam)
    block = {
        "member": nu_last is not None,
        "nu_last": nu_last,
        "degenerate_deformation": degenerate,
    }
    return block, membership


def _member_line(nu: tuple[int, ...], membership: tuple[int | None, bool]) -> str:
    return (f"member: yes   nu = {list(nu)}"
            + ("   (degenerate deformation)" if membership[1] else ""))


REJECT_MESSAGE = ("no nonnegative integer v with "
                  "P(lambda) = P(lambda - (0,...,0,v+1)): the weight heads no "
                  "finite-dimensional module")


def cmd_classify(args) -> int:
    deformation = Deformation.from_args(args)
    P = deformation.central_char()
    lam = _parse_weight(args, deformation.n)
    doc = {"command": "classify", "input": dict(deformation.input_json(),
                                                **_weight_json_input(lam))}
    if deformation.xi is not None:
        doc["derived"] = deformation.derived_json()
    doc["membership"], membership = _membership_block(P, lam)
    if membership[0] is None:
        return _reject(args, doc, REJECT_MESSAGE)
    nu = nu_vector(P, lam, membership)
    try:
        L = L_decomposition(lam, nu)
    except BoxTooLargeError as exc:
        return _too_large(args, doc, P, lam, exc)
    doc["nu"] = list(nu)
    doc["L"] = _decomp_json(L)

    def text() -> list[str]:
        lines = [_member_line(nu, membership)]
        _decomp_text(lines, "L(lambda)", L, doc["L"]["dimension"], args.decimal)
        return lines

    _emit(args, doc, text)
    return 0


def cmd_dirac(args) -> int:
    deformation = Deformation.from_args(args)
    P = deformation.central_char()
    lam = _parse_weight(args, deformation.n)
    doc = {"command": "dirac", "input": dict(deformation.input_json(),
                                             **_weight_json_input(lam))}
    if deformation.xi is not None:
        doc["derived"] = deformation.derived_json()
    doc["membership"], membership = _membership_block(P, lam)
    if membership[0] is None:
        return _reject(args, doc, REJECT_MESSAGE)
    nu = nu_vector(P, lam, membership)
    try:
        L = L_decomposition(lam, nu)
    except BoxTooLargeError as exc:
        return _too_large(args, doc, P, lam, exc)
    LS = tensor_with_spin(L)
    coh = select_cohomology(P, lam, LS)
    guaranteed = guaranteed_classes(P, lam, nu)
    doc["nu"] = list(nu)
    doc["L"] = _decomp_json(L)
    doc["tensor_spin"] = _decomp_json(LS)
    doc["cohomology"] = _decomp_json(coh)
    doc["guaranteed"] = [_weight_json(w) for w in guaranteed]

    def text() -> list[str]:
        lines = [_member_line(nu, membership)]
        _decomp_text(lines, "L(lambda)", L, doc["L"]["dimension"], args.decimal)
        _decomp_text(lines, "L(lambda) (x) spin", LS, doc["tensor_spin"]["dimension"],
                     args.decimal)
        _decomp_text(lines, "Dirac cohomology", coh, doc["cohomology"]["dimension"],
                     args.decimal)
        lines.append("guaranteed multiplicity-one classes:")
        for w in guaranteed:
            lines.append(f"  {_weight_text(w, args.decimal)}")
        return lines

    _emit(args, doc, text)
    return 0


def _weight_json_input(lam: Weight) -> dict:
    return {"lambda": [str(c) for c in lam.coords],
            "lambda_plus_rho": [str(c) for c in lam.shifted()]}


def cmd_tables(args) -> int:
    deformation = Deformation.from_args(args)
    P = deformation.central_char()
    lam = _parse_weight(args, deformation.n)
    n = deformation.n
    doc = {"command": "tables", "input": dict(deformation.input_json(),
                                              **_weight_json_input(lam))}
    doc["membership"], membership = _membership_block(P, lam)
    if membership[0] is None:
        return _reject(args, doc, REJECT_MESSAGE)
    nu = nu_vector(P, lam, membership)
    try:
        check_grid_size(nu)
    except BoxTooLargeError as exc:
        return _too_large(args, doc, P, lam, exc)
    doc["nu"] = list(nu)
    top = lam.shifted()

    def grid_point(offsets) -> tuple[Fraction, ...]:
        return tuple(c - o for c, o in zip(top, offsets))

    def mult(offsets) -> int:
        return prod(1 if o in (0, v + 1) else 2 for o, v in zip(offsets, nu))

    ranges = [range(v + 2) for v in nu]
    if n == 2:
        cols, rows = ranges
        weight_grid = [[grid_point((k1, k2)) for k1 in cols] for k2 in rows]
        p_grid = [[P.evaluate(pt) for pt in row] for row in weight_grid]
        m_grid = [[mult((k1, k2)) for k1 in cols] for k2 in rows]
        transpose_symmetric = (len(p_grid) == len(p_grid[0]) and all(
            p_grid[i][j] == p_grid[j][i]
            for i in range(len(p_grid)) for j in range(len(p_grid))))
        note = ("rows run over the second mu+rho coordinate (descending), columns "
                "over the first (descending); this grid is not symmetric, so a "
                "transposed layout reads differently" if not transpose_symmetric else "")
        doc["grids"] = {
            "weight_plus_rho": [[[str(c) for c in pt] for pt in row] for row in weight_grid],
            "P": [[str(v) for v in row] for row in p_grid],
            "multiplicity": m_grid,
            "orientation_note": note,
        }

        def text() -> list[str]:
            lines = [f"nu = {list(nu)}", "mu+rho grid:"]
            lines.extend(_render_grid([[f"({_fmt(a, args.decimal)},{_fmt(b, args.decimal)})"
                                        for a, b in row] for row in weight_grid]))
            lines.append("P(mu+rho) grid:")
            lines.extend(_render_grid([[_fmt(v, args.decimal) for v in row] for row in p_grid]))
            lines.append("multiplicity grid:")
            lines.extend(_render_grid([[str(v) for v in row] for row in m_grid]))
            if note:
                lines.append(f"note: {note}")
            return lines
    else:
        points = []
        for offsets in product(*ranges):
            pt = grid_point(offsets)
            points.append({
                "weight_plus_rho": [str(c) for c in pt],
                "P": str(P.evaluate(pt)),
                "multiplicity": mult(offsets),
            })
        doc["points"] = points

        def text() -> list[str]:
            return [f"nu = {list(nu)}"] + [
                f"mu+rho ({', '.join(item['weight_plus_rho'])})  "
                f"P = {item['P']}  multiplicity {item['multiplicity']}" for item in points]
    _emit(args, doc, text)
    return 0


def _render_grid(cells: list[list[str]]) -> list[str]:
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    return ["  " + "  ".join(row[j].rjust(widths[j]) for j in range(len(row)))
            for row in cells]


def cmd_verify(args) -> int:
    results = run_suites(args.suite, max_n=args.max_n, max_deg=args.max_deg,
                         trials=args.trials, seed=args.seed)
    ok = all(r.ok for r in results)
    if args.json:
        doc = {
            "command": "verify",
            "suite": args.suite,
            "ok": ok,
            "results": [{"suite": r.suite, "name": r.name, "ok": r.ok,
                         "detail": r.detail} for r in results],
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            detail = f"  -- {r.detail}" if r.detail else ""
            print(f"{status} [{r.suite}] {r.name}{detail}")
        print(f"{'all checks passed' if ok else 'FAILURES PRESENT'} "
              f"({sum(r.ok for r in results)}/{len(results)})")
    return 0 if ok else 1


def _add_deformation_flags(sub) -> None:
    sub.add_argument("--n", type=int, required=True, help="rank of gl_n")
    sub.add_argument("--xi", help="deformation polynomial coefficients c0,c1,...")
    sub.add_argument("--w", help="classification polynomial coefficients")
    sub.add_argument("--P-h", dest="P_h", help="central character h-basis coefficients")
    sub.add_argument("--json", action="store_true", help="emit one JSON document")
    sub.add_argument("--decimal", action="store_true",
                     help="render terminating rationals as decimals in text output")


def _add_weight_flags(sub) -> None:
    sub.add_argument("--lambda", dest="lam", help="highest weight, plain coordinates")
    sub.add_argument("--lambda-plus-rho", dest="lam_plus_rho",
                     help="highest weight in rho-shifted coordinates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cherednik",
        description="Exact classification and Dirac cohomology for infinitesimal "
                    "Cherednik algebras of gl_n.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("transform", help="xi -> density, density sum, w, P")
    _add_deformation_flags(sub)
    sub.set_defaults(func=cmd_transform)

    sub = subs.add_parser("classify", help="membership, nu, and L(lambda)")
    _add_deformation_flags(sub)
    _add_weight_flags(sub)
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("dirac", help="full pipeline through Dirac cohomology")
    _add_deformation_flags(sub)
    _add_weight_flags(sub)
    sub.set_defaults(func=cmd_dirac)

    sub = subs.add_parser("tables", help="mu+rho / P / multiplicity grids")
    _add_deformation_flags(sub)
    _add_weight_flags(sub)
    sub.set_defaults(func=cmd_tables)

    sub = subs.add_parser("verify", help="run certificate suites")
    sub.add_argument("--suite", required=True,
                     choices=["poly", "jacobi", "clifford", "oracle-n1", "all"])
    sub.add_argument("--max-n", type=int, default=2)
    sub.add_argument("--max-deg", type=int, default=2)
    sub.add_argument("--trials", type=int, default=20)
    sub.add_argument("--seed", type=int, default=20260811)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_verify)
    return parser


# argparse reads a value such as "-3,0,1" after --xi as an unknown option, so
# a leading-negative list given as its own token is glued to its flag.
LIST_FLAGS = ("--xi", "--w", "--P-h", "--lambda", "--lambda-plus-rho")
NEGATIVE_LIST = re.compile(r"-[0-9./]")


def _glue_negative_lists(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in LIST_FLAGS and NEGATIVE_LIST.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_negative_lists(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
