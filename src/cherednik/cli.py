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
only nu) are reported instead, error code "box-too-large". Each command
builds its whole output and main prints it once; a reader that closes the
pipe early ends the output quietly, with the command's own exit code.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

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
    spin_grid,
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


# What a command hands back to main: its exit code and its stdout text.
Outcome = tuple[int, str]


class Answered(Exception):
    """Raised by the shared preamble when a request ends early in a
    diagnostic (a rejection, a box over budget); main prints its output and
    returns its exit code."""

    def __init__(self, outcome: Outcome):
        super().__init__(outcome[0])
        self.outcome = outcome


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _emit(args, doc: dict, text_lines: Callable[[], list[str]]) -> str:
    """The JSON document, or the text lines, built only when printed."""
    return _json(doc) if args.json else "\n".join(text_lines())


def _reject(args, doc: dict, message: str) -> Outcome:
    doc = dict(doc)
    doc["error"] = {"code": "not-classified", "message": message}
    return 1, _json(doc) if args.json else f"rejected: {message}"


def _too_large(args, doc: dict, P: CentralCharPoly, lam: Weight,
               exc: BoxTooLargeError) -> Outcome:
    """The diagnostic for a box over the grid budget: nu, the grid size and
    the guaranteed classes, none of which needs the box itself."""
    guaranteed = guaranteed_classes(P, lam, exc.nu)
    doc = dict(doc, nu=list(exc.nu), guaranteed=[_weight_json(w) for w in guaranteed])
    doc["error"] = {"code": "box-too-large", "message": str(exc),
                    "grid_size": exc.grid_size, "max_grid": MAX_GRID}
    if args.json:
        return 3, _json(doc)
    lines = [f"box too large: {exc}", "guaranteed multiplicity-one classes:"]
    lines.extend(f"  {_weight_text(w, args.decimal)}" for w in guaranteed)
    return 3, "\n".join(lines)


def cmd_transform(args) -> Outcome:
    deformation = Deformation.from_args(args)
    if deformation.xi is None:
        raise UsageError("transform requires the --xi variant")
    doc = {
        "command": "transform",
        "input": deformation.input_json(),
        "derived": deformation.derived_json(),
    }
    d = doc["derived"]
    return 0, _emit(args, doc, lambda: [f"{key:12} [{', '.join(d[key])}]"
                                        for key in ("density", "density_sum", "w", "P_h")])


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


class Classified(NamedTuple):
    """A weight that heads a finite-dimensional module with a box within
    the grid budget, and the JSON document so far."""

    P: CentralCharPoly
    lam: Weight
    nu: tuple[int, ...]
    membership: tuple[int | None, bool]
    doc: dict


def _classified(args, command: str, derived: bool = True) -> Classified:
    """The stages classify, dirac and tables share, each run once: parse the
    deformation and the weight, membership, nu and the grid budget. A
    non-member or a box over budget ends the request in its diagnostic
    (Answered). ``derived`` adds the --xi ladder to the document."""
    deformation = Deformation.from_args(args)
    P = deformation.central_char()
    lam = _parse_weight(args, deformation.n)
    doc = {"command": command, "input": dict(deformation.input_json(),
                                             **_weight_json_input(lam))}
    if derived and deformation.xi is not None:
        doc["derived"] = deformation.derived_json()
    doc["membership"], membership = _membership_block(P, lam)
    if membership[0] is None:
        raise Answered(_reject(args, doc, REJECT_MESSAGE))
    nu = nu_vector(P, lam, membership)
    try:
        check_grid_size(nu)
    except BoxTooLargeError as exc:
        raise Answered(_too_large(args, doc, P, lam, exc)) from None
    doc["nu"] = list(nu)
    return Classified(P, lam, nu, membership, doc)


def cmd_classify(args) -> Outcome:
    _, lam, nu, membership, doc = _classified(args, "classify")
    L = L_decomposition(lam, nu)
    doc["L"] = _decomp_json(L)

    def text() -> list[str]:
        lines = [_member_line(nu, membership)]
        _decomp_text(lines, "L(lambda)", L, doc["L"]["dimension"], args.decimal)
        return lines

    return 0, _emit(args, doc, text)


def cmd_dirac(args) -> Outcome:
    P, lam, nu, membership, doc = _classified(args, "dirac")
    L = L_decomposition(lam, nu)
    LS = tensor_with_spin(lam, nu)
    coh = select_cohomology(P, lam, nu)
    guaranteed = guaranteed_classes(P, lam, nu)
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

    return 0, _emit(args, doc, text)


def _weight_json_input(lam: Weight) -> dict:
    return {"lambda": [str(c) for c in lam.coords],
            "lambda_plus_rho": [str(c) for c in lam.shifted()]}


def cmd_tables(args) -> Outcome:
    P, lam, nu, _, doc = _classified(args, "tables", derived=False)
    if lam.rank == 2:
        # spin_grid runs the second coordinate fastest, so row k2 of the
        # layout (columns over the first coordinate) is every (nu_2 + 2)-th cell.
        cells = list(spin_grid(P, lam, nu))
        grid = [cells[k2::nu[1] + 2] for k2 in range(nu[1] + 2)]
        weight_grid = [[pt for pt, _, _ in row] for row in grid]
        p_grid = [[v for _, _, v in row] for row in grid]
        m_grid = [[m for _, m, _ in row] for row in grid]
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
        points = [{"weight_plus_rho": [str(c) for c in pt], "P": str(value),
                   "multiplicity": mult} for pt, mult, value in spin_grid(P, lam, nu)]
        doc["points"] = points

        def text() -> list[str]:
            return [f"nu = {list(nu)}"] + [
                f"mu+rho ({', '.join(item['weight_plus_rho'])})  "
                f"P = {item['P']}  multiplicity {item['multiplicity']}" for item in points]
    return 0, _emit(args, doc, text)


def _render_grid(cells: list[list[str]]) -> list[str]:
    widths = [max(len(row[j]) for row in cells) for j in range(len(cells[0]))]
    return ["  " + "  ".join(row[j].rjust(widths[j]) for j in range(len(row)))
            for row in cells]


def cmd_verify(args) -> Outcome:
    results = run_suites(args.suite, max_n=args.max_n, max_deg=args.max_deg,
                         trials=args.trials, seed=args.seed)
    ok = all(r.ok for r in results)
    code = 0 if ok else 1
    if args.json:
        return code, _json({
            "command": "verify",
            "suite": args.suite,
            "ok": ok,
            "results": [{"suite": r.suite, "name": r.name, "ok": r.ok,
                         "detail": r.detail} for r in results],
        })
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        detail = f"  -- {r.detail}" if r.detail else ""
        lines.append(f"{status} [{r.suite}] {r.name}{detail}")
    lines.append(f"{'all checks passed' if ok else 'FAILURES PRESENT'} "
                 f"({sum(r.ok for r in results)}/{len(results)})")
    return code, "\n".join(lines)


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
        code, out = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Answered as early:
        code, out = early.outcome
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (as `| head` does). Point stdout at
        # devnull so the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
