"""
Seeded input generation. Every query is planted: the box shape or the
membership roots are fixed by the workload's schedule, and the seed only
picks the coefficients and the base weight that realise it. The planting
solves the h_1 coefficient of P (or xi_0) linearly for one planted root,
and the h_1 and h_2 coefficients together for two.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import ref


@dataclass
class Query:
    """One CLI query and the answer it was planted to have."""

    cmd: str
    n: int
    lam: tuple[Fraction, ...]
    P: list[Fraction]                  # h-basis coefficients of P
    xi: list[Fraction] | None = None   # given to the program instead of P
    nu: tuple[int, ...] | None = None  # None: the weight is rejected

    def argv(self) -> list[str]:
        deformation = (f"--xi={_csv(self.xi)}" if self.xi is not None
                       else f"--P-h={_csv(self.P)}")
        return [self.cmd, "--n", str(self.n), deformation,
                f"--lambda={_csv(self.lam)}", "--json"]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _unit(k: int) -> list[Fraction]:
    return [Fraction(0)] * k + [Fraction(1)]


def _no_hit(P, s, i: int, upto: int) -> bool:
    """P(s - t e_i) != P(s) for 1 <= t <= upto."""
    q = ref.difference_poly(P, s, i)
    return all(ref.poly_eval(q, t) != 0 for t in range(1, upto + 1))


def _nonzero(rng: random.Random, size: int = 3) -> Fraction:
    return Fraction(rng.choice([k for k in range(-size, size + 1) if k]))


def _integral(coeffs: list[Fraction]) -> list[Fraction]:
    """coeffs scaled by the lcm of their denominators. Scaling P (or xi) by
    a constant changes no P-equality, so the planted answer is kept."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c * den for c in coeffs]


def _weight(rng: random.Random, gaps) -> tuple[Fraction, ...]:
    last = Fraction(rng.randint(-6, 6))
    lam = [last]
    for g in reversed(gaps):
        lam.insert(0, lam[0] + g)
    return tuple(lam)


def plant_box(rng: random.Random, cmd: str, nu: tuple[int, ...], use_xi: bool,
              deg: int) -> Query:
    """A member weight whose box is exactly nu: the gaps of lambda are
    nu_1..nu_{n-1}, and P (or xi) is solved so that nu_n + 1 is the least
    root of q(t) = P(s) - P(s - t e_n). Membership constants stay small.
    Coefficients are nonzero integers and lambda is integral, so the cost of
    a query depends on its shape and hardly on the seed."""
    n = len(nu)
    T = nu[-1] + 1
    while True:
        lam = _weight(rng, nu[:-1])
        s = ref.shift(lam, n)
        tail = [_nonzero(rng) for _ in range(deg - 1)]
        if use_xi:
            w0 = ref.xi_to_w([1], n)
            wt = ref.xi_to_w([0] + tail, n)
            q0 = ref.poly_eval(ref.difference_poly(w0, s, n - 1), T)
            qt = ref.poly_eval(ref.difference_poly(wt, s, n - 1), T)
            xi = _integral([-qt / q0] + tail)
            P = ref.xi_to_w(xi, n)
        else:
            xi = None
            rest = [_nonzero(rng, 4), Fraction(0)] + tail
            qt = ref.poly_eval(ref.difference_poly(rest, s, n - 1), T)
            P = _integral([rest[0], -qt / T] + tail)
        if 0 in P[1:] or (xi is not None and 0 in xi):
            continue
        if not P or ref.p_value(P, s) != ref.p_value(P, ref.lowered(s, n - 1, T)):
            continue
        if all(_no_hit(P, s, i, v) for i, v in enumerate(nu)):
            return Query(cmd, n, lam, ref.poly_trim(P), xi, nu)


def worked_example(rng: random.Random, cmd: str) -> Query:
    """The rank-2 worked example (lambda + rho = (3, 0), nu = (2, 2), a
    cohomology class of multiplicity 4), with P scaled by a seeded factor
    and given a seeded constant term; neither changes any P-equality."""
    k = _nonzero(rng)
    P = [_nonzero(rng, 9)] + [k * c for c in (36, -9, -4, 1)]
    return Query(cmd, 2, (Fraction(5, 2), Fraction(1, 2)), P, None, (2, 2))


def plant_roots(rng: random.Random, n: int, gaps: tuple[int, ...], r1: int,
                scan: int, member: bool) -> Query:
    """A `classify` query on a thin box. P has degree 3 with h_3 coefficient
    +-1, and its h_1, h_2 coefficients are solved so that q(t)/t has the two
    roots r1 and R (a member with nu_n = r1 - 1) or r1 + 1/2 and R + 1/2 (a
    rejection). R is chosen so that the cleared constant term of q(t)/t is
    about scan^2: the rational root theorem's trial division then runs to
    about `scan`."""
    half = Fraction(1, 2) if not member else Fraction(0)
    while True:
        lam = _weight(rng, gaps)
        s = ref.shift(lam, n)
        c3 = Fraction(rng.choice((-1, 1)))
        if member:
            R = scan * scan // r1 + rng.randint(0, scan)
        else:
            R = scan * scan // (2 * (2 * r1 + 1)) + rng.randint(0, scan)
        roots = (r1 + half, R + half)
        q1 = [ref.poly_eval(ref.difference_poly(_unit(1), s, n - 1), t) for t in roots]
        q2 = [ref.poly_eval(ref.difference_poly(_unit(2), s, n - 1), t) for t in roots]
        q3 = [ref.poly_eval(ref.difference_poly(_unit(3), s, n - 1), t) for t in roots]
        det = q1[0] * q2[1] - q1[1] * q2[0]
        b = [-c3 * q3[0], -c3 * q3[1]]
        c1 = (b[0] * q2[1] - b[1] * q2[0]) / det
        c2 = (q1[0] * b[1] - q1[1] * b[0]) / det
        P = [_nonzero(rng, 9), c1, c2, c3]
        if all(_no_hit(P, s, i, g) for i, g in enumerate(gaps)):
            nu = tuple(gaps) + (r1 - 1,) if member else None
            return Query("classify", n, lam, P, None, nu)


def rank_one_instance(rng: random.Random, nu: int) -> tuple[list[Fraction], Fraction]:
    """(xi, lam) at rank one heading a module of dimension nu + 1: with the
    density p(z) = sum (m+1) xi_m z^m and d_{k+1} = d_k + p(lam - k), xi_0 is
    solved so that d_{nu+1} = 0, and no earlier d_k vanishes."""
    while True:
        lam = Fraction(rng.randint(-20, 20))
        tail = [_nonzero(rng, 4), _nonzero(rng, 4), _nonzero(rng, 2)]
        p_tail = ref.density([0] + tail, 1)
        total = sum(ref.poly_eval(p_tail, lam - k) for k in range(nu + 1))
        xi = [-total / (nu + 1)] + tail
        p = ref.density(xi, 1)
        d, early = Fraction(0), False
        for k in range(nu):
            d += ref.poly_eval(p, lam - k)
            early = early or d == 0
        if not early:
            return xi, lam
