"""
Reference arithmetic for the benchmark, written apart from the package.

Nothing here imports ``cherednik``. The central character polynomial is
evaluated through Newton's identities on integer power sums (the package
uses the h_k column recurrence on Fractions), the xi -> w ladder is solved
from its defining equation with a dense triangular solve, and the spin
tensor is enumerated directly as box weight plus sign vector.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm

HALF = Fraction(1, 2)


def rho(n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(n - 1 - 2 * i, 2) for i in range(n))


def shift(weight, n: int) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(weight, rho(n)))


def p_value(coeffs, point) -> Fraction:
    """sum_k c_k h_k(point) by Newton's identities k h_k = sum_j p_j h_{k-j},
    on the point scaled to integers."""
    den = lcm(*(Fraction(x).denominator for x in point))
    ints = [int(Fraction(x) * den) for x in point]
    deg = len(coeffs) - 1
    power = [0] * (deg + 1)
    cur = [1] * len(ints)
    for j in range(1, deg + 1):
        cur = [c * x for c, x in zip(cur, ints)]
        power[j] = sum(cur)
    h = [1] + [0] * deg
    for k in range(1, deg + 1):
        h[k] = sum(power[j] * h[k - j] for j in range(1, k + 1)) // k
    return sum((Fraction(c) * Fraction(h[k], den ** k) for k, c in enumerate(coeffs) if c),
               Fraction(0))


def lowered(point, i: int, t) -> tuple:
    """point - t e_i (i is 0-based)."""
    return tuple(x - t if j == i else x for j, x in enumerate(point))


def is_dominant(weight) -> bool:
    return all((d := Fraction(a) - b).denominator == 1 and d >= 0
               for a, b in zip(weight, weight[1:]))


def weyl_dim(weight) -> int:
    """The Weyl product prod_{i<j} (w_i - w_j + j - i)/(j - i); 0 on boundary
    weights."""
    n = len(weight)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= Fraction(weight[i] - weight[j] + j - i, j - i)
    return int(out)


# -- dense polynomials in one variable, coefficient lists low degree first --

def poly_trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_eval(p, t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def poly_shift(p, c) -> list:
    """p(z + c) by the binomial theorem."""
    out = [Fraction(0)] * len(p)
    for k, a in enumerate(p):
        for j in range(k + 1):
            out[j] += a * comb(k, j) * Fraction(c) ** (k - j)
    return poly_trim(out)


def poly_sub(p, q) -> list:
    m = max(len(p), len(q))
    return poly_trim([(p[k] if k < len(p) else 0) - (q[k] if k < len(q) else 0)
                      for k in range(m)])


def interpolate(xs, ys) -> list:
    """Lagrange interpolation through the given points."""
    out = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = [Fraction(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= xj * basis[k + 1]
                den *= xi - xj
        for k, b in enumerate(basis):
            out[k] += yi * b / den
    return poly_trim(out)


def density(xi, n: int) -> list:
    """n-th derivative of z^n xi(z): the z^m coefficient is (m+n)!/m! xi_m."""
    return poly_trim([Fraction(factorial(m + n), factorial(m)) * c for m, c in enumerate(xi)])


def half_step(w, n: int) -> list:
    """nabla_{1/2} applied n times to z^(n-1) w(z), nabla_e f = f(z+e) - f(z+e-1)."""
    f = [Fraction(0)] * (n - 1) + [Fraction(c) for c in w]
    for _ in range(n):
        f = poly_sub(poly_shift(f, HALF), poly_shift(f, -HALF))
    return f


def xi_to_w(xi, n: int) -> list:
    """The w with w_0 = 0 and half_step(w) = density(z + 1/2), by a
    triangular solve on the images of z^1 .. z^(deg xi + 1)."""
    rhs = poly_shift(density(xi, n), HALF)
    top = len(rhs)
    images = {k: half_step([0] * k + [1], n) for k in range(1, top + 1)}
    w = [Fraction(0)] * (top + 1)
    for k in range(top, 0, -1):
        img = images[k]
        c = (rhs[k - 1] if k - 1 < len(rhs) else 0) / img[k - 1]
        w[k] = c
        rhs = poly_sub(rhs, [c * a for a in img])
    if rhs:
        raise ArithmeticError("half-step system did not close")
    return poly_trim(w)


def difference_poly(coeffs, s, i: int) -> list:
    """q(t) = P(s) - P(s - t e_i) as a coefficient list, by interpolation."""
    deg = max(len(coeffs) - 1, 1)
    ts = list(range(deg + 1))
    top = p_value(coeffs, s)
    return interpolate(ts, [top - p_value(coeffs, lowered(s, i, t)) for t in ts])


def box(lam, nu):
    for offsets in product(*(range(v + 1) for v in nu)):
        yield tuple(c - o for c, o in zip(lam, offsets))


def spin_tensor(lam, nu) -> Counter:
    """The multiset {box weight + sign vector in {+-1/2}^n}."""
    n = len(lam)
    out: Counter = Counter()
    signs = list(product((HALF, -HALF), repeat=n))
    for w in box(lam, nu):
        for s in signs:
            out[tuple(a + b for a, b in zip(w, s))] += 1
    return out
