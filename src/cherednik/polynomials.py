"""
Exact univariate polynomial calculus over the rationals.

This module provides the dense polynomial arithmetic everything else is built
on, together with the discrete calculus used to turn a deformation polynomial
``xi`` into the data that controls representation theory:

* Bernoulli polynomials ``B_k``, satisfying ``B_k(z+1) - B_k(z) = k z^(k-1)``.
* The step-difference operator ``nabla_eps f(z) = f(z+eps) - f(z+eps-1)`` and
  its inverse (unique once the constant term is pinned to 0), constructed from
  Bernoulli polynomials in one exact pass.
* The ladder of transforms attached to a deformation ``xi`` of rank ``n``:
  density in closed form, density_sum by one inverse step, and w by n
  inverse half-steps, then checked by n forward half-steps (w has no closed
  form here):

      density(z)      = d^n/dz^n [ z^n xi(z) ], coefficient (m+n)!/m! * xi_m
      density_sum     = the polynomial F with F(z) - F(z-1) = density(z), F(0)=0
      w               = the polynomial with w_0 = 0 such that applying
                        nabla_{1/2} n times to z^(n-1) w(z) gives density(z+1/2):
                        nabla_inverse(1/2, .) n times on density(z+1/2), with
                        the terms below degree n dropped

  ``w`` has degree deg(xi) + 1 and its coefficients are exactly the
  h-basis coefficients of the central character polynomial (see weights.py).

* ``twisted_identity_check``: the substitution identity
  p(z)g = f(z+g) + p(z)/2 - f(z+1/2) that underlies the square of the Dirac
  element, the package's one check of it: at max(deg f, deg p) + 1 points z,
  for each g given, over the ring of g (by default the two roots g = 1/2 and
  g = -1/2 of g^2 - 1/4; verify also passes a rank-one Clifford gamma).
* ``least_positive_integer_root``: exact root isolation (one signed
  remainder sequence of f and f', divided by its last member gcd(f, f'),
  is the Sturm sequence of the square-free part; Cauchy bound; Sturm-sequence
  bisection over integer intervals), whose cost grows with the bit size of
  the polynomial, not with the size of its roots. It is total: the zero
  polynomial's least root is 1.
* ``horner``: Horner's rule, the package's one polynomial evaluation, over
  any ring the coefficients and the points share: ``Poly.__call__`` (in
  Fractions), the Sturm sign counts and root test (in integers), the spin
  grid of modules.grid_numerators (integers, one call per line of points)
  and ``twisted_identity_check`` (in Fractions or Clifford elements).

All ``Poly`` coefficients are ``fractions.Fraction``. The Taylor shift
and the step-difference calculus run inside on scaled Python ints (one
shift, ``_taylor_shift``, and Bernoulli rows cached per index as a
denominator and an integer row) and build one Fraction per output
coefficient. Nothing here ever touches a float.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, floor, gcd, lcm, perm
from typing import Callable, Iterable, Sequence

Scalar = int | Fraction


class InvariantViolation(Exception):
    """An internal law of a computation failed to hold. This signals a bug,
    not bad input, and is raised whatever flags Python runs with."""


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


@dataclass(frozen=True)
class Poly:
    """
    Dense univariate polynomial over Fraction; ``coeffs[k]`` is the z^k
    coefficient, trailing zeros trimmed (the zero polynomial has no coeffs).

    >>> Poly.of(1, 2) * Poly.of(0, 1)
    Poly('2z^2 + z')
    >>> Poly.of(0, 0, 1).shift(Fraction(1, 2))
    Poly('z^2 + z + 1/4')
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs: Scalar) -> Poly:
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def zero() -> Poly:
        return Poly(())

    @staticmethod
    def const(c: Scalar) -> Poly:
        return Poly.of(c)

    @staticmethod
    def x() -> Poly:
        return Poly.of(0, 1)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.of(other)
        return Poly.of(*(a + b for a, b in itertools.zip_longest(
            self.coeffs, other.coeffs, fillvalue=Fraction(0))))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Poly | Scalar) -> Poly:
        other = other if isinstance(other, Poly) else Poly.of(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Poly:
        return Poly.of(other) + (-self)

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            c = _as_fraction(other)
            return Poly.of(*(c * a for a in self.coeffs))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly.of(*out)

    __rmul__ = __mul__

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Euclidean division over Q: self = quo * other + rem, deg rem < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(self.degree - other.degree + 1, 0)
        lead = other.coeffs[-1]
        for k in range(len(quo) - 1, -1, -1):
            c = quo[k] = rem[k + other.degree] / lead
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
        return Poly.of(*quo), Poly.of(*rem[:other.degree])

    def derivative(self) -> Poly:
        return Poly.of(*(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def shift(self, c: Scalar) -> Poly:
        """Compose with z + c, i.e. return p(z + c).

        A Taylor shift in scaled integers (``_taylor_shift``): with D the
        common denominator of the coefficients and c = u/v, the z^i
        coefficient of p(z + c) is the w^i coefficient of P(w + u), for
        P(w) = D v^d p(w/v), over D v^(d-i)."""
        c = _as_fraction(c)
        den, ints = _scaled_ints(self.coeffs, c.denominator)
        return _over(_taylor_shift(ints, c.numerator), den, c.denominator)

    def __call__(self, z: Scalar) -> Fraction:
        return horner(self.coeffs, (_as_fraction(z),))[0]

    def with_constant_zero(self) -> Poly:
        return self - self.coeff(0)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly('0')"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            sign = " + " if (c > 0 and parts) else " - " if (c < 0 and parts) else "" if c > 0 else "-"
            mag = abs(c)
            var = "" if k == 0 else "z" if k == 1 else f"z^{k}"
            num = "" if (mag == 1 and var) else str(mag)
            parts.append(f"{sign}{num}{var}")
        return f"Poly('{''.join(parts)}')"


def _scaled_ints(coeffs: Sequence[Scalar], v: int) -> tuple[int, list[int]]:
    """(D, P) for p(z) = sum coeffs[i] z^i of degree d, ints or Fractions:
    D the common denominator of the coefficients and P(w) = D v^d p(w/v),
    with integer coefficients. The package's one scaling of polynomial
    coefficients to integers, for the Taylor shifts, the Sturm sequence and
    the spin grid: the Sturm sequence takes v = 1, so P is D times the
    coefficients, and the spin grid takes v = d, the tops' common
    denominator."""
    den = lcm(*(a.denominator for a in coeffs))
    ints, scale = [], 1
    for a in reversed(coeffs):
        ints.append(a.numerator * (den // a.denominator) * scale)
        scale *= v
    return den, ints[::-1]


def _taylor_shift(ints: Sequence[int], u: int) -> list[int]:
    """The coefficients of P(w + u) for P(w) = sum ints[i] w^i, by synthetic
    division in integers: the package's one Taylor shift."""
    out = list(ints)
    d = len(out) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            out[j] += u * out[j + 1]
    return out


def _over(ints: Sequence[int], den: int, v: int) -> Poly:
    """The polynomial with z^i coefficient ints[i] / (den v^(d-i)), one
    Fraction per coefficient: the way back from the scaled integers of
    _scaled_ints."""
    out, scale = [], den
    for a in reversed(ints):
        out.append(Fraction(a, scale))
        scale *= v
    return Poly.of(*out[::-1])


def _integer_coeffs(p: Poly) -> list[int]:
    """The coefficients of p times the positive rational that makes them
    coprime integers; signs, and so the sign of p at every point, are kept."""
    ints = _scaled_ints(p.coeffs, 1)[1]
    g = gcd(*ints)
    return [c // g for c in ints]


def horner(coeffs: Sequence, points: Iterable) -> list:
    """
    [sum_k coeffs[k] x^k for x in points], by Horner's rule: the one
    polynomial evaluation of the package, over any ring the coefficients and
    the points share (ints, Fractions, Clifford elements). All of a line's
    points go through one call, so the loop over them stays tight. With no
    coefficients every value is the zero of the points' ring, 0 * x.

    >>> horner([1, 0, 2], [0, 1, Fraction(1, 2)])   # 1 + 2z^2
    [1, 3, Fraction(3, 2)]
    """
    if not coeffs:
        return [0 * x for x in points]
    top, rest = coeffs[-1], coeffs[-2::-1]
    values = []
    for x in points:
        acc = top
        for c in rest:
            acc = acc * x + c
        values.append(acc)
    return values


def _sturm_sequence(f: Poly) -> list[list[int]]:
    """A Sturm sequence of the square-free part of f (deg f >= 1), each member
    scaled positively to integer coefficients: the signed remainder sequence
    f, f', then the negated remainders up to the first zero one, each divided
    by its last member g = gcd(f, f'). The first member is f / g, the
    square-free part; one Euclidean pass gives both. A constant g is not
    divided out: a constant factor of either sign changes no count of sign
    changes, and _integer_coeffs rescales."""
    seq = [f, f.derivative()]
    while not (rem := divmod(seq[-2], seq[-1])[1]).is_zero():
        seq.append(-rem)
    if seq[-1].degree > 0:
        seq = [divmod(p, seq[-1])[0] for p in seq]
    return [_integer_coeffs(p) for p in seq]


def _sign_changes(seq: list[list[int]], x: int) -> int:
    signs = [v > 0 for coeffs in seq if (v := horner(coeffs, (x,))[0])]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def least_positive_integer_root(q: Poly, cap: Scalar | None = None) -> int | None:
    """
    The least integer t with 1 <= t (<= cap, when given) and q(t) = 0, or None.
    A rational cap is read as its floor, since t <= cap exactly when
    t <= floor(cap); a float cap is a TypeError. Every t is a root of the
    zero polynomial, so there the answer is 1, or None when the cap is
    below 1.

    Exact, with a cost polynomial in the bit sizes of q and cap, in one
    Euclidean pass: the factor t is stripped, the Sturm sequence of the
    square-free part f of what is left is built from one remainder sequence
    (_sturm_sequence), the roots of f are bounded by Cauchy's bound
    1 + max |f_k / f_d| (and by cap), and a leftmost-first bisection over
    integer intervals (a, b] down to width one keeps only intervals holding
    a root. Sturm's theorem counts the distinct roots in (a, b] as
    V(a) - V(b), V the sign changes of the Sturm sequence with zeros
    dropped; the count stays right when a or b is itself a root.

    >>> least_positive_integer_root(Poly.of(0, 6, -5, 1))   # t(t-2)(t-3)
    2
    >>> least_positive_integer_root(Poly.of(0, 6, -5, 1), cap=1) is None
    True
    >>> least_positive_integer_root(Poly.zero())
    1
    """
    if cap is not None:
        cap = floor(_as_fraction(cap))
        if cap < 1:
            return None
    if q.is_zero():
        return 1
    low = next(k for k, c in enumerate(q.coeffs) if c)
    f = Poly(q.coeffs[low:])
    if f.degree < 1:
        return None
    seq = _sturm_sequence(f)
    f_ints = seq[0]
    hi = 1 + max(abs(c) for c in f_ints[:-1]) // abs(f_ints[-1])
    if cap is not None:
        hi = min(hi, cap)
    stack = [(0, hi, _sign_changes(seq, 0), _sign_changes(seq, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            if horner(f_ints, (b,))[0] == 0:
                return b
            continue
        mid = (a + b) // 2
        vmid = _sign_changes(seq, mid)
        stack.append((mid, b, vmid, vb))
        stack.append((a, mid, va, vmid))
    return None


@lru_cache(maxsize=None)
def _bernoulli_number(j: int) -> Fraction:
    # B_0 = 1 and sum_{i<=j} C(j+1, i) B_i = 0 for j >= 1 (B_1 = -1/2 convention).
    # Each B_j asks for B_0..B_(j-1) in order, so the recursion stays two deep.
    if j == 0:
        return Fraction(1)
    return -sum(comb(j + 1, i) * _bernoulli_number(i) for i in range(j)) / (j + 1)


@lru_cache(maxsize=None)
def _bernoulli_row(i: int) -> tuple[int, tuple[int, ...]]:
    """B_{i+1}(z) / (i+1) as (denominator, integer coefficients from z^0 up),
    built once per index: sum_j C(i+1, j) B_j / (i+1) z^(i+1-j)."""
    row = [comb(i + 1, j) * _bernoulli_number(j) / (i + 1) for j in range(i + 1, -1, -1)]
    den = lcm(*(c.denominator for c in row))
    return den, tuple(c.numerator * (den // c.denominator) for c in row)


def bernoulli(k: int) -> Poly:
    """
    The k-th Bernoulli polynomial B_k(z).

    >>> bernoulli(1)
    Poly('z - 1/2')
    >>> bernoulli(2)
    Poly('z^2 - z + 1/6')
    """
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return Poly.of(*(comb(k, i) * _bernoulli_number(i) for i in range(k, -1, -1)))


def nabla(eps: Scalar, f: Poly) -> Poly:
    """The step difference f(z + eps) - f(z + eps - 1): with eps = u/v, two
    Taylor shifts (by u and by u - v) of one scaled integer polynomial."""
    eps = _as_fraction(eps)
    u, v = eps.numerator, eps.denominator
    den, ints = _scaled_ints(f.coeffs, v)
    return _over([a - b for a, b in zip(_taylor_shift(ints, u), _taylor_shift(ints, u - v))],
                 den, v)


def nabla_inverse(eps: Scalar, p: Poly) -> Poly:
    """
    The unique f with nabla(eps, f) = p and constant term 0.

    Built as sum_i p_i/(i+1) * B_{i+1}(z + 1 - eps) in integers: the
    Bernoulli rows (_bernoulli_row) and p's coefficients brought to one
    common denominator, one Taylor shift by 1 - eps, then the constant is
    dropped; nabla kills constants, so this normalization is free.
    """
    shift = 1 - _as_fraction(eps)
    rows = [(c, *_bernoulli_row(i)) for i, c in enumerate(p.coeffs) if c]
    den = lcm(*(c.denominator * d for c, d, _ in rows))
    total = [0] * (len(p.coeffs) + 1)
    for c, d, row in rows:
        scale = c.numerator * (den // (c.denominator * d))
        for j, r in enumerate(row):
            total[j] += scale * r
    ints = _taylor_shift(_scaled_ints(total, shift.denominator)[1], shift.numerator)
    ints[0] = 0
    return _over(ints, den, shift.denominator)


def xi_to_density(xi: Poly, n: int) -> Poly:
    """
    The n-th derivative of z^n * xi(z); same degree as xi, coefficient of z^m
    is (m+n)!/m! * xi_m.

    >>> xi_to_density(Poly.of(1, 1), 2)   # (z^2 + z^3)'' = 2 + 6z
    Poly('6z + 2')
    """
    if n < 1:
        raise ValueError("rank must be positive")
    return Poly.of(*(perm(m + n, n) * c for m, c in enumerate(xi.coeffs)))


def xi_to_density_sum(xi: Poly, n: int) -> Poly:
    """
    The polynomial F with F(z) - F(z-1) = xi_to_density(xi, n) and F(0) = 0;
    on nonnegative integers it sums the density over 1..z.
    """
    return nabla_inverse(0, xi_to_density(xi, n))


def half_step_transform(w: Poly, n: int) -> Poly:
    """Apply nabla_{1/2} n times to z^(n-1) * w(z)."""
    f = Poly.of(*([0] * (n - 1) + list(w.coeffs)))
    for _ in range(n):
        f = nabla(Fraction(1, 2), f)
    return f


def xi_to_w(xi: Poly, n: int) -> Poly:
    """
    The unique polynomial w with constant term 0 such that
    half_step_transform(w, n) equals density(z + 1/2); for xi != 0,
    deg w = deg xi + 1.

    nabla_{1/2} lowers degree by one and kills constants, so the solutions G
    of nabla_{1/2}^n G = density(z + 1/2) differ by polynomials of degree
    below n. G = z^(n-1) w is the one with no terms below degree n: apply
    nabla_inverse(1/2, .) n times and drop those terms.

    >>> xi_to_w(Poly.of(0, 1), 3)
    Poly('z^2 + 2z')
    """
    if n < 1:
        raise ValueError("rank must be positive")
    rhs = xi_to_density(xi, n).shift(Fraction(1, 2))
    f = rhs
    for _ in range(n):
        f = nabla_inverse(Fraction(1, 2), f)
    w = Poly.of(0, *f.coeffs[n:])
    if half_step_transform(w, n) != rhs:
        raise InvariantViolation("half-step transform of w must give density(z + 1/2)")
    return w


def twisted_identity_check(p: Poly, gammas: Sequence = (Fraction(1, 2), Fraction(-1, 2)),
                           scalar: Callable = _as_fraction) -> bool:
    """
    Check p(z)*g == f(z+g) + p(z)/2 - f(z+1/2) for each g in ``gammas``, where
    f is any half-step antidifference of p (the identity is insensitive to
    f's constant term) and ``scalar`` embeds the rationals in the ring of g.
    At p = z the two sides differ by (g^2 - 1/4)/2. By the Chinese remainder
    theorem Q[z,g]/(g^2 - 1/4) is Q[z] x Q[z] under g -> 1/2 and g -> -1/2,
    so the default checks the identity mod (g^2 - 1/4); verify also runs it
    with a rank-one Clifford gamma. The left side has z-degree deg p and the
    right side at most max(deg f, deg p), so they are compared at the
    max(deg f, deg p) + 1 points z = 0, 1, ..., whatever nabla_inverse
    returned, f(z+g) by horner over the ring of g.

    >>> twisted_identity_check(Poly.of(0, 0, 1))
    True
    >>> twisted_identity_check(Poly.of(0, 1), (Fraction(1, 3),))
    False
    """
    f = nabla_inverse(Fraction(1, 2), p)
    points = range(max(f.degree, p.degree) + 1)
    coeffs = [scalar(c) for c in f.coeffs]
    rest = [scalar(p(z) / 2 - f(z + Fraction(1, 2))) for z in points]
    return all(all(g * p(z) == fg + r for z, fg, r in
                   zip(points, horner(coeffs, [scalar(z) + g for z in points]), rest))
               for g in gammas)
