"""Polynomial calculus: Bernoulli, step differences, the xi -> w ladder."""
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import cherednik.polynomials as polynomials
from cherednik.polynomials import (
    Poly,
    bernoulli,
    half_step_transform,
    nabla,
    nabla_inverse,
    twisted_identity_check,
    xi_to_density,
    xi_to_density_sum,
    xi_to_w,
)

F = Fraction


def series_bernoulli(k: int) -> Poly:
    """Independent oracle: B_k(z) as k! times the t^k coefficient of
    t e^{tz} / (e^t - 1), expanded as a truncated power series in t over
    Q[z]. Inverts (e^t - 1)/t = sum t^j/(j+1)! by the standard recurrence."""
    fact = [1]
    for i in range(1, k + 2):
        fact.append(fact[-1] * i)
    # g = (e^t - 1)/t has g_j = 1/(j+1)!; h is its reciprocal series
    g = [F(1, fact[j + 1]) for j in range(k + 1)]
    h = [F(1)]
    for m in range(1, k + 1):
        h.append(-sum(g[i] * h[m - i] for i in range(1, m + 1)) / g[0])
    # e^{tz}: t^j coefficient is z^j / j!
    exp_tz = [Poly.of(*([0] * j + [F(1, fact[j])])) for j in range(k + 1)]
    coeff = Poly.zero()
    for j in range(k + 1):
        coeff = coeff + exp_tz[j] * h[k - j]
    return coeff * fact[k]


@pytest.mark.parametrize("k", range(7))
def test_bernoulli_matches_series_oracle(k):
    assert bernoulli(k) == series_bernoulli(k)


def test_bernoulli_small_values():
    assert bernoulli(0) == Poly.of(1)
    assert bernoulli(1) == Poly.of(F(-1, 2), 1)
    assert bernoulli(2) == Poly.of(F(1, 6), -1, 1)
    assert bernoulli(5).degree == 5


@pytest.mark.parametrize("k", range(13))
def test_bernoulli_forward_difference(k):
    expected = Poly.of(*([0] * (k - 1) + [k])) if k >= 1 else Poly.zero()
    assert nabla(1, bernoulli(k)) == expected


def horner_shift(p: Poly, c) -> Poly:
    """Reference Taylor shift: Horner's scheme over Poly arithmetic."""
    result = Poly.zero()
    for a in reversed(p.coeffs):
        result = result * Poly.of(c, 1) + a
    return result


RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(RATIONALS, max_size=16).map(lambda cs: Poly.of(*cs)), RATIONALS)
def test_shift_matches_horner_reference(p, c):
    assert p.shift(c) == horner_shift(p, c)


@pytest.mark.parametrize("c", [F(0), F(3), F(-5), F(2, 7), F(-9, 4), 1, -2])
def test_shift_edge_cases(c):
    assert Poly.zero().shift(c).is_zero()
    assert Poly.of(F(-3, 8)).shift(c) == Poly.of(F(-3, 8))
    high = Poly.of(*(F((-1) ** k * (k + 1), k % 5 + 1) for k in range(14)))
    assert high.degree == 13
    got = high.shift(c)
    assert got == horner_shift(high, c)
    assert got.shift(-F(c)) == high
    assert all(type(a) is Fraction for a in got.coeffs)


def fraction_nabla(eps, f: Poly) -> Poly:
    """Reference step difference over Fractions: two Horner shifts."""
    return horner_shift(f, eps) - horner_shift(f, eps - 1)


def fraction_nabla_inverse(eps, p: Poly) -> Poly:
    """Reference inverse over Fractions: one table of Bernoulli numbers,
    sum_i p_i/(i+1) B_{i+1}, one Horner shift by 1 - eps, constant dropped."""
    nums = [bernoulli(j).coeff(0) for j in range(len(p.coeffs) + 1)]
    out = [F(0)] * (len(p.coeffs) + 1)
    for i, c in enumerate(p.coeffs):
        for j in range(i + 2):
            out[i + 1 - j] += c / (i + 1) * comb(i + 1, j) * nums[j]
    return horner_shift(Poly.of(*out), 1 - eps).with_constant_zero()


STEPS = st.one_of(st.sampled_from([F(0), F(1, 2), F(1), F(-3, 7)]), RATIONALS)


def assert_integer_nabla_is_the_fraction_reference(eps, p):
    for got, want in ((nabla(eps, p), fraction_nabla(eps, p)),
                      (nabla_inverse(eps, p), fraction_nabla_inverse(eps, p))):
        assert got == want
        assert all(type(a) is Fraction for a in got.coeffs)


@settings(max_examples=150, deadline=None)
@given(STEPS, st.lists(RATIONALS, max_size=13).map(lambda cs: Poly.of(*cs)))
def test_integer_nabla_is_the_fraction_reference(eps, p):
    assert_integer_nabla_is_the_fraction_reference(eps, p)


@pytest.mark.parametrize("eps", [F(0), F(1, 2), F(1), F(-3, 7), F(25, 12)])
def test_integer_nabla_near_degree_forty(eps):
    rng = random.Random(str(eps))
    p = Poly.of(*(F(rng.randint(-50, 50), rng.randint(1, 12))
                  for _ in range(rng.randint(38, 42))), 1)
    assert_integer_nabla_is_the_fraction_reference(eps, p)


def test_nabla_inverse_matches_bernoulli_sum():
    # the one-table construction against the per-coefficient Bernoulli sum
    rng = random.Random(4)
    for eps in (F(0), F(1, 2), F(-3, 7)):
        for _ in range(20):
            p = Poly.of(*(F(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(rng.randint(0, 13))))
            want = Poly.zero()
            for i, c in enumerate(p.coeffs):
                want = want + horner_shift(bernoulli(i + 1), 1 - eps) * F(c, i + 1)
            assert nabla_inverse(eps, p) == want.with_constant_zero()


def test_nabla_basics():
    assert nabla(F(1, 2), Poly.of(0, 0, 1)) == Poly.of(0, 2)
    assert nabla(F(7, 3), Poly.of(42)).is_zero()
    # degree drops by exactly one on nonconstant input
    rng = random.Random(1)
    for _ in range(30):
        p = Poly.of(*[F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 7))], 1)
        assert nabla(F(rng.randint(-3, 3), 2), p).degree == p.degree - 1


def test_nabla_inverse_examples():
    assert nabla_inverse(0, Poly.of(1)) == Poly.x()
    assert nabla_inverse(F(1, 2), Poly.of(0, 2)) == Poly.of(0, 0, 1)


@pytest.mark.parametrize("eps", [F(0), F(1, 2), F(1), F(-3, 7)])
def test_nabla_inverse_round_trip(eps):
    rng = random.Random(int(eps * 14) + 5)
    for _ in range(100):
        p = Poly.of(*(F(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(rng.randint(1, 11))))
        f = nabla_inverse(eps, p)
        assert nabla(eps, f) == p
        assert f.coeff(0) == 0


def test_density_examples():
    assert xi_to_density(Poly.of(1), 1) == Poly.of(1)
    assert xi_to_density(Poly.of(0, 1), 1) == Poly.of(0, 2)
    assert xi_to_density(Poly.of(1), 2) == Poly.of(2)


def test_density_sum_examples():
    assert xi_to_density_sum(Poly.of(1), 1) == Poly.x()
    assert xi_to_density_sum(Poly.zero(), 3).is_zero()
    assert xi_to_density_sum(Poly.of(0, 1), 1) == Poly.of(0, 1, 1)


def test_density_sum_defining_equation():
    rng = random.Random(9)
    for _ in range(25):
        xi = Poly.of(*(F(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))))
        n = rng.randint(1, 3)
        g = xi_to_density_sum(xi, n)
        assert nabla(0, g) == xi_to_density(xi, n)
        assert g.coeff(0) == 0


def test_w_examples():
    assert xi_to_w(Poly.of(5), 1) == Poly.of(0, 5)
    assert xi_to_w(Poly.of(0, 3), 1) == Poly.of(0, 3, 3)
    assert xi_to_w(Poly.zero(), 2).is_zero()
    # rank 3, xi = z: solved by hand from the triangular system
    assert xi_to_w(Poly.of(0, 1), 3) == Poly.of(0, 2, 1)


def test_w_degree_and_defining_equation():
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(30):
            xi = Poly.of(*(F(rng.randint(-9, 9), rng.randint(1, 3))
                           for _ in range(rng.randint(1, 9))))
            w = xi_to_w(xi, n)
            if xi.is_zero():
                assert w.is_zero()
                continue
            assert w.degree == xi.degree + 1
            assert w.coeff(0) == 0
            assert half_step_transform(w, n) == xi_to_density(xi, n).shift(F(1, 2))


def test_w_and_density_sum_differ_by_constant_under_half_steps():
    # applying the half-step ladder n-1 times to z^(n-1) w reproduces the
    # density sum up to its (normalized-away) constant term
    rng = random.Random(13)
    for n in (1, 2, 3):
        for _ in range(10):
            xi = Poly.of(*(F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))))
            w = xi_to_w(xi, n)
            lifted = Poly.of(*([0] * (n - 1) + list(w.coeffs)))
            for _ in range(n - 1):
                lifted = nabla(F(1, 2), lifted)
            diff = lifted - xi_to_density_sum(xi, n)
            assert diff.degree <= 0




def test_twisted_identity_zero_polynomial():
    assert twisted_identity_check(Poly.zero())


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_xi_to_w_postcondition_survives_optimized_python(flags):
    # nabla_inverse off by z: xi_to_w must raise even when python -O strips
    # assert statements.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys\n"
            "import cherednik.polynomials as polynomials\n"
            "from cherednik.polynomials import InvariantViolation, Poly\n"
            "assert sys.flags.optimize == int(sys.argv[1])\n"
            "base = polynomials.nabla_inverse\n"
            "polynomials.nabla_inverse = lambda eps, p: base(eps, p) + Poly.x()\n"
            "try:\n"
            "    polynomials.xi_to_w(Poly.of(1, 2, 3), 2)\n"
            "    sys.exit(5)\n"
            "except InvariantViolation as exc:\n"
            "    sys.exit(3 if 'half-step transform of w' in str(exc) else 6)\n")
    res = subprocess.run([sys.executable, *flags, "-c", code, str(len(flags))],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert res.returncode == 3, res.stderr


Z, G = sympy.symbols("z g")


def _sympy_poly(p: Poly):
    return sum((sympy.Rational(c.numerator, c.denominator) * Z ** k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


def _sympy_twisted_residual(p: Poly, f: Poly):
    """p*g - f(z+g) - p/2 + f(z+1/2), reduced mod g^2 - 1/4 by sympy."""
    half = sympy.Rational(1, 2)
    sp, sf = _sympy_poly(p), _sympy_poly(f)
    expr = sp * G - sf.subs(Z, Z + G) - sp * half + sf.subs(Z, Z + half)
    return sympy.expand(sympy.rem(sympy.expand(expr), G ** 2 - sympy.Rational(1, 4), G))


@pytest.mark.parametrize("k", range(13))
def test_twisted_identity_on_monomials(k):
    p = Poly.of(*([0] * k + [1]))
    assert twisted_identity_check(p)
    assert _sympy_twisted_residual(p, nabla_inverse(F(1, 2), p)) == 0


@pytest.mark.parametrize("k, j", [(0, 1), (3, 1), (4, 2), (7, 5), (12, 3)])
def test_twisted_identity_fails_for_a_perturbed_antidifference(monkeypatch, k, j):
    p = Poly.of(*([0] * k + [1]))
    bump = Poly.of(*([0] * j + [1]))
    assert _sympy_twisted_residual(p, nabla_inverse(F(1, 2), p) + bump) != 0
    base = polynomials.nabla_inverse
    monkeypatch.setattr(polynomials, "nabla_inverse", lambda eps, q: base(eps, q) + bump)
    assert not twisted_identity_check(p)


@settings(max_examples=60, deadline=None)
@given(st.lists(RATIONALS, max_size=9).map(lambda cs: Poly.of(*cs)),
       st.lists(RATIONALS, max_size=9).map(lambda cs: Poly.of(*cs)))
def test_twisted_identity_check_agrees_with_sympy(p, bump):
    # With f = nabla_inverse(1/2, p) + bump, the check passes exactly when the
    # sympy residual mod g^2 - 1/4 is zero: the residual is bump(z + 1/2) -
    # bump(z + g), zero exactly for a constant bump.
    base = polynomials.nabla_inverse
    want = _sympy_twisted_residual(p, base(F(1, 2), p) + bump) == 0
    assert want == (bump.degree < 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomials, "nabla_inverse", lambda eps, q: base(eps, q) + bump)
        assert twisted_identity_check(p) == want
    assert twisted_identity_check(p)


@pytest.mark.parametrize("f", [Poly.zero(), Poly.of(F(3, 7))], ids=["zero", "constant"])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_twisted_identity_fails_for_an_antidifference_of_too_low_degree(monkeypatch, f, k):
    # The points compared must be bounded by p as well as by f: a zero or
    # constant f leaves too few points of its own to see the difference.
    p = Poly.of(*([0] * k + [1]))
    assert _sympy_twisted_residual(p, f) != 0
    monkeypatch.setattr(polynomials, "nabla_inverse", lambda eps, q: f)
    assert not twisted_identity_check(p)


@settings(max_examples=60, deadline=None)
@given(st.lists(RATIONALS, max_size=9).map(lambda cs: Poly.of(*cs)),
       st.lists(RATIONALS, max_size=9).map(lambda cs: Poly.of(*cs)))
def test_twisted_identity_check_agrees_with_sympy_for_any_antidifference(p, f):
    # f replaces nabla_inverse's answer outright, so its degree may be below p's
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomials, "nabla_inverse", lambda eps, q: f)
        assert twisted_identity_check(p) == (_sympy_twisted_residual(p, f) == 0)


def test_twisted_identity_fails_where_g_squared_is_not_a_quarter():
    # at p = z the two sides differ by (g^2 - 1/4)/2
    z = Poly.x()
    assert twisted_identity_check(z, (F(1, 2),)) and twisted_identity_check(z, (F(-1, 2),))
    assert not twisted_identity_check(z, (F(1, 3),))
    assert not twisted_identity_check(z, (F(1, 2), F(1, 3)))


def test_poly_of_rejects_a_bool():
    with pytest.raises(TypeError, match="expected an exact rational, got bool"):
        Poly.of(True)
    assert Poly.of(1) == Poly.of(F(1))


@settings(max_examples=100, deadline=None)
@given(st.lists(RATIONALS, max_size=10).map(lambda cs: Poly.of(*cs)),
       st.integers(min_value=1, max_value=7))
def test_density_is_nth_derivative_of_z_n_xi(xi, n):
    f = Poly.of(*([0] * n + list(xi.coeffs)))
    for _ in range(n):
        f = f.derivative()
    assert xi_to_density(xi, n) == f
