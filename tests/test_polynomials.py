"""Polynomial calculus: Bernoulli, step differences, the xi -> w ladder."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherednik.polynomials import (
    Poly,
    TwistedPoly,
    bernoulli,
    compose_z_plus_gamma,
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
    for n in (1, 2, 3):
        for _ in range(30):
            xi = Poly.of(*(F(rng.randint(-9, 9), rng.randint(1, 3))
                           for _ in range(rng.randint(1, 5))))
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


@pytest.mark.parametrize("k", range(9))
def test_twisted_identity_on_monomials(k):
    assert twisted_identity_check(Poly.of(*([0] * k + [1])))


def test_twisted_identity_zero_polynomial():
    assert twisted_identity_check(Poly.zero())


def test_twisted_poly_ring_laws():
    rng = random.Random(17)

    def rand_twisted():
        return TwistedPoly(
            Poly.of(*(F(rng.randint(-4, 4)) for _ in range(rng.randint(0, 6)))),
            Poly.of(*(F(rng.randint(-4, 4)) for _ in range(rng.randint(0, 6)))))

    for _ in range(40):
        a, b, c = rand_twisted(), rand_twisted(), rand_twisted()
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a * b - b * a).is_zero()


def test_compose_z_plus_gamma_square():
    got = compose_z_plus_gamma(Poly.of(0, 0, 1))
    assert got == TwistedPoly(Poly.of(F(1, 4), 0, 1), Poly.of(0, 2))
