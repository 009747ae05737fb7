"""
Brute-force oracle at rank one.

At n = 1 the deformed algebra has generators t = E_11, x, y with relations
[t, x] = -x, [t, y] = y, [y, x] = p(t), where p is the density polynomial of
xi (p(z) = sum_m (m+1) xi_m z^m). The finite-dimensional module headed by a
rational lam is realized concretely on basis v_0..v_nu of t-weights
lam..lam-nu with

    x v_k = v_{k+1},   y v_k = d_k v_{k-1},
    d_0 = 0,           d_{k+1} = d_k + p(lam - k),

finite-dimensionality forcing d_{nu+1} = 0, which is exactly the membership
equation P(lam) = P(lam - nu - 1) since P is the discrete antiderivative of p
at rank one, and irreducibility forcing d_k != 0 for 1 <= k <= nu (nu + 1 is
the least root). x and y are stored as sparse rows, at most one entry
each, and t as its diagonal. The Dirac operator x (x) y_C + y (x) x_C on L (x) S is
assembled from their nonzero entries times the 2 x 2 spin matrices (computed
through the Clifford normal form), so it has at most 2 nu entries. D
preserves the weight grading, whose spaces have dimension at most 2, so the
oracle checks that no entry of D joins two distinct weights and then takes
each kernel one weight space at a time by fraction-free elimination. The
answer is a modules.Block, the package's one class list, whose one axis
(top - o, o < count) is read off the distinct weights themselves. Everything
here is independent of the closed-form selection rule in modules.py, which
is the point: the two routes must agree, as equal Blocks.

Every object is integers over one scale, for lam = a/q: the weights t are
q (lam - k); d and the y entries are over the density's scale S, with
p(w/q) = P_S(w)/S for the integer polynomial P_S that _scaled_ints gives,
evaluated once by horner at the points a - qk; D is over S as well (its x
entries enter as S); the weight labels are over 2q; and P(lam), P(mu - 1/2)
are over P's own scale, from _scaled_ints and horner again. So the oracle
never reads P through grid_numerators or line_coeffs, the closed form's
route. The D^2 law compares the scales cross-multiplied.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .clifford import CliffordElement, SpinVector, gamma_e, spin_action
from .modules import Block, nu_vector
from .polynomials import (InvariantViolation, Poly, _as_fraction, _scaled_ints, horner,
                          xi_to_density)
from .weights import Axis, CentralCharPoly, Weight

# Sparse rows: row i is {j: a_ij} over the nonzero entries a_ij only, ints or
# Fractions.
Matrix = list[dict[int, int | Fraction]]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def _over_one_scale(coeffs: Sequence[Fraction], v: int) -> tuple[int, list[int]]:
    """(S, ints) with sum_i ints[i] w^i = S p(w / v) for p(z) = sum coeffs[i]
    z^i: _scaled_ints's D v^d as the one scale of p's values at w / v."""
    den, ints = _scaled_ints(coeffs, v)
    return den * v ** max(len(ints) - 1, 0), ints


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for row in a:
        acc: dict = {}
        for k, c in row.items():
            for j, v in b[k].items():
                acc[j] = acc.get(j, 0) + c * v
        out.append({j: v for j, v in acc.items() if v})
    return out


def mat_rank(a: Matrix) -> int:
    """Fraction-free elimination, exact on ints and on Fractions: each row in
    turn is reduced by the pivot rows kept so far at its leading column, as
    row * pivot - factor * pivot row, with no division, until it is zero or
    leads in a new column, where it becomes a pivot row."""
    pivots: dict[int, dict] = {}
    for row in a:
        row = dict(row)
        while row and (col := min(row)) in pivots:
            pivot = pivots[col]
            f, g = row[col], pivot[col]
            row = {j: v * g for j, v in row.items()}
            for j, v in pivot.items():
                row[j] = row.get(j, 0) - f * v
                if not row[j]:
                    del row[j]
        if row:
            pivots[col] = row
    return len(pivots)


@dataclass
class RankOneModule:
    """The module headed by lam = a/q, each object over one scale: the
    weights lam - k are t[k] / q, x has entries 1, and d_k and the y entries
    are d[k] / scale and y[k][k + 1] / scale, all ints."""

    xi: Poly
    P: CentralCharPoly
    lam: Fraction
    nu: int
    t: list[int]
    x: Matrix
    y: Matrix
    d: list[int]
    scale: int


def build_module(xi: Poly, lam) -> RankOneModule:
    """Construct the module headed by lam, rejecting lam outside the
    classification; checks the closing condition d_{nu+1} = 0 and that nu
    is the least such index: d_k != 0 for 1 <= k <= nu, so y kills no v_k
    inside the box and the module is irreducible. The density is scaled to
    integers once and evaluated in one horner call at the points q t_k."""
    lam = _as_fraction(lam)
    P = CentralCharPoly.from_xi(xi, 1)
    nu = nu_vector(P, Weight.of(lam))[0]

    scale, p = _over_one_scale(xi_to_density(xi, 1).coeffs, lam.denominator)
    size = nu + 1
    t = [lam.numerator - lam.denominator * k for k in range(size)]
    d = list(accumulate(horner(p, t), initial=0))
    _require(d[size] == 0, "membership and the recurrence disagree")
    _require(all(d[1:size]), f"y kills some v_k with 1 <= k <= nu = {nu}: "
             "nu is not the least root, and the module is reducible")

    x = [{k - 1: 1} if k else {} for k in range(size)]
    y = [{k + 1: d[k + 1]} if k < nu else {} for k in range(size)]
    return RankOneModule(xi=xi, P=P, lam=lam, nu=nu, t=t, x=x, y=y, d=d, scale=scale)


def _spin_matrix(c: CliffordElement) -> Matrix:
    """Matrix of left multiplication on the 2-dimensional spin basis
    [u, x_1 u]."""
    basis = [(), (1,)]
    images = [spin_action(c, SpinVector.basis(e), 1).terms for e in basis]
    return [{j: img[b] for j, img in enumerate(images) if img.get(b)} for b in basis]


def dirac_matrix(module: RankOneModule) -> Matrix:
    """The Dirac element x (x) y_C + y (x) x_C on L (x) S times module.scale,
    in integers, basis ordered v_0 u, v_0 x_1 u, v_1 u, ...: each nonzero
    entry of x (times the scale) or of y times its 2 x 2 spin matrix, one row
    per basis vector."""
    out: Matrix = [{} for _ in range(2 * (module.nu + 1))]
    for a, gen, scale in ((module.x, ("y", 1), module.scale), (module.y, ("x", 1), 1)):
        spin = _spin_matrix(CliffordElement.vector(gen))
        for i, row in enumerate(a):
            for j, c in row.items():
                for si, spin_row in enumerate(spin):
                    target = out[2 * i + si]
                    for sj, s in spin_row.items():
                        target[2 * j + sj] = target.get(2 * j + sj, 0) + scale * c * s
    return out


def weight_labels(module: RankOneModule) -> list[int]:
    """2q times the eigenvalue of t (x) 1 + 1 (x) gamma(E_11) on each basis
    vector, for lam = a/q: gamma(E_11) must act on [u, x_1 u] by halves."""
    g = _spin_matrix(gamma_e(1, 1, 1))
    spin = [2 * module.lam.denominator * g[s].get(s, 0) for s in range(2)]
    _require(all(c.denominator == 1 for c in spin), "gamma(E_11) has a weight outside Z/2")
    return [2 * w + int(c) for w in module.t for c in spin]


def oracle_cohomology(xi: Poly, lam) -> Block:
    """
    Dirac cohomology computed from matrices alone. The distinct weights, in
    the order of the basis, must be one axis, top - o for o < count, which is
    the Block's one axis; it is read off the labels, not off a Box. Assemble
    D, check that there is one label per basis vector, and that none of D's
    entries joins two basis vectors of distinct weights. Then, in each weight
    space mu (of dimension at most 2), D's block D_mu must have
    ker D_mu = ker D_mu^2 meeting im D_mu trivially, which for a square block
    is rank D_mu = rank D_mu^2 (rank-nullity), so the block and its square are
    ranked once each; and D_mu^2 must be the scalar 2 P(lam) - 2 P(mu - 1/2).
    The cohomology is ker D^2: a class's multiplicity is its weight space's
    dimension where D^2 vanishes on that space and 0 elsewhere, and the
    Block's dimension must be the sum of the blocks' nullities. All of it
    runs on ints, each object over its one scale.
    """
    module = build_module(xi, lam)
    d = dirac_matrix(module)
    labels = weight_labels(module)
    q = module.lam.denominator
    groups: dict[int, list[int]] = {}
    for idx, mu in enumerate(labels):
        groups.setdefault(mu, []).append(idx)
    axis = Axis(Fraction(labels[0], 2 * q), len(groups))
    _require(list(groups) == axis.scaled(2 * q),
             "the weights are not one axis top - o, o < count")
    _require(len(labels) == len(d), "not one weight label per row of D")
    for i, row in enumerate(d):
        _require(all(labels[i] == labels[j] for j in row), "D mixes distinct weights")

    # At rank one rho = 0 and h_k(x) = x^k, so P is the polynomial with
    # coefficients h_coeffs: over labels' scale 2q, lam is 2a and mu - 1/2
    # is mu - q, all taken in one call and over P's one scale.
    p_scale, p = _over_one_scale(module.P.h_coeffs, 2 * q)
    p_lam, *p_shifted = horner(p, [2 * module.lam.numerator, *(mu - q for mu in groups)])
    d_scale = module.scale ** 2

    multiplicities = []
    kernel = 0
    for (mu, idxs), p_mu in zip(groups.items(), p_shifted):
        position = {j: a for a, j in enumerate(idxs)}
        block = [{position[j]: c for j, c in d[i].items()} for i in idxs]
        square = mat_mul(block, block)
        rank_square = mat_rank(square)
        _require(mat_rank(block) == rank_square,
                 "rank D != rank D^2: ker D must equal ker D^2 and meet im D trivially")
        expected = 2 * (p_lam - p_mu)
        scalar = [{a: expected * d_scale} if expected else {} for a in range(len(idxs))]
        _require([{j: c * p_scale for j, c in row.items()} for row in square] == scalar,
                 "D^2 is not the expected scalar on a weight block")
        kernel += len(idxs) - rank_square
        multiplicities.append(0 if expected else len(idxs))
    out = Block([axis], multiplicities)
    _require(out.dimension() == kernel, "cohomology dimension is not the nullity of D^2")
    return out
