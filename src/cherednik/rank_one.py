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
each kernel one weight space at a time by exact Gaussian elimination. The
answer is a modules.Block, the package's one class list, whose one axis
(top - o, o < count) is read off the distinct weights themselves. Everything
here is independent of the closed-form selection rule in modules.py, which
is the point: the two routes must agree, as equal Blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import CliffordElement, SpinVector, gamma_e, spin_action
from .modules import Block, nu_vector
from .polynomials import InvariantViolation, Poly, _as_fraction, horner, xi_to_density
from .weights import Axis, CentralCharPoly, Weight

# Sparse rows: row i is {j: a_ij} over the nonzero entries a_ij only.
Matrix = list[dict[int, Fraction]]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for row in a:
        acc: dict[int, Fraction] = {}
        for k, c in row.items():
            for j, v in b[k].items():
                acc[j] = acc.get(j, 0) + c * v
        out.append({j: v for j, v in acc.items() if v})
    return out


def mat_rank(a: Matrix) -> int:
    """Exact elimination: each row in turn is reduced by the pivot rows kept
    so far, at its leading column, until it is zero or leads in a new
    column, where it becomes a pivot row."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in a:
        row = dict(row)
        while row and (col := min(row)) in pivots:
            f = row[col] / pivots[col][col]
            for j, v in pivots[col].items():
                row[j] = row.get(j, 0) - f * v
                if not row[j]:
                    del row[j]
        if row:
            pivots[col] = row
    return len(pivots)


@dataclass
class RankOneModule:
    xi: Poly
    P: CentralCharPoly
    lam: Fraction
    nu: int
    t: list[Fraction]
    x: Matrix
    y: Matrix
    d: list[Fraction]


def build_module(xi: Poly, lam) -> RankOneModule:
    """Construct the module headed by lam, rejecting lam outside the
    classification; checks the closing condition d_{nu+1} = 0 and that nu
    is the least such index: d_k != 0 for 1 <= k <= nu, so y kills no v_k
    inside the box and the module is irreducible. t is stored as its
    diagonal, the weights lam - k."""
    lam = _as_fraction(lam)
    P = CentralCharPoly.from_xi(xi, 1)
    nu = nu_vector(P, Weight.of(lam))[0]

    p = xi_to_density(xi, 1)
    size = nu + 1
    d = [Fraction(0)]
    for k in range(size):
        d.append(d[k] + p(lam - k))
    _require(d[size] == 0, "membership and the recurrence disagree")
    _require(all(d[1:size]), f"y kills some v_k with 1 <= k <= nu = {nu}: "
             "nu is not the least root, and the module is reducible")

    x = [{k - 1: Fraction(1)} if k else {} for k in range(size)]
    y = [{k + 1: d[k + 1]} if k < nu else {} for k in range(size)]
    return RankOneModule(xi=xi, P=P, lam=lam, nu=nu, t=[lam - k for k in range(size)],
                         x=x, y=y, d=d)


def _spin_matrix(c: CliffordElement) -> Matrix:
    """Matrix of left multiplication on the 2-dimensional spin basis
    [u, x_1 u]."""
    basis = [(), (1,)]
    images = [spin_action(c, SpinVector.basis(e), 1).terms for e in basis]
    return [{j: img[b] for j, img in enumerate(images) if img.get(b)} for b in basis]


def dirac_matrix(module: RankOneModule) -> Matrix:
    """The Dirac element x (x) y_C + y (x) x_C on L (x) S, basis ordered
    v_0 u, v_0 x_1 u, v_1 u, ...: each nonzero entry of x or y times its
    2 x 2 spin matrix, one row per basis vector."""
    out: Matrix = [{} for _ in range(2 * (module.nu + 1))]
    for a, gen in ((module.x, ("y", 1)), (module.y, ("x", 1))):
        spin = _spin_matrix(CliffordElement.vector(gen))
        for i, row in enumerate(a):
            for j, c in row.items():
                for si, spin_row in enumerate(spin):
                    target = out[2 * i + si]
                    for sj, s in spin_row.items():
                        target[2 * j + sj] = target.get(2 * j + sj, 0) + c * s
    return out


def weight_labels(module: RankOneModule) -> list[Fraction]:
    """Eigenvalue of t (x) 1 + 1 (x) gamma(E_11) on each basis vector."""
    g = _spin_matrix(gamma_e(1, 1, 1))
    return [w + g[s].get(s, 0) for w in module.t for s in range(2)]


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
    Block's dimension must be the sum of the blocks' nullities.
    """
    module = build_module(xi, lam)
    d = dirac_matrix(module)
    labels = weight_labels(module)
    groups: dict[Fraction, list[int]] = {}
    for idx, mu in enumerate(labels):
        groups.setdefault(mu, []).append(idx)
    axis = Axis(labels[0], len(groups))
    _require(list(groups) == axis.values(),
             "the weights are not one axis top - o, o < count")
    _require(len(labels) == len(d), "not one weight label per row of D")
    for i, row in enumerate(d):
        _require(all(labels[i] == labels[j] for j in row), "D mixes distinct weights")

    # At rank one rho = 0 and h_k(x) = x^k, so P is the polynomial with
    # coefficients h_coeffs, taken at lam and at every mu - 1/2 in one call.
    half = Fraction(1, 2)
    p_lam, *p_shifted = horner(module.P.h_coeffs, [module.lam, *(mu - half for mu in groups)])

    multiplicities = []
    kernel = 0
    for (mu, idxs), p_mu in zip(groups.items(), p_shifted):
        position = {j: a for a, j in enumerate(idxs)}
        block = [{position[j]: c for j, c in d[i].items()} for i in idxs]
        square = mat_mul(block, block)
        rank_square = mat_rank(square)
        _require(mat_rank(block) == rank_square,
                 "rank D != rank D^2: ker D must equal ker D^2 and meet im D trivially")
        expected = 2 * p_lam - 2 * p_mu
        scalar = [{a: expected} if expected else {} for a in range(len(idxs))]
        _require(square == scalar, "D^2 is not the expected scalar on a weight block")
        kernel += len(idxs) - rank_square
        multiplicities.append(0 if expected else len(idxs))
    out = Block([axis], multiplicities)
    _require(out.dimension() == kernel, "cohomology dimension is not the nullity of D^2")
    return out
