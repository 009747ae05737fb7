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
the least root). The Dirac operator x (x) y_C + y (x) x_C is assembled as an
explicit matrix on L (x) S (spin factors computed through the Clifford normal
form). D preserves the weight grading, whose spaces have dimension at most 2,
so the oracle checks that D joins no two distinct weights and then takes each
kernel one weight space at a time by exact Gaussian elimination. Everything
here is independent of the closed-form selection rule in modules.py, which is the
point: the two routes must agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import CliffordElement, SpinVector, gamma_e, spin_action
from .modules import ModuleDecomposition, nu_vector
from .polynomials import InvariantViolation, Poly, xi_to_density
from .weights import CentralCharPoly, Weight

Matrix = list[list[Fraction]]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantViolation(message)


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                for j in range(cols):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def mat_rank(a: Matrix) -> int:
    m = [row[:] for row in a]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


@dataclass
class RankOneModule:
    xi: Poly
    P: CentralCharPoly
    lam: Fraction
    nu: int
    t: Matrix
    x: Matrix
    y: Matrix
    d: list[Fraction]


def build_module(xi: Poly, lam) -> RankOneModule:
    """Construct the module headed by lam, rejecting lam outside the
    classification; checks the closing condition d_{nu+1} = 0 and that nu
    is the least such index: d_k != 0 for 1 <= k <= nu, so y kills no v_k
    inside the box and the module is irreducible."""
    lam = Fraction(lam)
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

    t = zeros(size, size)
    x = zeros(size, size)
    y = zeros(size, size)
    for k in range(size):
        t[k][k] = lam - k
        if k + 1 < size:
            x[k + 1][k] = Fraction(1)
        if k - 1 >= 0:
            y[k - 1][k] = d[k]
    return RankOneModule(xi=xi, P=P, lam=lam, nu=nu, t=t, x=x, y=y, d=d[:size + 1])


def _spin_matrix(c: CliffordElement) -> Matrix:
    """Matrix of left multiplication on the 2-dimensional spin basis
    [u, x_1 u]."""
    basis = [(), (1,)]
    cols = []
    for e in basis:
        img = spin_action(c, SpinVector.basis(e), 1)
        cols.append([img.terms.get(b, Fraction(0)) for b in basis])
    return [[cols[j][i] for j in range(2)] for i in range(2)]


def dirac_matrix(module: RankOneModule) -> Matrix:
    """The Dirac element x (x) y_C + y (x) x_C on L (x) S, basis ordered
    v_0 u, v_0 x_1 u, v_1 u, ...: each nonzero entry of x or y times its
    2 x 2 spin matrix."""
    size = module.nu + 1
    out = zeros(2 * size, 2 * size)
    for a, gen in ((module.x, ("y", 1)), (module.y, ("x", 1))):
        spin = _spin_matrix(CliffordElement.vector(gen))
        for i in range(size):
            for j in range(size):
                if a[i][j]:
                    for si in range(2):
                        for sj in range(2):
                            out[2 * i + si][2 * j + sj] += a[i][j] * spin[si][sj]
    return out


def weight_labels(module: RankOneModule) -> list[Fraction]:
    """Eigenvalue of t (x) 1 + 1 (x) gamma(E_11) on each basis vector."""
    g = _spin_matrix(gamma_e(1, 1, 1))
    labels = []
    for k in range(module.nu + 1):
        for s in range(2):
            labels.append(module.t[k][k] + g[s][s])
    return labels


def oracle_cohomology(xi: Poly, lam) -> ModuleDecomposition:
    """
    Dirac cohomology computed from matrices alone. Assemble D and check that
    it joins no two basis vectors of distinct weights. Then, in each weight
    space mu (of dimension at most 2), D's block D_mu must have
    ker D_mu = ker D_mu^2 meeting im D_mu trivially, which for a square block
    is rank D_mu = rank D_mu^2 (rank-nullity), so the block and its square are
    ranked once each; and D_mu^2 must be the scalar 2 P(lam) - 2 P(mu - 1/2).
    The cohomology is ker D^2, whose dimension is the sum of the blocks'
    nullities.
    """
    module = build_module(xi, lam)
    d = dirac_matrix(module)
    labels = weight_labels(module)
    for i, row in enumerate(d):
        _require(all(labels[i] == labels[j] for j, c in enumerate(row) if c),
                 "D mixes distinct weights")

    P = module.P
    p_lam = P.value(Weight.of(module.lam))
    groups: dict[Fraction, list[int]] = {}
    for idx, mu in enumerate(labels):
        groups.setdefault(mu, []).append(idx)

    out = ModuleDecomposition(rank=1)
    kernel = 0
    for mu, idxs in groups.items():
        block = [[d[i][j] for j in idxs] for i in idxs]
        square = mat_mul(block, block)
        rank_square = mat_rank(square)
        _require(mat_rank(block) == rank_square,
                 "rank D != rank D^2: ker D must equal ker D^2 and meet im D trivially")
        expected = 2 * p_lam - 2 * P.value(Weight.of(mu - Fraction(1, 2)))
        scalar = [[expected if i == j else 0 for j in idxs] for i in idxs]
        _require(square == scalar, "D^2 is not the expected scalar on a weight block")
        kernel += len(idxs) - rank_square
        if expected == 0:
            out.add(Weight.of(mu), len(idxs))
    _require(out.total_dimension() == kernel, "cohomology dimension is not the nullity of D^2")
    return out
