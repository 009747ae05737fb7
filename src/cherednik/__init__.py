"""
Exact computations with infinitesimal Cherednik algebras of gl_n.

Given a deformation polynomial xi (or the derived polynomial w, or the
central character polynomial P directly), this package classifies the
finite-dimensional irreducible modules, computes their gl_n decompositions
and Dirac cohomology, and machine-verifies the algebraic identities the
construction rests on (PBW/Jacobi certificates, Clifford and spin lemmas,
and a rank-one matrix oracle). All arithmetic is exact: the rewriting core,
the r_m series and the nabla calculus compute in Python ints inside, and
results are Fractions at their outputs.
"""
from .polynomials import (
    InvariantViolation,
    Poly,
    bernoulli,
    least_positive_integer_root,
    nabla,
    nabla_inverse,
    twisted_identity_check,
    xi_to_density,
    xi_to_density_sum,
    xi_to_w,
)
from .weights import (
    CentralCharPoly,
    Weight,
    complete_homogeneous,
    is_dominant,
    rho,
    weyl_dim,
    weyl_dim_formal,
)
from .modules import (
    Box,
    NotInClassificationError,
    dirac_cohomology,
    guaranteed_classes,
    membership_detail,
    nu_vector,
)
from .enveloping import (
    KappaMap,
    UEAElement,
    act_on_v,
    coproduct,
    h_linearity_check,
    higher_jacobi_checks,
    jacobi_check,
    kappa_of,
    r_matrix,
)
from .clifford import (
    CliffordElement,
    SpinVector,
    gamma_e,
    gamma_lie_hom_check,
    gamma_rank_one,
    spin_action,
    spin_weights,
)
from .rank_one import RankOneModule, build_module, dirac_matrix, oracle_cohomology

__all__ = [
    "InvariantViolation", "Poly", "bernoulli", "least_positive_integer_root", "nabla", "nabla_inverse",
    "twisted_identity_check", "xi_to_density", "xi_to_density_sum", "xi_to_w",
    "CentralCharPoly", "Weight", "complete_homogeneous", "is_dominant", "rho",
    "weyl_dim", "weyl_dim_formal",
    "Box", "NotInClassificationError",
    "dirac_cohomology", "guaranteed_classes", "membership_detail", "nu_vector",
    "KappaMap", "UEAElement", "act_on_v", "coproduct", "h_linearity_check",
    "higher_jacobi_checks", "jacobi_check", "kappa_of", "r_matrix",
    "CliffordElement", "SpinVector", "gamma_e",
    "gamma_lie_hom_check", "gamma_rank_one", "spin_action", "spin_weights",
    "RankOneModule", "build_module", "dirac_matrix", "oracle_cohomology",
]
