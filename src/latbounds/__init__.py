"""Certified lattice sums and the inequalities they witness.

The package has three layers:

* geometry — :mod:`.lattice` (bases, duals, LLL) and :mod:`.enumeration`
  (points in balls, shortest vectors, covering radii), all with explicit
  node budgets;
* analysis — :mod:`.functions` (the decaying test-function families and
  their transforms), :mod:`.transform` (certified 1-d numeric transforms),
  and :mod:`.bounds` (closed-form tail coefficients, transference and
  handshake bounds);
* verification — :mod:`.verify` turns the above into certified sums with
  remainder intervals and PASS / FAIL / INCONCLUSIVE verdicts, and
  :mod:`.cli` drives it from manifests.

Every reported verdict is backed by interval arithmetic: sums carry
rigorous truncation remainders and comparisons are made pessimistically,
so a PASS never rests on an uncertified digit.
"""

from .bounds import (L1TransferenceBound, NuBound, cosh_nu_bound, cstar,
                     gaussian_nu_closed_form, handshake_bound, kalpha_radius,
                     mu_norm, supergaussian_mu_closed_form,
                     transference_bound_l1, transference_bound_l2)
from .enumeration import (BodySpec, covering_radius_estimate,
                          enumerate_arrays, shortest_vector)
from .errors import (BudgetExceededError, IllConditionedBasisError,
                     InvariantError, LatticeError, MissingTableError,
                     ToleranceUnreachedError)
from .functions import (FAMILIES, TestFunctionSpec, check_hypotheses, eval_f,
                        eval_fhat)
from .lattice import (Lattice, dual, integer_lattice, lll_reduce,
                      load_lattice, random_unimodular_lattice, save_lattice)
from .transform import (Transform1DTable, build_transform_table,
                        cached_transform_table, fourier_1d)
from .verify import (CertifiedSum, TransferenceReport, certified_sum,
                     check_part1, check_part3, check_tail_inequality,
                     dual_fhat_sum, handshake_census, nu_for_body,
                     psf_residual, transference_check)

__version__ = "0.1.0"

__all__ = [
    "BodySpec", "BudgetExceededError", "CertifiedSum", "FAMILIES",
    "IllConditionedBasisError", "InvariantError", "L1TransferenceBound",
    "Lattice", "LatticeError", "MissingTableError", "NuBound",
    "TestFunctionSpec", "ToleranceUnreachedError", "Transform1DTable",
    "TransferenceReport", "build_transform_table", "cached_transform_table",
    "certified_sum", "check_hypotheses", "check_part1", "check_part3",
    "check_tail_inequality", "cosh_nu_bound", "covering_radius_estimate",
    "cstar", "dual", "dual_fhat_sum", "enumerate_arrays", "eval_f",
    "eval_fhat", "fourier_1d", "gaussian_nu_closed_form",
    "handshake_bound", "handshake_census", "integer_lattice", "kalpha_radius",
    "lll_reduce", "load_lattice", "mu_norm", "nu_for_body", "psf_residual",
    "random_unimodular_lattice", "save_lattice", "shortest_vector",
    "supergaussian_mu_closed_form", "transference_bound_l1",
    "transference_bound_l2", "transference_check",
]
