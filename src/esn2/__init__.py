"""Bivariate extended skew-normal: likelihood, information, oracles.

The parameter order everywhere is theta = (xi1, xi2, omega11, omega12,
omega22, alpha1, alpha2, tau).
"""

from .cubature import CubatureControls, CubatureNotConverged
from .expectations import (a_terms, expectation_set, lemma4_expectation,
                           u_distribution)
from .expected_info import (SweepRow, SweepSpec, block_structure_check,
                            conditional_independence, det_scan, expected_info)
from .likelihood import (FitResult, InfoMatrix, NonFiniteStart, density_esn2,
                         fit_mle, loglik, observed_info, score)
from .model import (PARAM_NAMES, Dataset, DpParams, NonFiniteParameter,
                    NonPositiveDefiniteScale, cgf_esn2, density_esn1,
                    moments_esn2)
from .special_fns import zeta
from .validation import (CheckResult, FiniteDifferenceError, ValidationReport,
                         fd_gradient, fd_hessian, run_validation_suite,
                         sample_esn2, sampler_chi2_pvalue)

__all__ = [
    "CheckResult", "CubatureControls", "CubatureNotConverged", "Dataset",
    "DpParams", "FiniteDifferenceError", "FitResult", "InfoMatrix",
    "NonFiniteParameter", "NonFiniteStart", "NonPositiveDefiniteScale",
    "PARAM_NAMES", "SweepRow", "SweepSpec", "ValidationReport", "a_terms",
    "block_structure_check", "cgf_esn2", "conditional_independence",
    "density_esn1", "density_esn2", "det_scan", "expectation_set",
    "expected_info", "fd_gradient", "fd_hessian", "fit_mle",
    "lemma4_expectation", "loglik", "moments_esn2", "observed_info",
    "run_validation_suite", "sample_esn2", "sampler_chi2_pvalue", "score",
    "u_distribution", "zeta",
]
