"""Generalized Gamma functions (p-, q-, k-deformations), their psi
functions, and numerical verification of the associated monotonicity
theorems and sandwich inequalities."""

from .core_special import (
    DEFAULT_TOL,
    EULER_GAMMA,
    DomainError,
    EvalResult,
    ToleranceNotMet,
    gamma,
    log_gamma,
    psi,
    psi_series,
)
from .gen_gamma import (
    gamma_k,
    gamma_p,
    gamma_q,
    log_gamma_k,
    log_gamma_p,
    log_gamma_q,
    psi_k,
    psi_p,
    psi_q,
)
from .inequality_engine import (
    DEFAULT_TOL_REPORT,
    FAMILIES,
    Family,
    GenParams,
    InequalityReport,
    MonotoneScan,
    check_sandwich,
    check_sandwich_k,
    check_sandwich_p,
    check_sandwich_q,
    family_callables,
    lemma_expr_k,
    lemma_expr_k_unchecked,
    lemma_expr_p,
    lemma_expr_p_unchecked,
    lemma_expr_q,
    lemma_expr_q_unchecked,
    log_deriv_omega,
    log_deriv_phi,
    log_deriv_theta,
    log_omega,
    log_phi,
    log_theta,
    omega,
    phi,
    scan_monotone,
    scan_passes,
    theta,
)

__version__ = "0.1.0"
