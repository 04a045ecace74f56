"""Log-concavity toolkit for discrete and continuous Beta mixtures.

Evaluate mixture densities and their derivatives, certify log-concavity
on a grid via the sharpened curvature margin, verify the underlying
binomial inequalities (with exact-arithmetic and brute-force oracles),
and sample from the normalized densities.
"""

__version__ = "0.1.0"

from .certify import (
    ConcavityCertificate,
    certify,
    find_kernel_failure,
    kernel_log_curvature,
    margin_eq10,
    sharpness_check,
)
from .lemmas import (
    LemmaCase,
    brute_force_logconcavity,
    check_majorization,
    coefficient_inequality_12,
    continuous_lemma_sweep,
    core_inequalities_discrete,
    discrete_lemma_sweep,
    lemma2_continuous,
    lemma2_discrete,
    random_concave_mixture,
    random_log_concave_weights,
)
from .mixtures import (
    ContinuousMixture,
    DegenerateMixtureError,
    DiscreteMixture,
    cdf,
    is_log_concave_weights,
    mixture_from_json,
    mixture_to_json,
    normalization,
    sample,
)
from .quadrature import QuadratureError
from .special import DomainError

__all__ = [
    "ConcavityCertificate",
    "ContinuousMixture",
    "DegenerateMixtureError",
    "DiscreteMixture",
    "DomainError",
    "LemmaCase",
    "QuadratureError",
    "brute_force_logconcavity",
    "cdf",
    "certify",
    "check_majorization",
    "coefficient_inequality_12",
    "continuous_lemma_sweep",
    "core_inequalities_discrete",
    "discrete_lemma_sweep",
    "find_kernel_failure",
    "is_log_concave_weights",
    "kernel_log_curvature",
    "lemma2_continuous",
    "lemma2_discrete",
    "margin_eq10",
    "mixture_from_json",
    "mixture_to_json",
    "normalization",
    "random_concave_mixture",
    "random_log_concave_weights",
    "sample",
    "sharpness_check",
]
