"""Annealed Langevin sampling for multi-observation Bayesian posteriors.

Builds composite score fields from per-observation posterior scores, tunes
per-level step sizes and step counts against a Wasserstein accuracy target,
runs the unadjusted Langevin chains over the diffusion levels, and evaluates
the result against exact reference samples.
"""

from __future__ import annotations

from .composite import (
    METHODS,
    CompositeSpec,
    compose_dsm_error,
    composite_field,
    geffner_score,
    lambda_matrix,
    linhart_score,
    spec_for_task,
)
from .metrics import W2Report, empirical_w2
from .sampler import DivergenceError, SampleSet, annealed_sample, ula_chain
from .schedule import Schedule, alpha, levels, v
from .tasks import (
    KINDS,
    GaussianDist,
    GaussianMixture,
    Task,
    exact_posterior_sample,
    gaussian_proxies,
    gaussian_task,
    gmm_likelihood_task,
    gmm_prior_task,
    individual_posterior_score,
    joint_posterior_mixture,
    posterior_log_density,
    posterior_mixture,
    posterior_moments,
    prior_dist,
    prior_log_density,
    prior_score,
    simulate_observations,
)
from .theory import (
    BridgingConstants,
    bridging_moments,
    compose_gaussians,
    constant_gap,
    gaussian_constants,
    gaussian_w2,
    proxy_bridge,
)
from .tuner import (
    LevelPlan,
    TuningConfig,
    TuningError,
    bias_term,
    choose_step,
    choose_steps,
    global_bound,
    plan,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "METHODS",
    "KINDS",
    "Schedule",
    "alpha",
    "v",
    "levels",
    "Task",
    "GaussianDist",
    "GaussianMixture",
    "gaussian_task",
    "gmm_prior_task",
    "gmm_likelihood_task",
    "prior_dist",
    "simulate_observations",
    "posterior_mixture",
    "posterior_moments",
    "gaussian_proxies",
    "joint_posterior_mixture",
    "exact_posterior_sample",
    "prior_score",
    "prior_log_density",
    "individual_posterior_score",
    "posterior_log_density",
    "CompositeSpec",
    "spec_for_task",
    "lambda_matrix",
    "geffner_score",
    "linhart_score",
    "compose_dsm_error",
    "composite_field",
    "BridgingConstants",
    "bridging_moments",
    "compose_gaussians",
    "proxy_bridge",
    "gaussian_constants",
    "constant_gap",
    "gaussian_w2",
    "TuningError",
    "TuningConfig",
    "LevelPlan",
    "choose_step",
    "choose_steps",
    "bias_term",
    "global_bound",
    "plan",
    "DivergenceError",
    "SampleSet",
    "ula_chain",
    "annealed_sample",
    "W2Report",
    "empirical_w2",
]
