"""Annealed Langevin sampling for multi-observation Bayesian posteriors.

Builds composite score fields from per-observation posterior scores, tunes
per-level step sizes and step counts against a Wasserstein accuracy target,
runs the unadjusted Langevin chains over the diffusion levels, and evaluates
the result against exact reference samples.
"""

from __future__ import annotations

from . import composite, metrics, sampler, schedule, tasks, theory, tuner
from .composite import *  # noqa: F403
from .metrics import *  # noqa: F403
from .sampler import *  # noqa: F403
from .schedule import *  # noqa: F403
from .tasks import *  # noqa: F403
from .theory import *  # noqa: F403
from .tuner import *  # noqa: F403

__version__ = "0.1.0"

# every module's public names, each listed once, in its own __all__
__all__ = [
    "__version__",
    *(
        name
        for module in (schedule, tasks, composite, theory, tuner, sampler, metrics)
        for name in module.__all__
    ),
]
