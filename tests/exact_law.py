"""The exact law of annealed_sample on gaussian tasks, level by level.

On the gaussian kind each level's field is the score (mu - x) P of the
method's bridge N(mu, Sigma), with P = Sigma^-1, so one ULA step
x' = (I - h P) x + h P mu + sqrt(2h) z maps a Gaussian law to a Gaussian law.
In the eigenbasis of Sigma, with g = 1 - h/eig, the k steps of one level are

    mean' = mu + g^k (mean - mu),
    C'    = g^k C g^k + diag(2h (1 - g^(2k)) / (1 - g^2)),

so the law after a level costs the same for any k.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from annealed_langevin import GaussianDist


def exact_law(bridges: Sequence[GaussianDist], h, k) -> list[GaussianDist]:
    """Law of annealed_sample's chains after every level, from N(0, I) at t=1.

    bridges[p], h[p] and k[p] belong to level p in ascending t, as in a
    LevelPlan; for a plan lp, bridges is proxy_bridge(*gaussian_proxies(task),
    lp.method, lp.t, s). The levels run from the top down, and entry p of the
    result is the law after level p, so entry 0 is the law of the output.
    """
    dim = bridges[0].dim
    mean, cov = np.zeros(dim), np.eye(dim)
    laws: list = [None] * len(bridges)
    for p in range(len(bridges) - 1, -1, -1):
        eig, basis = np.linalg.eigh(bridges[p].cov)
        u = h[p] / eig  # 1 - g
        gk = (1.0 - u) ** int(k[p])
        shift = gk * (basis.T @ (mean - bridges[p].mean))
        rotated = gk[:, None] * (basis.T @ cov @ basis) * gk[None, :]
        rotated += np.diag(2.0 * h[p] * (1.0 - gk * gk) / (u * (2.0 - u)))  # 1 - g^2 = u (2 - u)
        mean = bridges[p].mean + basis @ shift
        cov = basis @ rotated @ basis.T
        cov = 0.5 * (cov + cov.T)
        laws[p] = GaussianDist(mean, cov)
    return laws
