"""Per-level step-size/step-count selection with a global Wasserstein guarantee.

Given two-sided Hessian constants (m, M) of each bridging density and the
distance between consecutive bridges, the rule picks the largest step size
whose bias term stays below omega*gamma and the smallest step count that
contracts the remaining error below (1-omega)*gamma. Every task goes
through moment-matched Gaussian proxies, which are exact on a one-component task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .schedule import Schedule, levels
from .tasks import Task
from .theory import bridging_moments, proxy_bridge  # noqa: F401  (perfbench/worker.py needs them)
from .theory import CompositeSpec, _bridges, _check_method, gaussian_w2

__all__ = [
    "TuningError",
    "TuningConfig",
    "LevelPlan",
    "choose_step",
    "choose_steps",
    "bias_term",
    "global_bound",
    "plan",
]

# bias terms equal omega*gamma by construction up to sqrt/product rounding
_BIAS_SLACK = 1e-12


class TuningError(RuntimeError):
    """Raised when the decision rule cannot meet its target."""


@dataclass(frozen=True)
class TuningConfig:
    """Targets for the decision rule.

    gamma is the Wasserstein accuracy target, omega in (0,1) splits it
    between the per-level bias budget (omega*gamma) and the contraction
    budget ((1-omega)*gamma), eps_dsm bounds the composite L2 score error,
    and T is the number of annealing levels.
    """

    gamma: float
    omega: float
    eps_dsm: float = 0.0
    T: int = 10

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not 0 < self.omega < 1:
            raise ValueError("omega must lie in (0, 1)")
        if self.eps_dsm < 0:
            raise ValueError("eps_dsm must be nonnegative")
        if self.T < 1:
            raise ValueError("need at least one level")


@dataclass(frozen=True)
class LevelPlan:
    """Per-level sampling schedule: arrays indexed by level p = 0..T-1 (ascending t).

    proxy marks plans whose constants and distances come from Gaussian
    moment proxies rather than exact bridging densities. setup, which composite_field
    reads and no report writes, is the plan's proxy set-up, a theory.CompositeSpec
    (CompositeSpec.of_task on the plan's method and schedule).
    """

    method: str
    dim: int
    gamma: float
    omega: float
    t: np.ndarray
    h: np.ndarray
    k: np.ndarray
    m: np.ndarray
    M: np.ndarray
    w2_next: np.ndarray
    B: np.ndarray
    proxy: bool = False
    setup: CompositeSpec | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_method(self.method)
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not self.gamma > 0 or not 0 < self.omega < 1:
            raise ValueError("invalid gamma/omega")
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("need at least one level")
        arrays = {}
        for name in ("h", "m", "M", "w2_next", "B"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != t.shape:
                raise ValueError(f"{name} shape disagrees with t")
            arrays[name] = arr
        k = np.asarray(self.k)
        if k.shape != t.shape or not np.issubdtype(k.dtype, np.integer):
            raise ValueError("k must be integers, one per level")
        if np.any(np.diff(t) <= 0) or t[0] <= 0 or t[-1] >= 1:
            raise ValueError("level times must increase strictly within (0, 1)")
        if np.any(arrays["m"] <= 0) or np.any(arrays["m"] > arrays["M"]):
            raise ValueError("need 0 < m <= M at every level")
        if np.any(arrays["h"] <= 0) or np.any(arrays["h"] >= 2.0 / (arrays["m"] + arrays["M"])):
            raise ValueError("need 0 < h < 2/(m+M) at every level")
        if np.any(k < 1):
            raise ValueError("need k >= 1 at every level")
        if np.any(arrays["w2_next"] < 0):
            raise ValueError("w2_next must be nonnegative")
        budget = self.omega * self.gamma * (1.0 + _BIAS_SLACK)
        if np.any(arrays["B"] > budget):
            raise ValueError("bias term exceeds omega*gamma")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "k", k.astype(int))
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def T(self) -> int:
        return int(self.t.size)

    @property
    def total_steps(self) -> int:
        return int(self.k.sum())


def choose_step(m: float, M: float, cfg: TuningConfig, d: int) -> float:
    """Largest step size meeting the bias budget and the stability cap.

    Returns min((omega*gamma - eps/m)^2 m^2 / (d 1.65^2 M^2), 2/(m+M)), the
    second cap nudged one ulp below to keep the strict stability inequality.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    if m <= 0:
        raise TuningError(f"log-concavity constant m={m:g} is not positive")
    if m > M:
        raise ValueError("need m <= M")
    slack = cfg.omega * cfg.gamma - cfg.eps_dsm / m
    if slack <= 0:
        raise TuningError(
            f"infeasible bias budget: omega*gamma={cfg.omega * cfg.gamma:g} "
            f"<= eps_dsm/m={cfg.eps_dsm / m:g}"
        )
    bias_cap = (slack * m / (1.65 * M)) ** 2 / d
    stability_cap = 2.0 / (m + M)
    if bias_cap < stability_cap:
        return float(bias_cap)
    return float(np.nextafter(stability_cap, 0.0))


def choose_steps(m: float, h: float, w2_next: float, cfg: TuningConfig) -> int:
    """Smallest step count whose contraction beats (1-omega)*gamma, at least 1."""
    if w2_next < 0:
        raise ValueError("w2_next must be nonnegative")
    mh = m * h
    if not 0 < mh < 1:
        raise ValueError("m*h must lie in (0, 1)")
    target = (1.0 - cfg.omega) * cfg.gamma / (cfg.gamma + w2_next)
    count = math.ceil(math.log(target) / math.log(1.0 - mh))
    return max(count, 1)


def bias_term(m: float, M: float, h: float, d: int, eps: float) -> float:
    """Stationary-bias bound 1.65 (M/m) sqrt(h d) + eps/m of one ULA level."""
    if m <= 0:
        raise ValueError("m must be positive")
    if h < 0 or eps < 0 or d < 1:
        raise ValueError("need h >= 0, eps >= 0, d >= 1")
    return 1.65 * (M / m) * math.sqrt(h * d) + eps / m


def global_bound(plan_: LevelPlan) -> float:
    """End-to-end Wasserstein bound of a plan, composing per-level contractions.

    sum_p prod_{s<=p}(1-m_s h_s)^{k_s} * w2_next_p + B_p * prod_{s<p}(...),
    with the empty product equal to 1.
    """
    contractions = (1.0 - plan_.m * plan_.h) ** plan_.k
    through = np.cumprod(contractions)
    before = np.concatenate(([1.0], through[:-1]))
    return float(np.sum(through * plan_.w2_next + plan_.B * before))


def plan(task: Task, method: str, cfg: TuningConfig, s: Schedule) -> LevelPlan:
    """Tune all levels up front: bridging moments, constants, distances, then (h, k).

    Levels are reported in ascending t; sampling consumes them from the top
    down. Failures carry the offending level index, except a linhart
    composition failure, which happens once, before any level.
    """
    _check_method(method)
    if task.n < 1:
        raise ValueError("need at least one observation")
    times = levels(s, cfg.T)
    d = task.dim
    try:
        setup = CompositeSpec.of_task(task, method, s)
        precs, bridges = _bridges(setup, times)
    except ValueError as exc:
        raise TuningError(f"bridging densities: {exc}") from exc
    eigs = np.linalg.eigvalsh(precs[:-1])
    m, M = eigs[:, 0], eigs[:, -1]
    T = cfg.T
    w2_next = np.array([gaussian_w2(bridges[p + 1], bridges[p]) for p in range(T)])
    h = np.empty(T)
    k = np.empty(T, dtype=int)
    bias = np.empty(T)
    for p in range(T):
        try:
            h[p] = choose_step(m[p], M[p], cfg, d)
            k[p] = choose_steps(m[p], h[p], float(w2_next[p]), cfg)
        except TuningError as exc:
            raise TuningError(f"level {p} (t={times[p]:g}): {exc}") from exc
        bias[p] = bias_term(m[p], M[p], h[p], d, cfg.eps_dsm)
    t = np.asarray(times[:-1], dtype=float)
    return LevelPlan(method=method, dim=d, gamma=cfg.gamma, omega=cfg.omega, t=t, h=h, k=k, m=m,
                     M=M, w2_next=w2_next, B=bias, proxy=not task.one_component, setup=setup)
