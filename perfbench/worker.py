"""Run one annealed-langevin CLI command in this fresh interpreter and record it.

Usage: python3 worker.py REPO_ROOT RESULT_DIR MODE TRACE -- CLI_ARGS...

MODE is ``run`` (the whole command) or ``probe`` (stop when the first cell
starts, to time set-up alone). TRACE 0 wraps only three calls a cell makes
once (plan, annealed_sample, empirical_w2); TRACE 1 also wraps the inner
layers, including every score-field evaluation. All wrapping happens here,
from outside the package: the package is unchanged.

Writes RESULT_DIR/result.json (the CLI's exit code, CLOCK_MONOTONIC
timestamps, cells, rusage and, when traced, layer totals) and
RESULT_DIR/cells.npz (per cell: the samples, the plan's step sizes and the
task's arrays, for the output checks).
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def thread_faults() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


class FirstCell(BaseException):
    """Raised in probe mode when the first cell starts; no handler in the CLI catches it."""


class Recorder:
    """Cells and layer totals, kept per thread and merged at the end."""

    def __init__(self, probe: bool) -> None:
        self.probe = probe
        self.lock = threading.Lock()
        self.cells: list[dict] = []
        self.first_cell: float | None = None
        self.spans: list[tuple[float, float]] = []  # build_task spans
        self.totals: list[defaultdict] = []
        self.local = threading.local()

    def thread_totals(self) -> defaultdict:
        totals = getattr(self.local, "totals", None)
        if totals is None:
            totals = self.local.totals = defaultdict(float)
            with self.lock:
                self.totals.append(totals)
        return totals

    def merged(self) -> dict:
        out: defaultdict = defaultdict(float)
        for totals in self.totals:
            for key, value in totals.items():
                out[key] += value
        return dict(out)


def replace_everywhere(original, replacement) -> None:
    """Point every package-module name bound to `original` at `replacement`."""
    count = 0
    for name, module in list(sys.modules.items()):
        if name != "annealed_langevin" and not name.startswith("annealed_langevin."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    if count == 0:
        raise RuntimeError(f"no package name refers to {original!r}")


def install_cell_hooks(rec: Recorder, pkg) -> None:
    """Cell boundaries: a cell opens at plan() and closes when empirical_w2() returns."""
    plan, sample, w2 = pkg.tuner.plan, pkg.sampler.annealed_sample, pkg.metrics.empirical_w2
    plan_sig, sample_sig = inspect.signature(plan), inspect.signature(sample)

    @functools.wraps(plan)
    def plan_hook(*args, **kwargs):
        start = now()
        bound = plan_sig.bind(*args, **kwargs).arguments
        task = bound["task"]
        with rec.lock:
            if rec.first_cell is None:
                rec.first_cell = start
        if rec.probe:
            raise FirstCell
        cell = {"method": bound["method"], "n": int(task.n), "start": start, "task": task}
        rec.local.cell = cell
        lp = plan(*args, **kwargs)
        cell["plan_s"] = now() - start
        cell["h"] = lp.h
        cell["total_steps"] = int(lp.total_steps)
        return lp

    @functools.wraps(sample)
    def sample_hook(*args, **kwargs):
        start = now()
        out = sample(*args, **kwargs)
        cell = rec.local.cell
        bound = sample_sig.bind(*args, **kwargs).arguments
        cell["sample_s"] = now() - start
        cell["seed"] = int(bound["seed"])
        cell["chains"] = int(out.count)
        cell["points"] = out.points
        return out

    @functools.wraps(w2)
    def w2_hook(*args, **kwargs):
        out = w2(*args, **kwargs)
        cell = rec.local.cell
        cell["end"] = now()
        with rec.lock:
            rec.cells.append(cell)
        rec.local.cell = None
        return out

    for original, hook in ((plan, plan_hook), (sample, sample_hook), (w2, w2_hook)):
        replace_everywhere(original, hook)


def timed(rec: Recorder, func, key: str, count=None):
    """Wrap func so each call adds its time, and optionally a count, to key."""

    @functools.wraps(func)
    def hook(*args, **kwargs):
        totals = rec.thread_totals()
        start = now()
        out = func(*args, **kwargs)
        totals[key + "_s"] += now() - start
        totals[key + "_calls"] += 1
        if count is not None:
            totals[key + "_count"] += count(args, kwargs, out)
        return out

    return hook


def install_layer_hooks(rec: Recorder, pkg) -> None:
    """Layer spans for the traced run: every public entry point below the CLI."""
    cli, tuner, composite, sampler, tasks, metrics = (
        pkg.cli, pkg.tuner, pkg.composite, pkg.sampler, pkg.tasks, pkg.metrics
    )

    build_task = cli.build_task

    @functools.wraps(build_task)
    def build_task_hook(*args, **kwargs):
        start = now()
        out = build_task(*args, **kwargs)
        with rec.lock:
            rec.spans.append((start, now()))
        return out

    replace_everywhere(build_task, build_task_hook)

    replace_everywhere(cli.plan, timed(rec, cli.plan, "plan"))
    for name in ("bridging_moments", "proxy_bridge", "gaussian_w2"):
        func = getattr(tuner, name)
        replace_everywhere(func, timed(rec, func, "bridge"))

    field_fn = composite.composite_field
    field_sig = inspect.signature(field_fn)

    @functools.wraps(field_fn)
    def composite_field_hook(*args, **kwargs):
        method = field_sig.bind(*args, **kwargs).arguments["method"]
        start = now()
        factory = field_fn(*args, **kwargs)
        rec.thread_totals()["setup_s"] += now() - start

        def factory_hook(level, t):
            totals = rec.thread_totals()
            start = now()
            field = factory(level, t)
            totals["setup_s"] += now() - start
            totals["setup_calls"] += 1

            def field_hook(theta, t_arg):
                totals = rec.thread_totals()
                f0 = thread_faults()
                start = now()
                out = field(theta, t_arg)
                totals["field_s." + method] += now() - start
                totals["field_faults"] += thread_faults() - f0
                totals["field_calls"] += 1
                totals["field_chains"] += theta.shape[0]
                return out

            return field_hook

        return factory_hook

    replace_everywhere(field_fn, composite_field_hook)

    ula = sampler.ula_chain
    ula_sig = inspect.signature(ula)

    @functools.wraps(ula)
    def ula_hook(*args, **kwargs):
        bound = ula_sig.bind(*args, **kwargs).arguments
        totals = rec.thread_totals()
        field_before = totals["field_s.geffner"] + totals["field_s.linhart"]
        faults_before = totals["field_faults"]
        f0 = thread_faults()
        start = now()
        out = ula(*args, **kwargs)
        elapsed = now() - start
        field_time = totals["field_s.geffner"] + totals["field_s.linhart"] - field_before
        totals["ula_s"] += elapsed
        totals["update_s"] += elapsed - field_time
        totals["update_faults"] += thread_faults() - f0 - (totals["field_faults"] - faults_before)
        totals["steps"] += int(bound["k"])
        totals["chain_steps"] += int(bound["k"]) * bound["start"].count
        return out

    replace_everywhere(ula, ula_hook)

    joint = tasks.joint_posterior_mixture
    replace_everywhere(
        joint, timed(rec, joint, "joint", count=lambda a, k, out: out.component_count)
    )
    replace_everywhere(cli.exact_posterior_sample, timed(rec, cli.exact_posterior_sample, "reference"))

    w2_sig = inspect.signature(metrics.empirical_w2)

    def w2_points(args, kwargs, out):
        bound = w2_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a, b, cap = bound.arguments["a"], bound.arguments["b"], bound.arguments["cap"]
        return min(cap, a.count, b.count)

    replace_everywhere(cli.empirical_w2, timed(rec, cli.empirical_w2, "w2", count=w2_points))


def main(argv: list[str]) -> int:
    repo, result_dir, mode, trace = argv[0], Path(argv[1]), argv[2], argv[3] == "1"
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, str(Path(repo) / "src"))
    import annealed_langevin.cli  # noqa: F401  (package import is part of set-up)
    import annealed_langevin as pkg

    rec = Recorder(probe=mode == "probe")
    install_cell_hooks(rec, pkg)
    if trace:
        install_layer_hooks(rec, pkg)
    code = None
    try:
        code = pkg.cli.main(cli_args)
    except FirstCell:
        pass
    end = now()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    arrays = {}
    cells = []
    for i, cell in enumerate(rec.cells):
        task = cell.pop("task")
        arrays[f"{i}.points"] = cell.pop("points")
        arrays[f"{i}.h"] = cell.pop("h")
        for name in ("observations", "likelihood_cov", "prior_means", "prior_scales",
                     "prior_weights", "likelihood_cov_scales", "likelihood_weights"):
            value = getattr(task, name)
            if value is not None:
                arrays[f"{i}.{name}"] = value
        cell["kind"] = task.kind
        cells.append(cell)
    result = {
        "exit_code": code,
        "first_cell": rec.first_cell,
        "end": end,
        "cells": cells,
        "build_task_spans": rec.spans,
        "layers": rec.merged(),
        "rusage": {
            "maxrss_kb": usage.ru_maxrss,
            "user_s": usage.ru_utime,
            "sys_s": usage.ru_stime,
            "minor_faults": usage.ru_minflt,
        },
    }
    import numpy as np

    np.savez(result_dir / "cells.npz", **arrays)
    with open(result_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
