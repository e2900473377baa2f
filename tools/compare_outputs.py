"""Compare two revisions' outputs on every cell of the benchmark's rounds.

    python3 tools/compare_outputs.py --parent REV --change REV [--seeds 1-5]

Run from anywhere inside the repository. Each side is a `git archive` copy of
its revision (bench_pairs.export) in a fresh directory under the system
temporary directory, removed at the end. In each copy one subprocess builds
the CLI configs of every workload's round for each seed
(`perfbench/run.py`'s `round_configs` and `cli_command`) and runs all their
cells in-process, as the CLI does (`cli.resolve_config`, `cli._grid`,
`cli._run`), with BLAS threads 1 as perfbench runs them. It dumps each
cell's status, error, plan columns, samples and `final_w2`.

For each workload and method the script prints the number of cells and of
status changes, the plans whose `k` changed and the bitwise plans, the
largest relative change of each plan column, the bitwise sample sets, the
largest |dx| / max |x| and the largest relative change of `final_w2`.
It exits 1 when any status or `k` differs, else 0. Only `perfbench/` and
the package are read; nothing is written to the repository.
"""

from __future__ import annotations

import argparse
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, export, git  # noqa: E402

PLAN_COLUMNS = ("t", "h", "k", "m", "M", "w2_next", "B")


def parse_seeds(text: str) -> list[int]:
    """'1-5' or '1,3,7' as a list of seeds."""
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def dump(tree: Path, seeds: list[int], out: Path) -> None:
    """Run every cell of the seeds' rounds in tree's package and pickle their outputs to out."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import run  # perfbench/run.py

    from annealed_langevin import cli

    cells = []
    for seed in seeds:
        for workload in run.WORKLOADS:
            command = run.cli_command(workload)[0]
            for i, config in enumerate(run.round_configs(workload, seed)):
                cfg = cli.resolve_config(config)
                sched, grid = cli._grid(cfg, command)
                for record in cli._run(cfg, sched, grid, False, True):
                    level_plan, samples = record.get("_plan"), record.get("_samples")
                    cells.append({
                        "workload": workload, "method": record["method"],
                        "cell": (seed, i, record["n"], record["seed"]),
                        "status": record["status"], "error": record["error"],
                        "plan": None if level_plan is None else
                        {name: getattr(level_plan, name) for name in PLAN_COLUMNS},
                        "points": None if samples is None else samples.points,
                        "final_w2": record.get("final_w2"),
                    })
    out.write_bytes(pickle.dumps(cells))


def relative(parent, change) -> float:
    """Largest |change - parent| / |parent| over the entries (a zero parent: the plain change)."""
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    diff = np.abs(change - parent)
    scale = np.where(parent == 0, 1.0, np.abs(parent))
    return float(np.max(diff / scale, initial=0.0))


def summarize(parent: list[dict], change: list[dict]) -> dict:
    """Per (workload, method): the comparison of the two sides' cells, matched by identity."""
    changed = {(c["workload"], c["method"], c["cell"]): c for c in change}
    if len(changed) != len(change) or sorted(changed) != sorted(
        (c["workload"], c["method"], c["cell"]) for c in parent
    ):
        raise ValueError("the two sides ran different cells")
    out: dict = {}
    for p in parent:
        c = changed[(p["workload"], p["method"], p["cell"])]
        row = out.setdefault((p["workload"], p["method"]), {
            "cells": 0, "status_changed": [], "k_changed": [], "plans": 0, "bitwise_plans": 0,
            "column_rel": dict.fromkeys(PLAN_COLUMNS, 0.0), "samples": 0, "bitwise_samples": 0,
            "dx_over_max_x": 0.0, "final_w2_rel": 0.0,
        })
        row["cells"] += 1
        if (p["status"], p["error"]) != (c["status"], c["error"]):
            row["status_changed"].append(p["cell"])
        if p["plan"] is not None and c["plan"] is not None:
            row["plans"] += 1
            if not np.array_equal(p["plan"]["k"], c["plan"]["k"]):
                row["k_changed"].append(p["cell"])
            bitwise = all(p["plan"][name].tobytes() == c["plan"][name].tobytes()
                          for name in PLAN_COLUMNS)
            row["bitwise_plans"] += bitwise
            for name in PLAN_COLUMNS:
                rel = relative(p["plan"][name], c["plan"][name])
                row["column_rel"][name] = max(row["column_rel"][name], rel)
        if p["points"] is not None and c["points"] is not None:
            row["samples"] += 1
            row["bitwise_samples"] += p["points"].tobytes() == c["points"].tobytes()
            dx = np.max(np.abs(c["points"] - p["points"])) / np.max(np.abs(p["points"]))
            row["dx_over_max_x"] = max(row["dx_over_max_x"], float(dx))
            rel = relative(p["final_w2"], c["final_w2"])
            row["final_w2_rel"] = max(row["final_w2_rel"], rel)
    return out


def report(summary: dict) -> tuple[list[str], bool]:
    """The printed lines, and whether any status or k differs."""
    lines, differs = [], False
    for (workload, method), row in summary.items():
        differs |= bool(row["status_changed"] or row["k_changed"])
        columns = ", ".join(f"{name} {rel:.2g}" for name, rel in row["column_rel"].items())
        lines += [
            f"{workload} {method}: {row['cells']} cells, "
            f"{len(row['status_changed'])} status changes {row['status_changed']}",
            f"  plans: {row['bitwise_plans']}/{row['plans']} bitwise, "
            f"k changed in {len(row['k_changed'])} {row['k_changed']}",
            f"  largest relative change per column: {columns}",
            f"  samples: {row['bitwise_samples']}/{row['samples']} bitwise, "
            f"largest |dx| / max |x| {row['dx_over_max_x']:.2g}, "
            f"largest relative final_w2 change {row['final_w2_rel']:.2g}",
        ]
    return lines, differs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision of the parent side")
    parser.add_argument("--change", help="git revision of the change side")
    parser.add_argument("--seeds", default="1-5", help="benchmark round seeds: 1-5 or 1,3,7")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)  # tree, in the subprocess
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.dump is not None:
        dump(args.dump, seeds, args.out)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    work = Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    try:
        cells = {}
        for side in SIDES:
            tree, out = work / side, work / f"{side}.pkl"
            export(repo, getattr(args, side), tree)
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", str(tree),
                            "--seeds", args.seeds, "--out", str(out)], cwd=tree, env=env,
                           check=True)
            cells[side] = pickle.loads(out.read_bytes())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines, differs = report(summarize(cells["parent"], cells["change"]))
    print(f"seeds {seeds}: {args.parent} against {args.change}")
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
