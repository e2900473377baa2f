"""Alternating parent/change pairs of the repository benchmark, written to BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --pairs N --first-seed S \
        --out BENCH_<n>.json [--note TEXT]

Run from anywhere inside the repository. Each side is a `git archive` copy of
its revision in a fresh directory under the system temporary directory,
removed at the end. Pair i runs `python3 perfbench/run.py --workload all
--seed S+i --seconds X`, with X the `run_seconds` of BENCHMARK.json, once on
each side, one after the other, the parent first on even i and the change
first on odd i, so neither side always runs on a warmer machine. Nothing else
should run meanwhile.

The output holds each run's summary (the last stdout line of run.py), the
`# machine` line, and per metric: each side's median and quartiles (the
default method of `statistics.quantiles`, as perfbench states its spread),
how many pairs the change won (by the direction BENCHMARK.json gives the
metric; ties count for neither), the change/parent ratio of the medians and,
for each metric BENCHMARK.json gives a bound, a verdict (`verdict`).
Only the standard library is used. The file is written even when a run's
checks fail; the script then names each failing pair and side and exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True).stdout


def export(repo: Path, rev: str, dest: Path) -> None:
    """Write the committed files of rev to dest, as `git archive` lists them."""
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git(repo, "archive", "--format=tar", rev),
                   check=True)


def run_once(tree: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run in tree; returns its machine line and its summary."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
            "--seconds", str(seconds)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    machine = next(json.loads(line[len("# machine "):]) for line in lines
                   if line.startswith("# machine "))
    summary = json.loads(lines[-1])
    summary["run_s"] = time.monotonic() - start
    return machine, summary


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def verdict(won: int, pairs: int, gain: float, parent_median: float, parent_iqr: float,
            bound: float) -> str:
    """One metric's verdict, gain being the change's median gain over the parent's (> 0 better).

    `gain` when the change won at least 9/10 of the pairs and its median is
    better by more than the parent's interquartile range; `worse` when its
    median is worse by more than the bound (relative to the parent's median);
    `unresolved` when the parent's interquartile range is wider than the
    bound; `no worse` otherwise.
    """
    if won >= 0.9 * pairs and gain > parent_iqr:
        return "gain"
    if -gain > bound * abs(parent_median):
        return "worse"
    if parent_iqr > bound * abs(parent_median):
        return "unresolved"
    return "no worse"


def compare(pairs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None
            ) -> dict:
    """Per metric: medians, quartiles, pairs the change won, change/parent median ratio and,
    where bounds gives the metric a bound, its verdict."""
    names = [k for k in pairs[0]["parent"]["metrics"] if k in pairs[0]["change"]["metrics"]]
    out = {"median": {"parent": {}, "change": {}}, "parent_quartiles": {},
           "change_quartiles": {}, "change_won": {}, "ratio_change_over_parent": {},
           "verdict": {}}
    for name in names:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        for side in SIDES:
            out["median"][side][name] = statistics.median(values[side])
        out["parent_quartiles"][name] = quartiles(values["parent"])
        out["change_quartiles"][name] = quartiles(values["change"])
        direction = better.get(name.split("/")[-1])
        if direction is not None:
            sign = 1.0 if direction == "higher" else -1.0
            won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            out["change_won"][name] = f"{won}/{len(pairs)}"
            bound = (bounds or {}).get(name.split("/")[-1])
            if bound is not None:
                med, (q1, q3) = out["median"], out["parent_quartiles"][name]
                gain = sign * (med["change"][name] - med["parent"][name])
                out["verdict"][name] = verdict(won, len(pairs), gain, med["parent"][name],
                                               q3 - q1, bound)
        base = out["median"]["parent"][name]
        if base:
            out["ratio_change_over_parent"][name] = out["median"]["change"][name] / base
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", required=True, help="git revision of the change side")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True, help="seed of pair 0")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="", help="what the two sides are, for the reader")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    revs = {side: git(repo, "rev-parse", "--verify", getattr(args, side) + "^{commit}")
            .decode().strip() for side in SIDES}
    spec = json.loads((repo / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    seconds = spec["run_seconds"]

    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    pairs, machines = [], []
    try:
        trees = {side: work / side for side in SIDES}
        for side in SIDES:
            export(repo, revs[side], trees[side])
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                machine, pair[side] = run_once(trees[side], seed, seconds)
                machines.append(machine)
                print(f"pair {i} seed {seed} {side}: correct {pair[side]['correct']} "
                      f"failed {pair[side]['failed']}/{pair[side]['attempted']} "
                      f"in {pair[side]['run_s']:.0f} s", file=sys.stderr, flush=True)
            pairs.append(pair)
            # rewritten after every pair, so a run cut short keeps the pairs it finished
            report = {
                "what": args.note,
                "command": f"python3 perfbench/run.py --workload all --seed SEED "
                           f"--seconds {seconds:g}",
                "revisions": revs,
                "machine": machines[0],
                "machines_agree": all(m == machines[0] for m in machines),
                "seeds": [p["seed"] for p in pairs],
                "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
                **compare(pairs, better, bounds),
                "pairs": pairs,
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {args.out}", file=sys.stderr)
    bad = [(i, p["seed"], side, p[side]) for i, p in enumerate(pairs) for side in SIDES
           if p[side]["correct"] is not True or p[side]["failed"]]
    for i, seed, side, run in bad:
        print(f"pair {i} seed {seed} {side}: correct {run['correct']}, "
              f"failed {run['failed']}/{run['attempted']} cells", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
