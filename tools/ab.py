"""Paired A/B benchmark runs of two source trees, written in the ``trace0`` layout of the BENCH_*.json files.

    python tools/ab.py PARENT_TREE CHANGE_TREE --workload train-desk --seed0 901 --pairs 10 --seconds 20 \\
        --out ab-train-desk.json

Both trees are first copied the same way into fresh plain directories, so that both sides run from the
same kind of directory (``peak_rss_mib`` moves about 1 % between a git checkout and a plain copy).  Each
run is its own tree's ``benchmark/run.py`` in a fresh process, ``--trace 0``.  One warm-up run of the
parent is discarded, since the first run of a sequence reads about 30 % slow; then each seed runs on
both sides, and which side runs first alternates from seed to seed.  Per end-to-end metric of the
parent's ``BENCHMARK.json`` the output gives each side's values and each pair's change/parent ratio,
the change's wins and the median ratio, and two verdicts: whether a claimed gain would hold (the change
wins at least 9 of 10 pairs, and its median beats the parent's by more than the parent's IQR), and whether
the change's median is worse than the parent's by more than the metric's ``bound``, a fraction of the
parent's median.  Give the same tree twice for an A/A run: its ratios are the machine's noise floor.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
SKIPPED = shutil.ignore_patterns(".git", ".bench_work", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", "out")


def run_pairs(runner, seeds: list[int]) -> dict[str, list]:
    """``runner(side, seed)`` for one discarded parent warm-up, then for both sides of every seed.

    The parent runs first at even positions in ``seeds`` and the change at odd ones.
    """
    runner("parent", seeds[0])
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(runner(side, seed))
    return runs


def ratio(change: float, parent: float) -> float:
    return change / parent if parent else (1.0 if change == parent else float("inf"))


def iqr(values: list[float]) -> float:
    q1, q3 = np.percentile(values, [25, 75])
    return float(q3 - q1)


def pair_stats(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Each pair's change/parent ratio, the pairs the change wins (is strictly better in) and ties, and verdicts.

    ``gain``: the change wins at least 9 of 10 pairs (a tie counts for neither side) and its median is better
    than the parent's by more than the parent's IQR.  ``worse_than_bound``: its median is worse than the
    parent's by more than ``bound`` times the parent's median.
    """
    ratios = [ratio(c, p) for p, c in zip(parent, change)]
    wins = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    median = statistics.median(parent)
    gained = (median - statistics.median(change)) * (1 if better == "lower" else -1)  # > 0: the change is better
    return {"better": better, "change_wins": wins, "ties": sum(c == p for p, c in zip(parent, change)),
            "pairs": len(ratios), "median_ratio": statistics.median(ratios), "ratios": ratios,
            "gain": 10 * wins >= 9 * len(ratios) and gained > iqr(parent), "bound": bound,
            "worse_than_bound": -gained > bound * median}


def side_block(runs: list[dict], seeds: list[int], names: list[str]) -> dict:
    """One side's seeds, failure counts, per-metric values and summary, and the facts of its machine."""
    metrics = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": statistics.median(values),
                         "min": min(values), "iqr": iqr(values), "n": len(values), "values": values}
    facts = {key: runs[0]["facts"].get(key) for key in ("cpu_count", "python", "numpy", "blas", "blas_threads")}
    facts.update(blas_core=runs[0]["blas_core"], run_seconds=runs[0]["facts"]["seconds"], trace=0)
    return {"seeds": seeds, "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs), "metrics": metrics, "facts": facts}


def trace0_block(runs: dict[str, list], seeds: list[int], metrics: dict[str, dict], shas: dict[str, str]) -> dict:
    """Both sides' blocks and each metric's pair statistics; ``metrics`` maps a name to its ``better`` and ``bound``."""
    block = {"shas": shas, **{side: side_block(runs[side], seeds, list(metrics)) for side in SIDES}}
    block["pairs"] = {name: pair_stats(block["parent"]["metrics"][name]["values"],
                                       block["change"]["metrics"][name]["values"], m["better"], m["bound"])
                      for name, m in metrics.items()}
    return block


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run of ``tree``'s own harness in a fresh process: its result, facts and BLAS core."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env={**os.environ, "OPENBLAS_VERBOSE": "2"}, capture_output=True,
                          text=True, timeout=max(600.0, 20 * seconds))
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{tree}: run.py exited {done.returncode} without a result:\n{done.stderr[-2000:]}")
    core = re.search(r"Core: (\S+)", done.stderr)
    return {"result": json.loads(lines[-1]), "facts": json.loads(lines[-2])["facts"],
            "blas_core": core[1] if core else "unknown"}


def describe(tree: Path) -> str:
    """The tree's git commit, marked when its working files differ from it, or why there is none."""
    git = ["git", "-C", str(tree)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode:
        return "unknown: not a git checkout"
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
    return head.stdout.strip() + (" with uncommitted changes" if dirty.stdout.strip() else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/ab.py", description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed0", type=int, required=True, help="the first seed; pairs run seeds seed0, seed0+1, ...")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file for the workload's trace0 block")
    args = parser.parse_args(argv)
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    metrics = {m["name"]: m for m in json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]}
    seeds = list(range(args.seed0, args.seed0 + args.pairs))
    with tempfile.TemporaryDirectory(prefix="ab-") as work:
        copies = {side: Path(work) / side for side in SIDES}
        for side in SIDES:
            shutil.copytree(trees[side], copies[side], ignore=SKIPPED)

        def runner(side: str, seed: int) -> dict:
            run = run_benchmark(copies[side], args.workload, seed, args.seconds)
            print(f"{side} seed {seed}: " + ", ".join(f"{k} {v['value']:.6g}" for k, v in
                                                      run["result"]["metrics"].items()), flush=True)
            return run

        runs = run_pairs(runner, seeds)
    block = trace0_block(runs, seeds, metrics, {side: describe(trees[side]) for side in SIDES})
    how = (f"python3 tools/ab.py PARENT CHANGE --workload {args.workload} --seed0 {args.seed0} --pairs {args.pairs} "
           f"--seconds {args.seconds:g}: both trees copied to plain directories, one process per run, one discarded "
           f"parent warm-up run, the side that runs first alternating per seed")
    args.out.write_text(json.dumps({"workload": args.workload, "trace0": block, "how": how}, indent=1) + "\n")
    for name, p in block["pairs"].items():
        print(f"{name}: median ratio {p['median_ratio']:.4f}, change wins {p['change_wins']}/{p['pairs']}"
              f" ({p['ties']} ties); gain rule {'holds' if p['gain'] else 'fails'};"
              f" {'worse' if p['worse_than_bound'] else 'not worse'} than the parent by more than {p['bound']:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
