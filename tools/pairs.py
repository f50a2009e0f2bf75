"""Measure a change against its parent: 10 seeded pairs of benchmark runs
per workload, and a summary of the end-to-end metrics.

Usage: python3 tools/pairs.py PARENT CHANGE OUT

PARENT and CHANGE are the roots of two checkouts.  For each workload that
CHANGE's BENCHMARK.json names and each seed 101-110, the command

    python3 bench/run.py --workload W --seed S --seconds 25 --trace 0

runs once in each checkout, with the checkout root as the working
directory.  One process runs at a time, and which side runs first
alternates from seed to seed.  Before every run the checkout's
src/dp1toric/__pycache__ is deleted, so that the setup_s and cli_cold_ms
launches of both sides start from the same (empty) bytecode cache.

OUT gets a JSON array with one object per line, in run order:
{"workload", "seed", "side", "position", "run"}, where side is "parent" or
"change", position is 1 for the side that ran first and 2 for the other,
and run is the JSON object that bench/run.py prints last.  Then, for each
workload, stdout gets each side's totals of failed and attempted ops over
its runs, and for each end-to-end metric both medians, the parent's
quartiles q1-q3, the parent's drift (the median absolute difference
between its runs of consecutive seeds: how far one run of unchanged code
moves from the next, which a q1-q3 narrower than it understates) and the
number of pairs in which the change is better by the metric's `better`
direction.  That count is marked `gain` when it is at least 9/10, the
medians differ, in the better direction, by more than the parent's q3 -
q1, and the change failed no larger share of its ops than the parent; it
is marked `worse` when the change's median is worse than the parent's by
more than the metric's relative `bound`.  Last, stdout gets each side's
line total of src/dp1toric/*.py (as `wc -l` counts) and code-line total
(as tools/code_lines.py counts), and the change's delta of each.  If a
run fails, its stderr is printed, OUT gets the records of the runs before
it, and the exit status is 1.  Only the standard library is used.
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

SEEDS = range(101, 111)


def bench(root: Path, workload: str, seed: int) -> subprocess.CompletedProcess:
    """One untraced 25 s run in the checkout root, its output captured."""
    shutil.rmtree(root / "src" / "dp1toric" / "__pycache__", ignore_errors=True)
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "25", "--trace", "0"],
        cwd=root, capture_output=True, text=True)


def write(path: str, records: list[dict]) -> None:
    Path(path).write_text(
        "[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n", encoding="utf-8")


def pair_rule(parent: list, change: list, sign: int = 1) -> tuple:
    """(parent's median, change's median, parent's q1, parent's q3, k,
    marked) of a measure taken in pairs: k is the number of pairs in which
    the change is above the parent (below it, with sign -1), and marked
    whether k is at least 9/10 of the pairs while the medians differ the
    same way by more than the parent's q3 - q1.  `summary` marks a `gain`,
    and tools/basis_times.py `slower`, by it."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    before, after = statistics.median(parent), statistics.median(change)
    k = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    marked = 10 * k >= 9 * len(parent) and sign * (after - before) > q3 - q1
    return before, after, q1, q3, k, marked


def drift(parent: list) -> float:
    """The median absolute difference between consecutive parent runs."""
    return statistics.median(abs(b - a) for a, b in zip(parent, parent[1:]))


def summary(records: list[dict], metrics: list[dict]) -> str:
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = {(r["side"], r["seed"]): r["run"]
                for r in records if r["workload"] == workload}
        seeds = sorted({seed for _, seed in runs})
        (fp, ap), (fc, ac) = ([sum(runs[side, s][key] for s in seeds)
                               for key in ("failed", "attempted")]
                              for side in ("parent", "change"))
        lines.append(f"{workload}: failed/attempted ops parent {fp}/{ap}  change {fc}/{ac}")
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            parent, change = ([runs[side, s]["metrics"][name]["value"] for s in seeds]
                              for side in ("parent", "change"))
            before, after, q1, q3, wins, marked = pair_rule(parent, change, sign)
            # fc/ac <= fp/ap, the failed shares compared without dividing.
            if marked and fc * ap <= fp * ac:
                mark = "gain  "
            elif -sign * (after / before - 1) > metric.get("bound", math.inf):
                mark = "worse  "
            else:
                mark = ""
            lines.append(
                f"  {name:<16} parent {before:.6g} (q1-q3 {q1:.6g}-{q3:.6g}) "
                f"(drift {drift(parent):.6g})  "
                f"change {after:.6g} ({after / before - 1:+.1%})  "
                f"{mark}better in {wins}/{len(seeds)}")
    return "\n".join(lines)


def sizes(sides: dict[str, Path]) -> str:
    """Each side's src/dp1toric/*.py line and code-line totals, and the
    change's deltas."""
    lines = []
    for label, count in (("lines", lambda t: t.count("\n")), ("code lines", code_lines)):
        parent, change = (sum(count(p.read_text(encoding="utf-8"))
                              for p in (root / "src" / "dp1toric").glob("*.py"))
                          for root in (sides["parent"], sides["change"]))
        lines.append(f"src/dp1toric {label:<10} parent {parent}  change {change} "
                     f"({change - parent:+d})")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write("usage: python3 tools/pairs.py PARENT CHANGE OUT\n")
        return 2
    sides = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    config = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    records = []
    for workload in (w["name"] for w in config["workloads"]):
        for i, seed in enumerate(SEEDS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order, 1):
                done = bench(sides[side], workload, seed)
                if done.returncode != 0:
                    sys.stderr.write(f"{workload} seed {seed} {side} exited "
                                     f"{done.returncode}:\n{done.stderr}")
                    write(argv[2], records)
                    return 1
                run = json.loads(done.stdout.splitlines()[-1])
                records.append({"workload": workload, "seed": seed, "side": side,
                                "position": position, "run": run})
                print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                      f"failed={run['failed']}", file=sys.stderr)
    write(argv[2], records)
    print(summary(records, config["end_to_end"]))
    print(sizes(sides))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
