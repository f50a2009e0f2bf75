"""Measure the benchmark's baseline and its run-to-run spread.

Run from the root of a checkout:

    python3 bench/baseline.py

For each workload this runs the BENCHMARK.json command once per seed,
sequentially: SETS sets of SEEDS end-to-end runs with distinct seeds, then
one traced run.  It reports, per end-to-end metric, the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median of each set, and how far each later set's median moved
from the first set's in the metric's worse direction, against the metric's
bound.  It also records the trace anchors: call counts of the DEFAULT_BOX
oracle op and of report(1,1,3).  Everything goes to bench/baseline.json.

It exits with 1 if a run is not correct, if a set's spread exceeds the
metric's bound (setup_s excepted: the benchmark's contract bounds the
spread of every end-to-end metric but setup_s, whose launches are too few
and too short to be steady; it bounds only setup_s's median), or if a later
set's median is worse than the first set's by more than the bound.  A
spread above a third of the bound is flagged but passes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = ROOT / "bench" / "baseline.json"
SETS = 2
SEEDS = 10


def bench(workload: str, seed: int, trace: int) -> dict:
    argv = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"wall={result['wall_s']:.1f}s", file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def anchors() -> dict:
    """Call counts of two anchor ops: the default-box oracle op and
    report(1,1,3)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import run
    run.load_program()
    from dp1toric import conditions
    from dp1toric.grading import BundleParams
    from tracing import INDEX, Tracer
    from workloads import OracleScan, run_cli

    names = ("conditions.validity", "conditions.delta",
             "grading.is_dz_movable_on_x")
    found = {}
    for label, call in (
            ("oracle DEFAULT_BOX", lambda: run_cli(OracleScan.argv(
                ((0, 10), (-30, 30), (0, 30))))),
            ("report(1,1,3)", lambda: conditions.report(BundleParams(1, 1, 3)))):
        tracer = Tracer(max_spans=0)
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        found[label] = {name: tracer.calls[INDEX[name]] for name in names}
    return found


def main() -> None:
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    out = {
        "git_sha": git.stdout.strip() or "unknown",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "run_seconds": BENCHMARK["run_seconds"],
        "anchors": anchors(),
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        sets = []
        for s in range(SETS):
            seeds = list(range(1 + s * SEEDS, 1 + (s + 1) * SEEDS))
            runs = [bench(workload, seed, 0) for seed in seeds]
            ok &= all(r["correct"] for r in runs)
            sets.append({
                "seeds": seeds,
                "wall_s": [round(r["wall_s"], 1) for r in runs],
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs],
                "metrics": {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                                for r in runs])
                            for m in BENCHMARK["end_to_end"]},
            })
        traced = bench(workload, 1, 1)
        ok &= traced["correct"]
        out["workloads"][workload] = {
            "sets": sets,
            "trace": {"seed": 1, "wall_s": round(traced["wall_s"], 1),
                      "attempted": traced["attempted"],
                      "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        for m in BENCHMARK["end_to_end"]:
            first = sets[0]["metrics"][m["name"]]
            line = [f"{workload:<12} {m['name']:<15} median {first['median']:<12.6g}"]
            for later in sets:
                stats = later["metrics"][m["name"]]
                worse = (stats["median"] - first["median"]) / first["median"]
                if m["better"] == "higher":
                    worse = -worse
                line.append(f"spread {stats['spread']:.4f} worse {worse:+.4f}")
                if stats["spread"] > m["bound"] and m["name"] != "setup_s":
                    line.append("<- FAIL: spread above bound")
                    ok = False
                elif stats["spread"] > m["bound"] / 3:
                    line.append("<- spread above bound/3")
                if worse > m["bound"]:
                    line.append("<- FAIL: median beyond bound")
                    ok = False
            print(" | ".join(line), f"(bound {m['bound']})")
    OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}; all runs correct and within bounds: {ok}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
