"""Benchmark of the dp1toric library and CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload oracle_scan --seed 1 --seconds 30 --trace 0

One process, closed loop, one client: each op starts after the previous one
returned and was checked.  `--trace 0` measures the end-to-end metrics,
`--trace 1` the per-layer metrics (half the time untraced, half traced).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  BENCHMARK.json and bench/README.md
describe the workloads and metrics.

    python3 bench/run.py --record [--workload NAME]

re-records the expected outputs in bench/expected/ from the current code.
Only a change that alters answers on purpose does this, and says so in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_OPS = 100  # so that at least 10 latency samples lie beyond p90
LAUNCHES = 15  # measured launches each for setup_s and cli_cold_ms
REFERENCE_NS = 1_000_000  # nominal time of reference_ns(): the speed op times are reported at
REFERENCE_EVERY_NS = 25_000_000  # op time per timing of reference_ns()
WINDOW = 5  # reference timings on each side of an op that give its speed
BARE_LAUNCH_MS = 50  # nominal time of bare_launch_ms(): the speed launches are reported at
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dp1toric; "
                "print(time.perf_counter() - t, dp1toric.__file__)")


def load_program() -> None:
    """Put the checkout's src/ first on sys.path and import dp1toric from it."""
    init = SRC / "dp1toric" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import dp1toric
    if Path(dp1toric.__file__).resolve() != init.resolve():
        sys.exit(f"error: dp1toric imported from {dp1toric.__file__}, not {SRC}")


def launch(argv: list[str]) -> tuple[int, subprocess.CompletedProcess]:
    start = perf_counter_ns()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    return perf_counter_ns() - start, proc


def import_seconds() -> tuple[float, str | None]:
    """Time of `import dp1toric` in a fresh interpreter."""
    _, proc = launch(["-c", IMPORT_PROBE])
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2:
        return 0.0, f"import probe failed: {proc.stderr.strip()}"
    if Path(fields[1]).resolve().parent != SRC / "dp1toric":
        return 0.0, f"import probe loaded {fields[1]}"
    return float(fields[0]), None


def cold_cli_ms(expected: dict) -> tuple[float, str | None]:
    """Wall time of one fresh `python -m dp1toric <argv>`, output checked."""
    from workloads import cli_text, crc

    elapsed, proc = launch(["-m", "dp1toric", *expected["argv"]])
    if crc(cli_text(proc.stdout, proc.returncode)) != expected["crc32"]:
        return 0.0, f"cold CLI output differs: {proc.stderr.strip()}"
    return elapsed / 1e6, None


def bare_launch_ms() -> float:
    """Wall time of a fresh `python -c pass`, which does not touch dp1toric."""
    elapsed, _ = launch(["-c", "pass"])
    return elapsed / 1e6


def reference_ns() -> int:
    """Wall time of a fixed loop of Fraction sums, which does not touch
    dp1toric.  Exact rational arithmetic is what dp1toric spends its time
    on, so this loop slows down with the machine as dp1toric does: over
    a minute on the shared machine, op time / reference time varied 2.5x
    less with it than with a loop of int arithmetic.  The garbage collector
    is off while it runs, so that the program's heap cannot slow it."""
    gc.disable()
    start = perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i + 1)
    elapsed = perf_counter_ns() - start
    gc.enable()
    return elapsed


class Loop:
    def __init__(self, capacity: int):
        # Allocated in full up front, so that peak_rss_mib does not depend
        # on how many ops a run gets through.
        self.durations = array("q", bytes(8 * capacity))
        self.refs: list[tuple[int, int]] = []  # (ops done before it, reference_ns())
        self.failures: list[tuple[int, object, str]] = []
        self.calls: list[tuple[int, ...]] = []  # per-op call counts when traced

    def calibrated(self) -> list[float]:
        """Op times at the speed where reference_ns() takes REFERENCE_NS.

        The machine is shared: its speed changes by up to 1.6x within
        seconds, as other tenants load its cores.  So the loop times
        reference_ns() once per REFERENCE_EVERY_NS of op time, and each op
        time is multiplied by REFERENCE_NS / the median of the 2 * WINDOW
        reference timings around it.
        """
        at = [k for k, _ in self.refs]
        factors = [REFERENCE_NS / statistics.median(
                       [ns for _, ns in self.refs[max(0, j - WINDOW):j + WINDOW]])
                   for j in range(len(self.refs) + 1)]
        return [d * factors[bisect.bisect_right(at, k)]
                for k, d in enumerate(self.durations)]


def check(workload, op, result) -> str | None:
    try:
        return workload.check(op, result)
    except Exception as exc:  # a malformed output is a failed op, not a crash
        return f"check raised {exc!r}"


def timed_loop(workload, ops, first: int, budget_ns: int, min_ops: int = 1,
               round_size: int = 1, tracer=None) -> Loop:
    """Run ops from ops[first] on, in order, until budget_ns of op time and
    min_ops ops are done and the last round of round_size ops is complete,
    or the op list ends.  No op runs twice.  Only the call is timed; checks
    and reference timings run between ops."""
    loop = Loop(len(ops) - first)
    spent, next_ref = 0, 0
    i = first
    while i < len(ops) and (spent < budget_ns or i - first < min_ops or
                            (i - first) % round_size):
        while spent >= next_ref:
            loop.refs.append((i - first, reference_ns()))
            next_ref += REFERENCE_EVERY_NS
        op = ops[i]
        before = tuple(tracer.calls) if tracer else ()
        scope = tracer.op(i) if tracer else contextlib.nullcontext()
        start = perf_counter_ns()
        try:
            with scope:
                result = workload.run(op)
        except Exception as exc:  # an op that raises is a failed op
            elapsed = perf_counter_ns() - start
            problem = f"raised {exc!r}"
        else:
            elapsed = perf_counter_ns() - start
            if tracer:
                loop.calls.append(tuple(a - b for a, b in zip(tracer.calls, before)))
            problem = check(workload, op, result)
        loop.durations[i - first] = elapsed
        spent += elapsed
        if problem:
            loop.failures.append((i, op, problem))
        i += 1
    del loop.durations[i - first:]
    loop.refs.append((i - first, reference_ns()))
    return loop


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, ops, seconds: float) -> tuple[dict, list[Loop], list[str]]:
    """Op times are taken at the reference speed (`Loop.calibrated`):
    ops_per_s is correct ops / total op time, and the latencies are
    percentiles of the op times.  setup_s and cli_cold_ms are medians over
    LAUNCHES fresh interpreters, each scaled by BARE_LAUNCH_MS / the mean of
    the bare launches just before and just after it: over 400 s of the
    shared machine, 15-launch medians of the cold CLI varied 0.014 (q3 - q1
    over the median) scaled so, 0.067 scaled by reference_ns() timings and
    0.087 unscaled."""
    samples = {"setup_s": [], "cli_cold_ms": []}
    problems = []
    before = bare_launch_ms()
    for k in range(LAUNCHES + 1):  # the first may write bytecode caches
        for key, measure in (("setup_s", import_seconds),
                             ("cli_cold_ms",
                              lambda: cold_cli_ms(workload.expected["cold_cli"]))):
            value, problem = measure()
            after = bare_launch_ms()
            if problem:
                problems.append(problem)
            elif k:
                samples[key].append(value * 2 * BARE_LAUNCH_MS / (before + after))
            before = after
    loop = timed_loop(workload, ops, 0, int(seconds * 1e9), MIN_OPS,
                      workload.round_size)
    rss = peak_rss_mib()  # before the lists below, which grow with the op count
    times = loop.calibrated()
    n = len(times)
    metrics = {
        "ops_per_s": ((n - len(loop.failures)) / (sum(times) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(times) / 1e6, "ms"),
        "latency_p90_ms": (statistics.quantiles(times, n=10)[8] / 1e6, "ms"),
        "setup_s": (statistics.median(samples["setup_s"] or [0.0]), "s"),
        "cli_cold_ms": (statistics.median(samples["cli_cold_ms"] or [0.0]), "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }
    wall = sum(loop.durations) / 1e9
    print(f"  latency samples: {n} over {wall:.1f} s of op time ({n / wall:.6g} "
          f"ops/s at the machine's own speed); {len(loop.refs)} reference "
          f"timings, median {statistics.median(ns for _, ns in loop.refs) / 1e6:.3f} "
          f"ms; launches: {len(samples['setup_s'])} imports, "
          f"{len(samples['cli_cold_ms'])} cold CLI; error_rate "
          f"{len(loop.failures) / n:g} ({len(loop.failures)}/{n} ops failed)")
    return metrics, [loop], problems


def traced_calls(workload, ops, first: int, count: int) -> list[tuple[int, ...]]:
    """Per-op call counts of ops[first:first + count], traced."""
    from tracing import Tracer

    tracer = Tracer(max_spans=0)
    tracer.install()
    try:
        return timed_loop(workload, ops, first, 0, count, tracer=tracer).calls
    finally:
        tracer.uninstall()


def per_layer(workload, ops, seconds: float, seed: int) -> tuple[dict, list[Loop], list[str]]:
    """The first half of the op list runs untraced and the second traced,
    each for half the time; then a fresh process traces the first traced
    ops again, and their call counts must repeat exactly."""
    from tracing import INDEX, LAYERS, NAMES, Tracer

    half = int(seconds * 1e9) // 2
    size = workload.round_size
    middle = len(ops) // size // 2 * size
    plain = timed_loop(workload, ops[:middle], 0, half, round_size=size)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(workload, ops, middle, half, round_size=size,
                            tracer=tracer)
    finally:
        tracer.uninstall()
    n_repeat, spent = 0, 0
    while n_repeat < len(traced.durations) and spent < half // 10:
        spent += traced.durations[n_repeat]
        n_repeat += 1
    _, proc = launch([str(Path(__file__).resolve()), "--workload", workload.name,
                      "--seed", str(seed), "--calls", str(middle), str(n_repeat)])
    problems = []
    if proc.returncode != 0 or proc.stdout.splitlines()[-1:] != \
            [json.dumps(traced.calls[:n_repeat])]:
        problems.append(f"call counts of the first {n_repeat} traced ops differ "
                        f"in a second traced run: {proc.stderr.strip()}")
    for i, calls in enumerate(traced.calls):
        problem = workload.trace_check(ops[middle + i], calls, INDEX)
        if problem:
            problems.append(f"op {middle + i}: {problem}")
            break

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{seed}.spans.tsv"
    tracer.write_spans(spans_path, [workload.label(ops[middle + i])
                                    for i in range(len(traced.durations))])

    n = len(traced.durations)
    metrics = {}
    for i, name in enumerate(NAMES):
        metrics[f"{name}.calls"] = (tracer.calls[i] / n, "calls/op")
        metrics[f"{name}.self_us"] = (tracer.self_ns[i] / n / 1e3, "us/op")
    for module, fns in LAYERS.items():
        self_ns = sum(tracer.self_ns[INDEX[f"{module}.{fn}"]] for fn in fns)
        metrics[f"{module}.self_share"] = (self_ns / tracer.op_ns, "share")

    def ratio(a, b):
        return a / b if b else 0.0

    triplets = sum(workload.triplets(ops[middle + i]) for i in range(n))
    metrics["conditions.validity.calls_per_triplet"] = (
        tracer.calls[INDEX["conditions.validity"]] / triplets, "calls/triplet")
    for name, key, unit in (("classify.oracle_search", "hit_ratio", "ratio"),
                            ("grading.is_dz_movable_on_x", "proven_ratio", "ratio"),
                            ("grading.monomial_basis", "monomials", "monomials/call")):
        metrics[f"{name}.{key}"] = (ratio(tracer.useful[name], tracer.attempts[name]), unit)
    # Mean traced op time over mean untraced op time: every round holds
    # the same mix of ops.
    metrics["trace_overhead"] = (statistics.fmean(traced.calibrated()) /
                                 statistics.fmean(plain.calibrated()), "ratio")
    print(f"  traced ops: {n}; untraced ops: {len(plain.durations)}; "
          f"repeated ops: {n_repeat}; spans: {spans_path.relative_to(ROOT)} "
          f"({tracer.spans_seen} seen)")
    return metrics, [plain, traced], problems


def run(args) -> None:
    from workloads import WORKLOADS

    if hasattr(os, "sched_setaffinity"):
        # One core: launches then run where the reference timings were taken.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload].load()
    ops = workload.ops(args.seed)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {len(ops)} ops in the op list")
    measure = per_layer if args.trace else end_to_end
    extra = (args.seed,) if args.trace else ()
    metrics, loops, problems = measure(workload, ops, args.seconds, *extra)
    attempted = sum(len(loop.durations) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    for i, op, problem in failures[:5]:
        print(f"op {i} ({workload.label(op)}) failed: {problem}", file=sys.stderr)
    for problem in problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def record(names: list[str]) -> None:
    from workloads import EXPECTED_DIR, WORKLOADS

    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names:
        cls = WORKLOADS[name]
        data = {"recorded_from": git.stdout.strip() or "unknown",
                "python": platform.python_version(),
                **cls.record(lambda msg: print(msg, file=sys.stderr)),
                "cold_cli": cls.record_cold_cli()}
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("oracle_scan", "analyze_mix",
                                               "crosscheck"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calls", nargs=2, type=int, metavar=("FIRST", "COUNT"),
                        help="print the per-op call counts of COUNT traced ops "
                             "from op FIRST on (a traced run's repeat check)")
    parser.add_argument("--record", action="store_true",
                        help="re-record bench/expected/ from the current code")
    args = parser.parse_args()
    load_program()
    if args.record:
        record([args.workload] if args.workload else
               ["oracle_scan", "analyze_mix", "crosscheck"])
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.calls:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload].load()
        print(json.dumps(traced_calls(workload, workload.ops(args.seed), *args.calls)))
    else:
        run(args)


if __name__ == "__main__":
    main()
