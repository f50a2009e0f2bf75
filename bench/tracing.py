"""Per-layer tracing of dp1toric from outside the package.

`Tracer.install` replaces each of the public functions named in `LAYERS`
by a timing wrapper, in every loaded ``dp1toric`` module namespace that
holds the original (the defining module and each module that imported it
by name), so calls across modules and within a module are both seen.
`Tracer.uninstall` puts the originals back.

Each wrapped call is a span (name, start, end, parent, op).  Self time is
the span's duration minus the duration of its traced child spans.  Spans
are kept in memory, up to `max_spans`, and written out by `write_spans`;
counts and self times cover every call, stored or not.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = {
    "grading": ("monomial_basis", "base_locus_strata", "is_dz_movable_on_x",
                "normalize"),
    "chow": ("product", "evaluate_top", "triple_on_x", "derive_h4",
             "minus_k_cubed"),
    "conditions": ("validity", "classify_case", "nef_threshold", "delta",
                   "k_status", "report"),
    "classify": ("oracle_search", "classify_k2_failures"),
    "cli": ("main", "render_rows", "render_report"),
}

NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
INDEX = {name: i for i, name in enumerate(NAMES)}
OP = -1  # name index of the root span the benchmark opens around each op


def _box_volume(box) -> int:
    (llo, lhi), (mlo, mhi), (nlo, nhi) = (box.lambda_range, box.mu_range,
                                          box.nu_range)
    return max(0, lhi - max(llo, 0) + 1) * (mhi - mlo + 1) * (nhi - nlo + 1)


# Outcome counters: name -> f(args, result) giving (useful, attempts).
OUTCOMES = {
    "classify.oracle_search": lambda args, rows: (len(rows),
                                                  _box_volume(args[0])),
    "grading.is_dz_movable_on_x": lambda args, proven: (int(proven), 1),
    "grading.monomial_basis": lambda args, basis: (len(basis), 1),
}


class Tracer:
    def __init__(self, max_spans: int = 250_000):
        self.max_spans = max_spans
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.useful = dict.fromkeys(OUTCOMES, 0)
        self.attempts = dict.fromkeys(OUTCOMES, 0)
        self.op_ns = 0
        self.spans_seen = 0
        self._spans = {col: array("q") for col in
                       ("id", "name", "start", "end", "parent", "op")}
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._op = -1
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        packages = [m for key, m in sorted(sys.modules.items())
                    if key == "dp1toric" or key.startswith("dp1toric.")]
        for name in NAMES:
            module_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"dp1toric.{module_name}"], fn_name)
            wrapper = self._wrap(INDEX[name], original,
                                 OUTCOMES.get(name), name)
            for module in packages:
                if vars(module).get(fn_name) is original:
                    setattr(module, fn_name, wrapper)
                    self._installed.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._installed):
            setattr(module, fn_name, original)
        self._installed.clear()

    def _record(self, span_id, name, start, end, parent) -> None:
        self.spans_seen += 1
        if self.spans_seen > self.max_spans:
            return
        for col, value in (("id", span_id), ("name", name), ("start", start),
                           ("end", end), ("parent", parent), ("op", self._op)):
            self._spans[col].append(value)

    def _wrap(self, index, fn, outcome, name):
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                calls[index] += 1
                self_ns[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self._record(frame[0], index, start, end, parent)
            if outcome is not None:
                useful, attempts = outcome(args, result)
                self.useful[name] += useful
                self.attempts[name] += attempts
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span around one benchmark op."""
        self._op = op_id
        frame = [self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.op_ns += end - start
            self._record(frame[0], OP, start, end, -1)

    def write_spans(self, path, op_labels: list[str]) -> None:
        cols = self._spans
        stored = len(cols["id"])
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# spans stored: {stored} of {self.spans_seen}; "
                      "times are ns since the first stored span\n")
            for i, label in enumerate(op_labels):
                out.write(f"# op {i}: {label}\n")
            out.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            t0 = min(cols["start"], default=0)
            for k in range(stored):
                name = cols["name"][k]
                out.write(f"{cols['id'][k]}\t{NAMES[name] if name >= 0 else 'op'}"
                          f"\t{cols['start'][k] - t0}\t{cols['end'][k] - t0}"
                          f"\t{cols['parent'][k]}\t{cols['op'][k]}\n")
