"""The traced pass: spans around each call, and the per-layer metrics.

Spans are recorded from the benchmark's side, around calls into the public
functions of each module of `src/orthorank1`; nothing inside the program is
instrumented.  The traced pass replays the untraced pass's calls in the same
order.  On the first visit of each input it also calls the layer functions
one by one on that input, as children of the same op span, so that

    closed_form.vectors_ms = full_svd - special_eigenpairs       (same input)
    cli.self_ms = cli svd - (load + invariant_scalars + spectrum + full_svd)

are differences of calls on identical inputs.  Spans stay in memory and are
written out once, at the end.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

import numpy as np

import program as p
from workloads import CALLS, Plan, Tally, prepare

MODULES = ("core", "closed_form", "oracle", "harness", "instance_io", "cli")

# the checks run_verify can record, each reported as harness.failures.<check>
CAMPAIGN_CHECKS = (
    "theorem_residual", "product_identity", "reconstruction", "orthonormality",
    "eigen_residual", "rank_revelation", "oracle_convergence", "oracle_deviation",
)

ORACLE_CUTOFF = 64  # run_verify's default: larger campaigns skip the oracle
SLOPE_REPS = 3


class Tracer:
    """In-memory spans: (span_id, parent_id, op_id, name, start_ns, end_ns)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self.op_id = 0

    def start_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span; an exception is returned, not raised."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception as exc:  # the untraced pass already counted it
            result = exc
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((span_id, parent, self.op_id, name, start, end))
        return result

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span_id,parent_id,op_id,name,start_ns,end_ns\n")
            for span in self.spans:
                handle.write(",".join(str(field) for field in span) + "\n")


def _layer_calls(tracer: Tracer, op: str, unit) -> None:
    """The layer functions under `op`, called one by one on the same input."""
    if op == "spectrum":
        m = unit.instance
        scal = tracer.call("core.invariant_scalars", p.invariant_scalars, m)
        if m.q is not None:
            tracer.call("core.validate_orthogonal", p.validate_orthogonal, m.q.matrix)
        if not isinstance(scal, Exception):
            # the reduced pair has c = x^T y = gamma and t = |y| = alpha beta
            c, t = scal.gamma, scal.alpha * scal.beta
            tracer.call("closed_form.special_eigenvalues", p.special_eigenvalues, c, t)
            if t > 0.0:
                tracer.call("closed_form.mixing_coefficients", p.mixing_coefficients, c, t)
    elif op == "full_svd":
        tracer.call("closed_form.special_eigenpairs", p.special_eigenpairs, unit.instance)
        tracer.call("core.materialize", p.materialize, unit.instance)
    elif op == "file_svd":
        m = tracer.call("instance_io.load_instance", p.load_instance, unit.path)
        if not isinstance(m, Exception):
            tracer.call("core.invariant_scalars", p.invariant_scalars, m)
            tracer.call("closed_form.spectrum", p.spectrum, m)
            tracer.call("closed_form.full_svd", p.full_svd, m)


PUBLIC_SPAN = {
    "spectrum": "closed_form.spectrum",
    "full_svd": "closed_form.full_svd",
    "dump": "instance_io.dump_instance",
    "file_svd": "cli.main",
    "verify": "harness.run_verify",
}


def replay(plan: Plan, tally: Tally) -> float:
    """The untraced pass's calls again, back to back, without checks: wall seconds."""
    start = time.perf_counter()
    for op, index in tally.sequence:
        for unit in plan.segments[op][index]:
            prepare(op, unit)
            try:
                CALLS[op](unit)
            except Exception:  # counted by the untraced pass
                pass
    return time.perf_counter() - start


def traced_pass(plan: Plan, tally: Tally, tracer: Tracer) -> tuple[float, dict[int, tuple]]:
    """Replay the untraced calls with spans; returns (wall seconds, op id -> (op, input))."""
    ops: dict[int, tuple] = {}
    visited = set()
    start = time.perf_counter()
    for op, index in tally.sequence:
        for unit in plan.segments[op][index]:
            prepare(op, unit)
            ops[tracer.start_op()] = (op, unit)
            tracer.call(f"op.{op}", _traced_op, tracer, op, unit, (op, index) not in visited)
        visited.add((op, index))
    return time.perf_counter() - start, ops


def _traced_op(tracer: Tracer, op: str, unit, first_visit: bool) -> None:
    tracer.call(PUBLIC_SPAN[op], CALLS[op], unit)
    if first_visit:
        _layer_calls(tracer, op, unit)


def layer_pass(plan: Plan, tracer: Tracer) -> dict[tuple[str, int], list[float]]:
    """Per-n timings for the slopes, sampling and the oracle, in seconds."""
    per_n: dict[tuple[str, int], list[float]] = defaultdict(list)

    def timed(name, n, fn, *args):
        tracer.start_op()
        before = len(tracer.spans)
        tracer.call(name, fn, *args)
        span = tracer.spans[before]
        per_n[name, n].append((span[5] - span[4]) * 1e-9)

    for n, items in sorted(plan.slope_items.items()):
        for item in items:
            for _ in range(SLOPE_REPS):
                timed("closed_form.spectrum", n, p.spectrum, item.instance)
                timed("closed_form.full_svd", n, p.full_svd, item.instance)
                if item.instance.q is not None:
                    timed("core.validate_orthogonal", n, p.validate_orthogonal,
                          item.instance.q.matrix)
                timed("oracle.sample_instance", n, p.sample_instance, item.dist, item.seed)
    oracle_dims = [n for n in plan.slope_items if n <= ORACLE_CUTOFF] or [min(plan.slope_items)]
    jacobi_n = max(oracle_dims)
    for _ in range(SLOPE_REPS):
        timed("oracle.jacobi_svd", jacobi_n, p.jacobi_svd, plan.slope_items[jacobi_n][0].dense)
    return per_n


def slope(per_n, name: str) -> tuple[float, list[tuple[int, float]]]:
    """Log-log least-squares exponent of median time against n, and its points."""
    points = sorted((n, statistics.median(ts)) for (key, n), ts in per_n.items() if key == name)
    if len(points) < 2:
        return float("nan"), points
    ns, ts = zip(*points)
    return float(np.polyfit(np.log(ns), np.log(ts), 1)[0]), points


def dump_by_q_kind(tracer: Tracer, ops: dict[int, tuple]) -> dict[str, tuple[float, float]]:
    """Median dump_instance milliseconds and file bytes per Q kind."""
    times, sizes = defaultdict(list), defaultdict(list)
    for _, _, op_id, name, start, end in tracer.spans:
        if name == "instance_io.dump_instance":
            unit = ops[op_id][1]
            kind = unit.label.split("/")[0]
            times[kind].append((end - start) * 1e-6)
            sizes[kind].append(os.path.getsize(unit.out_path))
    return {kind: (statistics.median(times[kind]), statistics.median(sizes[kind]))
            for kind in times}


def per_layer_metrics(plan: Plan, tally: Tally, tracer: Tracer, ops: dict[int, tuple],
                      per_n, ref: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Every per_layer metric of BENCHMARK.json, as name -> (value, unit)."""
    kinds = {op_id: op for op_id, (op, _) in ops.items()}
    by_op: dict[tuple[str, str], list[float]] = defaultdict(list)  # (op, span) -> seconds
    by_id: dict[int, dict[str, float]] = defaultdict(dict)  # op id -> span -> seconds
    child_s: dict[int, float] = defaultdict(float)
    for span_id, parent, op_id, name, start, end in tracer.spans:
        seconds = (end - start) * 1e-9
        child_s[parent] += seconds
        if op_id in kinds and not name.startswith("op."):
            by_op[kinds[op_id], name].append(seconds)
            by_id[op_id][name] = seconds

    def med(op, name, scale):
        values = by_op.get((op, name))
        return statistics.median(values) * scale if values else float("nan")

    def med_diff(op, whole, parts, scale):
        diffs = [spans[whole] - sum(spans[part] for part in parts)
                 for op_id, spans in by_id.items()
                 if kinds[op_id] == op and whole in spans and all(part in spans for part in parts)]
        return statistics.median(diffs) * scale if diffs else float("nan")

    reduction = [spans["closed_form.special_eigenvalues"]
                 + spans.get("closed_form.mixing_coefficients", 0.0)
                 for op_id, spans in by_id.items()
                 if kinds[op_id] == "spectrum" and "closed_form.special_eigenvalues" in spans]
    self_s = dict.fromkeys(MODULES, 0.0)
    for span_id, parent, op_id, name, start, end in tracer.spans:
        module = name.split(".")[0]
        if module in self_s:
            self_s[module] += (end - start) * 1e-9 - child_s[span_id]
    sizes = [os.path.getsize(unit.out_path) for op, index in set(tally.sequence) if op == "dump"
             for unit in plan.segments["dump"][index]]
    largest = max(plan.slope_items)
    jacobi = [ts for (name, n), ts in per_n.items() if name == "oracle.jacobi_svd"][0]

    metrics = {
        "core.validate_orthogonal_ms": (med("spectrum", "core.validate_orthogonal", 1e3), "ms"),
        "core.validate_orthogonal_slope": (slope(per_n, "core.validate_orthogonal")[0], "exponent"),
        "core.invariant_scalars_us": (med("spectrum", "core.invariant_scalars", 1e6), "us"),
        "core.materialize_ms": (med("full_svd", "core.materialize", 1e3), "ms"),
        "closed_form.special_eigenpairs_us":
            (med("full_svd", "closed_form.special_eigenpairs", 1e6), "us"),
        "closed_form.reduction_us":
            (statistics.median(reduction) * 1e6 if reduction else float("nan"), "us"),
        "closed_form.vectors_ms": (med_diff("full_svd", "closed_form.full_svd",
                                            ["closed_form.special_eigenpairs"], 1e3), "ms"),
        "closed_form.spectrum_slope": (slope(per_n, "closed_form.spectrum")[0], "exponent"),
        "closed_form.full_svd_slope": (slope(per_n, "closed_form.full_svd")[0], "exponent"),
        "closed_form.branch.zero_vector": (tally.branches["zero_vector"], "count"),
        "closed_form.branch.parallel": (tally.branches["parallel"], "count"),
        "closed_form.branch.non_parallel": (tally.branches["non_parallel"], "count"),
        "closed_form.max_sigma_rel_err": (tally.max_sigma_err, "ratio"),
        "closed_form.max_orthonormality_defect": (tally.max_orthonormality_defect, "ratio"),
        "oracle.sample_instance_ms":
            (statistics.median(per_n["oracle.sample_instance", largest]) * 1e3, "ms"),
        "oracle.jacobi_svd_ms": (statistics.median(jacobi) * 1e3, "ms"),
        "oracle.jacobi_calls": (tally.jacobi_calls, "count"),
        "harness.sample_s": (tally.harness["sample_s"], "s"),
        "harness.closed_form_s": (tally.harness["closed_form_s"], "s"),
        "harness.oracle_s": (tally.harness["oracle_s"], "s"),
    }
    for check in CAMPAIGN_CHECKS:
        metrics[f"harness.failures.{check}"] = (tally.campaign_checks[check], "count")
    metrics.update({
        "instance_io.format_ms": (med("dump", "instance_io.dump_instance", 1e3), "ms"),
        "instance_io.file_bytes": (statistics.median(sizes), "bytes"),
        "instance_io.load_ms": (med("file_svd", "instance_io.load_instance", 1e3), "ms"),
        "cli.svd_ms": (med("file_svd", "cli.main", 1e3), "ms"),
        "cli.self_ms": (med_diff("file_svd", "cli.main",
                                 ["instance_io.load_instance", "core.invariant_scalars",
                                  "closed_form.spectrum", "closed_form.full_svd"], 1e3), "ms"),
        "ref.lapack_svd_ms": (ref["lapack_svd", 1024] * 1e3, "ms"),
        "ref.lapack_svdvals_ms": (ref["lapack_svdvals", 1024] * 1e3, "ms"),
        "ref.matmul_ms": (ref["matmul", 1024] * 1e3, "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    for module in MODULES:
        metrics[f"layer_self_s.{module}"] = (self_s[module], "s")
    return metrics
