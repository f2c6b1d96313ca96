"""orthorank1 benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload small_mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout.  Set-up generates every input from
--seed.  The untraced pass then runs the workload's calls in a closed loop
(one client, BLAS pinned to one thread) for --seconds of timed calls and
checks every output outside the timed region.  Timings are reported in
units of a reference kernel timed around each call (see README.md).
--trace 1 adds the traced pass of `layers.py` and prints per-layer metrics
instead of end-to-end ones.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# pinned before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5  # at least; cheap set-ups repeat until SETUP_MIN_S is spent
SETUP_MAX_REPS = 15
SETUP_MIN_S = 1.0
REF_DIMS = (256, 512, 1024)


def check_surface() -> list[str]:
    """Problems with the import surface: names outside manifest.json, or private."""
    surface = set(json.loads((HERE / "manifest.json").read_text())["import_surface"])
    used = set()
    problems = []
    for source in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import) and any(
                    alias.name.split(".")[0] == "orthorank1" for alias in node.names):
                problems.append(f"{source.name}: plain 'import orthorank1'; import names")
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("orthorank1"):
                used.update(f"{node.module}.{alias.name}" for alias in node.names)
    problems += [f"not in manifest.json: {name}" for name in sorted(used - surface)]
    problems += [f"listed but never imported: {name}" for name in sorted(surface - used)]
    for name in sorted(surface):
        module, attr = name.rsplit(".", 1)
        if attr.startswith("_"):
            problems.append(f"private name on the surface: {name}")
        elif not hasattr(importlib.import_module(module), attr):
            problems.append(f"missing from the package: {name}")
    return problems


def env_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    commit = "unknown (checkout has no .git)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "blas": blas_name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
    }


def ref_rows(seed: int) -> dict:
    """LAPACK and matmul seconds at each n of large_dense (never gated)."""
    rng = np.random.default_rng(seed)
    rows = {}
    for n in REF_DIMS:
        dense = rng.standard_normal((n, n))
        reps = 1 if n >= 1024 else 3
        for name, fn in (("lapack_svd", lambda: np.linalg.svd(dense)),
                         ("lapack_svdvals", lambda: np.linalg.svd(dense, compute_uv=False)),
                         ("matmul", lambda: dense @ dense)):
            times = []
            for _ in range(reps):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            rows[name, n] = statistics.median(times)
    return rows


def emit(result: dict) -> None:
    for name, entry in result["metrics"].items():
        if not math.isfinite(entry["value"]):
            raise RuntimeError(f"metric {name} is not finite: {entry['value']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("small_mixed", "large_dense", "verify_campaign"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the import surface against manifest.json and exit")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    start = time.perf_counter()
    try:
        sys.path.insert(0, str(HERE))
        import program  # noqa: F401  (imports orthorank1 from ../src)
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    problems = check_surface()
    if problems:
        print("import surface check failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2
    if args.self_test:
        print("import surface ok")
        return 0

    import layers
    import workloads

    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    # a terminated run still removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args, import_s, run_dir, workloads, layers)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, import_s: float, run_dir: Path, workloads, layers) -> int:
    # set-up, repeated: the first copy is used, the median time reported.  The
    # repeats are spread over the timed loop, so that the median sees the
    # machine at the same moments as the timed calls do.
    setup_times = []

    def set_up():
        rep_dir = run_dir / f"setup{len(setup_times)}"
        rep_dir.mkdir()
        start = time.perf_counter()
        built = workloads.BUILDERS[args.workload](args.seed, str(rep_dir))
        setup_times.append(time.perf_counter() - start)
        if len(setup_times) > 1:  # only the first copy's files are used
            shutil.rmtree(rep_dir)
        return built

    plan = set_up()
    reps = max(SETUP_REPS, min(SETUP_MAX_REPS, math.ceil(SETUP_MIN_S / setup_times[0])))

    def between_rounds():
        timed = sum(tally.timed_s.values())
        if len(setup_times) < reps and timed >= args.seconds * len(setup_times) / reps:
            set_up()

    tally = workloads.Tally(plan)
    wall = time.perf_counter()
    workloads.run_untraced(plan, args.seconds, tally, between_rounds)
    wall = time.perf_counter() - wall
    while len(setup_times) < reps:
        set_up()
    setup_s = import_s + statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = env_record()
    ref = ref_rows(args.seed)

    print(f"workload {plan.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 client")
    print("env " + json.dumps(env))
    print(f"inputs: {len(plan.items)} instances; dims {sorted({i.dim for i in plan.items})}")
    print(f"untraced pass: {sum(tally.timed_s.values()):.3f} s in calls, {wall:.3f} s wall "
          "(the rest is output checks, reference kernels and repeated set-ups)")
    for n in REF_DIMS:
        print(f"ref n={n}: lapack_svd {ref['lapack_svd', n] * 1e3:.2f} ms  "
              f"lapack_svdvals {ref['lapack_svdvals', n] * 1e3:.2f} ms  "
              f"matmul {ref['matmul', n] * 1e3:.2f} ms")

    ratio = tally.failed / tally.attempted
    print(f"failed_ratio {ratio:.6f} ratio  (failed {tally.failed} / attempted {tally.attempted};"
          f" {tally.unexpected} outside the known-defect slices)")
    for (op, check, known), count in sorted(tally.failures.items(), key=str):
        print(f"  failed {op:8s} {check:28s} {count:7d}  slice: {known or 'none (unexpected)'}")
    for check, count in sorted(tally.campaign_checks.items()):
        print(f"  campaign check {check}: {count} trial failures")
    print(f"max sigma error {tally.max_sigma_err:.3e}, max orthonormality defect "
          f"{tally.max_orthonormality_defect:.3e} (finite values; {tally.nonfinite} non-finite)")

    if args.trace:
        metrics = traced(args, plan, tally, ref, layers)
    else:
        metrics = end_to_end(plan, tally, setup_s, setup_times, import_s, peak_rss_mb, ref)
    for name, (value, unit, *note) in metrics.items():
        print(f"metric {name:40s} {value:14.6g} {unit:8s} {' '.join(note)}")
    emit({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    })
    return 0


def end_to_end(plan, tally, setup_s, setup_times, import_s, peak_rss_mb, ref) -> dict:
    for name, times in tally.refs.items():
        ops = ", ".join(op for op, kernel in tally.kernels.items() if kernel == name)
        print(f"reference kernel {name} (scales {ops}): {len(times)} measurements, median "
              f"{statistics.median(times) * 1e3:.4f} ms, range {min(times) * 1e3:.4f}-"
              f"{max(times) * 1e3:.4f} ms")
    print("timings below are in units of their kernel's time around each call (ref), "
          "raw milliseconds beside them")
    for op in tally.timed_s:
        print(f"samples {op}: {tally.rounds(op)} rounds, {len(tally.times[op].seconds)} "
              f"timed groups ({tally.timed_s[op]:.3f} s in calls)")
    if plan.workload == "large_dense":
        full_p50, lapack = tally.typical("full_svd", scaled=False), ref["lapack_svd", 1024]
        print(f"full_svd / LAPACK svd at n=1024: {full_p50 * 1e3:.2f} ms / {lapack * 1e3:.2f} ms"
              f" = {full_p50 / lapack:.3f}")

    def p50(op):
        return (tally.typical(op), "ref",
                f"(per-input medians over {tally.rounds(op)} rounds, mean per call; raw "
                f"{tally.typical(op, scaled=False) * 1e3:.4g} ms)")

    def tail_of(op):
        value, label = tally.tail(op)
        return value, "ref", f"(per-input {label}, mean per call)"

    return {
        "setup_s": (setup_s, "s", f"(import {import_s:.4f} s + median of set-ups "
                                  f"{', '.join(f'{t:.4f}' for t in setup_times)} s)"),
        "spectrum_p50": p50("spectrum"),
        "spectrum_tail": tail_of("spectrum"),
        "full_svd_p50": p50("full_svd"),
        "full_svd_tail": tail_of("full_svd"),
        "file_svd_p50": p50("file_svd"),
        "dump_p50": p50("dump"),
        "verify_trials_per_ref": (tally.trials_per_ref(), "1/ref",
                                  f"(each campaign at its median over {tally.rounds('verify')} "
                                  "rounds)"),
        "peak_rss_mb": (peak_rss_mb, "MB", "(ru_maxrss of the whole run)"),
    }


def traced(args, plan, tally, ref, layers) -> dict:
    untraced_wall = layers.replay(plan, tally)
    tracer = layers.Tracer()
    traced_wall, ops = layers.traced_pass(plan, tally, tracer)
    per_n = layers.layer_pass(plan, tracer)
    print(f"traced pass {traced_wall:.3f} s wall against {untraced_wall:.3f} s for the same "
          f"calls untraced; the traced pass also makes the one-by-one layer calls; "
          f"{len(tracer.spans)} spans")
    for name in ("closed_form.spectrum", "closed_form.full_svd", "core.validate_orthogonal"):
        exponent, points = layers.slope(per_n, name)
        print(f"slope {name}: {exponent:.3f} over " +
              ", ".join(f"n={n}: {t * 1e3:.4g} ms" for n, t in points))
        if name == "closed_form.full_svd":
            for n, t in points:
                if (key := ("lapack_svd", n)) in ref:
                    print(f"  full_svd / LAPACK svd at n={n}: {t * 1e3:.3f} ms / "
                          f"{ref[key] * 1e3:.3f} ms = {t / ref[key]:.3f}")
    for (name, n), times in sorted(per_n.items()):
        if name == "oracle.sample_instance":
            print(f"oracle.sample_instance n={n}: {statistics.median(times) * 1e3:.4g} ms")
    for kind, (ms, size) in sorted(layers.dump_by_q_kind(tracer, ops).items()):
        print(f"instance_io by Q kind {kind}: format (dump_instance) {ms:.4g} ms, "
              f"file {size:.0f} bytes")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{plan.workload}-seed{args.seed}.csv"
    tracer.write(str(spans_path))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return layers.per_layer_metrics(plan, tally, tracer, ops, per_n, ref,
                                    traced_wall - untraced_wall)


if __name__ == "__main__":
    sys.exit(main())
