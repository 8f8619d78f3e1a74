"""One fresh benchmark process: set up, and as the measuring process, run passes.

``run.py`` starts this script with ``--spawned-ns``, its CLOCK_MONOTONIC
reading taken just before the spawn, so ``setup_s`` covers interpreter
start-up, ``import gaplab, gaplab.cli``, input generation and one
untimed warm-up job (the workload's first, its cheapest of the main
path), which pays lazy imports such as ``scipy.sparse.linalg``.

A measuring process then runs a fixed number of passes over the job
list (``workloads.passes_for``) and prints one JSON object as its last
stdout line.  With ``--trace 1`` it runs half the passes untraced and
as many traced, so the same process yields the tracing overhead, and
afterwards runs the README's commands once.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

TRACE_COVERAGE_MIN = 0.9


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tally:
    """Counts jobs attempted and failed; a failure is a raise or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, job):
        """Run one job and its checks; return (seconds, output or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = job.run()
        except Exception:
            seconds = time.perf_counter() - start
            self._fail(job.name, traceback.format_exc())
            return seconds, None
        seconds = time.perf_counter() - start
        try:
            issues = job.check(out)
        except Exception:
            issues = [traceback.format_exc()]
        if issues:
            self._fail(job.name, "; ".join(issues))
        return seconds, out

    def _fail(self, name: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {detail}")
        print(f"benchmark: job {name} failed: {detail}", file=sys.stderr)


def measure(jobs, passes: int, tally: Tally, on_result=None):
    """Run ``passes`` back-to-back passes over the job list.

    Returns the pass wall times and (job name, seconds) pairs.  Between
    jobs the previous job's output is dropped and garbage is collected,
    outside the job's timer, so each job starts from the clean heap a
    fresh CLI process would have.
    """
    walls: list[float] = []
    job_times: list[tuple[str, float]] = []
    while len(walls) < passes:
        pass_start = time.perf_counter()
        for job in jobs:
            job_s, out = tally.run(job)
            job_times.append((job.name, job_s))
            if on_result is not None and out is not None:
                on_result(out)
            del out
            gc.collect()
        walls.append(time.perf_counter() - pass_start)
    return walls, job_times


class Sizes:
    """Work sizes read from job results: configurations, Gram nonzeros, registers."""

    def __init__(self) -> None:
        self.configs = 0
        self.gram_nnz = 0
        self.taylor_order = 0
        self.qpe_branches = 0
        self.nnz_by_matrix: dict[int, int] = {}

    def record_csr(self, args: tuple, result) -> None:
        self.nnz_by_matrix[id(args[0])] = int(result.nnz)

    def record(self, out: dict) -> None:
        self.configs += out.get("dim", 0)
        if "gram" in out:
            self.gram_nnz += self.nnz_by_matrix.get(id(out["gram"]), 0)
        self.nnz_by_matrix.clear()
        self.taylor_order = max(self.taylor_order, out.get("taylor_order", 0))
        if "register_bits" in out:
            self.qpe_branches += 2 ** out["register_bits"]


def layer_metrics(tracer, sizes: Sizes, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the tracer and the recorded sizes."""
    from spans import LAYERS

    metrics: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, st in tracer.stats().items():
        metrics[f"{name}.calls"] = st["calls"] / passes
        metrics[f"{name}.self_s"] = st["self_s"] / passes
        metrics[f"{name}.errors"] = st["errors"] / passes
        layer_self[name.split(".", 1)[0]] += st["self_s"] / passes
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    metrics["reduce.configs"] = sizes.configs / passes
    metrics["reduce.gram_nnz"] = sizes.gram_nnz / passes
    metrics["verify.taylor_order"] = sizes.taylor_order
    metrics["protocols.qpe_branches"] = sizes.qpe_branches / passes
    metrics["trace.errors"] = sum(tracer.errors) / passes
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--root", required=True, help="checkout holding src/gaplab")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--smallest-only", action="store_true",
                        help="measure only the cheapest job (harness self-test)")
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    import gaplab
    import gaplab.cli  # noqa: F401  (users pay this import on every CLI call)
    import_s = time.perf_counter() - import_start
    import numpy  # already loaded by gaplab
    import scipy
    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(gaplab.__file__).startswith(src + os.sep):
        raise SystemExit(f"benchmark: imported gaplab from {gaplab.__file__}, not {src}")

    import workloads

    jobs = workloads.build_jobs(args.workload, args.seed)
    warm_up = jobs[0]
    tally = Tally()
    tally.run(warm_up)
    result: dict = {
        "setup_s": (monotonic_ns() - args.spawned_ns) / 1e9,
        "import_s": import_s,
        "jobs": [job.name for job in jobs],
        "warm_up": warm_up.name,
    }

    if args.role == "measure":
        if args.smallest_only:
            jobs = [warm_up]
        if args.trace == 0:
            passes = workloads.passes_for(args.workload, args.seconds)
            walls, job_times = measure(jobs, passes, tally)
            result.update(walls=walls, job_times=job_times)
        else:
            half = max(1, workloads.passes_for(args.workload, args.seconds) // 2)
            result.update(traced_run(args, jobs, half, tally))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }

    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def traced_run(args, jobs, passes: int, tally: Tally) -> dict:
    """``passes`` untraced passes, then as many traced ones, then the README commands."""
    from docs_pass import run_documented_commands
    from spans import Tracer

    untraced_walls, _ = measure(jobs, passes, tally)
    sizes = Sizes()
    tracer = Tracer(observers={"sparse_oracle.to_csr": sizes.record_csr})
    tracer.install()
    try:
        traced_walls, traced_jobs = measure(jobs, passes, tally, on_result=sizes.record)
    finally:
        tracer.restore()
    spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write_spans(spans_path)

    passes = len(traced_walls)
    layers = layer_metrics(tracer, sizes, passes)
    # Top-level spans must account for the jobs' share of the traced wall_s;
    # the rest of each pass is the benchmark's own checks and collection.
    job_s = sum(seconds for _, seconds in traced_jobs)
    coverage = tracer.top_ns / 1e9 / job_s
    layers["trace.coverage"] = coverage
    layers["trace_overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls)
    )
    self_check = {
        "self_times_sum_to_top_level": tracer.consistent(),
        "top_level_covers_jobs": TRACE_COVERAGE_MIN <= coverage <= 1.0,
    }

    docs = run_documented_commands(os.path.join(args.root, "README.md"), args.out_dir)
    layers["cli.docs_failed"] = sum(not d["passed"] for d in docs)
    return {
        "untraced_walls": untraced_walls,
        "traced_walls": traced_walls,
        "layers": layers,
        "self_check": self_check,
        "harness_share_of_wall": 1 - job_s / sum(traced_walls),
        "spans_logged": min(tracer.span_count, tracer.span_log_cap),
        "spans_total": tracer.span_count,
        "spans_file": os.path.relpath(spans_path, args.root),
        "docs": docs,
    }


if __name__ == "__main__":
    sys.exit(main())
