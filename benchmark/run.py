"""gaplab benchmark: end-to-end or per-layer metrics for one workload.

    python3 benchmark/run.py --workload reduce_scale --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --selftest

Each run starts ``SETUP_REPS`` fresh worker processes (``worker.py``)
one after another.  Every one sets up anew, and ``setup_s`` is
the median of their set-up times; the last one goes on to measure.  All
workloads are closed loops with one client: a fixed job list run back
to back in one process.

``--trace 0`` reports the end-to-end metrics that BENCHMARK.json lists;
``--trace 1`` reports its per-layer metrics from a traced run (see
``spans.py``).  The last stdout line is the result object; a readable
report goes to stderr and a full JSON report, with provenance, to
``.bench_out/`` in the checkout.

``--selftest`` runs the first (cheapest) job of every workload in both modes
and checks that every metric BENCHMARK.json names is reported with its
unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPS = 5
DEADLINE_S = 170.0  # the whole run, set-ups included
TAIL_BEYOND = 10  # job_tail_s: highest percentile with this many samples beyond it
# Workers run single-threaded: on a small shared machine, a BLAS thread
# on a core a neighbour is using stalls the others, and the dense
# workload's run-to-run spread grew by half with two threads.
WORKER_THREADS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# A per-function layer metric whose function no longer exists reads 0.
FUNCTION_METRIC = re.compile(
    r"(rtm|sparse_oracle|spectral|simulator|protocols)\.[A-Za-z0-9_]+\.(calls|self_s|errors)"
)


class BenchmarkError(RuntimeError):
    pass


def spawn_worker(role: str, workload: str, seed: int, seconds: float, trace: int,
                 deadline: float, smallest_only: bool = False) -> dict:
    """Run one fresh worker process to completion and parse its result line."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(WORKER_THREADS_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before the measuring process started")
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--role", role,
        "--root", ROOT, "--out-dir", OUT_DIR,
    ]
    if smallest_only:
        cmd.append("--smallest-only")
    cmd += ["--spawned-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{role} process for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{role} process for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum (percentile 100).
    """
    xs = sorted(samples)
    n = len(xs)
    i = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return xs[i], 100.0 * (i + 1) / n, n


def end_to_end(setups: list[dict], measured: dict) -> tuple[dict, dict]:
    # A job's time is its mean over the run's passes.  The passes spread
    # each job's samples over the whole run, so the mean evens out the
    # shared machine's speed swings, which last seconds and reach 1.5x;
    # the median and tail are then taken over the job list.
    by_name: dict[str, list[float]] = {}
    for name, seconds in measured["job_times"]:
        by_name.setdefault(name, []).append(seconds)
    job_means = [statistics.fmean(times) for times in by_name.values()]
    tail_value, tail_pct, samples = tail(job_means)
    attempted = sum(s["attempted"] for s in setups)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(measured["walls"]),
        "job_p50_s": statistics.median(job_means),
        "job_tail_s": tail_value,
        "peak_rss_mb": measured["peak_rss_mb"],
        "fail_ratio": sum(s["failed"] for s in setups) / attempted,
    }
    details = {
        "job_tail_percentile": tail_pct,
        "job_samples": samples,
        "passes": len(measured["walls"]),
        "pass_walls_s": measured["walls"],
        "setup_s_each": [s["setup_s"] for s in setups],
        "job_times_s": by_name,
    }
    return metrics, details


def per_layer(setups: list[dict], measured: dict) -> tuple[dict, dict]:
    metrics = dict(measured["layers"])
    metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    details = {key: measured[key] for key in (
        "self_check", "untraced_walls", "traced_walls", "harness_share_of_wall", "spans_logged",
        "spans_total", "spans_file", "docs")}
    return metrics, details


def select(spec: dict, trace: int, metrics: dict) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        value = metrics.get(name)
        if value is None and FUNCTION_METRIC.fullmatch(name):
            value = 0
        if value is None:
            raise BenchmarkError(f"metric {name} was not measured")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def provenance(args, measured: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": SETUP_REPS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env_worker": WORKER_THREADS_ENV,
        "threads_env_caller": {k: os.environ.get(k) for k in WORKER_THREADS_ENV},
        "versions": measured.get("versions"),
        "platform": platform.platform(),
        "processor": platform.processor(),
    }


def run_workload(args, spec: dict, setup_reps: int = SETUP_REPS,
                 smallest_only: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (result line object, full report)."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    setups = [
        spawn_worker("setup", args.workload, args.seed, args.seconds, args.trace, deadline)
        for _ in range(setup_reps - 1)
    ]
    measured = spawn_worker("measure", args.workload, args.seed, args.seconds,
                            args.trace, deadline, smallest_only)
    setups.append(measured)
    if args.trace:
        metrics, details = per_layer(setups, measured)
        correct_checks = all(measured["self_check"].values())
    else:
        metrics, details = end_to_end(setups, measured)
        correct_checks = True
    attempted = sum(s["attempted"] for s in setups)
    failed = sum(s["failed"] for s in setups)
    line = {
        "correct": failed == 0 and correct_checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(spec, args.trace, metrics),
    }
    report = {
        "provenance": provenance(args, measured),
        "result": line,
        "metrics": metrics,
        "details": details,
        "jobs": measured["jobs"],
        "warm_up": measured["warm_up"],
        "failures": [f for s in setups for f in s["failures"]],
    }
    return line, report


def print_report(report: dict) -> None:
    prov = report["provenance"]
    print(f"== {prov['workload']} seed={prov['seed']} trace={prov['trace']}", file=sys.stderr)
    for name, value in sorted(report["metrics"].items()):
        if isinstance(value, float) and value == 0.0 and name.count(".") == 2:
            continue  # functions the workload never called
        print(f"  {name:55s} {value:.6g}", file=sys.stderr)
    details = report["details"]
    if "job_tail_percentile" in details:
        print(f"  job_tail_s is p{details['job_tail_percentile']:.1f} of "
              f"{details['job_samples']} job samples", file=sys.stderr)
    for doc in details.get("docs", []):
        status = "pass" if doc["passed"] else f"FAIL (exit {doc['exit']})"
        print(f"  docs {status:15s} {doc['seconds']:.3f}s  {doc['command']}", file=sys.stderr)


def selftest(spec: dict) -> int:
    """Cheapest job of every workload, both modes; check the report schema."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=0, seconds=0.0, trace=trace)
            line, report = run_workload(args, spec, setup_reps=1, smallest_only=True)
            want = {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                problems.append(f"{workload}/trace={trace}: metric names or units differ")
            for name, m in line["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{workload}/trace={trace}: {name} = {m['value']!r}")
            if not line["correct"]:
                problems.append(f"{workload}/trace={trace}: incorrect, {report['failures']}, "
                                f"{report['details'].get('self_check')}")
            if trace and not report["details"]["docs"]:
                problems.append(f"{workload}: documented-command pass ran no command")
            print(f"selftest {workload} trace={trace}: {len(got)} metrics, "
                  f"{line['attempted']} jobs, correct={line['correct']}", file=sys.stderr)
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: ok" if not problems else "selftest: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gaplab benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    try:
        if args.selftest:
            return selftest(spec)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        line, report = run_workload(args, spec)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(
        OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
