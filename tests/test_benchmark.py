"""Every job of the benchmark's workloads runs on the library as it stands and passes its own check."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", ROOT / "benchmark" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS.NOMINAL_PASS_S))
def test_every_benchmark_job_passes_its_check(workload, seed):
    # The harness calls the library as its job bodies do (``instance.gram``,
    # ``decide_gapped(instance.gram, g)``), so a change to those calls fails here.
    jobs = WORKLOADS.build_jobs(workload, seed)
    assert jobs
    failed = {job.name: issues for job in jobs if (issues := job.check(job.run()))}
    assert not failed
