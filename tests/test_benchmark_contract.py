"""The benchmark's jobs against its recorded outputs, once each.

``perfbench/run.py`` times the jobs of ``perfbench/workloads.py`` and
checks every output with that file's own ``compare`` against
``perfbench/reference.json``.  This runs each job of every workload once,
untimed, with the same checks, so that a library change that breaks the
benchmark's imports or outputs fails here first.  It reads perfbench and
changes nothing there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["verify-exact", "spectrum-sweep",
                                  "entropy-float"])
def test_workload_jobs_match_reference(workloads, name):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference()[name]
    state: dict = {}
    jobs = (*workload.first, *workload.shuffled)
    assert sorted(job.name for job in jobs) == sorted(reference)
    for job in jobs:
        job.compare(job.run(state), reference[job.name])
