"""Record every job's output into reference.json.

    python3 perfbench/record_reference.py

The recorded outputs are those of the code at the commit that added the
benchmark; a commit that must keep the same report bytes never re-records.
"""

import json

from run import import_workloads, pin_blas_threads

if __name__ == "__main__":
    pin_blas_threads()
    workloads = import_workloads()
    reference = {}
    for workload in workloads.WORKLOADS.values():
        state: dict = {}
        reference[workload.name] = {job.name: job.run(state)
                                    for job in (*workload.first, *workload.shuffled)}
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
