"""Set-up of one workload in a fresh interpreter, for the `setup_s` metric.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED_BASE

Imports the package, builds the objective and configs, and runs generation 0
(the initial population and its evaluation) of the workload's first run; for
`sweep-small` that run goes through `run_matrix` with the sweep's process pool.
Prints `time.perf_counter()` once the first generation record is back, which
the parent compares with its own clock reading taken before the launch.
"""

import dataclasses
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import counterniche as cn  # noqa: E402
from workloads import SCRATCH, CountingObjective, WORKLOADS, DirectWorkload, remove_if_empty, workers_for  # noqa: E402


def main(name: str, seed_base: int) -> None:
    w = WORKLOADS[name]
    if isinstance(w, DirectWorkload):
        configs = w.configs(seed_base)
        trace = cn.run(dataclasses.replace(configs[0], generations=0),
                       CountingObjective(cn.make(w.function, w.dim)))
        ok = len(trace.records) == 1
    else:
        SCRATCH.mkdir(exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=SCRATCH) as out:
                m = w.matrix(seed_base, out, workers_for(w))
                m = dataclasses.replace(m, generations=0, runs_per_cell=1, algos=m.algos[:1],
                                        functions=m.functions[:1], dims=m.dims[:1])
                cells = cn.run_matrix(m)
        finally:
            remove_if_empty(SCRATCH)
        ok = cells[0].error is None
    if not ok:
        sys.exit(f"set-up of {name} failed")
    print(time.perf_counter())


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
