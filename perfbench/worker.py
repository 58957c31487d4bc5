"""One invocation in a fresh interpreter.

Usage: python -m perfbench.worker SPEC_JSON

SPEC_JSON names the mode ("setup", "env" or "invoke"), the checkout root, the
result file and, for "invoke", the workload, seed, worker count, output
directory and whether to trace.  The result file receives one JSON object.
Nothing but the standard library is imported before perclab, so the import
time it reports covers numpy and scipy as a user pays them.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

CACHES = (("perclab.spectra", "_EIG_CACHE"), ("perclab.spectra", "_KDIM_CACHE"),
          ("perclab.spectra", "_CHARPOLY_CACHE"), ("perclab.experiments", "_REGION_CACHE"))


def _calibrate(repeats: int = 5) -> dict:
    """Fixed work, timed, so drift of the machine between run sets shows.

    Medians of a pure-Python loop and of one dense symmetric eigensolve.
    """
    import statistics

    import numpy as np
    a = np.random.default_rng(0).standard_normal((300, 300))
    a = a + a.T
    python_s, blas_s = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        t1 = time.perf_counter()
        np.linalg.eigvalsh(a)
        t2 = time.perf_counter()
        python_s.append(t1 - t0)
        blas_s.append(t2 - t1)
    return {"calib_python_s": statistics.median(python_s),
            "calib_blas_s": statistics.median(blas_s)}


def _versions() -> dict:
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(spec: dict) -> dict:
    root = os.path.realpath(spec["root"])
    start = time.perf_counter()
    import perclab
    import_s = time.perf_counter() - start
    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.realpath(perclab.__file__), src]) != src:
        raise SystemExit(f"perclab imported from {perclab.__file__}, not from {src}")
    if spec["mode"] == "setup":
        return {"import_s": import_s}
    if spec["mode"] == "env":
        return {"import_s": import_s, **_versions(), **_calibrate()}

    import importlib
    for module_name, attr in CACHES:
        cache = getattr(importlib.import_module(module_name), attr, None)
        if cache:  # absent once the caches are deleted; never warm here
            raise SystemExit(f"{module_name}.{attr} holds {len(cache)} entries at start")

    from . import trace
    from .workloads import WORKLOADS, run_invocation, write_convergence
    workload = WORKLOADS[spec["workload"]]
    recorder = trace.Recorder() if spec["trace"] else None
    patches, missing = trace.install(recorder) if recorder else ([], [])
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        code, report = run_invocation(workload, spec["seed"], spec["out"], spec["workers"])
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    finally:
        trace.uninstall(patches)
    if report is not None:
        write_convergence(report, workload, spec["seed"], spec["out"])
    result = {"import_s": import_s, "wall_s": wall_s, "cpu_s": cpu_s, "exit_code": code,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if recorder is not None:
        result["missing_targets"] = missing
        result["split"] = trace.layer_split(recorder.spans, recorder.passes,
                                            recorder.counters, recorder.peaks,
                                            spec["workers"])
        result["spans"] = recorder.spans
        result["passes"] = recorder.passes
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
