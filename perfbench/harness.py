"""Closed-loop benchmark harness: one client, one batch invocation at a time.

Each invocation runs in a fresh interpreter (python -m perfbench.worker) with
one BLAS thread and at most nproc Python workers, so every invocation pays
cold caches exactly as a CLI user does.  Invocations repeat, each on its own
seed derived from --seed, until --seconds have passed; medians over them are
reported.  With --trace 1 each invocation runs twice on the same seed, once
plain and once traced, and the traced one gives the per-layer split.

The last line of standard output is the JSON result; the lines before it
are for people.  A record of every run (environment, per-invocation
figures, output digests, spans) is written under .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from . import checks
from .trace import COUNTER_METRICS, SELF_TIME_METRICS
from .workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")
RUN_LIMIT_S = 170.0          # every run ends well within 180 s
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"wall_s": "s", "realizations_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{m: "s" for m in SELF_TIME_METRICS},
    "experiments.driver_s": "s", "cli.run_s": "s",
    **{m: "count" for m in COUNTER_METRICS},
    "spectra.exact_ops_computed": "ops",
    "operator.max_block": "sites",
    "spectra.exact_guard_frac": "fraction",
    "experiments.passes_per_realization": "ratio",
    "experiments.worker_busy_frac": "fraction",
    "cli.output_bytes": "bytes",
    "trace_overhead_frac": "fraction",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child(spec: dict, deadline: float):
    """Run one worker; returns (result dict or None, error text)."""
    os.makedirs(os.path.dirname(spec["result"]), exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left"
    try:
        proc = subprocess.run([sys.executable, "-m", "perfbench.worker", json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        return None, f"worker exited {proc.returncode}: {tail}"
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh), ""


class Run:
    def __init__(self, workload, seed: int, seconds: int, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workers = min(workload.workers, _nproc())
        self.tag = f"{workload.name}-seed{seed}-trace{int(traced)}"
        self.work = os.path.join(STATE, "work", self.tag)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.invocations = []
        self.setup = []
        self.env = {}

    def _spec(self, mode: str, name: str, **extra) -> dict:
        return dict(mode=mode, root=ROOT,
                    result=os.path.join(self.work, f"{name}.json"), **extra)

    def invoke(self, k: int, traced: bool) -> dict:
        seed = 1000 * self.seed + k
        out = os.path.join(self.work, f"out{k}-{int(traced)}")
        shutil.rmtree(out, ignore_errors=True)
        spec = self._spec("invoke", f"inv{k}-{int(traced)}", workload=self.workload.name,
                          seed=seed, workers=self.workers, out=out, trace=traced)
        result, error = _child(spec, self.deadline)
        inv = {"k": k, "seed": seed, "traced": traced, "problems": []}
        if result is None:
            inv["problems"].append(error)
            return inv
        inv.update(result)
        files = {}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
        data = checks.DATA_OUTPUTS[self.workload.name]
        cli_written = files if self.workload.command is not None else {}
        inv["output_bytes"] = sum(len(b) for b in cli_written.values())
        inv["digest"] = checks.digest(files[data]) if data in files else None
        if result["exit_code"] != 0:
            inv["problems"].append(f"exit code {result['exit_code']}")
        inv["problems"] += checks.check_output(self.workload, files)
        shutil.rmtree(out, ignore_errors=True)
        return inv

    def execute(self) -> None:
        env, error = _child(self._spec("env", "env"), self.deadline)  # also warms up
        self.env = dict(env or {"error": error}, nproc=_nproc(), workers=self.workers)
        self.env.pop("import_s", None)  # the untimed warm-up
        start = time.monotonic()
        k = 0
        longest = 0.0
        while True:
            t0 = time.monotonic()
            if self.traced:
                plain = self.invoke(k, False)
                traced = self.invoke(k, True)
                if plain.get("digest") != traced.get("digest"):
                    traced["problems"].append("tracing changed the output")
                self.invocations += [plain, traced]
            else:
                inv = self.invoke(k, False)
                self.invocations.append(inv)
                if "import_s" in inv:
                    self.setup.append(inv["import_s"])
            longest = max(longest, time.monotonic() - t0)
            k += 1
            now = time.monotonic()
            if now - start >= self.seconds or now + 1.5 * longest > self.deadline:
                break
        while not self.traced and len(self.setup) < SETUP_SAMPLES:
            result, error = _child(self._spec("setup", f"setup{len(self.setup)}"),
                                   self.deadline)
            if result is None:
                break
            self.setup.append(result["import_s"])
        shutil.rmtree(self.work, ignore_errors=True)

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv["problems"])

    def metrics(self) -> dict:
        done = [inv for inv in self.invocations if not inv["problems"]]
        if self.traced:
            plain = [inv for inv in done if not inv["traced"]]
            traced = [inv for inv in done if inv["traced"]]
            values = {m: statistics.fmean(inv["split"][m] for inv in traced)
                      for m in traced[0]["split"]} if traced else {}
            if traced:
                values["cli.output_bytes"] = statistics.fmean(
                    inv["output_bytes"] for inv in traced)
            if traced and plain:
                values["trace_overhead_frac"] = (sum(i["wall_s"] for i in traced)
                                                 / sum(i["wall_s"] for i in plain) - 1.0)
            units = PER_LAYER_UNITS
        else:
            values = {}
            if done:
                values = {
                    "wall_s": statistics.median(i["wall_s"] for i in done),
                    "realizations_per_s": statistics.median(
                        self.workload.realizations / i["wall_s"] for i in done),
                    "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in done),
                }
            if self.setup:
                values["setup_s"] = statistics.median(self.setup)
            units = END_TO_END_UNITS
        return {m: {"value": values[m], "unit": u} for m, u in units.items() if m in values}

    def record(self) -> str:
        path = os.path.join(STATE, "runs", f"{self.tag}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.workload.name, "seed": self.seed,
                       "seconds": self.seconds, "trace": self.traced, "env": self.env,
                       "invocations": self.invocations}, fh, indent=1)
        return path


def _report(run: Run, metrics: dict) -> None:
    w = run.workload.name
    env = run.env
    print(f"{w}: env " + " ".join(f"{k}={env[k]}" for k in sorted(env)))
    for inv in run.invocations:
        status = "ok" if not inv["problems"] else "FAIL " + "; ".join(inv["problems"])
        kind = "traced" if inv["traced"] else "plain"
        wall = inv.get("wall_s")
        wall = f"{wall:.3f}s" if wall is not None else "-"
        print(f"{w}: invocation {inv['k']} {kind} seed={inv['seed']} wall={wall} "
              f"digest={inv.get('digest')} {status}")
    attempted = len(run.invocations)
    print(f"{w}: fail_frac {run.failed / attempted if attempted else 1.0:g} "
          f"({run.failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{w}: {name} {m['value']:.6g} {m['unit']}")
    missing = sorted({t for inv in run.invocations for t in inv.get("missing_targets", ())})
    if missing:
        print(f"{w}: not traced, absent from perclab: {', '.join(missing)}")
    if run.traced and all(m in metrics for m in SELF_TIME_METRICS):
        largest = max(SELF_TIME_METRICS, key=lambda m: metrics[m]["value"])
        print(f"{w}: largest layer {largest}")
    print(f"{w}: record {os.path.relpath(run.record(), ROOT)}")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "perclab", "__init__.py")):
        print(f"error: no perclab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    runs, metrics = [], {}
    for name in names:
        run = Run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        run.execute()
        m = run.metrics()
        _report(run, m)
        runs.append(run)
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    attempted = sum(len(r.invocations) for r in runs)
    failed = sum(r.failed for r in runs)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = failed == 0 and len(metrics) == len(units) * len(names)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1
