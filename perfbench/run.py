"""Benchmark entry point: one workload, or all of them, each in fresh processes.

    python3 perfbench/run.py --workload inner_grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, seed 0

Run from the repository root.  The metric names, units and bounds come
from ``BENCHMARK.json`` at that root.  For each workload the untraced run
starts ``SETUP_PROBES`` set-up-only processes and one measuring process,
and reports the median set-up time of all of them.  The traced run
(``--trace 1``) starts one process and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failure to
run a workload prints no such line and exits with a non-zero code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at {ROOT}")
    return json.loads(path.read_text(encoding="utf-8"))


def _child_env() -> dict:
    """Worker environment; the worker itself pins BLAS threads before importing numpy."""
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # same import cost on every run, no writes into src/
    env.pop("PYTHONPATH", None)  # the worker imports the package from this checkout's src/
    return env


def _worker(args: list[str], workdir: Path) -> dict:
    """Run worker.py to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir)] + args
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker timed out after {CHILD_TIMEOUT_S}s: {' '.join(args)}") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Measure one workload; returns the result object for the last output line."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    scratch = ROOT / ".perfbench_out"
    workdir = scratch / f"work-{os.getpid()}"
    try:
        if trace:
            layers = ",".join(m["name"] for m in spec["per_layer"])
            res = _worker(base + ["--trace", "1", "--layers", layers], workdir)
            values = dict(res["layers"])
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            setups = [
                _worker(base + ["--trace", "0", "--setup-only"], workdir)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]
            res = _worker(base + ["--trace", "0"], workdir)
            res["setup_s"] = statistics.median(setups + [res["setup_s"]])
            metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _report(name, res, metrics)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def _report(name: str, res: dict, metrics: dict) -> None:
    """Human-readable lines before the result line."""
    print(f"== {name}  env {json.dumps(res['env'], sort_keys=True)}")
    for key, m in metrics.items():
        print(f"   {key:<48} {m['value']:.6g} {m['unit']}")
    print(f"   {'fail_frac':<48} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} failed / {res['attempted']} attempted tasks)")
    if res["quality_gap"] is not None:
        print(f"   {'quality_gap':<48} {res['quality_gap']:.6g} bits")
    walls = ", ".join(f"{w:.3f}" for w in res["pass_walls"])
    print(f"   passes: {len(res['pass_walls'])} [{walls}] s")
    for msg in res["errors"]:
        print(f"   FAILED: {msg}")
    if res.get("missing"):
        print(f"   not present, reported as zero: {', '.join(res['missing'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload named in BENCHMARK.json (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed-section length (default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload:
            print(json.dumps(run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)))
            return 0
        results = {n: run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names}
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
