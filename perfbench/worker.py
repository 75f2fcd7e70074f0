"""One workload in one fresh process; prints its measurements as a JSON line.

Started by ``run.py``, never imported by it: each workload gets its own
interpreter so that set-up time and peak memory are its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR [--setup-only] [--layers NAME,...]

Set-up (imports, problem objects, one warm-up call) is timed from the
first statement of this file.  The timed section then runs passes over
the workload's tasks while the next pass is expected to end within
``--seconds``, and at least ``MIN_PASSES``.  Passes 0 and 1 use the same
inputs, and their reproducible records must agree byte for byte; every
later pass draws a fresh input stream from the seed.  Pass 0 is timed and
checked but left out of the median: the first pass over the real inputs
runs several percent slower than the ones after it.  With ``--trace 1``
untraced and traced passes alternate after pass 0 (pass 1 is traced), and
the per-layer numbers come from the traced ones.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
# the worked example is built once during set-up, so its layer is read there
SETUP_LAYERS = ("ternary",)
TIME_STATS = (".busy_s", ".self_s")

# pinned before numpy is imported, identically for every commit measured
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def _parse(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--layers", default="", help="comma-separated per-layer metric names")
    return p.parse_args(argv)


def _import_package():
    import cascade_secrecy

    src = (ROOT / "src").resolve()
    if src not in Path(cascade_secrecy.__file__).resolve().parents:
        raise ImportError(f"cascade_secrecy came from {cascade_secrecy.__file__}, not {src}")


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def stream_of(pass_index: int) -> int:
    """Input stream of a pass: passes 0 and 1 repeat stream 0, then one new stream per pass."""
    return max(0, pass_index - 1)


def _run_pass(wl, errors: dict, pass_index: int) -> tuple[float, float, list]:
    """Run every task once and return (wall, cpu, results); exceptions are recorded."""
    tasks = wl.tasks(stream_of(pass_index))
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for index, (label, fn) in enumerate(tasks):
        try:
            results.append(fn())
        except Exception:  # a failing task is counted, and the run goes on
            errors[(pass_index, index)] = [f"{label}: {traceback.format_exc()}"]
            results.append(None)
    return time.perf_counter() - wall0, time.process_time() - cpu0, results


def _check(wl, passes, errors: dict) -> None:
    """Reference-path checks on every pass and the determinism check, outside the timed section."""
    for p, run in enumerate(passes):
        for i, result in enumerate(run["results"]):
            if result is None:
                continue
            problems = list(wl.verify(i, result))
            twin = passes[0]["results"][i] if p == 1 else None
            if twin is not None and wl.record(i, result) != wl.record(i, twin):
                problems.append(f"task {i}: record differs from pass 0 with the same inputs")
            if problems:
                errors.setdefault((p, i), []).extend(problems)


def _layer_values(tracing, tracer, passes, layers, out) -> dict:
    """Per-layer metric values from the set-up spans and the traced passes."""
    by_task: dict[str, list] = {}
    for span in tracer.finished():
        by_task.setdefault(span[2], []).append(span)
    setup = tracing.summarize(by_task.get("setup", []))
    traced = [tracing.summarize(by_task.get(f"pass{i}", []))
              for i, p in enumerate(passes) if p["traced"]]
    values = {}
    for name in layers:
        if name.split(".", 1)[0] in SETUP_LAYERS:
            values[name] = tracing.metric_value(name, setup)
        elif name.endswith(TIME_STATS):
            values[name] = statistics.median(tracing.metric_value(name, s) for s in traced)
        else:  # counts from pass 1, whose inputs every run with this seed repeats
            values[name] = tracing.metric_value(name, traced[0])
    traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
    values["run.cpu_s"] = out["cpu_s"]
    values["trace.overhead_frac"] = traced_wall / out["wall_s"] - 1.0
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    _import_package()
    tracer = mods = None
    layers = [n for n in args.layers.split(",") if n]
    if args.trace:
        import tracer as tracing

        mods = tracing.package_modules()
        names = {f"{h}.{f}" for h, f in tracing.exported_functions(mods)}
        names |= {f"{m}.{f}" for m, f in tracing.SOLVER_BINDINGS}
        names |= {n.rsplit(".", 1)[0] for n in layers if n.count(".") == 2}
        tracer = tracing.Tracer()
        tracer.task = "setup"
        tracer.install(names, mods)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.warm_up()
    if tracer is not None:
        tracer.uninstall()
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    errors: dict[tuple[int, int], list[str]] = {}
    passes = []
    # a traced run needs an untraced pass after the warm-up pass to compare with
    min_passes = MIN_PASSES + (tracer is not None)
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.task = f"pass{len(passes)}"
            tracer.install(names, mods)
        try:
            wall, cpu, results = _run_pass(wl, errors, len(passes))
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall": wall, "cpu": cpu, "results": results})
        if len(passes) >= min_passes:
            typical = statistics.median(p["wall"] for p in passes)
            if time.perf_counter() - began + typical > args.seconds:
                break

    _check(wl, passes, errors)
    plain = [p for p in passes[1:] if not p["traced"]]
    out = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall"] for p in plain),
        "cpu_s": statistics.median(p["cpu"] for p in plain),
        "pass_walls": [p["wall"] for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": sum(len(p["results"]) for p in passes),
        "failed": len(errors),
        "errors": [msg for key in sorted(errors) for msg in errors[key]][:10],
        "quality_gap": None if None in passes[0]["results"] else wl.quality_gap(passes[0]["results"]),
        "env": _environment(args.seed),
    }
    if tracer is not None:
        out["layers"] = _layer_values(tracing, tracer, passes, layers, out)
        out["missing"] = tracer.missing
        tracer.write(workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
