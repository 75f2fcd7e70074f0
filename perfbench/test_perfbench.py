"""Self-tests of the benchmark: tracer arithmetic, tracer robustness, verifiers.

    python3 -m pytest perfbench -q
"""

import math
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

from cascade_secrecy.bounds import eval_inner_tuple  # noqa: E402
from cascade_secrecy.search import (  # noqa: E402
    CardinalityCaps,
    InnerSearchProblem,
    RateBudget,
    SearchResult,
    SweepPoint,
)
from cascade_secrecy.ternary import corner_candidate, ternary_example  # noqa: E402


def fake_module():
    """A module whose ``outer`` calls ``inner`` twice through its globals."""
    mod = types.ModuleType("fake")
    exec(
        "import time\n"
        "def inner():\n"
        "    time.sleep(0.02)\n"
        "def outer():\n"
        "    time.sleep(0.03)\n"
        "    inner()\n"
        "    inner()\n",
        mod.__dict__,
    )
    return mod


def test_self_time_is_busy_minus_child_time():
    mod = fake_module()
    tr = tracing.Tracer()
    tr.install(["fake.outer", "fake.inner"], {"fake": mod})
    mod.outer()
    tr.uninstall()
    summary = tracing.summarize(tr.finished())
    outer, inner = summary["fake.outer"], summary["fake.inner"]
    assert (outer["calls"], inner["calls"]) == (1, 2)
    assert outer["self_s"] == pytest.approx(outer["busy_s"] - inner["busy_s"], abs=1e-12)
    assert inner["self_s"] == pytest.approx(inner["busy_s"], abs=1e-12)
    assert outer["self_s"] >= 0.03 and inner["busy_s"] >= 0.04
    spans = {s[0]: s for s in tr.finished()}
    outer_id = next(s[0] for s in spans.values() if s[3] == "fake.outer")
    assert [s[1] for s in spans.values() if s[3] == "fake.inner"] == [outer_id, outer_id]


def test_nested_spans_self_time_by_interval():
    tr = tracing.Tracer()
    with tr.span("a.outer"):
        time.sleep(0.01)
        with tr.span("a.child"):
            time.sleep(0.02)
    summary = tracing.summarize(tr.finished())
    assert summary["a.outer"]["self_s"] == pytest.approx(
        summary["a.outer"]["busy_s"] - summary["a.child"]["busy_s"], abs=1e-12
    )
    assert summary["a"]["busy_s"] == pytest.approx(summary["a.outer"]["busy_s"], abs=1e-12)


def test_tracer_tolerates_missing_names_and_restores():
    mod = fake_module()
    original = mod.outer
    tr = tracing.Tracer()
    tr.install(["fake.outer", "fake.no_such_function", "gone.minimize"], {"fake": mod})
    assert mod.outer is not original
    mod.outer()
    tr.uninstall()
    assert mod.outer is original
    assert sorted(tr.missing) == ["fake.no_such_function", "gone.minimize"]
    summary = tracing.summarize(tr.finished())
    assert tracing.metric_value("fake.no_such_function.calls", summary) == 0
    assert tracing.metric_value("gone.minimize.nfev", summary) == 0
    assert tracing.metric_value("fake.outer.calls", summary) == 1


def test_solver_counters_read_from_result():
    result = types.SimpleNamespace(nfev=7, nit=3, success=False)
    assert tracing._optimize_extra(result) == {"nfev": 7, "nit": 3, "fail": 1}
    assert tracing._optimize_extra((1.0, 2.0)) == {}


def test_exported_functions_cover_cross_module_imports():
    mods = tracing.package_modules()
    exported = tracing.exported_functions(mods)
    for name in (("search", "search_inner"), ("bounds", "candidate_to_json"),
                 ("rng", "sample_rows"), ("probability", "entropy")):
        assert name in exported
    assert all(not f.startswith("_") for _, f in exported)
    assert "__main__" not in mods


# ---------------------------------------------------------------------------
# verifiers


def corner_result(budget_r0=1.0):
    ex = ternary_example()
    cand = corner_candidate(1)
    problem = InnerSearchProblem(
        ex.p_x, ex.payoff, ex.side, RateBudget(budget_r0, math.inf, math.inf),
        CardinalityCaps(6, 3, 27, 9),
    )
    tup = eval_inner_tuple(cand, ex.side, ex.payoff)
    return SearchResult(True, tup, cand, 0, 1, 0.0), problem


def test_verify_inner_accepts_honest_and_flags_tampered_pi():
    result, problem = corner_result()
    assert workloads.verify_inner(result, problem) == []
    tampered = replace(result, tuple=replace(result.tuple, pi=result.tuple.pi + 1e-6))
    problems = workloads.verify_inner(tampered, problem)
    assert len(problems) == 1 and "pi" in problems[0]


def test_verify_inner_flags_budget_and_infeasible():
    result, problem = corner_result(budget_r0=0.5)
    assert any("budget" in p for p in workloads.verify_inner(result, problem))
    blank = SearchResult(False, None, None, 0, 1, 0.0, "infeasible")
    assert workloads.verify_inner(blank, problem)


def test_verify_sweep_flags_tampered_value():
    grid = workloads.EquivSweep.grid
    points = [SweepPoint(r0, min(r0, 1.0)) for r0 in grid]
    assert workloads.verify_sweep(points, grid) == []
    tampered = list(points)
    tampered[3] = SweepPoint(grid[3], points[2].value - 1e-3)
    problems = workloads.verify_sweep(tampered, grid)
    assert any("decreases" in p for p in problems)
    assert any("min(r0, 1)" in p for p in problems)
    assert workloads.verify_sweep(points[:-1], grid)


def audit(passed=True, exact=0.47, est=0.46, se=0.01):
    return {"audit": {"passed": passed},
            "results": {"payoff_exact": exact, "payoff_mc_estimate": est, "payoff_mc_se": se}}


def test_verify_simulate_flags_exit_code_and_bad_numbers():
    assert workloads.verify_simulate(0, audit()) == []
    assert workloads.verify_simulate(1, audit()) == ["simulate exited with code 1"]
    assert workloads.verify_simulate(0, None)
    assert workloads.verify_simulate(0, audit(passed=False))
    assert workloads.verify_simulate(0, audit(est=0.6))  # beyond 3 SE
    assert workloads.verify_simulate(0, audit(exact=0.3, est=0.3))  # far from 1/2


def test_derive_seed_is_stable_and_tagged():
    assert workloads.derive_seed(0, "search") == workloads.derive_seed(0, "search")
    assert workloads.derive_seed(0, "search") != workloads.derive_seed(0, "codebook")
    assert workloads.derive_seed(0, "search") != workloads.derive_seed(1, "search")
