"""The benchmark workloads and the reference-path checks on their outputs.

A workload is built from the run seed alone.  ``tasks(stream)`` lists the
calls one timed pass makes, with inputs drawn from input stream ``stream``
of the run seed; each call returns the raw result the package produced.
Outside the timed section ``record`` turns a result into its reproducible
record (compared across passes for determinism), ``verify`` re-derives the
published numbers by the reference path, and ``quality_gap`` scores the
search quality.  Every module attribute is looked up at call time, so a
tracer that rebinds package functions sees every call.

Inputs are smaller than the ROADMAP's full cases so that one run fits the
benchmark's time limit; README.md records each choice.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from cascade_secrecy import bounds, cli, payoff, search, simulation, ternary
from cascade_secrecy.probability import Alphabet, Pmf

TUPLE_TOL = 1e-9  # reference tuple vs published tuple, and budget overage
SWEEP_TOL = 1e-6  # sweep point vs min(r0, 1)
MONOTONE_TOL = 1e-12
MC_SE_FACTOR = 3.0  # Monte Carlo estimate within this many standard errors
CORNER_PI = 0.5
CORNER_TOL = 0.15
SEED_CHOICES = 8  # codebook and Monte Carlo seeds 0-7 of simulate_n2


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one input stream, fixed by the run seed and a tag."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# reference-path checks (pure functions of a result, so self-tests can tamper)


def verify_inner(result, problem) -> list[str]:
    """Problems with one ``search_inner`` result, re-derived by the reference evaluator."""
    if not result.feasible:
        return [f"unexpected infeasible result: {result.message}"]
    out = []
    report = bounds.check_inner_constraints(result.candidate)
    if not report.passed:
        out.append(f"candidate fails the inner constraints:\n{report}")
        return out
    ref = bounds.eval_inner_tuple(result.candidate, problem.side, problem.payoff, check=False)
    for tag in ("r0", "r1", "r2", "pi"):
        got, want = getattr(result.tuple, tag), getattr(ref, tag)
        if got != want and not abs(got - want) <= TUPLE_TOL:  # equal covers pi = -inf
            out.append(f"published {tag}={got!r} but the reference path gives {want!r}")
    for tag in ("r0", "r1", "r2"):
        cap = getattr(problem.budget, tag)
        if getattr(ref, tag) > cap + TUPLE_TOL:
            out.append(f"{tag}={getattr(ref, tag)!r} exceeds the budget {cap!r}")
    return out


def verify_sweep(points, grid) -> list[str]:
    """Problems with an equivocation sweep whose closed form is min(r0, 1)."""
    if len(points) != len(grid):
        return [f"sweep has {len(points)} points for a {len(grid)}-point grid"]
    out = []
    values = [p.value for p in points]
    for i, (a, b) in enumerate(zip(values, values[1:])):
        if b < a - MONOTONE_TOL:
            out.append(f"sweep decreases at point {i + 1}: {a!r} -> {b!r}")
    for p, r0 in zip(points, grid):
        if not abs(p.value - min(r0, 1.0)) <= SWEEP_TOL:
            out.append(f"value {p.value!r} at r0={r0!r} misses min(r0, 1)")
    return out


def verify_simulate(code: int, audit: dict | None) -> list[str]:
    """Problems with one ``simulate`` command run: exit code, audit, MC and exact payoff."""
    if code != 0:
        return [f"simulate exited with code {code}"]
    if audit is None:
        return ["simulate wrote no audit file"]
    out = []
    if not audit["audit"]["passed"]:
        out.append("system audit failed")
    res = audit["results"]
    exact, est, se = res["payoff_exact"], res["payoff_mc_estimate"], res["payoff_mc_se"]
    if not se > 0.0:
        out.append(f"Monte Carlo standard error {se!r} is not positive")
    if not abs(est - exact) <= MC_SE_FACTOR * se:
        out.append(f"Monte Carlo {est!r} is not within 3 SE ({se!r}) of the exact {exact!r}")
    if not abs(exact - CORNER_PI) <= CORNER_TOL:
        out.append(f"exact payoff {exact!r} is not within {CORNER_TOL} of {CORNER_PI}")
    return out


def _search_record(result) -> str:
    obj = result.to_json()
    obj.pop("wall_time")
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# workloads


class InnerGrid:
    """``search_inner`` on the ternary example, one task per key budget.

    Sampled, not enumerated: caps (4,3,12,6) give 17.4M deterministic maps.
    They reach the same 0.25 / 0.5 / 0.5632 payoffs as caps (6,3,27,9) in
    about a fifth of the time, and their anchors include non-flat
    decompositions, so SLSQP (``_refine_weights``) still takes about half of
    a pass.  Only the best two samples are refined: most refinement is on
    the seed-independent anchors, so the pass time hardly depends on the seed.
    """

    name = "inner_grid"
    caps = (4, 3, 12, 6)
    r0_grid = (0.5, 1.0, 1.3)
    restarts = 64
    refine_top = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        ex = ternary.ternary_example()
        caps = search.CardinalityCaps(*self.caps)
        self.problems = [
            search.InnerSearchProblem(
                ex.p_x, ex.payoff, ex.side, search.RateBudget(r0, math.inf, math.inf), caps
            )
            for r0 in self.r0_grid
        ]
        # warm-up: a tiny sampled search touches the evaluator, both refiners and NNLS
        warm = search.InnerSearchProblem(
            ex.p_x, ex.payoff, ex.side, search.RateBudget(1.0, math.inf, math.inf),
            search.CardinalityCaps(2, 2, 8, 4),
        )
        self.warm_up = lambda: search.search_inner(
            warm, restarts=1, seed=seed, workers=1, refine_top=1, enum_limit=0
        )

    def tasks(self, stream: int):
        seed = derive_seed(self.seed, f"search/{stream}")
        return [
            (f"r0={p.budget.r0}", lambda p=p: search.search_inner(
                p, restarts=self.restarts, seed=seed, workers=1, refine_top=self.refine_top))
            for p in self.problems
        ]

    def record(self, index: int, result) -> str:
        return _search_record(result)

    def verify(self, index: int, result) -> list[str]:
        return verify_inner(result, self.problems[index])

    def quality_gap(self, results) -> float:
        return sum(
            ternary.analytic_pi(p.budget.r0) - r.tuple.pi
            for p, r in zip(self.problems, results)
            if r.feasible
        )


class EquivSweep:
    """``equivocation_sweep`` on criterion 3's binary Hamming problem."""

    # cap 3 makes the family small enough (15,552 members) to enumerate at
    # every grid point, so most of a pass is seed-independent enumeration
    # repeated per point; at cap 4 a pass is a handful of SLSQP refinements
    # whose cost varies several-fold with the seed
    name = "equiv_sweep"
    grid = tuple(i * 1.25 / 3 for i in range(4))
    restarts = 2
    cap = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        hamming = [[0.0, 1.0], [1.0, 0.0]]

        def problem(cap):
            return search.EquivocationProblem(
                p_x=Pmf.uniform(Alphabet("X", 2)),
                secret_set=("X",),
                y2_alphabet=Alphabet("Y2", 2),
                y3_alphabet=Alphabet("Y3", 2),
                d1=hamming, d2=hamming, max_d1=0.0, max_d2=0.0,
                r0=0.0, r1=1.0, r2=1.0, cap_v1=cap, cap_v2=cap,
            )

        self.problem = problem(self.cap)
        warm = problem(2)
        self.warm_up = lambda: search.equivocation_sweep(
            warm, [0.0, 1.0], restarts=1, seed=seed, workers=1
        )

    def tasks(self, stream: int):
        seed = derive_seed(self.seed, f"search/{stream}")
        return [("sweep", lambda: search.equivocation_sweep(
            self.problem, list(self.grid), restarts=self.restarts, seed=seed, workers=1))]

    def record(self, index: int, points) -> str:
        return json.dumps([[p.r0, p.value] for p in points])

    def verify(self, index: int, points) -> list[str]:
        return verify_sweep(points, self.grid)

    def quality_gap(self, results) -> float:
        return sum(abs(min(p.r0, 1.0) - p.value) for p in results[0])


class SimulateN2:
    """The ``simulate`` command, in process, on corner candidate 1 at n = 2.

    The codebook and Monte Carlo seeds are drawn from ``range(SEED_CHOICES)``;
    all 64 pairs pass every check.  A codebook drawn from an arbitrary seed
    can miss some source sequence (exit code 3) or land below the 0.35 the
    corner check needs, and any one 3-SE check fails by chance about 0.3%
    of the time; none of these is a program fault.
    """

    name = "simulate_n2"
    bits = (2, 3, 3, 1, 5)
    samples = 400
    outputs = ("simulate_audit.json", "simulate_results.csv")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.example = ternary.ternary_example()
        warm_cfg = self._write_config("warm_up.json", 1, (1, 1, 2, 1, 2), 0, 0, 2)
        self.warm_up = lambda: self._simulate(warm_cfg, workdir / "warm_up")
        self._runs = 0

    def _write_config(self, name, n, bits, codebook_seed, mc_seed, samples) -> Path:
        spec = simulation.SchemeSpec(
            n=n, inner=ternary.corner_candidate(1), index_bits=simulation.IndexBits(*bits),
            side=self.example.side, seed=codebook_seed,
        )
        config = {
            "seed": mc_seed,
            "samples": samples,
            "problem": {
                "scheme": simulation.scheme_spec_to_json(spec),
                "payoff": payoff.payoff_to_json(self.example.payoff),
                "secret_set": ["X"],
            },
        }
        path = self.workdir / name
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def _simulate(self, config: Path, out: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        return code, out

    def tasks(self, stream: int):
        config = self._write_config(
            f"simulate-{stream}.json", 2, self.bits,
            derive_seed(self.seed, f"codebook/{stream}") % SEED_CHOICES,
            derive_seed(self.seed, f"monte-carlo/{stream}") % SEED_CHOICES, self.samples,
        )
        self._runs += 1
        out = self.workdir / f"pass{self._runs}"
        return [("simulate", lambda: self._simulate(config, out))]

    def _read(self, out: Path, name: str) -> bytes | None:
        path = out / name
        return path.read_bytes() if path.is_file() else None

    def record(self, index: int, result) -> tuple:
        code, out = result
        return (code, *(self._read(out, name) for name in self.outputs))

    def verify(self, index: int, result) -> list[str]:
        code, out = result
        blob = self._read(out, self.outputs[0])
        return verify_simulate(code, json.loads(blob) if blob is not None else None)

    def quality_gap(self, results) -> None:
        return None


WORKLOADS = {w.name: w for w in (InnerGrid, EquivSweep, SimulateN2)}
