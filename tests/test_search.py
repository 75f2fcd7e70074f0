"""Randomized-restart searches over the inner bound and the disclosure family.

The ternary worked example pins the search floor: its optimum at unit key
rate is exactly 1/2, reachable within the stated cardinality caps, so a
deterministic run must land there.  Binary Hamming configurations give the
equivocation search closed-form targets.
"""

import dataclasses
import itertools
import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from cascade_secrecy import bounds as bounds_mod
from cascade_secrecy import search as search_mod
from cascade_secrecy.bounds import (
    RatePayoffTuple,
    check_equivocation_membership,
    check_inner_constraints,
    equivocation_value,
    eval_inner_tuple,
)
from cascade_secrecy.payoff import LogLossPayoff, PayoffTable
from cascade_secrecy.probability import Alphabet, Pmf, _entropy_of, mutual_information
from cascade_secrecy.search import (
    CardinalityCaps,
    EquivocationProblem,
    InnerSearchProblem,
    RateBudget,
    SearchResult,
    VerificationError,
    equivocation_sweep,
    min_key_rate,
    search_equivocation,
    search_inner,
)
from cascade_secrecy.ternary import ternary_example

EX = ternary_example()
HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])


def ternary_problem(budget, caps=CardinalityCaps(u1=6, u2=3, v1=27, v2=9)):
    return InnerSearchProblem(
        p_x=EX.p_x, payoff=EX.payoff, side=EX.side, budget=budget, caps=caps
    )


def binary_equiv_problem(d_cap, r0):
    return EquivocationProblem(
        p_x=Pmf.uniform(Alphabet("X", 2)),
        secret_set=("X",),
        y2_alphabet=Alphabet("Y2", 2),
        y3_alphabet=Alphabet("Y3", 2),
        d1=HAMMING,
        d2=HAMMING,
        max_d1=d_cap,
        max_d2=d_cap,
        r0=r0,
        r1=1.0,
        r2=1.0,
        cap_v1=4,
        cap_v2=4,
    )


# ---------------------------------------------------------------------------
# input validation


def test_rate_budget_rejects_negative_and_nan():
    with pytest.raises(ValueError):
        RateBudget(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        RateBudget(1.0, math.nan, 1.0)
    b = RateBudget(0.0, math.inf, 2.0)
    assert b.r1 == math.inf


def test_cardinality_caps_reject_nonpositive():
    with pytest.raises(ValueError):
        CardinalityCaps(0, 1, 1, 1)
    with pytest.raises(ValueError):
        CardinalityCaps(1, 1, -2, 1)


@pytest.mark.parametrize(
    "caps, field",
    [
        ((2.5, 1, 4, 2), "u1"),
        ((True, 1, 4, 2), "u1"),
        ((2, 1.0, 4, 2), "u2"),
        ((2, 1, "4", 2), "v1"),
        ((2, 1, 4, np.float64(2)), "v2"),
    ],
    ids=["u1_float", "u1_bool", "u2_float", "v1_str", "v2_numpy_float"],
)
def test_cardinality_caps_reject_non_integers(caps, field):
    # checked at construction: a float cap fails deep inside the search, and
    # True would search with a cap of 1
    with pytest.raises(ValueError, match=f"cap {field} must be an integer >= 1"):
        CardinalityCaps(*caps)


def test_cardinality_caps_accept_numpy_integers():
    caps = CardinalityCaps(np.int64(2), 1, np.int32(4), 2)
    assert (caps.u1, caps.v1) == (2, 4)
    assert type(caps.u1) is int and type(caps.v1) is int


@pytest.mark.parametrize(
    "field, value",
    [
        ("refine_top", 2.5),
        ("refine_top", True),
        ("refine_top", "2"),
        ("refine_top", math.nan),
        ("refine_top", np.float64(2)),
        ("enum_limit", 2.5),
        ("enum_limit", True),
        ("enum_limit", "5"),
        ("enum_limit", math.nan),
        ("enum_limit", -1),
    ],
)
def test_search_inner_rejects_non_integer_limits(monkeypatch, field, value):
    # unchecked, a float refine_top fails only after every restart is
    # sampled, True passes as 1 and a NaN enum_limit turns enumeration off;
    # each is refused before any work, naming its field
    calls = []
    monkeypatch.setattr(search_mod, "_decompositions", lambda caps: calls.append(caps))
    problem = ternary_problem(RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(2, 2, 8, 4))
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 0"):
        search_inner(problem, restarts=8, **{field: value})
    assert calls == []


@pytest.mark.parametrize("field, value", [("cap_v1", 1.5), ("cap_v2", True), ("cap_v2", 2.0)])
def test_equivocation_problem_rejects_non_integer_caps(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        dataclasses.replace(binary_equiv_problem(0.0, 1.0), **{field: value})


@pytest.mark.parametrize("restarts", [2.5, True, "8", np.float64(8)])
def test_search_inner_rejects_non_integer_restarts(monkeypatch, restarts):
    # the check comes before any work
    calls = []
    monkeypatch.setattr(search_mod, "_decompositions", lambda caps: calls.append(caps))
    problem = ternary_problem(RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(2, 2, 8, 4))
    with pytest.raises(ValueError, match="restarts must be an integer >= 1"):
        search_inner(problem, restarts=restarts, enum_limit=0)
    assert calls == []


@pytest.mark.parametrize("restarts", [2.5, True])
@pytest.mark.parametrize("run", ["search", "sweep"])
def test_equivocation_searches_reject_non_integer_restarts(monkeypatch, run, restarts):
    calls = []
    monkeypatch.setattr(search_mod, "_screen_equiv", lambda problem: calls.append(problem))
    problem = binary_equiv_problem(0.0, 1.0)
    with pytest.raises(ValueError, match="restarts must be an integer >= 1"):
        if run == "search":
            search_equivocation(problem, restarts=restarts)
        else:
            equivocation_sweep(problem, [0.0, 1.0], restarts=restarts)
    assert calls == []


# no seed: floats, a bool, integers outside [0, 2**64), a string
BAD_SEEDS = [1.5, 1.9, np.float64(1.0), True, -1, 2**64, "1"]
SEED_MESSAGE = r"seed must be an integer in \[0, 2\*\*64\)"


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_search_inner_rejects_a_seed_that_is_no_integer_below_2_64(monkeypatch, seed):
    calls = []
    monkeypatch.setattr(search_mod, "_decompositions", lambda caps: calls.append(caps))
    problem = ternary_problem(RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(2, 2, 8, 4))
    with pytest.raises(ValueError, match=SEED_MESSAGE):
        search_inner(problem, restarts=8, seed=seed, enum_limit=0)
    assert calls == []


@pytest.mark.parametrize("seed", BAD_SEEDS)
@pytest.mark.parametrize("run", ["search", "sweep"])
def test_equivocation_searches_reject_a_seed_that_is_no_integer_below_2_64(
    monkeypatch, run, seed
):
    calls = []
    monkeypatch.setattr(search_mod, "_screen_equiv", lambda problem: calls.append(problem))
    problem = binary_equiv_problem(0.0, 1.0)
    with pytest.raises(ValueError, match=SEED_MESSAGE):
        if run == "search":
            search_equivocation(problem, restarts=2, seed=seed)
        else:
            equivocation_sweep(problem, [0.0, 1.0], restarts=2, seed=seed)
    assert calls == []


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_min_key_rate_rejects_a_seed_that_is_no_integer_below_2_64(monkeypatch, seed):
    calls = []
    monkeypatch.setattr(search_mod, "search_inner", lambda *a, **k: calls.append(a))
    problem = ternary_problem(RateBudget(1.0, 1.6, 0.6))
    with pytest.raises(ValueError, match=SEED_MESSAGE):
        min_key_rate(problem, 0.4, seed=seed)
    assert calls == []


def test_derived_seeds_wrap_below_2_64(monkeypatch):
    # the bisection's step seeds and the sweep's point seeds stay valid
    # seeds at the top of the range
    seeds = []

    def cleared(r0, seed):
        seeds.append(seed)
        return SimpleNamespace(feasible=True, tuple=SimpleNamespace(pi=1.0))

    monkeypatch.setattr(search_mod, "_inner_searcher", lambda *args: cleared)
    top = 2**64 - 1
    min_key_rate(ternary_problem(RateBudget(1.0, 1.6, 0.6)), 0.4, tol=0.5, seed=top)
    assert seeds == [top, 104728]
    assert search_mod._sweep_rates([0.0, 1.0, 2.0], top) == [(0.0, top), (1.0, 7918), (2.0, 15837)]


def test_search_inner_rejects_zero_restarts():
    problem = ternary_problem(RateBudget(1.0, 1.6, 0.6))
    with pytest.raises(ValueError):
        search_inner(problem, restarts=0)


def test_search_inner_rejects_negative_refine_top(monkeypatch):
    # a negative refine_top would slice off the worst restarts and refine
    # the rest; the check comes before any work
    calls = []
    monkeypatch.setattr(search_mod, "_decompositions", lambda caps: calls.append(caps))
    problem = ternary_problem(RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(2, 2, 8, 4))
    with pytest.raises(ValueError, match="refine_top"):
        search_inner(problem, restarts=8, refine_top=-1, enum_limit=0)
    assert calls == []


@pytest.mark.parametrize("field", ["r0", "r1", "r2", "max_d1", "max_d2"])
def test_equivocation_problem_rejects_nan(field):
    # a NaN key rate would publish full equivocation: every comparison
    # with it is false, so no budget or leak term could bind
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(binary_equiv_problem(0.0, 1.0), **{field: math.nan})


def test_equivocation_sweep_rejects_nan_before_screening(monkeypatch):
    calls = []
    monkeypatch.setattr(search_mod, "_screen_equiv", lambda problem: calls.append(problem))
    prob = dataclasses.replace(binary_equiv_problem(0.0, 0.0), cap_v1=2, cap_v2=2)
    with pytest.raises(ValueError, match=r"r0_grid\[1\]"):
        equivocation_sweep(prob, [0.0, math.nan, 1.0], restarts=2, seed=0)
    assert calls == []


def test_equivocation_problem_validates_distortion_shape():
    with pytest.raises(ValueError):
        EquivocationProblem(
            p_x=Pmf.uniform(Alphabet("X", 2)),
            secret_set=("X",),
            y2_alphabet=Alphabet("Y2", 2),
            y3_alphabet=Alphabet("Y3", 2),
            d1=np.zeros((3, 2)),
            d2=HAMMING,
            max_d1=0.0,
            max_d2=0.0,
            r0=1.0,
            r1=1.0,
            r2=1.0,
            cap_v1=2,
            cap_v2=2,
        )


# ---------------------------------------------------------------------------
# inner search on the ternary example


GRID_CAPS = CardinalityCaps(4, 3, 12, 6)  # the benchmark's inner_grid caps


@pytest.mark.parametrize(
    "budget, caps, kwargs, floor",
    [
        pytest.param(
            RateBudget(1.0, 1.6, 0.6),
            CardinalityCaps(u1=6, u2=3, v1=27, v2=9),
            {"restarts": 16},
            0.48,
            id="unit_key",
        ),
        pytest.param(
            RateBudget(0.5, math.inf, math.inf),
            GRID_CAPS,
            {"restarts": 64, "refine_top": 2},
            0.2499999,
            id="inner_grid_r0_0.5",
        ),
        pytest.param(
            RateBudget(0.1, math.inf, math.inf),
            GRID_CAPS,
            {"restarts": 64, "refine_top": 2},
            0.0499999,
            id="inner_grid_r0_0.1",
        ),
        pytest.param(
            RateBudget(1.3, math.inf, math.inf),
            GRID_CAPS,
            {"restarts": 64, "refine_top": 2},
            0.563227,
            id="inner_grid_r0_1.3",
        ),
        pytest.param(
            RateBudget(1.0, math.inf, math.inf),
            CardinalityCaps(3, 1, 6, 3),
            {"restarts": 8, "refine_top": 2},
            0.4999999,
            id="enumerated_maps",
        ),
        *(
            pytest.param(
                RateBudget(r0, math.inf, math.inf),
                CardinalityCaps(4, 2, 8, 4),
                {"restarts": 8},
                floor,
                id=f"ci_bounds_r0_{r0}",
            )
            for r0, floor in ((0.5, 0.2499999), (1.0, 0.4999999), (1.3, 0.5139445))
        ),
    ],
)
def test_ternary_unit_key_reaches_half(budget, caps, kwargs, floor):
    # optimum 1/2 is reachable within caps; the balanced anchors make the
    # outcome independent of sampling luck.  The inner_grid budgets pin the
    # payoffs the flat LP refiner reaches at r0 = 0.1, 0.5 and 1.3.  At caps
    # (3,1,6,3) only the 5,994 enumerated maps reach 1/2: sampling alone
    # finds no feasible candidate there.  The ci_bounds cases are the CI
    # determinism run's three searches, whose 106,686 maps are enumerated;
    # refined maps win two of them.
    problem = ternary_problem(budget, caps=caps)
    res = search_inner(problem, seed=0, **kwargs)
    assert res.feasible
    assert res.tuple.pi >= floor
    assert res.tuple.r0 <= budget.r0 + 1e-9
    assert res.tuple.r1 <= budget.r1 + 1e-9
    assert res.tuple.r2 <= budget.r2 + 1e-9
    # the witness re-evaluates to the reported tuple
    report = check_inner_constraints(res.candidate, p_x=EX.p_x, tol=1e-7)
    assert report.passed, str(report)
    again = eval_inner_tuple(res.candidate, EX.side, EX.payoff, check=False)
    assert abs(again.pi - res.tuple.pi) < 1e-9
    assert abs(again.r0 - res.tuple.r0) < 1e-9


def test_inner_grid_search_reaches_the_key_budget():
    # the refiner's budget cuts sit at the caps themselves, so at r0 = 0.5
    # the search publishes the optimum pi = r0 / 2 within the budget slack
    problem = ternary_problem(RateBudget(0.5, math.inf, math.inf), caps=GRID_CAPS)
    res = search_inner(problem, restarts=64, seed=0, refine_top=2)
    assert res.feasible
    assert res.tuple.pi >= 0.25 - 1e-9
    assert res.tuple.r0 >= 0.5 - 1e-9


def test_concentrated_start_meets_a_tight_log_loss_budget():
    # with secret Y2 and half a bit of key, this seeded search reaches the
    # payoff 1/2 only from a restart whose weights sit on about 2**R0 cells
    # per U2 value, fitted to the source marginal; from Dirichlet or uniform
    # starts alone it ends at 0
    problem = InnerSearchProblem(
        p_x=EX.p_x,
        payoff=LogLossPayoff(("Y2",)),
        side=EX.side,
        budget=RateBudget(0.5, math.inf, math.inf),
        caps=CardinalityCaps(3, 1, 6, 3),
        y2_alphabet=EX.payoff.y2_alphabet,
        y3_alphabet=EX.payoff.y3_alphabet,
    )
    res = search_inner(problem, restarts=24, seed=0, refine_top=4, enum_limit=0)
    assert res.feasible
    assert res.tuple.pi >= 0.4999


def test_ternary_zero_key_payoff_is_zero():
    # the tradeoff curve starts at zero: everything public, adversary
    # guesses the source exactly
    problem = ternary_problem(
        RateBudget(0.0, 1.6, 0.6), caps=CardinalityCaps(6, 3, 9, 3)
    )
    res = search_inner(problem, restarts=8, seed=1)
    assert res.feasible
    assert 0.0 <= res.tuple.pi <= 1e-9
    assert res.tuple.r0 <= 1e-9


def test_single_cell_caps_infeasible_under_guarded_payoff():
    # with |V1| = 1 the actions cannot avoid the source symbol, and every
    # schedule hits a forbidden triple
    problem = ternary_problem(
        RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(1, 1, 1, 1)
    )
    res = search_inner(problem, restarts=4, seed=0)
    assert not res.feasible
    assert res.candidate is None and res.tuple is None


def test_single_cell_caps_feasible_when_payoff_finite():
    # replacing -inf with a finite penalty re-opens the no-information
    # scheme: all rates zero, payoff = best blind value
    vals = np.where(np.isneginf(EX.payoff.values), -2.0, EX.payoff.values)
    payoff = PayoffTable(
        EX.payoff.x_alphabet,
        EX.payoff.y2_alphabet,
        EX.payoff.y3_alphabet,
        EX.payoff.z_alphabet,
        vals,
    )
    problem = InnerSearchProblem(
        p_x=EX.p_x,
        payoff=payoff,
        side=EX.side,
        budget=RateBudget(0.0, 0.0, 0.0),
        caps=CardinalityCaps(1, 1, 1, 1),
    )
    res = search_inner(problem, restarts=4, seed=0)
    px = EX.p_x.probs
    blind = max(
        min(float(px @ vals[:, y2, y3, z]) for z in range(3))
        for y2 in range(3)
        for y3 in range(3)
    )
    assert res.feasible
    assert abs(res.tuple.pi - blind) < 1e-9
    assert res.tuple.r0 <= 1e-12 and res.tuple.r1 <= 1e-12 and res.tuple.r2 <= 1e-12


def test_search_certifies_the_published_winner(monkeypatch):
    # a fast evaluator that drifts from the reference must not publish;
    # a finite payoff makes the single-cell search feasible and quick
    vals = np.where(np.isneginf(EX.payoff.values), -2.0, EX.payoff.values)
    payoff = PayoffTable(
        EX.payoff.x_alphabet,
        EX.payoff.y2_alphabet,
        EX.payoff.y3_alphabet,
        EX.payoff.z_alphabet,
        vals,
    )
    problem = InnerSearchProblem(
        p_x=EX.p_x,
        payoff=payoff,
        side=EX.side,
        budget=RateBudget(0.0, 0.0, 0.0),
        caps=CardinalityCaps(1, 1, 1, 1),
    )
    stats = search_mod._InnerEvaluator.stats

    def shifted(self, w4):
        out = stats(self, w4)
        out.pi += 1e-6
        return out

    monkeypatch.setattr(search_mod._InnerEvaluator, "stats", shifted)
    with pytest.raises(RuntimeError, match="pi="):
        search_inner(problem, restarts=4, seed=0)


def test_search_names_the_membership_check_its_winner_fails(monkeypatch):
    # a winner that fails a reference membership check is not published,
    # and the error names the check: here the x marginal, checked against
    # a source law other than the searched one
    check = search_mod.check_inner_constraints
    other = Pmf(EX.p_x.alphabet, np.array([0.5, 0.25, 0.25]))
    assert np.abs(other.probs - EX.p_x.probs).max() > 0.1
    monkeypatch.setattr(
        search_mod,
        "check_inner_constraints",
        lambda cand, p_x, tol: check(cand, p_x=other, tol=tol),
    )
    problem = ternary_problem(RateBudget(1.0, math.inf, math.inf), caps=CardinalityCaps(2, 2, 8, 4))
    with pytest.raises(VerificationError, match="fails check 'x marginal matches the source law'"):
        search_inner(problem, restarts=2, seed=0, refine_top=0, enum_limit=0)


def test_search_skips_an_anchor_whose_action_has_no_finite_pair(monkeypatch):
    # every (x, y2) pair is forbidden under action y3 = 2, so the balanced
    # map of a decomposition whose round robin reaches that action does not
    # exist; the search drops that anchor and still certifies its winner
    vals = EX.payoff.values.copy()
    vals[:, :, 2, 0] = -np.inf
    alphabets = (EX.payoff.x_alphabet, EX.payoff.y2_alphabet, EX.payoff.y3_alphabet)
    payoff = PayoffTable(*alphabets, EX.payoff.z_alphabet, vals)
    balanced, built = search_mod._balanced_structure, []
    monkeypatch.setattr(
        search_mod, "_balanced_structure", lambda *a: built.append(balanced(*a)) or built[-1]
    )
    problem = InnerSearchProblem(
        EX.p_x, payoff, EX.side, RateBudget(1.0, math.inf, math.inf), CardinalityCaps(2, 2, 8, 4)
    )
    res = search_inner(problem, restarts=8, seed=0, refine_top=2, enum_limit=0)
    assert None in built and any(struct is not None for struct in built)
    assert res.feasible and math.isfinite(res.tuple.pi)


_EVAL_DIMS = [
    (c_u2, c_a, c_b, c_c)
    for c_u2 in (1, 2)
    for c_a in (1, 2)
    for c_b in (1, 2)
    for c_c in (1, 3)
]
_LOG_LOSS_SECRETS = [("X",), ("Y2",), ("X", "Y3"), ("X", "Y2", "Y3")]


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from(_EVAL_DIMS),
    secret=st.sampled_from([None] + _LOG_LOSS_SECRETS),
    stochastic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_evaluator_matches_reference(dims, secret, stochastic, seed):
    # the search scores candidates with _InnerEvaluator; the reference
    # evaluator must give the same tuple on flat and non-flat layouts
    if secret is None:
        problem = ternary_problem(RateBudget(1.0, 1.6, 0.6))
    else:
        problem = InnerSearchProblem(
            p_x=EX.p_x,
            payoff=LogLossPayoff(secret),
            side=EX.side,
            budget=RateBudget(1.0, 1.6, 0.6),
            caps=CardinalityCaps(6, 3, 27, 9),
            y2_alphabet=EX.payoff.y2_alphabet,
            y3_alphabet=EX.payoff.y3_alphabet,
        )
    rng = np.random.default_rng(seed)
    pairs = search_mod._finite_pairs(problem)
    struct = search_mod._sample_structure(rng, dims, problem, pairs, stochastic)
    w4 = search_mod._start_weights(dims, rng)
    fast = search_mod._InnerEvaluator(struct, problem).stats(w4)
    cand = search_mod._assemble_inner(struct, w4, problem)
    ref = eval_inner_tuple(cand, problem.side, problem.payoff, check=False)
    for tag in ("r0", "r1", "r2", "pi"):
        got, want = getattr(fast, tag), getattr(ref, tag)
        assert got == want or abs(got - want) <= 1e-9, (tag, got, want)


def eval_problem(secret):
    """The ternary example's table payoff (secret None) or a log-loss payoff."""
    if secret is None:
        return ternary_problem(RateBudget(1.0, 1.6, 0.6))
    return InnerSearchProblem(
        p_x=EX.p_x,
        payoff=LogLossPayoff(secret),
        side=EX.side,
        budget=RateBudget(1.0, 1.6, 0.6),
        caps=CardinalityCaps(6, 3, 27, 9),
        y2_alphabet=EX.payoff.y2_alphabet,
        y3_alphabet=EX.payoff.y3_alphabet,
    )


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from(_EVAL_DIMS),
    secret=st.sampled_from([None] + _LOG_LOSS_SECRETS),
    stochastic=st.lists(st.booleans(), min_size=1, max_size=5),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_inner_kernel_stack_matches_single(dims, secret, stochastic, shared, seed):
    # screening scores a stack of maps in one kernel call; each member's
    # statistics must equal its own single-structure call bit for bit,
    # whether the stack shares one weight table or has one per member
    problem = eval_problem(secret)
    rng = np.random.default_rng(seed)
    pairs = search_mod._finite_pairs(problem)
    structs = [search_mod._sample_structure(rng, dims, problem, pairs, s) for s in stochastic]
    weights = [search_mod._start_weights(dims, rng) for _ in structs]
    if shared:
        weights = weights[:1] * len(structs)
    rows = ("px_rows", "py2_rows", "py3_rows")
    stack = search_mod._Structure(dims, *(np.stack([getattr(s, r) for s in structs]) for r in rows))
    stacked = weights[0] if shared else np.stack(weights)
    stats = search_mod._InnerEvaluator(stack, problem).stats(stacked)
    for i, (struct, w4) in enumerate(zip(structs, weights)):
        one = search_mod._InnerEvaluator(struct, problem).stats(w4)
        for field in dataclasses.fields(one):
            got, want = getattr(stats, field.name)[i], getattr(one, field.name)
            assert type(want) is float and got == want, (field.name, i, got, want)


_FLAT_DIMS = [d for d in _EVAL_DIMS if (d[1] == 1 or d[2] == 1) and math.prod(d) > 1]


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from(_FLAT_DIMS),
    secret=st.sampled_from([None] + _LOG_LOSS_SECRETS),
    stochastic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_refiner_gradients_match_central_differences(dims, secret, stochastic, seed):
    # the flat LP refiner linearizes the rates and the log-loss payoff with
    # the evaluator's gradients; along simplex-tangent directions at an
    # interior point they must match central differences of stats, and the
    # table-payoff epigraph must reproduce the payoff
    if secret is None:
        problem = ternary_problem(RateBudget(1.0, 1.6, 0.6))
    else:
        problem = InnerSearchProblem(
            p_x=EX.p_x,
            payoff=LogLossPayoff(secret),
            side=EX.side,
            budget=RateBudget(1.0, 1.6, 0.6),
            caps=CardinalityCaps(6, 3, 27, 9),
            y2_alphabet=EX.payoff.y2_alphabet,
            y3_alphabet=EX.payoff.y3_alphabet,
        )
    rng = np.random.default_rng(seed)
    pairs = search_mod._finite_pairs(problem)
    struct = search_mod._sample_structure(rng, dims, problem, pairs, stochastic)
    ev = search_mod._InnerEvaluator(struct, problem)
    n = math.prod(dims)
    w = 0.5 * search_mod._start_weights(dims, rng).reshape(-1) + 0.5 / n
    fields = ["r0", "r1", "r2"]
    grads = list(ev.rate_grads(w.reshape(dims)))
    if secret is not None:
        fields.append("pi")
        grads.append(ev.payoff_grad(w.reshape(dims)))
    h = 1e-6
    for _ in range(3):
        d = rng.normal(size=n)
        d -= d.mean()
        d /= np.abs(d).max()
        plus = ev.stats((w + h * d).reshape(dims))
        minus = ev.stats((w - h * d).reshape(dims))
        for tag, g in zip(fields, grads):
            fd = (getattr(plus, tag) - getattr(minus, tag)) / (2 * h)
            assert abs(fd - g @ d) <= 1e-6 * (1.0 + abs(fd)), (tag, fd, g @ d)
    if secret is None:
        stats = ev.stats(w.reshape(dims))
        if math.isfinite(stats.pi):
            per_u = (w[:, None] * ev.pi_cz).reshape(dims[0] * dims[1], -1, ev.pi_cz.shape[1])
            assert abs(per_u.sum(axis=1).min(axis=1).sum() - stats.pi) <= 1e-9


def _linprog_lp(c, a_ub, b_ub, a_eq, b_eq, lb, ub):
    """``search._solve_lp`` through scipy's public wrapper: the reference it must match."""
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=list(zip(lb, ub)), method="highs")
    return res.x if res.success else None


@pytest.mark.parametrize("infeasible", [False, True])
@settings(max_examples=60, deadline=None)
@given(
    n_x=st.integers(1, 4),
    n_w=st.integers(2, 12),
    n_cuts=st.integers(0, 3),
    extras=st.sampled_from(["none", "slack", "epigraph"]),
    delta=st.sampled_from([1e-4, 0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_direct_highs_matches_linprog(infeasible, n_x, n_w, n_cuts, extras, delta, seed):
    # the refiner's LP shapes: source-marginal equalities plus a row of
    # ones, linearized cut rows and a box of half-width delta around a point
    # on the simplex, with nonnegative slacks or free epigraph variables;
    # the direct binding must agree with linprog bit for bit
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n_w))
    px = rng.dirichlet(np.ones(n_x), size=n_w).T
    a_eq = np.vstack([px, np.ones((1, n_w))])
    b_eq = np.concatenate([px @ w, [1.0]])
    g = rng.normal(size=(n_cuts, n_w))
    rhs = g @ w + rng.normal(scale=0.1, size=n_cuts)
    lb, ub = np.maximum(w - delta, 0.0), np.minimum(w + delta, 1.0)
    if extras == "slack":
        n_extra = n_cuts
        cost = np.concatenate([np.zeros(n_w), np.ones(n_extra)])
        a_ub = np.hstack([g, -np.eye(n_cuts)])
        extra_lo = 0.0
    elif extras == "epigraph":
        groups = rng.integers(1, n_w + 1)
        n_extra = groups
        n_z = rng.integers(1, 4)
        pi = rng.normal(size=(n_w, n_z))
        epigraph = np.zeros((groups, n_z, n_w + groups))
        cells = np.arange(n_w)
        epigraph[cells * groups // n_w, :, cells] = -pi
        epigraph[np.arange(groups), :, n_w + np.arange(groups)] = 1.0
        cost = np.concatenate([np.zeros(n_w), -np.ones(groups)])
        a_ub = np.vstack([np.hstack([g, np.zeros((n_cuts, groups))]), epigraph.reshape(-1, n_w + groups)])
        rhs = np.concatenate([rhs, np.zeros(groups * n_z)])
        extra_lo = -np.inf
    else:
        n_extra = 0
        cost = rng.normal(size=n_w)
        a_ub = g
        extra_lo = 0.0
    if infeasible:
        # the weights sum to one, so they cannot also sum to at most 1/2
        a_ub = np.vstack([a_ub, np.concatenate([np.ones(n_w), np.zeros(n_extra)])])
        rhs = np.concatenate([rhs, [0.5]])
    a_eq = np.hstack([a_eq, np.zeros((len(a_eq), n_extra))])
    lb = np.concatenate([lb, np.full(n_extra, extra_lo)])
    ub = np.concatenate([ub, np.full(n_extra, np.inf)])
    got = search_mod._solve_lp(cost, a_ub, rhs, a_eq, b_eq, lb, ub, search_mod._lp_solver())
    want = _linprog_lp(cost, a_ub, rhs, a_eq, b_eq, lb, ub)
    assert (got is None) == (want is None)
    if infeasible:
        assert got is None
    else:
        assert got is None or np.array_equal(got, want)


def test_search_matches_linprog_refiner(monkeypatch):
    # the same seeded search with every refiner LP solved by linprog gives
    # the same record
    problem = ternary_problem(RateBudget(1.0, math.inf, math.inf), caps=CardinalityCaps(3, 1, 6, 3))
    blobs, calls = [], []

    def reference(*lp):
        calls.append(lp)
        return _linprog_lp(*lp[:-1])  # the last argument is the searcher's solver

    for patch in (False, True):
        if patch:
            monkeypatch.setattr(search_mod, "_solve_lp", reference)
        obj = search_inner(problem, restarts=8, seed=0, refine_top=2).to_json()
        obj.pop("wall_time")
        blobs.append(json.dumps(obj, sort_keys=True))
    assert calls
    assert blobs[0] == blobs[1]


def test_refiner_scores_each_point_once(monkeypatch):
    # within one refinement no weight vector reaches the kernel twice: not
    # the accepted point at the loop top, not a trust-region retry, not the
    # backtracking trials at convergence; nor does the caller score the
    # point a refinement returns again
    refinements, active, outside = [], [], []
    stats, refine = search_mod._InnerEvaluator.stats, search_mod._refine_flat_slp

    def counted_stats(self, w4):
        call = (id(self), np.asarray(w4).tobytes())
        if active:
            refinements[-1].append(call)
        elif refinements:  # refining has begun: only the caller is left
            outside.append(call)
        return stats(self, w4)

    def counted_refine(*args):
        refinements.append([])
        active.append(True)
        try:
            return refine(*args)
        finally:
            active.pop()

    monkeypatch.setattr(search_mod._InnerEvaluator, "stats", counted_stats)
    monkeypatch.setattr(search_mod, "_refine_flat_slp", counted_refine)
    problem = ternary_problem(RateBudget(1.3, math.inf, math.inf), caps=GRID_CAPS)
    assert search_inner(problem, restarts=8, seed=0, refine_top=2, enum_limit=0).feasible
    assert sum(map(len, refinements)) > len(refinements) > 0
    for calls in refinements:
        assert len(calls) == len(set(calls))
    assert outside == []


@pytest.mark.parametrize("maxiter", [1, 2, 3])
def test_refiner_keeps_the_step_it_accepts_at_the_lp_cap(monkeypatch, maxiter):
    # a refinement cut by the LP cap right after an accepted step still
    # compares that step with the best point: each refinement returns the
    # best in-budget value of every point it scored
    refine = search_mod._refine_flat_slp
    checked = []

    def counted_refine(program, x0, highs):
        scored, stats = [], program.stats
        program.stats = lambda p: scored.append(stats(p)) or scored[-1]
        out = refine(program, x0, highs)
        best = max(program.value(s) for s in scored)
        assert (out is None) == (best == -math.inf)
        if out is not None:
            assert program.value(out[1]) == best
        checked.append(len(scored))
        return out

    monkeypatch.setattr(search_mod, "_LP_MAXITER", maxiter)
    monkeypatch.setattr(search_mod, "_refine_flat_slp", counted_refine)
    problem = ternary_problem(RateBudget(1.3, math.inf, math.inf), caps=GRID_CAPS)
    assert search_inner(problem, restarts=8, seed=0, refine_top=2, enum_limit=0).feasible
    assert max(checked) > 1


def _lp_recorder(monkeypatch):
    """Per refinement, the (program, center x, cost, solution) of each of its LPs."""
    refine, solve = search_mod._refine_flat_slp, search_mod._solve_lp
    refinements, center = [], []

    def recording_refine(program, x0, highs):
        linearize = program.linearize

        def recording_linearize(x, stats):
            center[:] = [x.copy()]
            return linearize(x, stats)

        program.linearize = recording_linearize
        refinements.append((program, []))
        return refine(program, x0, highs)

    def recording_solve(c, *lp):
        sol = solve(c, *lp)
        refinements[-1][1].append((center[0], c, sol))
        return sol

    monkeypatch.setattr(search_mod, "_refine_flat_slp", recording_refine)
    monkeypatch.setattr(search_mod, "_solve_lp", recording_solve)
    return refinements


def _predicted_gain(program, x, cost, sol):
    """The climb LP's predicted gain model(x) - model(target): the cost over
    the point plus the epigraph variables at their largest feasible value,
    at the center and at the normalized solution."""
    n = len(x)
    target = np.clip(sol[:n], 0.0, None)
    for row in program.rows:
        target[row] /= target[row].sum()

    def model(p):
        bound = -program.epigraph[:, :n] @ p
        t = [bound[program.epigraph[:, j] > 0].min() for j in range(n, len(cost))]
        return cost[:n] @ p + cost[n:] @ np.array(t)

    return model(x) - model(target)


def test_refiner_stops_at_a_climb_lp_that_predicts_no_gain(monkeypatch):
    # maximize min(x0, x1) on the simplex from its optimum (1/2, 1/2): the
    # first climb LP predicts no gain, so it is the refinement's only LP
    refinements = _lp_recorder(monkeypatch)
    program = search_mod._Program(
        stats=lambda x: float(x.min()),
        value=lambda stats: stats,
        limits=lambda stats: [],
        linearize=lambda x, stats: (np.array([0.0, 0.0, -1.0]), []),
        a_eq=np.ones((1, 2)),
        b_eq=np.ones(1),
        rows=[slice(0, 2)],
        epigraph=np.array([[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]]),
    )
    start = np.array([0.5, 0.5])
    x, stats = search_mod._refine_flat_slp(program, start, search_mod._lp_solver())
    assert np.array_equal(x, start) and stats == 0.5
    ((_, lps),) = refinements
    assert len(lps) == 1
    assert _predicted_gain(program, *lps[0]) <= 1e-12


def test_refiner_ends_at_its_start_after_seven_failed_climb_lps(monkeypatch):
    # a climb LP that HiGHS does not solve halves the trust region and is
    # a stall; the seventh in a row ends the refinement at its start
    deltas = []

    def failed(c, a_ub, b_ub, a_eq, b_eq, lb, ub, highs):
        deltas.append(ub[0] - 0.3)  # the trust region's radius around x0 = 0.3
        return None

    monkeypatch.setattr(search_mod, "_solve_lp", failed)
    program = search_mod._Program(
        stats=lambda x: float(x.min()),
        value=lambda stats: stats,
        limits=lambda stats: [],
        linearize=lambda x, stats: (np.array([0.0, 0.0, -1.0]), []),
        a_eq=np.ones((1, 2)),
        b_eq=np.ones(1),
        rows=[slice(0, 2)],
        epigraph=np.array([[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]]),
    )
    start = np.array([0.3, 0.7])
    x, stats = search_mod._refine_flat_slp(program, start, search_mod._lp_solver())
    assert np.array_equal(x, start) and stats == 0.3
    assert deltas == pytest.approx([0.3 * 0.5**i for i in range(7)])


def test_search_makes_no_climb_lp_after_one_predicting_no_gain(monkeypatch):
    # a rejected climb leaves x in place and later LPs only shrink the box,
    # so the refinement ends at the first climb LP that predicts no gain.
    # With the key budget finite every feasibility LP has slack columns of
    # cost one, and no climb LP has a positive cost
    refinements = _lp_recorder(monkeypatch)
    problem = ternary_problem(RateBudget(1.0, math.inf, math.inf), caps=GRID_CAPS)
    assert search_inner(problem, restarts=8, seed=0, refine_top=2).feasible
    stops = 0
    for program, lps in refinements:
        climbs = [lp for lp in lps if not (lp[1][len(lp[0]):] > 0).any()]
        flat = [lp[2] is not None and _predicted_gain(program, *lp) <= 1e-12 for lp in climbs]
        assert True not in flat[:-1]
        stops += flat[-1:] == [True]
    assert stops > 0


def test_search_inner_assembles_only_its_winner(monkeypatch):
    # the inner_grid search at r0 = 1: several pool entries tie at the best
    # payoff, and only the published one becomes a joint table
    calls = []
    assemble = search_mod._assemble_inner
    monkeypatch.setattr(search_mod, "_assemble_inner", lambda *a: calls.append(a) or assemble(*a))
    problem = ternary_problem(RateBudget(1.0, math.inf, math.inf), caps=GRID_CAPS)
    assert search_inner(problem, restarts=64, seed=0, refine_top=2).feasible
    assert len(calls) == 1


def test_search_publishes_the_earliest_of_tied_entries(monkeypatch):
    # at caps (6,3,9,3) and budget (1.0, 1.6, 0.6), 48 enumerated maps are
    # feasible at pi = 1/2, and no map does better.  The first of them in
    # enumeration order heads the pool, and no entry can beat it (pi is at
    # most r0 / 2), so the search publishes that map, not a later tie
    monkeypatch.setattr(search_mod, "_ENUM_REFINE_TOP", 8)  # fewer refinements, same pool head
    problem = ternary_problem(RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(6, 3, 9, 3))
    pairs = search_mod._finite_pairs(problem)
    decomps = search_mod._decompositions(problem.caps)
    stats, tables = search_mod._screen_maps(problem, decomps, pairs)
    pi = np.where(search_mod._inner_feasible(stats, problem.budget), stats.pi, -math.inf)
    tied = np.flatnonzero(pi == 0.5)  # map indices, in enumeration order
    assert pi.max() == 0.5 and len(tied) == 48

    def table(i):
        dims, y3_maps, starts = next(t for t in tables if t[2][0] <= i < t[2][-1])
        xy, y3 = search_mod._maps(dims, y3_maps, starts, pairs, np.array([i]))
        struct = search_mod._deterministic_structure(dims, problem, xy[0], y3[0])
        w4 = search_mod._start_weights(dims)
        return search_mod._assemble_inner(struct, w4, problem).joint.table

    res = search_inner(problem, restarts=1, seed=0, refine_top=0)
    assert res.tuple.pi == 0.5
    assert np.array_equal(res.candidate.joint.table, table(tied[0]))
    assert not np.array_equal(table(tied[0]), table(tied[-1]))


def test_search_refines_each_class_of_equal_starts_once(monkeypatch):
    # at caps (6,3,9,3) most of the 256 screened maps are relabelings of a
    # few: equal (dims, r0, r1, r2, pi, marginal gap), the same refined
    # point.  Each class is refined from its first start only; refining
    # every start made 248 refinements from 29 classes
    starts, dims_of = [], {}
    program, refine = search_mod._inner_program, search_mod._refine_flat_slp

    def recorded_program(evaluator, budget):
        out = program(evaluator, budget)
        dims_of[id(out)] = evaluator.dims
        return out

    def recorded_refine(prog, x0, highs):
        starts.append((dims_of[id(prog)], *vars(prog.stats(x0)).values()))
        return refine(prog, x0, highs)

    monkeypatch.setattr(search_mod, "_inner_program", recorded_program)
    monkeypatch.setattr(search_mod, "_refine_flat_slp", recorded_refine)
    problem = ternary_problem(RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(6, 3, 9, 3))
    res = search_inner(problem, restarts=8, seed=0, refine_top=8)
    assert res.tuple.pi == 0.5
    assert len(starts) > 8  # the screened maps, not only the sampled restarts
    assert len(set(starts)) == len(starts)


def test_missing_highs_bindings_name_the_scipy_floor():
    # an older scipy lacks the bundled HiGHS bindings the refiner calls;
    # importing the search then names the scipy release that has them
    code = (
        "import sys, scipy.optimize\n"
        "sys.modules['scipy.optimize._highspy._core'] = None\n"
        "import cascade_secrecy.search\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "ImportError: cascade_secrecy.search needs scipy >= 1.15" in proc.stderr


ENUM_CAPS = CardinalityCaps(3, 1, 6, 3)  # 5,994 deterministic maps


@pytest.mark.parametrize("cell_budget", [None, 1000])
def test_inner_enumeration_follows_product_order(monkeypatch, cell_budget):
    # the screening stacks hold the maps of the former nested product over
    # the y3 map and then each V1 cell's pair, in that order, at most the
    # cell budget each: at the default a stack spans several y3 maps, and a
    # small budget splits one y3 map's pair choices over several stacks
    if cell_budget is not None:
        monkeypatch.setattr(search_mod, "_CELL_BUDGET", cell_budget)
    stacks, maps = [], search_mod._maps

    def recorded(dims, *args):
        xy, y3 = maps(dims, *args)
        stacks.append((dims, xy, y3))
        return xy, y3

    monkeypatch.setattr(search_mod, "_maps", recorded)
    problem = ternary_problem(RateBudget(1.0, math.inf, math.inf), caps=ENUM_CAPS)
    pairs = search_mod._finite_pairs(problem)
    decomps = search_mod._decompositions(problem.caps)
    search_mod._screen_maps(problem, decomps, pairs)
    for dims, xy, _ in stacks:
        assert len(xy) * math.prod(dims) * 27 <= search_mod._CELL_BUDGET  # P(w | v1) cells
    got = [
        (dims, tuple(y3.tolist()), xy.tolist())
        for dims, xys, y3s in stacks
        for xy, y3 in zip(xys, y3s)
    ]
    spans = any(len(np.unique(y3, axis=0)) > 1 for _, _, y3 in stacks)
    split = any(
        d == e and np.array_equal(a[-1], b[0]) for (d, _, a), (e, _, b) in zip(stacks, stacks[1:])
    )
    want = []
    for dims in decomps:
        v2_of = [u2 * dims[2] + b for u2, _, b, _ in itertools.product(*map(range, dims))]
        for y3 in itertools.product(range(3), repeat=dims[0] * dims[2]):
            for xy in itertools.product(*(pairs[y3[v2]] for v2 in v2_of)):
                want.append((dims, y3, [pair.tolist() for pair in xy]))
    assert len(want) == 5994
    assert got == want
    assert spans
    assert split == (cell_budget is not None)


def test_enumerating_search_builds_few_structures(monkeypatch):
    # screening keeps index arrays and builds a structure only for the maps
    # it keeps, not one per map
    created = []

    class Counted(search_mod._Structure):
        def __init__(self, *args):
            created.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(search_mod, "_Structure", Counted)
    problem = ternary_problem(RateBudget(1.0, math.inf, math.inf), caps=ENUM_CAPS)
    res = search_inner(problem, restarts=8, seed=0, refine_top=2)
    assert res.feasible
    assert 0 < len(created) < 5994


def test_one_searcher_matches_fresh_searches():
    # a searcher screens the maps once and rates them at each key budget;
    # each of its searches equals a fresh search_inner at that budget, the
    # infeasible result at r0 = 0.5 and the witnesses at r0 >= 1
    base = ternary_problem(RateBudget(1.0, math.inf, math.inf), caps=ENUM_CAPS)
    search = search_mod._inner_searcher(base, 8, refine_top=2)
    feasible = []
    for seed, r0 in enumerate((0.5, 1.0, 1.3)):
        fresh = search_inner(
            ternary_problem(RateBudget(r0, math.inf, math.inf), caps=ENUM_CAPS),
            restarts=8,
            seed=seed,
            refine_top=2,
        )
        blobs = [res.to_json() for res in (search(r0, seed), fresh)]
        for blob in blobs:
            blob.pop("wall_time")
        assert json.dumps(blobs[0], sort_keys=True) == json.dumps(blobs[1], sort_keys=True)
        feasible.append(fresh.feasible)
    assert feasible[1:] == [True, True]


def test_search_deterministic_across_worker_counts():
    problem = ternary_problem(
        RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(6, 3, 9, 3)
    )
    blobs = []
    for workers in (1, 2):
        res = search_inner(problem, restarts=8, seed=3, workers=workers)
        obj = res.to_json()
        obj.pop("wall_time")
        blobs.append(json.dumps(obj, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_search_result_json_uses_minus_inf_sentinel():
    res = SearchResult(
        feasible=True,
        tuple=RatePayoffTuple(0.0, 0.0, 0.0, -math.inf, True),
        candidate=None,
        seed=0,
        restarts=1,
        wall_time=0.0,
    )
    obj = res.to_json()
    assert obj["tuple"]["pi"] == "-inf"
    json.loads(json.dumps(obj))  # valid JSON end to end


def test_random_budgets_never_violate_rates():
    # whatever the search returns feasible must satisfy the budget under
    # independent re-evaluation
    rng = np.random.default_rng(20260816)
    for trial in range(4):
        budget = RateBudget(
            float(rng.uniform(0, 1.2)),
            float(rng.uniform(0.8, 2.0)),
            float(rng.uniform(0.3, 1.2)),
        )
        problem = ternary_problem(budget, caps=CardinalityCaps(6, 3, 9, 3))
        res = search_inner(
            problem, restarts=6, seed=trial, refine_top=6, enum_limit=0
        )
        if not res.feasible:
            continue
        report = check_inner_constraints(res.candidate, p_x=EX.p_x, tol=1e-6)
        assert report.passed, str(report)
        t = eval_inner_tuple(res.candidate, EX.side, EX.payoff, check=False)
        assert t.r0 <= budget.r0 + 1e-7
        assert t.r1 <= budget.r1 + 1e-7
        assert t.r2 <= budget.r2 + 1e-7
        assert abs(t.pi - res.tuple.pi) < 1e-9


def test_min_key_rate_brackets_the_curve():
    # the tradeoff is bounded above by half the key budget, so clearing
    # target 0.45 needs at least 0.9 bits; a unit key certainly suffices
    problem = ternary_problem(
        RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(6, 3, 9, 3)
    )
    out = min_key_rate(problem, 0.45, tol=0.05, restarts=8, seed=0, refine_top=8)
    assert out.feasible
    assert 0.9 - 0.05 <= out.r0 <= 1.0
    assert out.result.tuple.pi >= 0.45
    assert out.evaluations >= 2


def test_min_key_rate_screens_the_maps_once(monkeypatch):
    # the bracket case: six bisection searches share one screening of the
    # 70,230 maps, which does not depend on the key budget (the refiner is
    # stubbed out to keep the test under 2 s; it does not screen)
    calls = []
    screen = search_mod._screen_maps
    monkeypatch.setattr(search_mod, "_screen_maps", lambda *a: calls.append(a) or screen(*a))
    monkeypatch.setattr(search_mod, "_refine_flat_slp", lambda program, x0, highs: None)
    problem = ternary_problem(
        RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(6, 3, 9, 3)
    )
    out = min_key_rate(problem, 0.45, tol=0.05, restarts=8, seed=0, refine_top=8)
    assert out.evaluations == 6
    assert len(calls) == 1


def test_min_key_rate_rejects_unreachable_target():
    problem = ternary_problem(
        RateBudget(1.0, 1.6, 0.6), caps=CardinalityCaps(6, 3, 9, 3)
    )
    out = min_key_rate(problem, 0.9, tol=0.05, restarts=4, seed=0)
    assert not out.feasible
    assert out.r0 is None


def test_min_key_rate_needs_finite_budget():
    problem = ternary_problem(RateBudget(math.inf, 1.6, 0.6))
    with pytest.raises(ValueError):
        min_key_rate(problem, 0.4)


def test_min_key_rate_rejects_nan_target(monkeypatch):
    # no payoff clears a NaN target, so no search runs
    calls = []
    monkeypatch.setattr(search_mod, "search_inner", lambda *a, **k: calls.append(a))
    problem = ternary_problem(RateBudget(1.0, 1.6, 0.6))
    with pytest.raises(ValueError, match="target_pi"):
        min_key_rate(problem, math.nan)
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_min_key_rate_needs_positive_tol(monkeypatch, tol):
    # with tol <= 0 the bisection never closes (adjacent floats have a
    # midpoint equal to one end) and a NaN tol skips it; the check comes
    # before any search
    calls = []
    monkeypatch.setattr(search_mod, "search_inner", lambda *a, **k: calls.append(a))
    problem = ternary_problem(RateBudget(1.0, 1.6, 0.6))
    with pytest.raises(ValueError, match="tol"):
        min_key_rate(problem, 0.4, tol=tol)
    assert calls == []


# ---------------------------------------------------------------------------
# equivocation search on binary Hamming configurations


def test_equivocation_zero_distortion_unit_key():
    # zero distortion forces the actions onto the source; a full key
    # re-hides the necessary disclosure
    res = search_equivocation(binary_equiv_problem(0.0, 1.0), restarts=16, seed=0)
    assert res.feasible
    assert abs(res.value - 1.0) < 1e-6


def test_equivocation_zero_distortion_no_key():
    res = search_equivocation(binary_equiv_problem(0.0, 0.0), restarts=16, seed=0)
    assert res.feasible
    assert abs(res.value - 0.0) < 1e-6


def test_equivocation_no_key_publishes_no_leak_bought_with_slack():
    # criterion 3's no-key search: the closed form is 0, and a witness whose
    # distortion sits inside the 1e-9 slack above a zero budget must not
    # publish the leak that slack buys
    res = search_equivocation(binary_equiv_problem(0.0, 0.0), restarts=16, seed=0)
    assert res.feasible
    assert res.value <= 1e-9


def test_ci_equivocation_sweep_meets_the_closed_form():
    # the CI determinism run's problem: binary Hamming at zero distortion,
    # |V1| = |V2| = 3; every point lies on min(r0, 1)
    problem = dataclasses.replace(binary_equiv_problem(0.0, 0.0), cap_v1=3, cap_v2=3)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
    pts = equivocation_sweep(problem, grid, restarts=2, seed=0)
    assert [p.r0 for p in pts] == grid
    for p in pts:
        assert abs(p.value - min(p.r0, 1.0)) <= 1e-9, p


def test_equivocation_vacuous_distortion_no_key():
    # fair-coin actions meet distortion 1/2 while revealing nothing
    res = search_equivocation(binary_equiv_problem(0.5, 0.0), restarts=16, seed=0)
    assert res.feasible
    assert abs(res.value - 1.0) < 1e-6


def test_equivocation_witness_is_a_family_member():
    res = search_equivocation(binary_equiv_problem(0.0, 1.0), restarts=16, seed=0)
    report = check_equivocation_membership(
        res.candidate, p_x=Pmf.uniform(Alphabet("X", 2)), tol=1e-7
    )
    assert report.passed, str(report)
    direct = equivocation_value(res.candidate, ("X",), 1.0, check=False)
    assert abs(direct - res.value) < 1e-9


def test_equivocation_search_certifies_the_published_winner(monkeypatch):
    # the winner is re-derived by the reference evaluator before it is
    # published, as for the inner search
    stats = search_mod._equiv_stats

    def shifted(params, problem, r0):
        out = stats(params, problem, r0)
        out.value += 1e-6
        return out

    monkeypatch.setattr(search_mod, "_equiv_stats", shifted)
    with pytest.raises(VerificationError, match="value="):
        search_equivocation(binary_equiv_problem(0.0, 1.0), restarts=4, seed=0)


@pytest.mark.parametrize(
    "run",
    [
        lambda prob: equivocation_sweep(prob, [0.0, 0.5, 1.0], restarts=2, seed=0),
        lambda prob: search_equivocation(prob, restarts=2, seed=0),
    ],
    ids=["sweep", "search"],
)
def test_equivocation_family_is_enumerated_once_per_call(monkeypatch, run):
    # membership and the budgets do not involve R0, so one screening
    # serves every grid point
    screen_equiv = search_mod._screen_equiv
    calls = []

    def counted(problem):
        calls.append(problem)
        return screen_equiv(problem)

    monkeypatch.setattr(search_mod, "_screen_equiv", counted)
    prob = dataclasses.replace(binary_equiv_problem(0.0, 0.0), cap_v1=2, cap_v2=2)
    run(prob)
    assert len(calls) == 1


def test_equivocation_assembles_each_member_once(monkeypatch):
    # each search assembles only the candidate it publishes, so an N-point
    # sweep assembles at most N joints, although every screened member
    # ties for the best value at three of these four key rates
    calls = []
    assemble = search_mod._assemble_equiv
    monkeypatch.setattr(search_mod, "_assemble_equiv", lambda *a: calls.append(a) or assemble(*a))
    prob = dataclasses.replace(binary_equiv_problem(0.0, 0.0), cap_v1=3, cap_v2=3)
    grid = [i * 1.25 / 3 for i in range(4)]
    equivocation_sweep(prob, grid, restarts=2, seed=0)
    assert 0 < len(calls) <= len(grid)


@pytest.mark.parametrize("k", [1, 4])
def test_equivocation_sweep_evaluates_each_winner_once(monkeypatch, k):
    # certification derives a winner's H(S) and I(S;V1) once and the curve
    # re-rates them, so a k-point sweep makes one reference evaluation of
    # each term per grid point
    calls = []

    def counted(measure):
        def wrapper(*args, **kwargs):
            calls.append(measure.__name__)
            return measure(*args, **kwargs)

        return wrapper

    for measure in (bounds_mod.entropy, bounds_mod.mutual_information):
        monkeypatch.setattr(bounds_mod, measure.__name__, counted(measure))
    prob = dataclasses.replace(binary_equiv_problem(0.0, 0.0), cap_v1=3, cap_v2=3)
    pts = equivocation_sweep(prob, [i * 1.25 / 3 for i in range(k)], restarts=2, seed=0)
    assert all(math.isfinite(p.value) for p in pts)
    assert sorted(calls) == ["entropy"] * k + ["mutual_information"] * k


def test_equivocation_member_without_a_free_row_is_not_refined(monkeypatch):
    # |V1| = |Y2| = |Y3| = 1: every row of a member is a single cell, so the
    # refiner has nothing to move, and the restarts compete as drawn
    refine, refined = search_mod._refine_equiv, []
    monkeypatch.setattr(
        search_mod, "_refine_equiv", lambda *a: refined.append(refine(*a)) or refined[-1]
    )
    prob = EquivocationProblem(
        p_x=Pmf.uniform(Alphabet("X", 2)),
        secret_set=("X",),
        y2_alphabet=Alphabet("Y2", 1),
        y3_alphabet=Alphabet("Y3", 1),
        d1=np.zeros((2, 1)),
        d2=np.zeros((2, 1)),
        max_d1=0.0,
        max_d2=0.0,
        r0=0.0,
        r1=1.0,
        r2=1.0,
        cap_v1=1,
        cap_v2=2,
    )
    res = search_equivocation(prob, restarts=2, seed=0)
    assert refined == [None, None]
    assert res.feasible and abs(res.value - 1.0) <= 1e-12  # V1 is constant: H(X) is kept


def test_equivocation_infeasible_distortion():
    # demanding better-than-zero Hamming distortion cannot be met
    prob = binary_equiv_problem(-0.25, 1.0)
    res = search_equivocation(prob, restarts=8, seed=0)
    assert not res.feasible


def test_equivocation_sweep_monotone():
    grid = [i * 1.25 / 19 for i in range(20)]
    pts = equivocation_sweep(binary_equiv_problem(0.0, 0.0), grid, restarts=8, seed=0)
    vals = [p.value for p in pts]
    assert len(vals) == 20
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert abs(vals[0] - 0.0) < 1e-6
    assert abs(vals[-1] - 1.0) < 1e-6


def test_equivocation_deterministic_given_seed():
    blobs = []
    for _ in range(2):
        res = search_equivocation(binary_equiv_problem(0.5, 0.25), restarts=12, seed=5)
        obj = res.to_json()
        obj.pop("wall_time")
        blobs.append(json.dumps(obj, sort_keys=True))
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# equivocation batch kernel, enumeration order, gradients and the LP refiner


_EQUIV_SECRETS = [("X",), ("Y2",), ("X", "Y3")]


def random_equiv_problem(rng, secret, cap_v1, cap_v2):
    n_x, n_y2, n_y3 = (int(n) for n in rng.integers(2, 4, size=3))
    return EquivocationProblem(
        p_x=Pmf(Alphabet("X", n_x), rng.dirichlet(np.ones(n_x))),
        secret_set=secret,
        y2_alphabet=Alphabet("Y2", n_y2),
        y3_alphabet=Alphabet("Y3", n_y3),
        d1=rng.random((n_x, n_y2)),
        d2=rng.random((n_x, n_y3)),
        max_d1=0.5,
        max_d2=0.5,
        r0=0.0,
        r1=1.0,
        r2=1.0,
        cap_v1=cap_v1,
        cap_v2=cap_v2,
    )


def random_member(rng, problem, rows, g):
    """A stack of one whose rows come from ``rows(n, k)``."""
    n_x = problem.p_x.alphabet.size
    n_y2, n_y3 = problem.y2_alphabet.size, problem.y3_alphabet.size
    return search_mod._EquivParams(
        rows(n_x, problem.cap_v1)[None],
        rows(problem.cap_v1, n_y2)[None],
        rows(problem.cap_v2, n_y3)[None],
        np.asarray(g)[None],
    )


def loop_stats(one, problem, r0):
    """The former per-member kernel, the reference for the batch kernel's
    arithmetic: (value, h_s, leak, ed1, ed2, i_xv1, i_xv2) of a stack of one."""
    e_rows, py2, py3, g = one.e_rows[0], one.py2[0], one.py3[0], one.g[0]
    p_x = problem.p_x.probs
    jxv = p_x[:, None] * e_rows
    f = jxv[:, :, None, None] * py2[None, :, :, None] * py3[g][None, :, None, :]
    axis_of = {"X": 0, "Y2": 2, "Y3": 3}
    s_axes = tuple(axis_of[s] for s in problem.secret_set)
    keep_s = f.sum(axis=tuple(ax for ax in (0, 2, 3) if ax not in s_axes) + (1,))
    keep_sv = f.sum(axis=tuple(ax for ax in (0, 2, 3) if ax not in s_axes))
    h_s = _entropy_of(keep_s)
    pv1 = jxv.sum(axis=0)
    leak = max(0.0, h_s + _entropy_of(pv1) - _entropy_of(keep_sv))
    ed1 = float((f.sum(axis=(1, 3)) * problem.d1).sum())
    ed2 = float((f.sum(axis=(1, 2)) * problem.d2).sum())
    h_x = _entropy_of(p_x)
    i_xv1 = max(0.0, h_x + _entropy_of(pv1) - _entropy_of(jxv))
    jxv2 = np.zeros((len(p_x), py3.shape[0]))
    np.add.at(jxv2.T, g, jxv.T)
    i_xv2 = max(0.0, h_x + _entropy_of(jxv2.sum(axis=0)) - _entropy_of(jxv2))
    return (h_s - max(0.0, leak - r0), h_s, leak, ed1, ed2, i_xv1, i_xv2)


@settings(max_examples=60, deadline=None)
@given(
    secret=st.sampled_from(_EQUIV_SECRETS),
    cap_v1=st.integers(1, 4),
    cap_v2=st.integers(1, 4),
    one_hot=st.lists(st.booleans(), min_size=1, max_size=6),
    r0=st.sampled_from([0.0, 0.25, 1.0, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_equivocation_kernel_matches_reference(secret, cap_v1, cap_v2, one_hot, r0, seed):
    # the batch kernel scores a whole stack at once; each member's
    # statistics must equal the former per-member loop bit for bit, and its
    # value, distortions and message rates must match the reference path on
    # the member's assembled joint
    rng = np.random.default_rng(seed)
    problem = random_equiv_problem(rng, secret, cap_v1, cap_v2)

    def member(deterministic):
        def rows(n, k):
            if deterministic:
                return np.eye(k)[rng.integers(k, size=n)]
            return rng.dirichlet(np.ones(k), size=n)

        return random_member(rng, problem, rows, rng.integers(cap_v2, size=cap_v1))

    members = [member(d) for d in one_hot]
    stats = search_mod._equiv_stats(search_mod._concat(members), problem, r0)
    fields = ("value", "h_s", "leak", "ed1", "ed2", "i_xv1", "i_xv2")
    for i, one in enumerate(members):
        assert tuple(getattr(stats, tag)[i] for tag in fields) == loop_stats(one, problem, r0)
        cand = search_mod._assemble_equiv(one, problem)
        table = cand.joint.table  # (X, Y2, Y3, V1, V2)
        want = {
            "value": equivocation_value(cand, secret, r0, check=False),
            "ed1": float((table.sum(axis=(2, 3, 4)) * problem.d1).sum()),
            "ed2": float((table.sum(axis=(1, 3, 4)) * problem.d2).sum()),
            "i_xv1": mutual_information(cand.joint, "X", "V1"),
            "i_xv2": mutual_information(cand.joint, "X", "V2"),
        }
        for tag, value in want.items():
            got = getattr(stats, tag)[i]
            assert abs(got - value) <= 1e-12, (tag, i, got, value)


def product_members(problem):
    """The family in the order of the former screening loop, one member at a time."""
    n_x = problem.p_x.alphabet.size
    n_v1, n_v2 = problem.cap_v1, problem.cap_v2
    n_y2, n_y3 = problem.y2_alphabet.size, problem.y3_alphabet.size
    for m in itertools.product(range(n_v1), repeat=n_x):
        for g in itertools.product(range(n_v2), repeat=n_v1):
            for h2 in itertools.product(range(n_y2), repeat=n_v1):
                for h3 in itertools.product(range(n_y3), repeat=n_v2):
                    yield np.eye(n_v1)[list(m)], np.eye(n_y2)[list(h2)], np.eye(n_y3)[list(h3)], g


@pytest.mark.parametrize("cap_v1, cap_v2, total", [(3, 2, 2304), (2, 2, 256)])
def test_equivocation_enumeration_follows_product_order(cap_v1, cap_v2, total):
    # member i of the family is the i-th of itertools.product over the four maps
    prob = dataclasses.replace(binary_equiv_problem(0.0, 0.0), cap_v1=cap_v1, cap_v2=cap_v2)
    got = search_mod._equiv_members(prob, np.arange(total))
    for i, (e_rows, py2, py3, g) in enumerate(product_members(prob)):
        assert np.array_equal(got.e_rows[i], e_rows)
        assert np.array_equal(got.py2[i], py2)
        assert np.array_equal(got.py3[i], py3)
        assert tuple(got.g[i]) == g
    assert i + 1 == total


def full_screen(problem):
    """The staged screen's oracle: every member of the family scored in one
    stack at ``problem.r0``, then filtered by all four budgets."""
    index = np.arange(math.prod(search_mod._equiv_radices(problem)))
    stats = search_mod._equiv_stats(search_mod._equiv_members(problem, index), problem, problem.r0)
    ok = search_mod._within(search_mod._limits(stats, problem, search_mod._EQUIV_BUDGETS))
    return search_mod._take(stats, ok), index[ok]


def assert_same_screen(got, want):
    (stats, kept), (want_stats, want_kept) = got, want
    assert np.array_equal(kept, want_kept) and np.all(np.diff(kept) > 0)
    for field in dataclasses.fields(stats):
        name = field.name
        assert np.array_equal(getattr(stats, name), getattr(want_stats, name)), name


def counted_members(monkeypatch):
    """How many members each ``_equiv_members`` call builds, in call order."""
    sizes, members = [], search_mod._equiv_members

    def counted(problem, index):
        sizes.append(len(index))
        return members(problem, index)

    monkeypatch.setattr(search_mod, "_equiv_members", counted)
    return sizes


@settings(max_examples=60, deadline=None)
@given(
    secret=st.sampled_from(_EQUIV_SECRETS),
    cap_v1=st.integers(1, 4),
    cap_v2=st.integers(1, 4),
    max_d=st.tuples(*[st.sampled_from([0.0, 0.2, 0.5, 1.0])] * 2),
    rates=st.tuples(*[st.sampled_from([0.3, 1.0, math.inf])] * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_staged_equivocation_screen_matches_full_enumeration(
    secret, cap_v1, cap_v2, max_d, rates, seed
):
    # the screen scores the members of the (V1 map, Y2 map) pairs within
    # ed1 and I(X;V1) only; it must keep the members, and the statistics,
    # that scoring and filtering the whole family gives
    rng = np.random.default_rng(seed)
    problem = random_equiv_problem(rng, secret, cap_v1, cap_v2)
    assume(math.prod(search_mod._equiv_radices(problem)) <= 20_000)  # the oracle's one stack
    zeros = [rng.random(d.shape) < 0.3 for d in (problem.d1, problem.d2)]  # so max_d = 0 can hold
    problem = dataclasses.replace(
        problem,
        d1=np.where(zeros[0], 0.0, problem.d1),
        d2=np.where(zeros[1], 0.0, problem.d2),
        max_d1=max_d[0],
        max_d2=max_d[1],
        r0=float(rng.choice([0.0, 0.5, 1.0])),
        r1=rates[0],
        r2=rates[1],
    )
    assert_same_screen(search_mod._screen_equiv(problem), full_screen(problem))


def test_staged_equivocation_screen_keeps_nothing_when_no_pair_passes(monkeypatch):
    # every Y2 letter costs distortion 1 against a cap of 0.5: no pair
    # passes, so no member is scored past the pairs and the screen is empty
    problem = dataclasses.replace(
        binary_equiv_problem(0.5, 0.0), d1=np.ones((2, 2)), cap_v1=3, cap_v2=3
    )
    sizes = counted_members(monkeypatch)
    stats, kept = search_mod._screen_equiv(problem)
    assert sizes == [72, 0]
    assert len(kept) == 0 and kept.dtype.kind == "i"
    for field in dataclasses.fields(stats):
        assert len(getattr(stats, field.name)) == 0, field.name
    assert not search_equivocation(problem, restarts=1, seed=0).feasible


def test_staged_equivocation_screen_scores_the_family_once_when_every_pair_passes(monkeypatch):
    # vacuous ed1 and I(X;V1) budgets keep all 72 pairs: the screen scores
    # the whole family after them, 216 members a pair, and matches the oracle
    problem = dataclasses.replace(
        binary_equiv_problem(1.0, 0.0), max_d2=0.0, r1=math.inf, cap_v1=3, cap_v2=3
    )
    sizes = counted_members(monkeypatch)
    got = search_mod._screen_equiv(problem)
    assert sizes == [72] + [1024] * 15 + [192]  # 15,552 members
    assert_same_screen(got, full_screen(problem))


def test_equivocation_screen_prunes_the_benchmark_problem(monkeypatch):
    # the equiv_sweep benchmark's problem, criterion 3's zero-distortion
    # Hamming problem at caps (3,3): 12 of the 72 pairs pass ed1 and
    # I(X;V1), so 2,592 of the 15,552 members are scored
    problem = dataclasses.replace(binary_equiv_problem(0.0, 0.0), cap_v1=3, cap_v2=3)
    sizes = counted_members(monkeypatch)
    stats, kept = search_mod._screen_equiv(problem)
    assert sizes == [72, 1024, 1024, 544] and len(kept) == 432


def assert_position_free(alone, stacked, n):
    """Each of ``n`` members scores bit-equal alone and at every position of
    a stack of all of them: ``alone[i]`` is member i's statistics on its own,
    ``stacked(order)`` those of the stack of members ``order``, one per position."""
    for shift in range(n):
        order = [(p + shift) % n for p in range(n)]
        for i, got in zip(order, stacked(order)):
            assert got == alone[i], (shift, i, got, alone[i])


_EQUIV_FIELDS = ("value", "h_s", "leak", "ed1", "ed2", "i_xv1", "i_xv2")


@settings(max_examples=30, deadline=None)
@given(
    secret=st.sampled_from(_EQUIV_SECRETS),
    cap_v1=st.integers(1, 4),
    cap_v2=st.integers(1, 4),
    one_hot=st.lists(st.booleans(), min_size=4, max_size=4),
    r0=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_equivocation_kernel_is_free_of_the_stack(secret, cap_v1, cap_v2, one_hot, r0, seed):
    # the screens score members in stacks of any size and make-up; a
    # member's statistics must not depend on the stack or its place in it
    rng = np.random.default_rng(seed)
    problem = random_equiv_problem(rng, secret, cap_v1, cap_v2)

    def member(deterministic):
        def rows(n, k):
            if deterministic:
                return np.eye(k)[rng.integers(k, size=n)]
            return rng.dirichlet(np.ones(k), size=n)

        return random_member(rng, problem, rows, rng.integers(cap_v2, size=cap_v1))

    members = [member(d) for d in one_hot]

    def score(stack):
        stats = search_mod._equiv_stats(stack, problem, r0)
        return [tuple(getattr(stats, f)[k] for f in _EQUIV_FIELDS) for k in range(len(stack.g))]

    alone = [score(one)[0] for one in members]

    def stacked(order):
        return score(search_mod._concat([members[i] for i in order]))

    assert_position_free(alone, stacked, 4)


@settings(max_examples=30, deadline=None)
@given(
    dims=st.sampled_from(_EVAL_DIMS),
    secret=st.sampled_from([None] + _LOG_LOSS_SECRETS),
    stochastic=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_inner_kernel_is_free_of_the_stack(dims, secret, stochastic, seed):
    # as for the equivocation kernel: a map's statistics alone (the
    # single-structure path) equal its statistics at every place in a stack
    problem = eval_problem(secret)
    rng = np.random.default_rng(seed)
    pairs = search_mod._finite_pairs(problem)
    structs = [search_mod._sample_structure(rng, dims, problem, pairs, s) for s in stochastic]
    weights = [search_mod._start_weights(dims, rng) for _ in structs]
    fields = [f.name for f in dataclasses.fields(search_mod._InnerStats)]
    alone = [
        tuple(getattr(search_mod._InnerEvaluator(s, problem).stats(w4), f) for f in fields)
        for s, w4 in zip(structs, weights)
    ]

    def stacked(order):
        rows = ("px_rows", "py2_rows", "py3_rows")
        stack = search_mod._Structure(
            dims, *(np.stack([getattr(structs[i], r) for i in order]) for r in rows)
        )
        w4 = np.stack([weights[i] for i in order])
        stats = search_mod._InnerEvaluator(stack, problem).stats(w4)
        return [tuple(getattr(stats, f)[k] for f in fields) for k in range(len(order))]

    assert_position_free(alone, stacked, 4)


@settings(max_examples=60, deadline=None)
@given(
    secret=st.sampled_from(_EQUIV_SECRETS),
    cap_v1=st.integers(2, 4),
    cap_v2=st.integers(2, 4),
    past_key=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_equivocation_jacobians_match_central_differences(secret, cap_v1, cap_v2, past_key, seed):
    # the LP refiner linearizes the value and every budget with analytic
    # gradients; at an interior point away from the max(0, .) kinks they
    # must match central differences of the kernel along random directions
    rng = np.random.default_rng(seed)
    problem = random_equiv_problem(rng, secret, cap_v1, cap_v2)
    g = np.concatenate([[0, 1], rng.integers(cap_v2, size=cap_v1 - 2)])  # two V2 cells used
    def interior(n, k):
        return 0.5 * rng.dirichlet(np.ones(k), size=n) + 0.5 / k

    one = random_member(rng, problem, interior, g)
    stats = search_mod._equiv_stats(one, problem, 0.0)
    assume(min(stats.leak[0], stats.i_xv1[0], stats.i_xv2[0]) > 1e-4)
    r0 = float(stats.leak[0]) * (0.5 if past_key else 1.5)  # the kink sits at leak == r0
    stats = search_mod._equiv_stats(one, problem, r0)
    grads = search_mod._equiv_grads(one, problem, stats, r0)
    assert sorted(grads) == ["ed1", "ed2", "i_xv1", "i_xv2", "value"]  # the value, four budgets
    rows = (one.e_rows, one.py2, one.py3)
    h = 1e-6
    for _ in range(3):
        d = [rng.normal(size=block.shape) for block in rows]
        scale = max(np.abs(block).max() for block in d)
        d = [block / scale for block in d]

        def shifted(step):
            moved = (block + step * dir_ for block, dir_ in zip(rows, d))
            return search_mod._equiv_stats(search_mod._EquivParams(*moved, one.g), problem, r0)

        plus, minus = shifted(h), shifted(-h)
        for name, grad in grads.items():
            fd = (getattr(plus, name)[0] - getattr(minus, name)[0]) / (2 * h)
            an = sum(float((part * dir_).sum()) for part, dir_ in zip(grad, d))
            assert abs(fd - an) <= 1e-6 * (1.0 + abs(fd)), (name, fd, an)


@settings(max_examples=40, deadline=None)
@given(
    secret=st.sampled_from(_EQUIV_SECRETS),
    cap_v1=st.integers(1, 4),
    cap_v2=st.integers(1, 4),
    r0=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_equivocation_refiner_keeps_members_feasible(secret, cap_v1, cap_v2, r0, seed):
    # the LP refiner returns a family member: nonnegative rows that each sum
    # to one, the same V2 map, every finite budget met, and, from a
    # feasible start, a value no lower than the start's beyond rounding
    rng = np.random.default_rng(seed)
    problem = dataclasses.replace(random_equiv_problem(rng, secret, cap_v1, cap_v2), r0=r0)
    start = search_mod._sample_equiv(rng, problem)
    refined = search_mod._refine_equiv(start, problem, r0, search_mod._lp_solver())
    if refined is None:
        return
    for block in (refined.e_rows, refined.py2, refined.py3):
        assert (block >= 0.0).all()
        assert np.abs(block.sum(axis=-1) - 1.0).max() <= 1e-12
    assert np.array_equal(refined.g, start.g)
    got = search_mod._equiv_stats(refined, problem, r0)
    for value, cap in search_mod._limits(got, problem, search_mod._EQUIV_BUDGETS):
        assert value[0] <= cap + search_mod._RATE_SLACK
    before = search_mod._equiv_stats(start, problem, r0)
    if search_mod._within(search_mod._limits(before, problem, search_mod._EQUIV_BUDGETS))[0]:
        assert got.value[0] >= before.value[0] - 1e-12
