"""The ternary example: closed-form curve vs. evaluated candidates."""

import dataclasses
import math

import numpy as np
import pytest

from cascade_secrecy.bounds import InnerCandidate, check_inner_constraints, eval_inner_tuple
from cascade_secrecy.probability import Alphabet, JointDistribution
from cascade_secrecy.ternary import (
    DEFAULT_GRID,
    LOG2_3,
    analytic_pi,
    corner_candidate,
    mixture_candidate,
    ternary_example,
    time_shared_candidate,
    verify_example,
    zero_key_candidate,
)

EX = ternary_example()


def test_payoff_support_is_the_distinct_triples():
    mask = EX.payoff.finite_mask
    for ix in range(3):
        for iy2 in range(3):
            for iy3 in range(3):
                assert mask[ix, iy2, iy3] == (len({ix, iy2, iy3}) == 3)
    # on the allowed triples the payoff is a pure guessing penalty
    vals = EX.payoff.values
    assert vals[0, 1, 2, 0] == 0.0 and vals[0, 1, 2, 1] == 1.0 and vals[0, 1, 2, 2] == 1.0


def test_analytic_curve_values():
    assert analytic_pi(0.0) == 0.0
    assert analytic_pi(0.5) == 0.25
    assert analytic_pi(1.0) == 0.5
    assert analytic_pi(1.2) == pytest.approx(0.5569837097117152, abs=1e-15)
    assert analytic_pi(LOG2_3) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert analytic_pi(7.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        analytic_pi(-0.01)


def test_candidates_satisfy_all_constraints():
    for cand in (zero_key_candidate(), corner_candidate(1), corner_candidate(2)):
        report = check_inner_constraints(cand, p_x=EX.p_x)
        assert report.passed, str(report)


def test_corner_index_validation():
    with pytest.raises(ValueError):
        corner_candidate(3)


def test_mixture_weights_validation():
    c = corner_candidate(1)
    with pytest.raises(ValueError):
        mixture_candidate([(0.4, c), (0.4, zero_key_candidate())])
    with pytest.raises(ValueError):
        mixture_candidate([(0.0, c)])
    # a degenerate mixture is just the branch itself
    same = mixture_candidate([(1.0, c), (0.0, zero_key_candidate())])
    assert same is c


@pytest.mark.parametrize(
    "weights", [(1.0, math.nan), (0.7, 0.3, -1e-12)], ids=["nan", "negative"]
)
def test_mixture_rejects_a_weight_that_is_no_finite_number_above_zero(weights):
    # both were dropped like zero weights: [(1.0, a), (nan, b)] returned a
    branches = (corner_candidate(1), corner_candidate(2), corner_candidate(2))
    with pytest.raises(ValueError, match=f"mixture weight {len(weights) - 1} is"):
        mixture_candidate(list(zip(weights, branches)))


def _binary_source_candidate():
    variables = (("X", Alphabet("X", 2)), ("Y2", Alphabet("Y2", 1)), ("Y3", Alphabet("Y3", 1)))
    joint = JointDistribution(variables, np.full((2, 1, 1), 0.5))
    return InnerCandidate(joint, u1="Y2", u2="Y2", v1="Y2", v2="Y3")


def _relabeled_y2(cand):
    variables = tuple(
        (n, Alphabet("Y2", 3, ("a", "b", "c")) if n == "Y2" else a)
        for n, a in cand.joint.variables
    )
    return dataclasses.replace(cand, joint=JointDistribution(variables, cand.joint.table))


@pytest.mark.parametrize(
    "branch, role",
    [(_binary_source_candidate, "x"), (lambda: _relabeled_y2(corner_candidate(2)), "y2")],
    ids=["x_size", "y2_labels"],
)
def test_mixture_names_a_branch_whose_actions_differ(branch, role):
    # a size mismatch failed inside numpy ("operands could not be
    # broadcast"), and a label mismatch was mixed under the first labels
    with pytest.raises(ValueError, match=f"mixture branch 2 has role {role} on"):
        parts = [(0.5, corner_candidate(1)), (0.0, zero_key_candidate()), (0.5, branch())]
        mixture_candidate(parts)


def test_a_search_winner_time_shares_with_a_corner():
    # search candidates group their auxiliaries, u1 = ("U2", "A"); the
    # mixture refused them ("mixture branches must use single-variable roles")
    from cascade_secrecy.bounds import mixture_candidate as bounds_mixture
    from cascade_secrecy.search import (
        CardinalityCaps,
        InnerSearchProblem,
        RateBudget,
        search_inner,
    )

    problem = InnerSearchProblem(
        EX.p_x, EX.payoff, EX.side, RateBudget(1.0, math.inf, math.inf),
        CardinalityCaps(4, 3, 12, 6),
    )
    winner = search_inner(problem, restarts=8, seed=0, refine_top=2).candidate
    assert len(winner.u1) == 2 and winner.u2[0] in winner.u1
    corner = corner_candidate(2)
    mix = bounds_mixture([(0.5, winner), (0.5, corner)])
    report = check_inner_constraints(mix, p_x=EX.p_x)
    assert report.passed, str(report)
    got = eval_inner_tuple(mix, EX.side, EX.payoff, p_x=EX.p_x)
    t_win = eval_inner_tuple(winner, EX.side, EX.payoff, check=False)
    t_corner = eval_inner_tuple(corner, EX.side, EX.payoff, p_x=EX.p_x)
    assert got.r0 == pytest.approx((t_win.r0 + t_corner.r0) / 2, abs=1e-9)
    assert got.pi == pytest.approx((t_win.pi + t_corner.pi) / 2, abs=1e-9)
    assert got.r0 == pytest.approx((1.0 + LOG2_3) / 2, abs=1e-9)
    assert got.pi == pytest.approx(7.0 / 12.0, abs=1e-9)


def test_mixture_is_linear_in_rates_and_payoff():
    rng = np.random.default_rng(20240817)
    zero = zero_key_candidate()
    one = corner_candidate(1)
    t_zero = eval_inner_tuple(zero, EX.side, EX.payoff, p_x=EX.p_x).as_array()
    t_one = eval_inner_tuple(one, EX.side, EX.payoff, p_x=EX.p_x).as_array()
    for _ in range(5):
        lam = float(rng.uniform(0.05, 0.95))
        mix = mixture_candidate([(1.0 - lam, zero), (lam, one)])
        report = check_inner_constraints(mix, p_x=EX.p_x)
        assert report.passed, str(report)
        got = eval_inner_tuple(mix, EX.side, EX.payoff, p_x=EX.p_x).as_array()
        want = (1.0 - lam) * t_zero + lam * t_one
        # R1 and R2 are not linear in general, but here both branches
        # share them; R0 and the payoff must interpolate exactly
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[3] == pytest.approx(want[3], abs=1e-9)
        assert got[1] == pytest.approx(LOG2_3, abs=1e-9)
        assert got[2] == pytest.approx(LOG2_3 - 1.0, abs=1e-9)


def test_time_shared_endpoints_are_pure():
    t0 = eval_inner_tuple(time_shared_candidate(0.0), EX.side, EX.payoff, p_x=EX.p_x)
    assert t0.r0 == pytest.approx(0.0, abs=1e-12)
    assert t0.pi == pytest.approx(0.0, abs=1e-12)
    t_hi = eval_inner_tuple(time_shared_candidate(2.5), EX.side, EX.payoff, p_x=EX.p_x)
    assert t_hi.r0 == pytest.approx(LOG2_3, abs=1e-9)
    assert t_hi.pi == pytest.approx(2.0 / 3.0, abs=1e-9)
    with pytest.raises(ValueError):
        time_shared_candidate(-1.0)


def test_full_curve_verification():
    report = verify_example()
    assert report.determinism_ok
    assert report.passed
    assert len(report.rows) == len(DEFAULT_GRID)
    for row in report.rows:
        assert row.pi_evaluated == pytest.approx(row.pi_analytic, abs=1e-6)
        assert row.r0_evaluated <= min(row.r0, LOG2_3) + 1e-9
    c1, c2 = report.corner_tuples
    assert c1.pi == pytest.approx(0.5, abs=1e-9)
    assert c2.pi == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_curve_on_a_dense_random_grid():
    rng = np.random.default_rng(7)
    grid = sorted(float(r) for r in rng.uniform(0.0, 2.0, size=8))
    report = verify_example(grid, tol=1e-9)
    assert report.passed
    # the curve is nondecreasing and concave on [0, log2 3]
    pis = [analytic_pi(r) for r in np.linspace(0, LOG2_3, 50)]
    assert all(b >= a - 1e-12 for a, b in zip(pis, pis[1:]))
    diffs = np.diff(pis)
    assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))


def test_key_rate_one_halves_the_guessing_error():
    # frozen oracle: at key rate 1 the adversary is reduced to a fair
    # coin flip between two source symbols
    t = eval_inner_tuple(corner_candidate(1), EX.side, EX.payoff, p_x=EX.p_x)
    assert math.isclose(t.pi, 0.5, abs_tol=1e-9)
    assert math.isclose(t.r0, 1.0, abs_tol=1e-9)
