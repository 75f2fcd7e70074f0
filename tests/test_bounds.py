"""Constraint checks and rate/payoff evaluation of candidate joints.

The ternary worked example provides exact oracles: its extreme
candidates were verified against the closed-form tradeoff by direct
enumeration, so their tuples are frozen here to tight tolerances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_secrecy.bounds import (
    ConstraintViolationError,
    EquivocationCandidate,
    InnerCandidate,
    OuterCandidate,
    RatePayoffTuple,
    SideInfoSpec,
    candidate_to_json,
    check_inner_constraints,
    check_outer_constraints,
    check_equivocation_membership,
    equivocation_candidate_from_json,
    equivocation_value,
    eval_inner_tuple,
    eval_outer_tuple,
    inner_candidate_from_json,
    inner_to_outer,
    outer_candidate_from_json,
)
from cascade_secrecy.probability import Alphabet, JointDistribution, Pmf
from cascade_secrecy.ternary import (
    LOG2_3,
    corner_candidate,
    ternary_example,
    zero_key_candidate,
)

EX = ternary_example()


def _const(name):
    return Alphabet(name, 1, ("*",))


def _outer_all_const(**overrides):
    """Outer candidate where every variable is a constant unless overridden
    with an (Alphabet, axis-size) pair; the table is filled by the caller."""
    specs = {}
    for name in ("X", "Y2", "Y3", "U", "V1", "V2"):
        specs[name] = overrides.get(name, _const(name))
    variables = tuple((n, specs[n]) for n in ("X", "Y2", "Y3", "U", "V1", "V2"))
    shape = tuple(a.size for _, a in variables)
    return variables, shape


# ---------------------------------------------------------------------------
# oracle tuples from the ternary example


def test_corner_one_tuple_exact():
    t = eval_inner_tuple(corner_candidate(1), EX.side, EX.payoff, p_x=EX.p_x)
    assert t.r0 == pytest.approx(1.0, abs=1e-9)
    assert t.r1 == pytest.approx(LOG2_3, abs=1e-9)
    assert t.r2 == pytest.approx(LOG2_3 - 1.0, abs=1e-9)
    assert t.pi == pytest.approx(0.5, abs=1e-9)
    assert not t.forbidden


def test_corner_two_tuple_exact():
    t = eval_inner_tuple(corner_candidate(2), EX.side, EX.payoff, p_x=EX.p_x)
    assert t.r0 == pytest.approx(LOG2_3, abs=1e-9)
    assert t.r1 == pytest.approx(LOG2_3, abs=1e-9)
    assert t.r2 == pytest.approx(LOG2_3 - 1.0, abs=1e-9)
    assert t.pi == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_zero_key_tuple_exact():
    t = eval_inner_tuple(zero_key_candidate(), EX.side, EX.payoff, p_x=EX.p_x)
    assert t.r0 == pytest.approx(0.0, abs=1e-9)
    assert t.pi == pytest.approx(0.0, abs=1e-9)


def test_inner_to_outer_same_tuple():
    for which in (1, 2):
        inner = corner_candidate(which)
        outer = inner_to_outer(inner)
        assert check_outer_constraints(outer, p_x=EX.p_x).passed
        ti = eval_inner_tuple(inner, EX.side, EX.payoff, p_x=EX.p_x)
        to = eval_outer_tuple(outer, EX.side, EX.payoff, p_x=EX.p_x)
        assert np.allclose(ti.as_array(), to.as_array(), atol=1e-12)


def test_blank_disclosure_needs_no_key():
    side = SideInfoSpec.blank(
        EX.p_x.alphabet,
        EX.payoff.y2_alphabet,
        EX.payoff.y3_alphabet,
    )
    t = eval_inner_tuple(corner_candidate(1), side, EX.payoff, p_x=EX.p_x)
    assert t.r0 == pytest.approx(0.0, abs=1e-12)
    # the message rates and the adversary's view do not involve W
    assert t.r1 == pytest.approx(LOG2_3, abs=1e-9)
    assert t.pi == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# group roles: composite auxiliaries as separate axes


def _corner_one_unpacked():
    """Corner 1 with auxiliaries left as raw axes instead of product
    alphabets: U1 = (Udiff, U2), V1 = (Y2, Y3, U2), V2 = (Y3, U2)."""
    from itertools import permutations

    variables = (
        ("X", Alphabet("X", 3)),
        ("Y2", Alphabet("Y2", 3)),
        ("Y3", Alphabet("Y3", 3)),
        ("Udiff", Alphabet("Udiff", 2)),
        ("U2", Alphabet("U2", 3)),
    )
    table = np.zeros((3, 3, 3, 2, 3))
    for (ix, iy2, iy3) in permutations(range(3)):
        for iu2 in range(3):
            if iu2 == iy3:
                continue
            table[ix, iy2, iy3, (iy2 - iy3) % 3 - 1, iu2] = 1.0 / 12
    return InnerCandidate(
        JointDistribution(variables, table),
        u1=("Udiff", "U2"),
        u2="U2",
        v1=("Y2", "Y3", "U2"),
        v2=("Y3", "U2"),
    )


def test_group_roles_match_packed_alphabets():
    cand = _corner_one_unpacked()
    assert check_inner_constraints(cand, p_x=EX.p_x).passed
    t = eval_inner_tuple(cand, EX.side, EX.payoff, p_x=EX.p_x)
    packed = eval_inner_tuple(corner_candidate(1), EX.side, EX.payoff, p_x=EX.p_x)
    assert np.allclose(t.as_array(), packed.as_array(), atol=1e-9)


def test_roles_may_reuse_the_actions_themselves():
    # no-key candidate over just (X, Y2, Y3): the public message is the
    # action pair itself, so the observed set overlaps the payoff roles
    from itertools import permutations

    variables = (("X", Alphabet("X", 3)), ("Y2", Alphabet("Y2", 3)), ("Y3", Alphabet("Y3", 3)))
    table = np.zeros((3, 3, 3))
    for (ix, iy2, iy3) in permutations(range(3)):
        table[ix, iy2, iy3] = 1.0 / 6
    cand = InnerCandidate(
        JointDistribution(variables, table),
        u1=("Y2", "Y3"),
        u2="Y3",
        v1=("Y2", "Y3"),
        v2="Y3",
    )
    assert check_inner_constraints(cand, p_x=EX.p_x).passed
    t = eval_inner_tuple(cand, EX.side, EX.payoff, p_x=EX.p_x)
    assert t.r0 == pytest.approx(0.0, abs=1e-12)
    assert t.r1 == pytest.approx(LOG2_3, abs=1e-9)
    assert t.r2 == pytest.approx(LOG2_3 - 1.0, abs=1e-9)
    assert t.pi == pytest.approx(0.0, abs=1e-12)


def test_forbidden_support_reported_not_hidden():
    # all mass on x = y2 = y3, which the guarded payoff forbids
    variables = (("X", Alphabet("X", 3)), ("Y2", Alphabet("Y2", 3)), ("Y3", Alphabet("Y3", 3)))
    table = np.zeros((3, 3, 3))
    for i in range(3):
        table[i, i, i] = 1.0 / 3
    cand = InnerCandidate(
        JointDistribution(variables, table),
        u1=("Y2", "Y3"),
        u2="Y3",
        v1=("Y2", "Y3"),
        v2="Y3",
    )
    t = eval_inner_tuple(cand, EX.side, EX.payoff, p_x=EX.p_x)
    assert t.forbidden
    assert t.pi == -math.inf


# ---------------------------------------------------------------------------
# constraint failure witnesses


def test_broken_first_chain_is_named():
    variables, shape = _outer_all_const(X=Alphabet("X", 2), Y2=Alphabet("Y2", 2))
    table = np.zeros(shape)
    table[0, 0] = table[1, 1] = 0.5
    cand = OuterCandidate(JointDistribution(variables, table))
    report = check_outer_constraints(cand)
    assert not report.passed
    assert [f.name for f in report.failures] == ["x -- v1 -- y2 chain"]
    assert report.failures[0].value == pytest.approx(1.0, abs=1e-9)
    # a looser tolerance accepts the same candidate
    assert check_outer_constraints(cand, tol=2.0).passed


def test_broken_determinism_is_named():
    variables, shape = _outer_all_const(V2=Alphabet("V2", 2))
    table = np.zeros(shape)
    table[..., 0] = table[..., 1] = 0.5
    cand = OuterCandidate(JointDistribution(variables, table))
    report = check_outer_constraints(cand)
    assert [f.name for f in report.failures] == ["(v2, u) determined by v1"]
    assert report.failures[0].value == pytest.approx(1.0, abs=1e-9)


def test_second_chain_violation_detected():
    # Y3 correlated with X while V2 is constant
    variables, shape = _outer_all_const(X=Alphabet("X", 2), Y3=Alphabet("Y3", 2))
    table = np.zeros(shape)
    table[0, :, 0] = table[1, :, 1] = 0.5
    cand = OuterCandidate(JointDistribution(variables, table))
    report = check_outer_constraints(cand)
    assert [f.name for f in report.failures] == ["(x,v1,y2) -- v2 -- y3 chain"]


def test_wrong_source_marginal_is_flagged():
    cand = corner_candidate(1)
    skewed = Pmf(Alphabet("X", 3, ("1", "2", "3")), np.array([0.5, 0.3, 0.2]))
    report = check_inner_constraints(cand, p_x=skewed)
    names = [f.name for f in report.failures]
    assert names == ["x marginal matches the source law"]
    assert report.failures[0].value == pytest.approx(0.5 - 1.0 / 3.0, abs=1e-12)


def test_eval_raises_on_violation_and_check_false_skips():
    variables, shape = _outer_all_const(V2=Alphabet("V2", 2))
    table = np.zeros(shape)
    table[..., 0] = table[..., 1] = 0.5
    cand = OuterCandidate(JointDistribution(variables, table))
    side = SideInfoSpec.blank(*(cand.joint.alphabet(n) for n in ("X", "Y2", "Y3")))
    payoff_like = EX.payoff  # alphabets differ, but the check fires first
    with pytest.raises(ConstraintViolationError) as exc:
        eval_outer_tuple(cand, side, payoff_like)
    assert "(v2, u) determined by v1" in str(exc.value)
    assert not exc.value.report.passed


def test_inner_specific_checks_fire():
    # U2 a fresh coin not determined by U1 (nor by V2)
    variables = (
        ("X", _const("X")),
        ("Y2", _const("Y2")),
        ("Y3", _const("Y3")),
        ("U1", _const("U1")),
        ("U2", Alphabet("U2", 2)),
        ("V1", _const("V1")),
        ("V2", _const("V2")),
    )
    table = np.full((1, 1, 1, 1, 2, 1, 1), 0.5)
    cand = InnerCandidate(JointDistribution(variables, table))
    report = check_inner_constraints(cand)
    assert {f.name for f in report.failures} == {
        "u2 determined by u1",
        "u2 determined by v2",
    }


def test_role_validation():
    variables = (("X", Alphabet("X", 2)), ("Y2", Alphabet("Y2", 2)), ("Y3", Alphabet("Y3", 2)))
    table = np.full((2, 2, 2), 1 / 8)
    joint = JointDistribution(variables, table)
    with pytest.raises(ValueError):
        OuterCandidate(joint, x="X", y2="X", y3="Y3", u="X", v1="X", v2="X")
    with pytest.raises(ValueError):
        OuterCandidate(joint, x="X", y2="Y2", y3="Y3", u="NOPE", v1="X", v2="X")


# ---------------------------------------------------------------------------
# log-loss disclosure value


def _public_pair_candidate():
    from itertools import permutations

    variables = (("X", Alphabet("X", 3)), ("Y2", Alphabet("Y2", 3)), ("Y3", Alphabet("Y3", 3)))
    table = np.zeros((3, 3, 3))
    for (ix, iy2, iy3) in permutations(range(3)):
        table[ix, iy2, iy3] = 1.0 / 6
    return EquivocationCandidate(
        JointDistribution(variables, table), v1=("Y2", "Y3"), v2="Y3"
    )


def test_equivocation_value_tradeoff_in_key_rate():
    cand = _public_pair_candidate()
    assert check_equivocation_membership(cand, p_x=EX.p_x).passed
    # V1 reveals X completely, so the key is the only protection
    assert equivocation_value(cand, ("X",), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert equivocation_value(cand, ("X",), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert equivocation_value(cand, ("X",), 10.0) == pytest.approx(LOG2_3, abs=1e-12)
    # excess key beyond the leak buys nothing more than H(S)
    assert equivocation_value(cand, ("X",), LOG2_3) == pytest.approx(LOG2_3, abs=1e-12)


def test_equivocation_secret_set_handling():
    cand = _public_pair_candidate()
    # order is canonical, duplicates collapse
    a = equivocation_value(cand, ("Y2", "X"), 0.5)
    b = equivocation_value(cand, ("X", "Y2"), 0.5)
    assert a == b
    with pytest.raises(ValueError):
        equivocation_value(cand, (), 0.5)
    with pytest.raises(ValueError):
        equivocation_value(cand, ("Z",), 0.5)
    with pytest.raises(ValueError):
        equivocation_value(cand, ("X",), -0.1)


def test_equivocation_membership_failure():
    # V2 not a function of V1: keep V2 = X while V1 is the pair (Y2, Y3)?
    # that is still deterministic here, so instead use a fresh coin
    variables = (
        ("X", Alphabet("X", 2)),
        ("Y2", _const("Y2")),
        ("Y3", _const("Y3")),
        ("V1", _const("V1")),
        ("V2", Alphabet("V2", 2)),
    )
    table = np.zeros((2, 1, 1, 1, 2))
    table[0, ..., 0] = table[0, ..., 1] = 0.25
    table[1, ..., 0] = table[1, ..., 1] = 0.25
    cand = EquivocationCandidate(JointDistribution(variables, table))
    report = check_equivocation_membership(cand)
    assert [f.name for f in report.failures] == ["v2 determined by v1"]
    with pytest.raises(ConstraintViolationError):
        equivocation_value(cand, ("X",), 1.0)


# ---------------------------------------------------------------------------
# serialization


def test_candidate_json_round_trips():
    inner = corner_candidate(1)
    obj = candidate_to_json(inner)
    back = inner_candidate_from_json(obj)
    assert back.joint.names == inner.joint.names
    assert np.array_equal(back.joint.table, inner.joint.table)
    assert back.u1 == inner.u1 and back.v2 == inner.v2

    outer = inner_to_outer(inner)
    back_outer = outer_candidate_from_json(candidate_to_json(outer))
    assert back_outer.u == outer.u
    assert np.array_equal(back_outer.joint.table, outer.joint.table)

    equiv = _public_pair_candidate()
    back_eq = equivocation_candidate_from_json(candidate_to_json(equiv))
    assert back_eq.v1 == ("Y2", "Y3")
    t1 = equivocation_value(equiv, ("X",), 1.0)
    t2 = equivocation_value(back_eq, ("X",), 1.0)
    assert t1 == t2


def test_rate_payoff_tuple_array():
    t = RatePayoffTuple(1.0, 2.0, 3.0, 0.25)
    assert np.array_equal(t.as_array(), [1.0, 2.0, 3.0, 0.25])
    assert not t.forbidden


# ---------------------------------------------------------------------------
# whole reports: every check's name, kind, value, tolerance and verdict

_MARGINAL = ("x marginal matches the source law", "marginal")
_CHAINS = (("x -- v1 -- y2 chain", "markov"), ("(x,v1,y2) -- v2 -- y3 chain", "markov"))
_STRUCTURAL = ("side information enters only through per-coordinate channels", "structural")
# each family's checks after the x-marginal one, with their values on the
# noisy candidate below (all are 0 on the passing candidates)
_FAMILIES = {
    "outer": (
        check_outer_constraints,
        _CHAINS + (("(v2, u) determined by v1", "determinism"), _STRUCTURAL),
        (0.08414258078881565, 0.19472239728110363, 0.8245521486115979, 0.0),
    ),
    "inner": (
        check_inner_constraints,
        _CHAINS
        + (
            ("(v2, u1) determined by v1", "determinism"),
            ("u2 determined by u1", "determinism"),
            ("u2 determined by v2", "determinism"),
            ("u1 -- u2 -- v2 chain", "markov"),
            _STRUCTURAL,
        ),
        (
            0.08414258078882408,
            0.19472239728117602,
            0.824552148611633,
            0.42002600168808746,
            0.3573633204357818,
            0.17243934041208564,
            0.0,
        ),
    ),
    "equivocation": (
        check_equivocation_membership,
        _CHAINS + (("v2 determined by v1", "determinism"),),
        (0.08414258078882408, 0.19472239728117602, 0.5313230318661502),
    ),
}


def _report_candidates(family):
    """A passing and a failing candidate of one family.  The failing one is
    corner 1 mixed 9:1 with the uniform table over its cells, which breaks
    every chain and determinism fact with a value below one bit."""
    corner = corner_candidate(1)
    noisy_table = 0.9 * corner.joint.table + 0.1 / corner.joint.table.size
    noisy = InnerCandidate(JointDistribution(corner.joint.variables, noisy_table))
    if family == "outer":
        return inner_to_outer(corner_candidate(2)), inner_to_outer(noisy)
    if family == "inner":
        return corner, noisy
    return _public_pair_candidate(), EquivocationCandidate(noisy.joint)


@pytest.mark.parametrize("with_p_x", [False, True], ids=["no_p_x", "p_x"])
@pytest.mark.parametrize("passes", [True, False], ids=["passes", "fails"])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_check_reports_are_pinned_in_full(family, passes, with_p_x):
    check, kinds, failing_values = _FAMILIES[family]
    cand = _report_candidates(family)[0 if passes else 1]
    skewed = Pmf(Alphabet("X", 3, ("1", "2", "3")), np.array([0.5, 0.3, 0.2]))
    if with_p_x:
        report = check(cand, p_x=EX.p_x if passes else skewed, tol=1e-7)
        kinds = (_MARGINAL,) + kinds
        failing_values = (0.5 - 1.0 / 3.0,) + failing_values
    else:
        report = check(cand)
    tol = 1e-7 if with_p_x else 1e-9
    values = (0.0,) * len(kinds) if passes else failing_values
    want = [(name, kind, tol, v <= tol) for (name, kind), v in zip(kinds, values)]
    got = [(c.name, c.kind, c.tol, c.passed) for c in report.checks]
    assert got == want
    assert [c.value for c in report.checks] == pytest.approx(values, abs=1e-12)
    assert report.passed == passes


def _reference_entropy(joint, names):
    """H(names) in bits straight from the table: the sum over every other axis."""
    drop = tuple(i for i, n in enumerate(joint.names) if n not in set(names))
    p = np.ravel(joint.table.sum(axis=drop) if drop else joint.table)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _reference_value(joint, groups):
    """H(A ∪ B) - H(B) for two groups, H(A ∪ C) + H(B ∪ C) - H(A ∪ B ∪ C) - H(C)
    for three: the determinism and chain values of a check."""
    def h(*gs):
        return _reference_entropy(joint, [n for g in gs for n in g])

    if len(groups) == 2:
        return h(*groups) - h(groups[1])
    a, b, c = groups
    return h(a, c) + h(b, c) - h(a, b, c) - h(c)


_NAMES = ("N0", "N1", "N2", "N3", "N4")


@st.composite
def _overlapping_roles(draw):
    """A random joint over five variables and roles that share variables:
    x, y2 and y3 are disjoint, the auxiliaries are any nonempty groups."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=5, max_size=5))
    seed = draw(st.integers(0, 2**32 - 1))
    sparsity = draw(st.sampled_from([0.0, 0.5]))
    order = draw(st.permutations(_NAMES))
    labels = [0, 1, 2] + draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
    actions = [tuple(n for n, lab in zip(order, labels) if lab == k) for k in range(3)]
    aux = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3, unique=True).map(tuple)
    u1, u2, v1, v2 = (draw(aux) for _ in range(4))
    rng = np.random.default_rng(seed)
    table = rng.random(sizes) * (rng.random(sizes) >= sparsity)
    table.flat[0] += 1.0  # at least one cell keeps its mass
    variables = tuple((n, Alphabet(n, k)) for n, k in zip(_NAMES, sizes))
    joint = JointDistribution(variables, table / table.sum())
    return joint, dict(zip(("x", "y2", "y3"), actions)), (u1, u2, v1, v2)


@settings(max_examples=100, deadline=None)
@given(drawn=_overlapping_roles())
def test_checks_report_on_roles_that_share_variables(drawn):
    joint, act, (u1, u2, v1, v2) = drawn
    x, y2, y3 = act["x"], act["y2"], act["y3"]
    chains = {
        "x -- v1 -- y2 chain": (x, y2, v1),
        "(x,v1,y2) -- v2 -- y3 chain": (x + v1 + y2, y3, v2),
    }
    cases = [
        (check_outer_constraints(OuterCandidate(joint, **act, u=u1, v1=v1, v2=v2)),
         {"(v2, u) determined by v1": (v2 + u1, v1)}),
        (check_inner_constraints(InnerCandidate(joint, **act, u1=u1, u2=u2, v1=v1, v2=v2)),
         {"(v2, u1) determined by v1": (v2 + u1, v1), "u2 determined by u1": (u2, u1),
          "u2 determined by v2": (u2, v2), "u1 -- u2 -- v2 chain": (u1, v2, u2)}),
        (check_equivocation_membership(EquivocationCandidate(joint, **act, v1=v1, v2=v2)),
         {"v2 determined by v1": (v2, v1)}),
    ]
    for report, own in cases:
        groups = {**chains, **own}
        measured = [c for c in report.checks if c.kind in ("markov", "determinism")]
        assert [c.name for c in measured] == list(groups)
        for c in measured:
            want = _reference_value(joint, groups[c.name])
            assert c.value == pytest.approx(want, abs=1e-12), c.name


def test_a_chain_whose_sides_share_a_variable_is_reported():
    # v1 = Y3 puts Y3 on both sides of (x, v1, y2) -- v2 -- y3, which reads
    # I(X, Y3 ; Y3 | Y2) = H(Y3 | Y2) = 1 bit on the permutation joint
    perm = _public_pair_candidate().joint
    report = check_equivocation_membership(EquivocationCandidate(perm, v1="Y3", v2="Y2"))
    chain = {c.name: c for c in report.checks}["(x,v1,y2) -- v2 -- y3 chain"]
    assert chain.value == pytest.approx(1.0, abs=1e-12)
    assert not chain.passed
    assert not report.passed
