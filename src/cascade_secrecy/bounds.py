"""Candidate joints for the cascade secrecy region, their constraint
checks, and rate/payoff evaluation.

A candidate is a joint distribution over the source X, the two actions
Y2 and Y3, and auxiliary variables, together with the roles its
variables play.  The three candidate types only declare their roles on
one base that stores and validates them.  Roles may name groups of
variables (flattened row-major in the listed order), so composite
auxiliaries can be kept as separate axes or packed into product
alphabets, whichever is convenient.  The three constraint checks share
one report builder, and :func:`mixture_candidate` time-shares inner
candidates whatever their roles: the inner region is convex.

Outer-bound candidates carry one public auxiliary U; inner (achievable)
candidates refine it into the superposition pair U1, U2.  Evaluation
produces the rate/payoff tuple

    R0 = I(W ; V1 | U)     key rate
    R1 = I(X ; V1)         first-hop message rate
    R2 = I(X ; V2)         second-hop message rate
    Pi = adversary value when the adversary observes U,

where the side information W = (W1, W2, W3) is adjoined through the
per-coordinate disclosure channels acting on X, Y2, Y3 respectively.
Inner candidates evaluate with U := U1.  Rate constraints are reported
at these boundary values; where the achievability argument needs strict
inequalities, the closure is what the evaluator returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .payoff import LogLossPayoff, PayoffTable, adversary_value
from .probability import (
    Alphabet,
    Channel,
    JointDistribution,
    Pmf,
    _grouped,
    attach_channel,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    mutual_information,
    channel_from_json,
    channel_to_json,
    joint_from_json,
    joint_to_json,
    marginalize,
    product_alphabet,
)

__all__ = [
    "SideInfoSpec",
    "OuterCandidate",
    "InnerCandidate",
    "EquivocationCandidate",
    "RatePayoffTuple",
    "ConstraintCheck",
    "ConstraintReport",
    "ConstraintViolationError",
    "check_outer_constraints",
    "check_inner_constraints",
    "check_equivocation_membership",
    "eval_outer_tuple",
    "eval_inner_tuple",
    "equivocation_value",
    "inner_to_outer",
    "mixture_candidate",
    "candidate_to_json",
    "outer_candidate_from_json",
    "inner_candidate_from_json",
    "equivocation_candidate_from_json",
    "side_info_to_json",
    "side_info_from_json",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SideInfoSpec:
    """Per-coordinate disclosure channels feeding the adversary.

    The three channels act memorylessly and independently on X, Y2 and
    Y3 respectively; their outputs form the disclosed tuple W.
    """

    ch1: Channel
    ch2: Channel
    ch3: Channel

    def __post_init__(self) -> None:
        for tag, ch in (("ch1", self.ch1), ("ch2", self.ch2), ("ch3", self.ch3)):
            if len(ch.input_alphabets) != 1:
                raise ValueError(f"{tag} must be a single-input channel")

    @staticmethod
    def identity(x: Alphabet, y2: Alphabet, y3: Alphabet) -> "SideInfoSpec":
        """Full causal disclosure: the adversary sees the triple itself."""
        return SideInfoSpec(
            Channel.identity(x, "W1"),
            Channel.identity(y2, "W2"),
            Channel.identity(y3, "W3"),
        )

    @staticmethod
    def blank(x: Alphabet, y2: Alphabet, y3: Alphabet) -> "SideInfoSpec":
        """No disclosure: every channel output is a constant."""
        point = Pmf(Alphabet("W", 1, ("*",)), np.ones(1))
        return SideInfoSpec(
            Channel.constant((x,), point),
            Channel.constant((y2,), point),
            Channel.constant((y3,), point),
        )


@dataclass(frozen=True)
class RatePayoffTuple:
    """Evaluated (R0, R1, R2, Pi) with the forbidden-event flag."""

    r0: float
    r1: float
    r2: float
    pi: float
    forbidden: bool = False

    def as_array(self) -> np.ndarray:
        return np.array([self.r0, self.r1, self.r2, self.pi])


@dataclass(frozen=True)
class ConstraintCheck:
    """One verified condition: measured value against its tolerance."""

    name: str
    kind: str  # "markov" | "determinism" | "marginal" | "structural"
    value: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[ConstraintCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}: {c.value:.3e} (tol {c.tol:.1e})")
        return "\n".join(lines)


class ConstraintViolationError(ValueError):
    """A candidate failed its structural checks; carries the report."""

    def __init__(self, report: ConstraintReport):
        self.report = report
        super().__init__(
            "candidate violates structural constraints:\n" + str(report)
        )


@dataclass(frozen=True)
class _Candidate:
    """A joint plus the roles declared after it: the source and action roles
    here, the auxiliaries in each subclass.  Each role is a variable name or
    a group of names; it is stored as a tuple and must name known variables,
    and the roles x, y2 and y3 must not share any."""

    joint: JointDistribution
    x: str | tuple[str, ...] = "X"
    y2: str | tuple[str, ...] = "Y2"
    y3: str | tuple[str, ...] = "Y3"

    def __post_init__(self) -> None:
        for role in fields(self)[1:]:
            names = getattr(self, role.name)
            names = (names,) if isinstance(names, str) else tuple(names)
            object.__setattr__(self, role.name, names)
            if not names:
                raise ValueError(f"role {role.name} must name at least one variable")
            for n in names:
                self.joint.axis(n)  # raises with the unknown name
        for a, b in (("x", "y2"), ("x", "y3"), ("y2", "y3")):
            if set(getattr(self, a)) & set(getattr(self, b)):
                raise ValueError(f"roles {a} and {b} share variables")


@dataclass(frozen=True)
class OuterCandidate(_Candidate):
    """Converse-side candidate: joint over (X, Y2, Y3, U, V1, V2)."""

    u: str | tuple[str, ...] = "U"
    v1: str | tuple[str, ...] = "V1"
    v2: str | tuple[str, ...] = "V2"


@dataclass(frozen=True)
class InnerCandidate(_Candidate):
    """Achievability-side candidate: joint over (X, Y2, Y3, U1, U2, V1, V2)."""

    u1: str | tuple[str, ...] = "U1"
    u2: str | tuple[str, ...] = "U2"
    v1: str | tuple[str, ...] = "V1"
    v2: str | tuple[str, ...] = "V2"


@dataclass(frozen=True)
class EquivocationCandidate(_Candidate):
    """Log-loss disclosure candidate: joint over (X, Y2, Y3, V1, V2)."""

    v1: str | tuple[str, ...] = "V1"
    v2: str | tuple[str, ...] = "V2"


def _role_size(cand: _Candidate, role: tuple[str, ...]) -> int:
    """Size of a role's flattened alphabet, without building its labels."""
    return math.prod(cand.joint.alphabet(name).size for name in role)


def _role_alphabet(cand: _Candidate, role: tuple[str, ...], name: str) -> Alphabet:
    """A role's alphabet under ``name``: the variable's own labels, or the
    row-major product of a group's."""
    if len(role) == 1:
        base = cand.joint.alphabet(role[0])
        return Alphabet(name, base.size, base.labels)
    return product_alphabet(name, *(cand.joint.alphabet(r) for r in role))


_STRUCTURAL = "side information enters only through per-coordinate channels"


def _report(cand, tol, p_x, own, structural=True) -> ConstraintReport:
    """The x-marginal check when ``p_x`` is given, the two chains, the
    family's ``own`` (name, kind, value) checks and the structural one."""
    joint = cand.joint
    measured = []
    if p_x is not None:
        gap = float(np.abs(_grouped(joint, cand.x) - p_x.probs).max())
        measured.append(("x marginal matches the source law", "marginal", gap))
    chain1 = conditional_mutual_information(joint, cand.x, cand.y2, cand.v1)
    chain2 = conditional_mutual_information(joint, cand.x + cand.v1 + cand.y2, cand.y3, cand.v2)
    measured += [
        ("x -- v1 -- y2 chain", "markov", chain1),
        ("(x,v1,y2) -- v2 -- y3 chain", "markov", chain2),
    ]
    checks = [ConstraintCheck(n, kind, v, tol, v <= tol) for n, kind, v in measured + own]
    if structural:
        checks.append(ConstraintCheck(_STRUCTURAL, "structural", 0.0, tol, True))
    return ConstraintReport(tuple(checks))


def _require(report: ConstraintReport) -> None:
    """Raise :class:`ConstraintViolationError` unless every check passed."""
    if not report.passed:
        raise ConstraintViolationError(report)


def check_outer_constraints(
    cand: OuterCandidate,
    *,
    tol: float = DEFAULT_TOL,
    p_x: Pmf | None = None,
) -> ConstraintReport:
    """Verify the converse-side structural constraints.

    The side-information factorization cannot be violated here because W
    only ever enters through :func:`eval_outer_tuple` attaching the
    per-coordinate channels, so it is reported as a structural given.
    """
    det = conditional_entropy(cand.joint, cand.v2 + cand.u, cand.v1)
    return _report(cand, tol, p_x, [("(v2, u) determined by v1", "determinism", det)])


def check_inner_constraints(
    cand: InnerCandidate,
    *,
    tol: float = DEFAULT_TOL,
    p_x: Pmf | None = None,
) -> ConstraintReport:
    """Verify the achievability-side structural constraints (U := U1)."""
    joint, u1, u2, v1, v2 = cand.joint, cand.u1, cand.u2, cand.v1, cand.v2
    own = [
        ("(v2, u1) determined by v1", "determinism", conditional_entropy(joint, v2 + u1, v1)),
        ("u2 determined by u1", "determinism", conditional_entropy(joint, u2, u1)),
        ("u2 determined by v2", "determinism", conditional_entropy(joint, u2, v2)),
        ("u1 -- u2 -- v2 chain", "markov", conditional_mutual_information(joint, u1, v2, u2)),
    ]
    return _report(cand, tol, p_x, own)


def check_equivocation_membership(
    cand: EquivocationCandidate,
    *,
    tol: float = DEFAULT_TOL,
    p_x: Pmf | None = None,
) -> ConstraintReport:
    """Verify membership in the log-loss disclosure family."""
    det = conditional_entropy(cand.joint, cand.v2, cand.v1)
    return _report(cand, tol, p_x, [("v2 determined by v1", "determinism", det)], structural=False)


def _attach_side_info(
    joint: JointDistribution,
    side: SideInfoSpec,
    x: tuple[str, ...],
    y2: tuple[str, ...],
    y3: tuple[str, ...],
) -> tuple[JointDistribution, tuple[str, str, str]]:
    """Adjoin the disclosure tuple W = (W1, W2, W3) and return its names,
    each prefixed with ``_`` until it is new to the joint.  A channel reads
    its role's flattened symbol, over a group in :func:`_role_alphabet`'s
    row-major order."""
    w_names = []
    for role, ch, w in ((x, side.ch1, "W1"), (y2, side.ch2, "W2"), (y3, side.ch3, "W3")):
        while w in joint.names:
            w = "_" + w
        if len(role) > 1:
            inputs = tuple(joint.alphabet(n) for n in role)
            size = math.prod(a.size for a in inputs)
            if size != len(ch.rows):
                raise ValueError(f"role {role} has {size} symbols, channel expects {len(ch.rows)}")
            ch = Channel(inputs, ch.output_alphabet, ch.rows.reshape(*(a.size for a in inputs), -1))
        joint = attach_channel(joint, ch, role, w)
        w_names.append(w)
    return joint, tuple(w_names)


def _evaluate_tuple(
    cand: OuterCandidate | InnerCandidate,
    u: tuple[str, ...],
    side: SideInfoSpec,
    payoff: PayoffTable | LogLossPayoff,
) -> RatePayoffTuple:
    """The candidate's (R0, R1, R2, Pi) with ``u`` as the public auxiliary."""
    joint, x, y2, y3, v1, v2 = cand.joint, cand.x, cand.y2, cand.y3, cand.v1, cand.v2
    r1 = mutual_information(marginalize(joint, x + v1), x, v1)
    r2 = mutual_information(marginalize(joint, x + v2), x, v2)

    small = marginalize(joint, x + y2 + y3 + u + v1)
    with_w, w_names = _attach_side_info(small, side, x, y2, y3)
    r0 = conditional_mutual_information(with_w, w_names, v1, u)

    obs = marginalize(joint, x + y2 + y3 + u)
    adv = adversary_value(obs, u, payoff, x=x, y2=y2, y3=y3)
    return RatePayoffTuple(r0, r1, r2, adv.value, adv.forbidden)


def eval_outer_tuple(
    cand: OuterCandidate,
    side: SideInfoSpec,
    payoff: PayoffTable | LogLossPayoff,
    *,
    check: bool = True,
    tol: float = DEFAULT_TOL,
    p_x: Pmf | None = None,
) -> RatePayoffTuple:
    """Rates and adversary payoff achieved by an outer candidate."""
    if check:
        _require(check_outer_constraints(cand, tol=tol, p_x=p_x))
    return _evaluate_tuple(cand, cand.u, side, payoff)


def eval_inner_tuple(
    cand: InnerCandidate,
    side: SideInfoSpec,
    payoff: PayoffTable | LogLossPayoff,
    *,
    check: bool = True,
    tol: float = DEFAULT_TOL,
    p_x: Pmf | None = None,
) -> RatePayoffTuple:
    """Rates and adversary payoff achieved by an inner candidate (U := U1)."""
    if check:
        _require(check_inner_constraints(cand, tol=tol, p_x=p_x))
    return _evaluate_tuple(cand, cand.u1, side, payoff)


def inner_to_outer(cand: InnerCandidate) -> OuterCandidate:
    """Reinterpret an inner candidate as an outer one with U := U1.

    Variables used only by the U2 role are marginalized away; shared
    variables stay.  The evaluated tuple is unchanged because none of
    the four coordinates involves U2.
    """
    keep = cand.x + cand.y2 + cand.y3 + cand.u1 + cand.v1 + cand.v2
    joint = cand.joint if set(keep) == set(cand.joint.names) else marginalize(cand.joint, keep)
    return OuterCandidate(
        joint, x=cand.x, y2=cand.y2, y3=cand.y3, u=cand.u1, v1=cand.v1, v2=cand.v2
    )


def mixture_candidate(parts: Sequence[tuple[float, InnerCandidate]]) -> InnerCandidate:
    """Time-share candidates by folding the branch index into every auxiliary.

    The branch auxiliaries live on disjoint unions of the per-branch role
    alphabets, so each of U1, U2, V1, V2 reveals which branch is active
    and every structural constraint is inherited from the branches.
    Roles may be groups of variables.  Weights must be finite and
    nonnegative, summing to one; zero-weight branches are dropped.  All
    branches must share the (X, Y2, Y3) alphabets, sizes and labels.
    """
    for i, (w, _) in enumerate(parts):
        if not 0.0 <= w < math.inf:
            raise ValueError(f"mixture weight {i} is {w!r}, not a finite number >= 0")
    kept = [(i, float(w), c) for i, (w, c) in enumerate(parts) if w > 0.0]
    if not kept:
        raise ValueError("mixture needs at least one positive weight")
    total = sum(w for _, w, _ in kept)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {total}, not 1")
    if len(kept) == 1:
        return kept[0][2]

    actions = ("x", "y2", "y3")
    aux = ("u1", "u2", "v1", "v2")
    alphas = {
        role: [_role_alphabet(c, getattr(c, role), role.upper()) for _, _, c in kept]
        for role in actions + aux
    }
    for role in actions:
        first, *rest = ([a.label(s) for s in range(a.size)] for a in alphas[role])
        for (i, _, _), labels in zip(kept[1:], rest):
            if labels != first:
                raise ValueError(
                    f"mixture branch {i} has role {role} on {len(labels)} symbols {labels}, "
                    f"branch {kept[0][0]} on {len(first)} symbols {first}"
                )
    ends = {role: np.cumsum([0] + [a.size for a in alphas[role]]) for role in aux}

    def union_alphabet(role):
        labels = [f"b{b}:{a.label(s)}" for b, a in enumerate(alphas[role]) for s in range(a.size)]
        return Alphabet(role.upper(), int(ends[role][-1]), tuple(labels))

    variables = tuple((r.upper(), alphas[r][0]) for r in actions)
    variables += tuple((r.upper(), union_alphabet(r)) for r in aux)
    table = np.zeros(tuple(a.size for _, a in variables))
    for b, (_, weight, c) in enumerate(kept):
        block = (slice(None),) * 3 + tuple(slice(ends[r][b], ends[r][b + 1]) for r in aux)
        table[block] += weight * _grouped(c.joint, *(getattr(c, r) for r in actions + aux))
    return InnerCandidate(JointDistribution(variables, table))


def equivocation_value(
    cand: EquivocationCandidate,
    secret_set: Sequence[str],
    r0: float,
    *,
    check: bool = True,
    tol: float = DEFAULT_TOL,
    p_x: Pmf | None = None,
) -> float:
    """Best attainable log-loss payoff H(S) - [I(S ; V1) - R0]+ in bits.

    ``secret_set`` names roles among X, Y2, Y3; the key budget ``r0`` is
    in bits per symbol.  Rate and distortion budgets are properties of a
    search problem, not of this candidate-level evaluation.
    """
    if r0 < 0:
        raise ValueError("key rate must be nonnegative")
    h_s, leak = _equivocation_terms(cand, secret_set)
    if check:
        _require(check_equivocation_membership(cand, tol=tol, p_x=p_x))
    return h_s - max(0.0, leak - r0)


def _equivocation_terms(cand, secret_set) -> tuple[float, float]:
    """H(S) and I(S ; V1), the two terms of the value that no key rate changes."""
    roles = {"X": cand.x, "Y2": cand.y2, "Y3": cand.y3}
    secret = tuple(n for r in LogLossPayoff(tuple(secret_set)).secret_set for n in roles[r])
    return entropy(cand.joint, secret), mutual_information(cand.joint, secret, cand.v1)


# --------------------------------------------------------------------------
# JSON: a candidate is its joint plus the declared roles.


def candidate_to_json(cand: OuterCandidate | InnerCandidate | EquivocationCandidate) -> dict:
    return {
        "joint": joint_to_json(cand.joint),
        "roles": {r.name: list(getattr(cand, r.name)) for r in fields(cand)[1:]},
    }


def _candidate_from_json(obj, cls):
    joint = joint_from_json(obj["joint"])
    roles = {k: tuple(v) for k, v in obj["roles"].items()}
    return cls(joint, **roles)


def outer_candidate_from_json(obj) -> OuterCandidate:
    return _candidate_from_json(obj, OuterCandidate)


def inner_candidate_from_json(obj) -> InnerCandidate:
    return _candidate_from_json(obj, InnerCandidate)


def equivocation_candidate_from_json(obj) -> EquivocationCandidate:
    return _candidate_from_json(obj, EquivocationCandidate)


def side_info_to_json(side: SideInfoSpec) -> dict:
    return {tag: channel_to_json(getattr(side, tag)) for tag in ("ch1", "ch2", "ch3")}


def side_info_from_json(obj) -> SideInfoSpec:
    return SideInfoSpec(*(channel_from_json(obj[tag]) for tag in ("ch1", "ch2", "ch3")))
