"""Worked ternary example with a hard support constraint.

The source is uniform on {1, 2, 3}.  The two actions must make the
triple (X, Y2, Y3) a permutation of {1, 2, 3} -- any other outcome pays
minus infinity -- and subject to that, the system earns 1 whenever the
adversary's guess of X is wrong.  Disclosure is full (identity side
information), and message rates are ample: R1 > log2 3, R2 > log2 3 - 1.

Under the support constraint every feasible joint makes Y3 a function
of V2 and (Y2, Y3) -- hence also X -- a function of V1, so the only
remaining resource is the key rate R0.  The optimal tradeoff

    Pi(R0) = R0 / 2                               for R0 <= 1
           = 1/2 + (R0 - 1) / (6 (log2 3 - 1))    for 1 < R0 <= log2 3
           = 2/3                                  for R0 >  log2 3

is a two-segment time-sharing curve through three extreme candidates,
all supported uniformly on the six all-distinct triples:

* no key: V1 = (Y2, Y3) fully public, the adversary always infers X;
* key rate 1: publish U' = Y2 - Y3 (mod 3) and a decoy U2 uniform on
  the two values unequal to Y3, keeping the adversary's posterior on X
  uniform over two symbols (error 1/2);
* key rate log2 3: publish only U', leaving the posterior uniform over
  all three symbols (error 2/3).

This module builds those candidates exactly, time-shares them with
:func:`bounds.mixture_candidate` (re-exported here), evaluates the
mixtures through the generic machinery, and checks the result against
the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from .bounds import (
    InnerCandidate,
    RatePayoffTuple,
    SideInfoSpec,
    eval_inner_tuple,
    mixture_candidate,
)
from .payoff import PayoffTable
from .probability import (
    Alphabet,
    JointDistribution,
    Pmf,
    is_deterministic,
    product_alphabet,
)

__all__ = [
    "LOG2_3",
    "TernaryExample",
    "ternary_example",
    "analytic_pi",
    "corner_candidate",
    "zero_key_candidate",
    "time_shared_candidate",
    "mixture_candidate",
    "verify_example",
    "ExampleRow",
    "ExampleReport",
    "DEFAULT_GRID",
]

LOG2_3 = math.log2(3.0)

#: Key rates at which the curve is checked by default; includes both
#: segment breakpoints and both flat-region endpoints.
DEFAULT_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.2, 1.4, LOG2_3, 1.8, 2.0)

_SYMBOLS = ("1", "2", "3")


def _ternary(name: str) -> Alphabet:
    return Alphabet(name, 3, _SYMBOLS)


@dataclass(frozen=True)
class TernaryExample:
    """Problem data: uniform ternary source, guarded guessing payoff,
    identity disclosure."""

    p_x: Pmf
    payoff: PayoffTable
    side: SideInfoSpec


def ternary_example() -> TernaryExample:
    x, y2, y3, z = _ternary("X"), _ternary("Y2"), _ternary("Y3"), _ternary("Z")
    values = np.empty((3, 3, 3, 3))
    for ix in range(3):
        for iy2 in range(3):
            for iy3 in range(3):
                if len({ix, iy2, iy3}) != 3:
                    values[ix, iy2, iy3, :] = -np.inf
                else:
                    values[ix, iy2, iy3, :] = [float(ix != iz) for iz in range(3)]
    payoff = PayoffTable(x, y2, y3, z, values)
    return TernaryExample(Pmf.uniform(x), payoff, SideInfoSpec.identity(x, y2, y3))


def analytic_pi(r0: float) -> float:
    """Closed-form optimal adversary error as a function of key rate."""
    if r0 < 0:
        raise ValueError("key rate must be nonnegative")
    if r0 <= 1.0:
        return r0 / 2.0
    if r0 <= LOG2_3:
        return 0.5 + (r0 - 1.0) / (6.0 * (LOG2_3 - 1.0))
    return 2.0 / 3.0


def _candidate_from_atoms(atoms, u1_alpha, u2_alpha, v1_alpha, v2_alpha) -> InnerCandidate:
    """Assemble the seven-variable joint from (x, y2, y3, u1, u2, v1, v2, p) atoms."""
    variables = (
        ("X", _ternary("X")),
        ("Y2", _ternary("Y2")),
        ("Y3", _ternary("Y3")),
        ("U1", u1_alpha),
        ("U2", u2_alpha),
        ("V1", v1_alpha),
        ("V2", v2_alpha),
    )
    table = np.zeros(tuple(a.size for _, a in variables))
    for (ix, iy2, iy3, iu1, iu2, iv1, iv2, p) in atoms:
        table[ix, iy2, iy3, iu1, iu2, iv1, iv2] += p
    return InnerCandidate(JointDistribution(variables, table))


def corner_candidate(which: int) -> InnerCandidate:
    """Extreme candidates of the curve's upper segment.

    ``which=1`` is the key-rate-1 corner (public pair (U', U2), error
    1/2); ``which=2`` is the key-rate-log2(3) corner (public U' only,
    error 2/3).  Composite auxiliaries are realized as product alphabets:
    U1 = (U', U2), V2 = (Y3, U2), V1 = (Y2, Y3, U2).
    """
    if which not in (1, 2):
        raise ValueError("corner index must be 1 or 2")
    diff = Alphabet("Udiff", 2, ("d1", "d2"))  # U' = Y2 - Y3 mod 3, in {1, 2}
    if which == 1:
        u2 = _ternary("U2")
        u2_values = lambda iy3: [u for u in range(3) if u != iy3]  # noqa: E731
    else:
        u2 = Alphabet("U2", 1, ("*",))
        u2_values = lambda iy3: [0]  # noqa: E731
    u1_alpha = product_alphabet("U1", diff, u2)
    v2_alpha = product_alphabet("V2", _ternary("Y3"), u2)
    v1_alpha = product_alphabet("V1", _ternary("Y2"), _ternary("Y3"), u2)

    atoms = []
    for (ix, iy2, iy3) in permutations(range(3)):
        choices = u2_values(iy3)
        for iu2 in choices:
            p = 1.0 / (6 * len(choices))
            d = (iy2 - iy3) % 3 - 1  # in {0, 1} since y2 != y3
            iu1 = int(np.ravel_multi_index((d, iu2), (2, u2.size)))
            iv1 = int(np.ravel_multi_index((iy2, iy3, iu2), (3, 3, u2.size)))
            iv2 = int(np.ravel_multi_index((iy3, iu2), (3, u2.size)))
            atoms.append((ix, iy2, iy3, iu1, iu2, iv1, iv2, p))
    return _candidate_from_atoms(atoms, u1_alpha, u2, v1_alpha, v2_alpha)


def zero_key_candidate() -> InnerCandidate:
    """The no-key endpoint: everything public, adversary error zero."""
    u2 = _ternary("U2")  # = Y3
    u1_alpha = product_alphabet("U1", _ternary("Y2"), _ternary("Y3"))
    v1_alpha = product_alphabet("V1", _ternary("Y2"), _ternary("Y3"))
    v2_alpha = _ternary("V2")  # = Y3
    atoms = []
    for (ix, iy2, iy3) in permutations(range(3)):
        pair = int(np.ravel_multi_index((iy2, iy3), (3, 3)))
        atoms.append((ix, iy2, iy3, pair, iy3, pair, iy3, 1.0 / 6))
    return _candidate_from_atoms(atoms, u1_alpha, u2, v1_alpha, v2_alpha)


def time_shared_candidate(r0: float) -> InnerCandidate:
    """The optimal-curve candidate at key rate ``r0``.

    Below rate 1 it time-shares the no-key endpoint with the first
    corner; between 1 and log2(3) it time-shares the two corners; past
    log2(3) extra key is useless and the second corner stands alone.
    """
    if r0 < 0:
        raise ValueError("key rate must be nonnegative")
    if r0 <= 1.0:
        return mixture_candidate([(1.0 - r0, zero_key_candidate()), (r0, corner_candidate(1))])
    if r0 <= LOG2_3:
        lam = (r0 - 1.0) / (LOG2_3 - 1.0)
        return mixture_candidate([(1.0 - lam, corner_candidate(1)), (lam, corner_candidate(2))])
    return corner_candidate(2)


@dataclass(frozen=True)
class ExampleRow:
    r0: float
    pi_analytic: float
    pi_evaluated: float
    r0_evaluated: float
    passed: bool


@dataclass(frozen=True)
class ExampleReport:
    rows: tuple[ExampleRow, ...]
    determinism_ok: bool
    corner_tuples: tuple[RatePayoffTuple, RatePayoffTuple]

    @property
    def passed(self) -> bool:
        return self.determinism_ok and all(r.passed for r in self.rows)


def _determinism_facts_hold(cand: InnerCandidate, tol: float) -> bool:
    """The support constraint forces H(Y3 | V2) = 0 and H(Y2, Y3 | V1) = 0."""
    ok1, _ = is_deterministic(cand.joint, cand.y3, cand.v2, tol)
    ok2, _ = is_deterministic(cand.joint, cand.y2 + cand.y3, cand.v1, tol)
    return ok1 and ok2


def verify_example(grid: Sequence[float] = DEFAULT_GRID, *, tol: float = 1e-6) -> ExampleReport:
    """Evaluate the time-sharing construction against the closed form.

    Every candidate in every mixture is run through the generic
    constraint checks and evaluator; the curve must match ``analytic_pi``
    within ``tol`` at each grid point, and every candidate must satisfy
    the two determinism facts forced by the support constraint.
    """
    ex = ternary_example()
    det_ok = all(
        _determinism_facts_hold(c, 1e-9)
        for c in (zero_key_candidate(), corner_candidate(1), corner_candidate(2))
    )
    rows = []
    for r0 in grid:
        cand = time_shared_candidate(r0)
        det_ok = det_ok and _determinism_facts_hold(cand, 1e-9)
        got = eval_inner_tuple(cand, ex.side, ex.payoff, p_x=ex.p_x)
        want = analytic_pi(r0)
        ok = (
            abs(got.pi - want) <= tol
            and got.r0 <= min(r0, LOG2_3) + 1e-9
            and not got.forbidden
        )
        rows.append(ExampleRow(float(r0), want, got.pi, got.r0, ok))
    corners = tuple(
        eval_inner_tuple(corner_candidate(i), ex.side, ex.payoff, p_x=ex.p_x) for i in (1, 2)
    )
    return ExampleReport(tuple(rows), det_ok, corners)
