"""Payoff functions and the adversary's best response.

The adversary observes some variable U, forms the posterior over the
triple (X, Y2, Y3), and picks the action z minimizing the expected payoff
pi(x, y2, y3, z).  The system wants that minimum large, so from the
system's point of view the relevant quantity is

    Pi = sum_u P(u) * min_z E[ pi(X, Y2, Y3, z) | U = u ].

Payoff entries may be -infinity: such entries model outcomes the system
must never allow.  Expected values use the convention 0 * (-inf) = 0, and
whenever a -inf entry receives positive posterior mass the minimizing
value is -inf and the result carries ``forbidden=True``.  With payoffs
whose -inf pattern does not depend on z this flags "the system put mass
on a forbidden event"; for z-dependent patterns the minimization is still
taken at face value and interpretation is left to the caller.

Posteriors are plain float64 arrays (any shape; entries nonnegative,
summing to one).  For log-loss the adversary's action is itself a
distribution over the secret tuple, the best response is the posterior,
and the expected payoff is its entropy in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .probability import (
    Alphabet,
    JointDistribution,
    _alphabet_from_json,
    _alphabet_to_json,
    _as_names,
    _entropy_of,
    _marginal_table,
)

__all__ = [
    "PayoffTable",
    "LogLossPayoff",
    "BestResponse",
    "AdversaryValue",
    "best_response",
    "log_loss_best_response",
    "adversary_value",
    "payoff_to_json",
    "payoff_from_json",
]

_POSTERIOR_TOL = 1e-9

#: Canonical ordering of secret component names.
_SECRET_ROLES = ("X", "Y2", "Y3")


class BestResponse(NamedTuple):
    """Minimizing action, its expected payoff, and the -inf flag."""

    action: int
    value: float
    forbidden: bool


class AdversaryValue(NamedTuple):
    """Observation-averaged best-response payoff, with the -inf flag."""

    value: float
    forbidden: bool


@dataclass(frozen=True)
class PayoffTable:
    """Per-symbol payoff pi(x, y2, y3, z) on finite alphabets.

    ``values`` has shape (|X|, |Y2|, |Y3|, |Z|).  Entries are finite or
    -inf; +inf and NaN are rejected.
    """

    x_alphabet: Alphabet
    y2_alphabet: Alphabet
    y3_alphabet: Alphabet
    z_alphabet: Alphabet
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = (
            self.x_alphabet.size,
            self.y2_alphabet.size,
            self.y3_alphabet.size,
            self.z_alphabet.size,
        )
        arr = np.array(self.values, dtype=np.float64)
        if arr.shape != shape:
            raise ValueError(f"payoff values must have shape {shape}, got {arr.shape}")
        if np.isnan(arr).any():
            raise ValueError("payoff values must not contain NaN")
        if np.isposinf(arr).any():
            raise ValueError("payoff values must not contain +inf")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def finite_mask(self) -> np.ndarray:
        """Boolean (|X|,|Y2|,|Y3|) mask of triples finite for every action.

        Triples outside this mask hand the adversary a -inf action, so the
        system must give them probability zero.
        """
        return np.isfinite(self.values).all(axis=-1)


@dataclass(frozen=True)
class LogLossPayoff:
    """Log-loss on a secret tuple: pi(s, z) = log2 1/z(s).

    ``secret_set`` selects which of the roles X, Y2, Y3 the adversary is
    scored against; it is stored in canonical (X, Y2, Y3) order.
    """

    secret_set: tuple[str, ...]

    def __post_init__(self) -> None:
        roles = tuple(dict.fromkeys(self.secret_set))
        unknown = [r for r in roles if r not in _SECRET_ROLES]
        if unknown:
            raise ValueError(f"unknown secret roles {unknown}; choose from {_SECRET_ROLES}")
        if not roles:
            raise ValueError("secret_set must name at least one of X, Y2, Y3")
        ordered = tuple(r for r in _SECRET_ROLES if r in roles)
        object.__setattr__(self, "secret_set", ordered)


def _validated_posterior(posterior: np.ndarray, expected_size: int | None = None) -> np.ndarray:
    post = np.asarray(posterior, dtype=np.float64)
    if expected_size is not None and post.size != expected_size:
        raise ValueError(f"posterior has {post.size} cells, expected {expected_size}")
    if (post < 0).any() or abs(post.sum() - 1.0) > _POSTERIOR_TOL:
        raise ValueError("posterior must be nonnegative and sum to 1")
    return post


def _batched_values(posteriors: np.ndarray, payoff: PayoffTable) -> np.ndarray:
    """Expected payoff matrix (..., |Z|) for a batch of flat posteriors.

    Uses 0 * (-inf) = 0; a -inf payoff cell with positive mass makes the
    corresponding value -inf.
    """
    pi = payoff.values.reshape(-1, payoff.z_alphabet.size)
    finite = np.isfinite(pi)
    vals = posteriors @ np.where(finite, pi, 0.0)
    hits = (posteriors > 0.0) @ np.where(finite, 0.0, 1.0)
    vals[hits > 0.0] = -np.inf
    return vals


def best_response(posterior: np.ndarray, payoff: PayoffTable) -> BestResponse:
    """Adversary's minimizing action against a posterior over (X, Y2, Y3).

    Ties break to the smallest action index.  If the minimum is -inf the
    result is flagged ``forbidden`` (with the payoffs used here that means
    a forbidden triple has positive probability).
    """
    n = payoff.x_alphabet.size * payoff.y2_alphabet.size * payoff.y3_alphabet.size
    post = _validated_posterior(posterior, n).reshape(1, n)
    vals = _batched_values(post, payoff)[0]
    action = int(np.argmin(vals))  # argmin returns the first (smallest) index
    value = float(vals[action])
    return BestResponse(action, value, not math.isfinite(value))


def log_loss_best_response(posterior: np.ndarray) -> tuple[np.ndarray, float]:
    """Against log-loss the optimal guess is the posterior itself.

    Returns (optimal action distribution, expected payoff), the payoff
    being the posterior's entropy in bits.
    """
    post = _validated_posterior(posterior)
    return post.copy(), _entropy_of(post)


def _role_names(dist, u_vars, x, y2, y3):
    u = _as_names(dist, u_vars)
    roles = {"X": _as_names(dist, x), "Y2": _as_names(dist, y2), "Y3": _as_names(dist, y3)}
    for role, names in roles.items():
        if set(names) & set(u):
            raise ValueError(f"{role} variables {names} overlap the observation set")
    return u, roles


def adversary_value(
    dist: JointDistribution,
    u_vars: str | Iterable[str],
    payoff: PayoffTable | LogLossPayoff,
    *,
    x: str | Iterable[str] = "X",
    y2: str | Iterable[str] = "Y2",
    y3: str | Iterable[str] = "Y3",
) -> AdversaryValue:
    """Expected best-response payoff when the adversary observes ``u_vars``.

    For :class:`LogLossPayoff` this equals the conditional entropy of the
    secret tuple given the observation, computed here posterior by
    posterior.  ``u_vars`` may be empty (blind adversary).
    """
    u, roles = _role_names(dist, u_vars, x, y2, y3)
    if isinstance(payoff, LogLossPayoff):
        secret = tuple(n for r in payoff.secret_set for n in roles[r])
        joint = _marginal_table_grouped(dist, u, secret)
        p_u = joint.sum(axis=1)
        total = 0.0
        for row, pu in zip(joint, p_u):
            if pu > 0.0:
                total += pu * _entropy_of(row / pu)
        return AdversaryValue(total, False)

    triple = roles["X"] + roles["Y2"] + roles["Y3"]
    expected = (
        payoff.x_alphabet.size * payoff.y2_alphabet.size * payoff.y3_alphabet.size
    )
    joint = _marginal_table_grouped(dist, u, triple)
    if joint.shape[1] != expected:
        raise ValueError(
            f"payoff expects {expected} (x, y2, y3) cells, joint has {joint.shape[1]}"
        )
    p_u = joint.sum(axis=1)
    live = p_u > 0.0
    posteriors = joint[live] / p_u[live, None]
    vals = _batched_values(posteriors, payoff).min(axis=1)
    value = float(p_u[live] @ np.where(np.isfinite(vals), vals, 0.0))
    forbidden = bool(np.isinf(vals).any())
    return AdversaryValue(-np.inf if forbidden else value, forbidden)


def _marginal_table_grouped(
    dist: JointDistribution, group_a: tuple[str, ...], group_b: tuple[str, ...]
) -> np.ndarray:
    """Marginal over group_a + group_b as a (cells_a, cells_b) matrix.

    Variables inside each group are flattened row-major in the listed
    order (which may differ from the joint's axis order).
    """
    overlap = set(group_a) & set(group_b)
    if overlap:
        raise ValueError(f"variable groups overlap: {overlap}")
    keep = group_a + group_b
    table = _marginal_table(dist, keep)
    surviving = [n for n in dist.names if n in keep]
    table = np.transpose(table, [surviving.index(n) for n in keep])
    size_a = math.prod(dist.alphabet(n).size for n in group_a) if group_a else 1
    return table.reshape(size_a, -1)


# --------------------------------------------------------------------------
# JSON: -inf is encoded as the string "-inf" so files stay strict JSON.


def payoff_to_json(payoff: PayoffTable | LogLossPayoff) -> dict:
    if isinstance(payoff, LogLossPayoff):
        return {"log_loss": {"secret_set": list(payoff.secret_set)}}
    values = [
        "-inf" if math.isinf(v) else v for v in np.ravel(payoff.values, order="C")
    ]
    return {
        "alphabets": {
            "x": _alphabet_to_json(payoff.x_alphabet),
            "y2": _alphabet_to_json(payoff.y2_alphabet),
            "y3": _alphabet_to_json(payoff.y3_alphabet),
            "z": _alphabet_to_json(payoff.z_alphabet),
        },
        "values": values,
    }


def payoff_from_json(obj) -> PayoffTable | LogLossPayoff:
    if "log_loss" in obj:
        return LogLossPayoff(tuple(obj["log_loss"]["secret_set"]))
    alphas = {k: _alphabet_from_json(v) for k, v in obj["alphabets"].items()}
    values = np.array(
        [-np.inf if v == "-inf" else float(v) for v in obj["values"]], dtype=np.float64
    ).reshape(alphas["x"].size, alphas["y2"].size, alphas["y3"].size, alphas["z"].size)
    return PayoffTable(alphas["x"], alphas["y2"], alphas["y3"], alphas["z"], values)
