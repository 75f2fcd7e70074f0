"""Randomized search for good auxiliary structures under cardinality caps.

The inner search looks for a joint over (X, Y2, Y3, U1, U2, V1, V2) that
maximizes the adversary's best-response payoff subject to a key/message
rate budget.  Rather than optimizing a raw joint table and penalizing
structure violations, candidates are built from a parameterization that
satisfies every structural constraint identically:

* V1 is the composite (U2, A, B, C) with U1 := (U2, A) and V2 := (U2, B),
  so all determinism requirements are projections;
* the distribution over (U2, A, B, C) factors as
  P(u2) P(a|u2) P(b|u2) P(c|u2,a,b), which forces U1 - U2 - V2;
* X, Y2 are emitted from V1 and Y3 from V2 through channels, giving both
  Markov chains for free.

The only soft constraint left is the source marginal (X must match P_X).
The restart stage samples channel structures (support-aware around the
payoff's forbidden set) and start weights: Dirichlet or uniform, or, for
flat layouts, concentrated on about 2^R0 cells per U2 value and fitted to
the source marginal by NNLS.  When |A| or |B| is 1 the weights form one
flat simplex, and the trust-region sequential LP refines them under the
source-marginal equalities and linearized rate cuts; other structures
compete at their start weights.  The same loop refines both searches; its
LPs go straight to the HiGHS solver bundled with scipy, with the model and
options that ``linprog`` would pass: on LPs this small, ``linprog``'s
per-call input checks cost more than the solve.

Both searches run through one searcher per problem, ``search(r0, seed)``:
what no key rate changes is done once, when the searcher is made, and
each search rates, refines and certifies at its own key rate.  When the
deterministic candidates are few enough (``enum_limit`` channel maps,
``DEFAULT_ENUM_LIMIT`` family members), each is its enumeration index:
``itertools.product`` order, decoded by index arithmetic.  The searcher
screens them once, scoring stacks of consecutive indices in one kernel
call, and keeps only statistics and indices; a search rebuilds only the
candidates it picks.  Sampled restarts, screened maps and
seed-independent anchors (the no-information candidate and one balanced
deterministic map per anchor decomposition) form the inner pool, maps
and anchors scored at uniform weights.  Each search ranks the maps at
its budget and rebuilds two sets: the first feasible map at the best
payoff, and the top 256 by relaxed score.  Those 256, every anchor and
the best ``refine_top`` restarts are refined, only the first start of
each class of equal (dims, r0, r1, r2, pi, marginal gap): the others are
its relabelings, which refine to the same point.  The pool is ordered:
that best map, the anchors, the sampled restarts, then the refinements.
The winner is its first entry with the best payoff, so the outcome is a
deterministic function of (problem, seed, restarts); only the winner is
assembled into a joint, and it is re-derived by the reference evaluator
in :mod:`cascade_secrecy.bounds` before it is published.

The equivocation search targets the log-loss disclosure family, where
the reverse parameterization P(V1|X) makes even the source marginal
exact by construction; only distortion and message-rate budgets remain
as optimizer constraints.  None of them involves the key rate, so the
screening keeps the indices of the feasible members, 1,024 members a
kernel call, and re-rates each at every key rate in closed form,
H(S) - [I(S;V1) - R0]+, from its stored H(S) and I(S;V1).  The inner
search's trust-region LP loop refines the best sampled restarts over
their free rows, each a simplex, linearizing the value and every budget
with analytic gradients taken by the chain rule through the joint.  Each
winner, the first of the sampled and refined members, then the screened
ones, with the best value, is re-derived the same way, by family
membership and the reference H(S) and I(S;V1).  That pair, recorded for
every winner, gives the searcher's curve, the best H(S) - [I(S;V1) - R0]+
at any R0, which a sweep and the ``equivocation`` command read.

A winner the reference path does not reproduce raises
:class:`VerificationError`; the ``bounds`` and ``equivocation`` commands
turn it into exit code 1 ("verification mismatch").
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property

import numpy as np
from scipy.optimize import nnls

try:
    from scipy.optimize._highspy._core import (
        HighsDebugLevel,
        HighsLp,
        HighsModelStatus,
        HighsOptions,
        MatrixFormat,
        _Highs,
        kHighsInf,
        simplex_constants,
    )
except ImportError as exc:  # scipy < 1.15 bundles HiGHS without these bindings
    raise ImportError(
        "cascade_secrecy.search needs scipy >= 1.15: it solves its LPs on the HiGHS "
        "bindings in scipy.optimize._highspy._core"
    ) from exc

from .bounds import (
    EquivocationCandidate,
    InnerCandidate,
    RatePayoffTuple,
    SideInfoSpec,
    _equivocation_terms,
    candidate_to_json,
    check_equivocation_membership,
    check_inner_constraints,
    eval_inner_tuple,
)
from .payoff import LogLossPayoff, PayoffTable, _batched_values
from .probability import Alphabet, JointDistribution, Pmf, _entropies, _entropy_of
from .rng import _checked_seed, _count, stream

__all__ = [
    "DEFAULT_ENUM_LIMIT",
    "VerificationError",
    "RateBudget",
    "CardinalityCaps",
    "InnerSearchProblem",
    "SearchResult",
    "search_inner",
    "EquivocationProblem",
    "EquivocationSearchResult",
    "search_equivocation",
    "SweepPoint",
    "equivocation_sweep",
    "KeyRateResult",
    "min_key_rate",
]

#: Deterministic-map spaces at most this large are enumerated exhaustively.
DEFAULT_ENUM_LIMIT = 1_000_000

_RATE_SLACK = 1e-9  # accepted overage on rate/distortion budgets
_MARGINAL_SLACK = 1e-6  # accepted source-marginal gap for search results
_ENUM_REFINE_TOP = 256  # screened maps refined, by relaxed score
_LP_MAXITER = 200  # LP refinement steps; the no-gain stop ends most refinements first
_GAIN_MARGIN = 1e-12  # least gain a refiner step must make, and a climb LP must predict
_CERTIFY_TOL = 1e-9  # published tuple vs the reference evaluator
_EQUIV_REFINE_TOP = 16  # equivocation restarts refined by the LP refiner
_EQUIV_CHUNK = 1024  # enumerated family members per batch-kernel call
_CELL_BUDGET = 1 << 20  # P(w | v1) cells per screened stack of inner maps
#: (statistic, cap) of each inner-search budget: the key and the two message rates
_INNER_BUDGETS = (("r0", "r0"), ("r1", "r1"), ("r2", "r2"))
#: (statistic, cap) of each equivocation budget: two distortions, two message rates
_EQUIV_BUDGETS = (("ed1", "max_d1"), ("ed2", "max_d2"), ("i_xv1", "r1"), ("i_xv2", "r2"))


class VerificationError(RuntimeError):
    """A search winner that the reference evaluator does not reproduce."""


@dataclass(frozen=True)
class RateBudget:
    """Upper limits on (R0, R1, R2) in bits; ``inf`` disables a limit."""

    r0: float
    r1: float
    r2: float

    def __post_init__(self) -> None:
        for tag, v in (("r0", self.r0), ("r1", self.r1), ("r2", self.r2)):
            if math.isnan(v) or v < 0:
                raise ValueError(f"budget {tag} must be >= 0, got {v}")


@dataclass(frozen=True)
class CardinalityCaps:
    """Alphabet-size caps for the searched variables."""

    u1: int
    u2: int
    v1: int
    v2: int

    def __post_init__(self) -> None:
        for tag in ("u1", "u2", "v1", "v2"):
            object.__setattr__(self, tag, _count(getattr(self, tag), f"cap {tag}"))


@dataclass(frozen=True)
class InnerSearchProblem:
    p_x: Pmf
    payoff: PayoffTable | LogLossPayoff
    side: SideInfoSpec
    budget: RateBudget
    caps: CardinalityCaps
    y2_alphabet: Alphabet | None = None  # required for LogLossPayoff
    y3_alphabet: Alphabet | None = None

    def __post_init__(self) -> None:
        if isinstance(self.payoff, PayoffTable):
            object.__setattr__(self, "y2_alphabet", self.payoff.y2_alphabet)
            object.__setattr__(self, "y3_alphabet", self.payoff.y3_alphabet)
            if self.payoff.x_alphabet.size != self.p_x.alphabet.size:
                raise ValueError("payoff X alphabet does not match the source pmf")
        elif self.y2_alphabet is None or self.y3_alphabet is None:
            raise ValueError("log-loss problems must name y2/y3 alphabets")
        sizes = (self.p_x.alphabet.size, self.y2_alphabet.size, self.y3_alphabet.size)
        for ch, size, tag in zip(
            (self.side.ch1, self.side.ch2, self.side.ch3), sizes, ("ch1", "ch2", "ch3")
        ):
            if ch.input_alphabets[0].size != size:
                raise ValueError(f"side-info {tag} input does not match the {tag[-1]} alphabet")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search run; ``feasible=False`` carries no witness."""

    feasible: bool
    tuple: RatePayoffTuple | None
    candidate: InnerCandidate | None
    seed: int
    restarts: int
    wall_time: float
    message: str = ""

    def to_json(self) -> dict:
        t = None
        if self.tuple is not None:
            pi = "-inf" if self.tuple.pi == -math.inf else self.tuple.pi
            t = {
                "r0": self.tuple.r0,
                "r1": self.tuple.r1,
                "r2": self.tuple.r2,
                "pi": pi,
                "forbidden": self.tuple.forbidden,
            }
        return {
            "feasible": self.feasible,
            "tuple": t,
            "candidate": candidate_to_json(self.candidate) if self.candidate else None,
            "seed": self.seed,
            "restarts": self.restarts,
            "wall_time": self.wall_time,
            "message": self.message,
        }


# ---------------------------------------------------------------------------
# inner search: structures


@dataclass
class _Structure:
    """Dimensions and emission channels of one structure, or of a stack of them."""

    dims: tuple[int, int, int, int]  # (cU2, cA, cB, cC)
    px_rows: np.ndarray  # ([n,] nV1, |X|)
    py2_rows: np.ndarray  # ([n,] nV1, |Y2|)
    py3_rows: np.ndarray  # ([n,] nV2, |Y3|)


def _decompositions(caps: CardinalityCaps) -> list[tuple[int, int, int, int]]:
    """All (|U2|, |A|, |B|, |C|) splits consistent with the caps.

    Ordered largest-|U2| first and then by |V1| descending, so the
    round-robin restart assignment visits rich structures early; a larger
    structure can always emulate a smaller one with zero weights.
    """
    out = []
    for c_u2 in range(1, caps.u2 + 1):
        for c_a in range(1, caps.u1 // c_u2 + 1):
            for c_b in range(1, caps.v2 // c_u2 + 1):
                for c_c in range(1, caps.v1 // (c_u2 * c_a * c_b) + 1):
                    out.append((c_u2, c_a, c_b, c_c))
    out.sort(key=lambda d: (-d[0], -(d[0] * d[1] * d[2] * d[3]), d))
    return out


def _finite_pairs(problem: InnerSearchProblem) -> list[np.ndarray]:
    """For each y3 symbol, the (x, y2) pairs with all-z-finite payoff, (k, 2)."""
    if isinstance(problem.payoff, LogLossPayoff):
        sizes = (problem.p_x.alphabet.size, problem.y2_alphabet.size, problem.y3_alphabet.size)
        mask = np.ones(sizes, dtype=bool)
    else:
        mask = problem.payoff.finite_mask
    return [np.argwhere(mask[:, :, y3]) for y3 in range(mask.shape[2])]


def _v2_cells(dims: tuple[int, int, int, int]) -> np.ndarray:
    """The V2 cell (u2, b) of every V1 cell (u2, a, b, c), in cell order."""
    i, _, k, _ = np.indices(dims).reshape(4, -1)
    return i * dims[2] + k


def _deterministic_structure(
    dims: tuple[int, int, int, int], problem: InnerSearchProblem, xy, y3_of_v2
) -> _Structure:
    """One-hot channels: V1 cell c emits the pair xy[..., c, :] = (x, y2),
    V2 cell v2 the action y3_of_v2[..., v2]; leading axes make a stack."""
    xy = np.asarray(xy)
    return _Structure(
        dims,
        np.eye(problem.p_x.alphabet.size)[xy[..., 0]],
        np.eye(problem.y2_alphabet.size)[xy[..., 1]],
        np.eye(problem.y3_alphabet.size)[np.asarray(y3_of_v2)],
    )


def _balanced_structure(
    dims: tuple[int, int, int, int], problem: InnerSearchProblem, pairs_by_y3: list[np.ndarray]
) -> _Structure | None:
    """The deterministic channel map of ``dims`` that spreads actions evenly.

    Round-robin y3 over the V2 cells and alternating (x, y2) pair choices
    keep every action reachable and the source marginal inside the hull,
    which random one-hot assignments often miss.  These seed-independent
    structures anchor the restart pool; ``None`` when a round-robin action
    has no finite pair.
    """
    c_u2, _, c_b, _ = dims
    y3_of = [v2 % problem.y3_alphabet.size for v2 in range(c_u2 * c_b)]
    if any(len(pairs_by_y3[y]) == 0 for y in set(y3_of)):
        return None
    i, j, k, l = np.indices(dims).reshape(4, -1)
    options = [pairs_by_y3[y3_of[v2]] for v2 in i * c_b + k]
    xy = [pairs[turn % len(pairs)] for pairs, turn in zip(options, i + j + k + l)]
    return _deterministic_structure(dims, problem, xy, y3_of)


def _blind_structure(problem: InnerSearchProblem) -> _Structure:
    """Single-cell candidate that reveals nothing: P(x|v1) = p_x.

    All three rates are zero, so this is feasible under every budget and
    guarantees the search never reports infeasible when a no-information
    scheme would do.  The constant (y2, y3) pair is chosen to maximize the
    blind payoff, ties broken by index.
    """
    dims = (1, 1, 1, 1)
    n_y2, n_y3 = problem.y2_alphabet.size, problem.y3_alphabet.size
    y2, y3 = _digits(np.arange(n_y2 * n_y3), (n_y2, n_y3)).T
    px = np.broadcast_to(problem.p_x.probs, (len(y2), 1, problem.p_x.alphabet.size))
    stack = _Structure(dims, px, np.eye(n_y2)[y2, None], np.eye(n_y3)[y3, None])
    best = np.argmax(_InnerEvaluator(stack, problem).stats(np.ones(dims)).pi)  # first of ties
    return _Structure(dims, problem.p_x.probs[None, :], stack.py2_rows[best], stack.py3_rows[best])


def _sample_structure(
    rng: np.random.Generator,
    dims: tuple[int, int, int, int],
    problem: InnerSearchProblem,
    pairs_by_y3: list[np.ndarray],
    stochastic: bool,
) -> _Structure:
    c_u2, c_a, c_b, c_c = dims
    n_v1, n_v2 = c_u2 * c_a * c_b * c_c, c_u2 * c_b
    n_x, n_y2 = problem.p_x.alphabet.size, problem.y2_alphabet.size

    y3_of_v2 = rng.integers(problem.y3_alphabet.size, size=n_v2)
    py3 = np.eye(problem.y3_alphabet.size)[y3_of_v2]

    px = np.zeros((n_v1, n_x))
    py2 = np.zeros((n_v1, n_y2))
    spread_x = stochastic and bool(rng.integers(2))
    for v1, v2 in enumerate(_v2_cells(dims)):
        pairs = pairs_by_y3[int(y3_of_v2[v2])]
        if len(pairs):
            x0, y0 = pairs[int(rng.integers(len(pairs)))]
        else:  # no finite triple exists for this y3; candidate is doomed
            x0, y0 = int(rng.integers(n_x)), int(rng.integers(n_y2))
        if not stochastic:
            px[v1, x0] = 1.0
            py2[v1, y0] = 1.0
        elif spread_x:
            support = [x for x in range(n_x) if any(p[0] == x and p[1] == y0 for p in pairs)] or [x0]
            px[v1, support] = rng.dirichlet(np.ones(len(support)))
            py2[v1, y0] = 1.0
        else:
            support = [y for y in range(n_y2) if any(p[0] == x0 and p[1] == y for p in pairs)] or [y0]
            py2[v1, support] = rng.dirichlet(np.ones(len(support)))
            px[v1, x0] = 1.0
    return _Structure(dims, px, py2, py3)


# ---------------------------------------------------------------------------
# inner search: weights and fast evaluation


def _is_flat(dims: tuple[int, int, int, int]) -> bool:
    """When |A| or |B| is 1 the chain U1 - U2 - V2 holds for any joint over
    the V1 cells, so one flat simplex parameterizes the weights and the
    source-marginal constraint is linear in them."""
    return dims[1] == 1 or dims[2] == 1


def _start_weights(
    dims: tuple[int, int, int, int], rng: np.random.Generator | None = None
) -> np.ndarray:
    """Start weights w[u2, a, b, c]: Dirichlet(1) draws, or uniform when rng is None.

    Flat layouts draw one simplex over the V1 cells.  Otherwise the joint
    must factor as P(u2) P(a|u2) P(b|u2) P(c|u2,a,b), one simplex per row,
    drawn in that order; simplexes of size one carry no freedom and take
    no draw.
    """
    c_u2, c_a, c_b, c_c = dims

    def simplex_rows(rows: int, cols: int) -> np.ndarray:
        if rng is None or cols == 1:
            draws = np.full((rows, cols), 1.0 / cols)
        else:
            draws = np.array([rng.dirichlet(np.ones(cols)) for _ in range(rows)])
        return draws / draws.sum(axis=1, keepdims=True)

    if _is_flat(dims):
        return simplex_rows(1, c_u2 * c_a * c_b * c_c).reshape(dims)
    p = simplex_rows(1, c_u2)
    a = simplex_rows(c_u2, c_a)
    b = simplex_rows(c_u2, c_b)
    c = simplex_rows(c_u2 * c_a * c_b, c_c)
    return (
        p.reshape(c_u2, 1, 1, 1)
        * a.reshape(c_u2, c_a, 1, 1)
        * b.reshape(c_u2, 1, c_b, 1)
        * c.reshape(c_u2, c_a, c_b, c_c)
    )


@dataclass
class _InnerStats:
    """Statistics of one structure, or arrays over a stack; pi is -inf if forbidden."""

    r0: float
    r1: float
    r2: float
    pi: float
    marginal_gap: float


def _member(stats: _InnerStats, i: int) -> _InnerStats:
    """Member ``i`` of a stack's statistics, as floats."""
    return _InnerStats(*(v.item(i) for v in vars(stats).values()))


def _concentrated_weights(
    rng: np.random.Generator,
    struct: _Structure,
    p_x: np.ndarray,
    r0_budget: float,
) -> np.ndarray | None:
    """A start for flat-mode refinement that already sits in a feasible basin.

    Uniform weights have I(W;V1|U1) near log2(cells per U2 group), far above
    a tight key budget, and the LP refiner rarely recovers from so
    infeasible a start.  Instead, concentrate each group on about 2**R0
    cells and fit the cell weights to the source marginal with NNLS;
    resample the support a few times if the fit fails.
    """
    if not _is_flat(struct.dims) or len(struct.px_rows) == 1:
        return None
    c_u2, c_a, c_b, c_c = struct.dims
    group = c_a * c_b * c_c  # cells per U2 value
    per = int(np.clip(round(2.0 ** min(r0_budget, math.log2(group))), 1, group))
    for _ in range(5):
        support = np.concatenate(
            [i * group + rng.choice(group, size=per, replace=False) for i in range(c_u2)]
        )
        m = np.vstack([struct.px_rows[support].T, np.ones(len(support))])
        rhs = np.concatenate([p_x, [1.0]])
        sol, residual = nnls(m, rhs)
        if residual < 1e-8:
            theta = np.zeros(len(struct.px_rows))
            jitter = rng.dirichlet(np.ones(len(support)))
            theta[support] = np.clip(sol, 0.0, None) + 0.02 * jitter
            # normalized twice: the seeded search outputs depend on the
            # rounding of both passes
            w = (theta / theta.sum()).reshape(struct.dims)
            return w / w.sum()
    return None


def _log2_clamped(q: np.ndarray) -> np.ndarray:
    return np.log2(np.maximum(q, 1e-300))


_LOG2E = 1.0 / math.log(2.0)  # d(-q log2 q)/dq = -log2 q - _LOG2E


class _InnerEvaluator:
    """Exact rate/payoff statistics of a structure or of a stack sharing one
    decomposition, and the gradients the flat-layout LP refiner linearizes.

    ``stats`` mirrors :func:`cascade_secrecy.bounds.eval_inner_tuple` on the
    factored family, but works on raw tensors so the search can score
    every enumerated map; the reference evaluator re-checks the winner.

    With a flat weight simplex the payoff sum_u min_z <pi_uz, w> is concave
    piecewise-linear (an exact LP epigraph over ``pi_cz``), and I(W;V1|U1)
    and I(X;V1) are concave in w — conditional entropy is concave in the
    joint and the H(.|V1) terms are linear — so their tangent-plane
    linearizations can only overestimate, making linearized rate cuts safe.
    I(X;V2) is not concave; its linearization is guarded by the trust
    region and by exact re-evaluation of every accepted step.  The per-cell
    arrays behind the gradients are built on first use: most evaluated
    structures are screened, not refined.
    """

    def __init__(self, struct: _Structure, problem: InnerSearchProblem):
        self.struct = struct
        self.dims = dims = struct.dims
        self.single = struct.px_rows.ndim == 2
        n = 1 if self.single else len(struct.px_rows)  # a leading member axis on every array
        self.px4 = struct.px_rows.reshape((n,) + dims + (-1,))
        self.py24 = struct.py2_rows.reshape((n,) + dims + (-1,))
        self.py32 = struct.py3_rows.reshape(n, dims[0], dims[2], -1)
        self.p_x = problem.p_x.probs
        # side information enters through per-coordinate channel matrices
        self.wx = np.einsum("...x,xp->...p", self.px4, problem.side.ch1.rows)
        self.wy2 = np.einsum("...y,yq->...q", self.py24, problem.side.ch2.rows)
        self.wy3 = np.einsum("...t,tr->...r", self.py32, problem.side.ch3.rows)
        self.payoff = problem.payoff
        if isinstance(self.payoff, LogLossPayoff):  # public roles leave the (n,i,j,x,y,t) joint
            public = {"X": 3, "Y2": 4, "Y3": 5}.items()
            self.public_axes = tuple(ax for s, ax in public if s not in self.payoff.secret_set)

    @cached_property
    def _pw4(self) -> np.ndarray:
        """P(w | v1) of every cell, (u2, a, b, c, |W|)."""
        pw = np.einsum("ijklp,ijklq,ikr->ijklpqr", self.wx[0], self.wy2[0], self.wy3[0])
        return pw.reshape(self.dims + (-1,))

    @cached_property
    def _h_w_cell(self) -> np.ndarray:
        return _entropies(self._pw4.reshape(-1, self._pw4.shape[-1])).reshape(self.dims)

    @cached_property
    def _h_x_cell(self) -> np.ndarray:
        return _entropies(self.struct.px_rows).reshape(self.dims)

    @cached_property
    def _py3_cells(self) -> np.ndarray:
        """P(y3 | v1) of every cell, (nV1, |Y3|)."""
        return self.struct.py3_rows[_v2_cells(self.dims)]

    @cached_property
    def _ps4(self) -> np.ndarray:
        """P(s | v1) of every cell for the log-loss secret roles."""
        marg = {"X": self.struct.px_rows, "Y2": self.struct.py2_rows, "Y3": self._py3_cells}
        parts = [marg[s] for s in self.payoff.secret_set]
        ps = parts[0]
        for extra in parts[1:]:
            ps = (ps[:, :, None] * extra[:, None, :]).reshape(len(ps), -1)
        return ps.reshape(self.dims + (-1,))

    @cached_property
    def pi_cz(self) -> np.ndarray | None:
        """Payoff of each (cell, adversary action) for a table payoff, with
        forbidden triples at a large negative value; ``None`` for log loss."""
        if isinstance(self.payoff, LogLossPayoff):
            return None
        vals = self.payoff.values
        finite = np.isfinite(vals)
        masked = np.where(finite, vals, 0.0)
        spread = float(np.abs(masked).max()) if masked.size else 1.0
        big = 1e6 * (1.0 + spread)
        px, py2, py3 = self.struct.px_rows, self.struct.py2_rows, self._py3_cells
        pi_cz = np.einsum("cx,cy,ct,xytz->cz", px, py2, py3, masked)
        hits = np.einsum("cx,cy,ct,xytz->cz", px, py2, py3, (~finite).astype(float))
        return np.where(hits > 1e-15, -big, pi_cz)

    def rate_grads(self, w4: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gradients of (r0, r1, r2) in the cell weights, flattened."""
        px4 = self.px4[0]
        vx = w4[..., None] * px4
        g_u1 = -_log2_clamped(w4.sum(axis=(2, 3)))[:, :, None, None] - _LOG2E
        log_wu = _log2_clamped((w4[..., None] * self._pw4).sum(axis=(2, 3)))
        g_wu = -(self._pw4 * log_wu[:, :, None, None, :]).sum(axis=-1) - _LOG2E
        log_x = _log2_clamped(vx.sum(axis=(0, 1, 2, 3)))
        g_x = -(px4 * log_x).sum(axis=-1) - _LOG2E
        g_v2 = -_log2_clamped(w4.sum(axis=(1, 3)))[:, None, :, None] - _LOG2E
        log_xv2 = _log2_clamped(vx.sum(axis=(1, 3)))
        g_xv2 = -(px4 * log_xv2[:, None, :, None, :]).sum(axis=-1) - _LOG2E
        g_r0 = g_wu - g_u1 - self._h_w_cell
        g_r1 = g_x - self._h_x_cell
        g_r2 = g_x + g_v2 - g_xv2
        return g_r0.reshape(-1), g_r1.reshape(-1), g_r2.reshape(-1)

    def payoff_grad(self, w4: np.ndarray) -> np.ndarray:
        """Gradient of the log-loss payoff H(S|U1), flattened; table payoffs
        use the exact epigraph over ``pi_cz`` instead."""
        log_su = _log2_clamped((w4[..., None] * self._ps4).sum(axis=(2, 3)))
        g_su = -(self._ps4 * log_su[:, :, None, None, :]).sum(axis=-1) - _LOG2E
        g_u1 = -_log2_clamped(w4.sum(axis=(2, 3)))[:, :, None, None] - _LOG2E
        return (g_su - g_u1).reshape(-1)

    def stats(self, w4: np.ndarray) -> _InnerStats:
        """Statistics at w[u2, a, b, c], shared or one per member; floats for one structure."""
        w = w4.reshape((-1,) + self.dims)
        vx = w[..., None] * self.px4
        xm = vx.sum(axis=(1, 2, 3, 4))
        gap = np.abs(xm - self.p_x).max(axis=1)
        h_x = _entropies(xm)
        h_w = _entropies(w)
        r1 = np.maximum(0.0, h_x + h_w - _entropies(vx))
        v2x = vx.sum(axis=(2, 4))
        r2 = np.maximum(0.0, h_x + _entropies(w.sum(axis=(2, 4))) - _entropies(v2x))

        # the joint of (w, v1): ((w wx) wy2) wy3 per cell, as einsum multiplies
        t_wv = (w[..., None] * self.wx)[..., None] * self.wy2[..., None, :]
        t_wv = t_wv[..., None] * self.wy3[:, :, None, :, None, None, None, :]
        t_wu = t_wv.sum(axis=(3, 4))
        h_u1 = _entropies(w.sum(axis=(3, 4)))
        r0 = np.maximum(0.0, (_entropies(t_wu) - h_u1) - (_entropies(t_wv) - h_w))

        j_sys = np.einsum("nijkl,nijklx,nijkly,nikt->nijxyt", w, self.px4, self.py24, self.py32)
        if isinstance(self.payoff, LogLossPayoff):
            pi = _entropies(j_sys.sum(axis=self.public_axes)) - h_u1
        else:
            n_u1 = self.dims[0] * self.dims[1]
            # one (u1, action) matrix product per member, as for one structure
            vals = _batched_values(j_sys.reshape(len(j_sys), n_u1, -1), self.payoff)
            pi = vals.min(axis=2).sum(axis=1)
        out = _InnerStats(r0, r1, r2, pi, gap)
        return _member(out, 0) if self.single else out


def _limits(stats, caps, budgets) -> list:
    """(value, cap) of each of ``budgets``: statistic of ``stats``, attribute of ``caps``."""
    return [(getattr(stats, got), getattr(caps, cap)) for got, cap in budgets]


def _within(limits):
    """Whether every limit holds within the slack: a bool, or a mask over a stack."""
    ok = True
    for got, cap in limits:
        ok = ok & (got <= cap + _RATE_SLACK)
    return ok


def _excess(limits, pen=0.0):
    """``pen`` plus the excess over each finite cap, added in order: a
    float, or an array over a stack."""
    for got, cap in limits:
        if math.isfinite(cap):
            pen = pen + np.maximum(0.0, got - cap)
    return pen


def _penalized(value, limits, pen=0.0):
    """Ranking score for picking refinement candidates: ``value`` minus
    heavy penalties for the :func:`_excess` over ``pen``."""
    return value - 100.0 * _excess(limits, pen)


def _inner_feasible(stats: _InnerStats, budget: RateBudget):
    """The budget test plus the inner terms: an allowed payoff and the source marginal."""
    ok = np.isfinite(stats.pi) & (stats.marginal_gap <= _MARGINAL_SLACK)
    return ok & _within(_limits(stats, budget, _INNER_BUDGETS))


def _inner_score(stats: _InnerStats, budget: RateBudget):
    """The relaxed score with the marginal gap as a penalty; -inf for a forbidden payoff."""
    score = _penalized(stats.pi, _limits(stats, budget, _INNER_BUDGETS), stats.marginal_gap)
    return np.where(np.isfinite(stats.pi), score, -math.inf)


def _highs_options() -> HighsOptions:
    """The options ``linprog(method="highs")`` passes HiGHS by default."""
    options = HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


_HIGHS_OPTIONS = _highs_options()


def _solve_lp(c, a_ub, b_ub, a_eq, b_eq, lb, ub) -> np.ndarray | None:
    """min c @ x subject to a_ub @ x <= b_ub, a_eq @ x == b_eq and
    lb <= x <= ub (infinite bounds as ±kHighsInf); x at an optimum, else ``None``.

    HiGHS gets the model and options ``linprog(method="highs")`` builds:
    the stacked ``[a_ub; a_eq]`` rows column-wise, as ``csc_array`` orders
    them, and a fresh solver per call.  Calling it directly skips
    linprog's per-call input parsing, option validation and result checks,
    which cost more than the solve on the refiner's small LPs.
    """
    a = np.vstack([a_ub, a_eq])
    col, row = np.nonzero(a.T)
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = a.shape[1]
    lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=a.shape[1]))])
    lp.a_matrix_.index_ = row
    lp.a_matrix_.value_ = a.T[col, row]
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = np.concatenate([np.full(len(b_ub), -kHighsInf), b_eq])
    lp.row_upper_ = np.concatenate([b_ub, b_eq])
    highs = _Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    highs.passModel(lp)
    highs.run()
    if highs.getModelStatus() != HighsModelStatus.kOptimal:
        return None
    return np.array(highs.getSolution().col_value)


@dataclass
class _Program:
    """One family's side of :func:`_refine_flat_slp`: maximize the value
    over points x >= 0 with ``a_eq @ x == b_eq``, each slice of ``rows`` a
    simplex.  ``linearize(x, stats)`` gives the climb cost over x and the
    epigraph variables (the columns of the ``epigraph`` rows, each <= 0,
    past x) and the gradient of each budget statistic of ``limits``."""

    stats: Callable  # point -> exact statistics
    value: Callable  # statistics -> value, -inf unless every constraint holds
    limits: Callable  # statistics -> (statistic, cap) of each budget
    linearize: Callable
    a_eq: np.ndarray
    b_eq: np.ndarray
    rows: list[slice]
    epigraph: np.ndarray


def _refine_flat_slp(program: _Program, x0: np.ndarray) -> tuple[np.ndarray, object] | None:
    """Trust-region sequential LP over a family's simplex rows: the one
    refiner of both searches.

    Alternates a feasibility phase (shrink the budgets' excess while a
    point fails the searches' own budget test, :func:`_within`) with a
    climb phase (maximize the value subject to budget cuts linearized at
    the caps themselves); every step is re-evaluated exactly before
    acceptance.  A start off the equality rows is first moved onto them,
    and every later step keeps them through the LP equalities.  Each
    distinct point is scored once: the loop revisits points (the accepted
    step at the loop top, a trust-region retry that lands on a point
    already tried), and those reuse its statistics.  Takes a flat point and
    returns the best one as it was scored, with its statistics; ``None``
    when no feasible point was seen.

    A refinement ends at the first climb LP whose model (its objective,
    each epigraph variable at its largest feasible value) predicts a gain
    of at most ``_GAIN_MARGIN``, the margin a step must clear: a rejected
    climb leaves x in place, later LPs would only shrink the box, and on
    the inner family the model overestimates the concave value.

    Each step's LP goes straight to scipy's bundled HiGHS through
    :func:`_solve_lp`: a refinement makes dozens of LPs of a few dozen
    variables, where ``linprog``'s wrapper costs more than the solve.
    """
    x = x0
    n = len(x)
    n_t = program.epigraph.shape[1] - n
    seen: dict[bytes, object] = {}  # point bytes -> statistics

    def stats_at(p: np.ndarray):
        key = p.tobytes()
        if key not in seen:
            seen[key] = program.stats(p)
        return seen[key]

    def normalized(p: np.ndarray) -> np.ndarray:
        out = np.clip(p, 0.0, None)
        for row in program.rows:
            out[row] /= out[row].sum()
        return out

    def linearized(stats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The climb cost and the budget cuts g @ x <= rhs at x, finite caps only."""
        cost, grads = program.linearize(x, stats)
        limits = zip(grads, program.limits(stats))
        cuts = [(grad, got, cap) for grad, (got, cap) in limits if math.isfinite(cap)]
        g = np.array([grad for grad, _, _ in cuts]).reshape(len(cuts), n)
        rhs = [cap - got + float(grad @ x) for grad, got, cap in cuts]
        return cost, g, np.array(rhs)

    def lp_step(cost, a_ub, b_ub, extra_lo: float, delta: float) -> np.ndarray | None:
        """One LP over (x, extra variables >= ``extra_lo``) in the trust region
        around x and on the equality rows; the new x normalized, or ``None``."""
        n_extra = len(cost) - n
        lb = np.concatenate([np.maximum(x - delta, 0.0), np.full(n_extra, extra_lo)])
        ub = np.concatenate([np.minimum(x + delta, 1.0), np.full(n_extra, kHighsInf)])
        eq = np.hstack([program.a_eq, np.zeros((program.a_eq.shape[0], n_extra))])
        sol = _solve_lp(cost, a_ub, b_ub, eq, program.b_eq, lb, ub)
        return None if sol is None else normalized(sol[:n])

    owns = program.epigraph[:, n:] > 0  # the epigraph variable each row bounds

    def model(cost, p: np.ndarray) -> float:
        """The climb LP's objective at p, each epigraph variable at its largest feasible value."""
        bound = -program.epigraph[:, :n] @ p
        t = np.where(owns, bound[:, None], np.inf).min(axis=0, initial=np.inf)
        return float(cost[:n] @ p + cost[n:] @ t)

    def feasibility_step(stats, delta: float) -> np.ndarray | None:
        """Minimize the linearized budget violation: one slack per cut."""
        _, g, rhs = linearized(stats)
        n_s = len(rhs)
        cost = np.concatenate([np.zeros(n), np.ones(n_s)])
        return lp_step(cost, np.hstack([g, np.diag(np.full(n_s, -1.0))]), rhs, 0.0, delta)

    best_stats = stats_at(x)
    best_x, best_value = x.copy(), program.value(best_stats)
    if np.abs(program.a_eq @ x - program.b_eq).max() > 1e-9:
        x = feasibility_step(best_stats, 1.0)
        if x is None:
            return None if best_value == -math.inf else (best_x, best_stats)

    delta = 0.3
    stall = 0
    fstall = 0
    # one pass more than LPs: the last pass only scores the last step
    for step in range(_LP_MAXITER + 1):
        stats = stats_at(x)
        if program.value(stats) > best_value:
            best_x, best_stats, best_value = x.copy(), stats, program.value(stats)
        if step == _LP_MAXITER or delta < 1e-5 or stall > 6 or fstall > 8:
            break
        limits = program.limits(stats)
        if not _within(limits):
            over = _excess(limits)
            x_new = feasibility_step(stats, delta)
            improved = over - _excess(program.limits(stats_at(x_new))) if x_new is not None else 0.0
            if improved > _GAIN_MARGIN:
                x = x_new
                delta = min(delta * 1.5, 0.4)
                # geometric convergence shrinks the violation by a steady
                # fraction; anything slower is creep toward an unreachable
                # budget and gets cut off
                fstall = fstall + 1 if improved < max(1e-8, 1e-3 * over) else 0
            else:
                delta *= 0.5
                fstall += 1
            continue

        # climb phase: the value's epigraph or linear model, linearized budget cuts
        cost, g, rhs = linearized(stats)
        a_ub = np.vstack([np.hstack([g, np.zeros((len(rhs), n_t))]), program.epigraph])
        b_ub = np.concatenate([rhs, np.zeros(len(program.epigraph))])
        target = lp_step(cost, a_ub, b_ub, -kHighsInf, delta)
        if target is None:
            delta *= 0.5
            stall += 1
            continue
        if model(cost, x) - model(cost, target) <= _GAIN_MARGIN:
            # a rejected climb keeps x, so every later LP would solve over
            # a smaller box and predict no more
            break
        # backtrack toward x: the linear models are closer on a shorter step
        accepted = False
        baseline = program.value(stats)
        for t in (1.0, 0.5, 0.25, 0.125):
            x_try = x + t * (target - x)
            if program.value(stats_at(x_try)) > baseline + _GAIN_MARGIN:
                x = x_try
                delta = min(delta * 1.5, 0.4)
                accepted = True
                break
        if accepted:
            stall = 0
        else:
            delta *= 0.5
            stall += 1
    return None if best_value == -math.inf else (best_x, best_stats)


def _inner_program(evaluator: _InnerEvaluator, budget: RateBudget) -> _Program:
    """The flat weight simplex of one structure: the source marginal and the
    simplex as equality rows, the rate budgets linearized by
    :meth:`_InnerEvaluator.rate_grads`, and the payoff climbed on its exact
    epigraph over ``pi_cz`` (table payoffs) or its gradient (log loss)."""
    dims = evaluator.dims
    n_v1 = math.prod(dims)
    pi_cz = evaluator.pi_cz
    n_t = dims[0] * dims[1] if pi_cz is not None else 0  # one epigraph variable per u1
    group = n_v1 // (dims[0] * dims[1])  # the cells of one u1 are contiguous

    # epigraph rows: t_u <= sum of pi_cz[c, z] w_c over the cells c of
    # u1 = u, for each action z (none for log loss)
    epigraph = np.zeros((n_t, 0 if pi_cz is None else pi_cz.shape[1], n_v1 + n_t))
    if pi_cz is not None:
        cells = np.arange(n_v1)
        epigraph[cells // group, :, cells] = -pi_cz
        epigraph[np.arange(n_t), :, n_v1 + np.arange(n_t)] = 1.0

    def linearize(w: np.ndarray, stats: _InnerStats) -> tuple:
        w4 = w.reshape(dims)
        if pi_cz is None:
            cost = -evaluator.payoff_grad(w4)
        else:
            cost = np.concatenate([np.zeros(n_v1), -np.ones(n_t)])
        return cost, evaluator.rate_grads(w4)

    return _Program(
        stats=evaluator.stats,
        value=lambda stats: stats.pi if _inner_feasible(stats, budget) else -math.inf,
        limits=lambda stats: _limits(stats, budget, _INNER_BUDGETS),
        linearize=linearize,
        a_eq=np.vstack([evaluator.struct.px_rows.T, np.ones((1, n_v1))]),
        b_eq=np.concatenate([evaluator.p_x, [1.0]]),
        rows=[slice(0, n_v1)],
        epigraph=epigraph.reshape(-1, n_v1 + n_t),
    )


def _assemble_inner(
    struct: _Structure, w4: np.ndarray, problem: InnerSearchProblem
) -> InnerCandidate:
    c_u2, c_a, c_b, c_c = struct.dims
    px4 = struct.px_rows.reshape(c_u2, c_a, c_b, c_c, -1)
    py24 = struct.py2_rows.reshape(c_u2, c_a, c_b, c_c, -1)
    py32 = struct.py3_rows.reshape(c_u2, c_b, -1)
    table = np.einsum("ijkl,ijklx,ijkly,ikt->xytijkl", w4, px4, py24, py32)
    table = np.clip(table, 0.0, None)
    table /= table.sum()
    variables = (
        ("X", problem.p_x.alphabet),
        ("Y2", problem.y2_alphabet),
        ("Y3", problem.y3_alphabet),
        ("U2", Alphabet("U2", c_u2)),
        ("A", Alphabet("A", c_a)),
        ("B", Alphabet("B", c_b)),
        ("C", Alphabet("C", c_c)),
    )
    return InnerCandidate(
        JointDistribution(variables, table),
        u1=("U2", "A"),
        u2="U2",
        v1=("U2", "A", "B", "C"),
        v2=("U2", "B"),
    )


def _certify(report, published: dict, reference) -> None:
    """Raise :class:`VerificationError` unless a winner passes its reference
    membership ``report`` and ``reference()`` (a dict) matches ``published``."""
    if report.failures:
        check = report.failures[0]
        raise VerificationError(
            f"search winner fails check {check.name!r}: {check.value!r} > tol {check.tol!r}"
        )
    want = reference()
    for tag, got in published.items():
        if not abs(got - want[tag]) <= _CERTIFY_TOL:
            raise VerificationError(
                f"search winner {tag}={got!r} but the reference evaluator gives {want[tag]!r}"
            )


@dataclass
class _Scored:
    stats: _InnerStats
    struct: _Structure
    w4: np.ndarray


def _map_space_size(decomps, pairs_by_y3) -> int:
    """Number of deterministic channel maps: in each decomposition, each V2
    cell picks an action, and each of its |A| x |C| V1 cells a pair."""
    return sum(sum(len(p) ** (d[1] * d[3]) for p in pairs_by_y3) ** (d[0] * d[2]) for d in decomps)


def _digits(index: np.ndarray, radices) -> np.ndarray:
    """Mixed-radix digits of each index, last digit fastest, as ``itertools.product``
    orders them: ``radices`` is one row for every index or one row per index.
    ``np.unravel_index`` would cap the radices at 64 and take one row only."""
    radices = np.asarray(radices)
    digits = np.empty((len(index), radices.shape[-1]), dtype=np.intp)
    for j in range(radices.shape[-1] - 1, -1, -1):
        index, digits[:, j] = np.divmod(index, radices[..., j])
    return digits


def _maps(dims, y3_maps, starts, pairs_by_y3, index) -> tuple[np.ndarray, np.ndarray]:
    """``(xy, y3_of_v2)`` of the maps ``index`` of one decomposition, from its
    table (see :func:`_screen_maps`), one row per map: each V1 cell's (x, y2)
    pair, in ``itertools.product`` order over those finite under its cell's
    action, and each V2 cell's action."""
    k = np.searchsorted(starts, index, side="right") - 1
    actions = y3_maps[k][:, _v2_cells(dims)]  # the action of each V1 cell
    first = np.cumsum([0] + [len(pairs) for pairs in pairs_by_y3])  # each action's first pair
    pick = _digits(index - starts[k], np.diff(first)[actions])
    return np.concatenate(pairs_by_y3)[first[actions] + pick], y3_maps[k]


def _screen_maps(problem, decomps, pairs_by_y3) -> tuple[_InnerStats, list]:
    """The five budget-free statistics of every deterministic channel map at
    uniform weights, in index order, and the ``(dims, y3_maps, starts)`` of
    each decomposition that rebuild a map: its y3 maps in ``itertools.product``
    order over the actions with a finite pair, and the index of each one's
    first map, closed by the decomposition's end.  A stack holds consecutive
    maps of one decomposition, at most ``_CELL_BUDGET`` cells of P(w | v1)."""
    side = problem.side
    n_w = math.prod(ch.rows.shape[1] for ch in (side.ch1, side.ch2, side.ch3))
    n_pairs = np.array([len(pairs) for pairs in pairs_by_y3])
    actions = np.flatnonzero(n_pairs)
    tables, stacks, end = [], [], 0
    for dims in decomps:
        n_v2 = dims[0] * dims[2]
        y3_maps = actions[_digits(np.arange(len(actions) ** n_v2), (len(actions),) * n_v2)]
        starts = np.cumsum([end, *np.prod(n_pairs[y3_maps] ** (dims[1] * dims[3]), axis=1)])
        tables.append((dims, y3_maps, starts))
        w4, chunk = _start_weights(dims), max(1, _CELL_BUDGET // (math.prod(dims) * n_w))
        for lo in range(end, starts[-1], chunk):
            xy, y3 = _maps(*tables[-1], pairs_by_y3, np.arange(lo, min(lo + chunk, starts[-1])))
            stack = _deterministic_structure(dims, problem, xy, y3)
            stacks.append(_InnerEvaluator(stack, problem).stats(w4))
        end = starts[-1]
    return _concat(stacks), tables


def _ranked_maps(problem, pairs_by_y3, screened, tables, budget) -> tuple[list, list]:
    """The first feasible map at the best payoff (a later tie cannot win
    the pool) and the best ``_ENUM_REFINE_TOP`` by relaxed score, in index
    order as a stable sort leaves ties; only these maps are rebuilt."""
    pi = np.where(_inner_feasible(screened, budget), screened.pi, -math.inf)
    best = [int(np.argmax(pi))] if pi.max() > -math.inf else []
    top = np.argsort(-_inner_score(screened, budget), kind="stable")[:_ENUM_REFINE_TOP].tolist()
    picks, kept = np.unique(best + top), {}  # map index -> scored map
    for dims, y3_maps, starts in tables:
        mine, w4 = picks[(starts[0] <= picks) & (picks < starts[-1])], _start_weights(dims)
        for i, xy, y3 in zip(mine.tolist(), *_maps(dims, y3_maps, starts, pairs_by_y3, mine)):
            struct = _deterministic_structure(dims, problem, xy, y3)
            kept[i] = _Scored(_member(screened, i), struct, w4)
    return [kept[i] for i in best], [kept[i] for i in top]


def _inner_searcher(problem, restarts, refine_top=24, enum_limit=DEFAULT_ENUM_LIMIT) -> Callable:
    """``search(r0, seed)``, the search of ``problem`` at key budget ``r0``.
    What no budget changes is done once, here: the arguments are checked,
    the maps screened and the anchors scored.  Each search ranks the maps,
    samples, refines and certifies; its ``wall_time`` counts from here."""
    restarts = _count(restarts, "restarts")
    refine_top = _count(refine_top, "refine_top", 0)
    enum_limit = _count(enum_limit, "enum_limit", 0)
    started = time.perf_counter()
    decomps = _decompositions(problem.caps)
    pairs_by_y3 = _finite_pairs(problem)

    def scored(struct: _Structure, w4: np.ndarray) -> _Scored:
        return _Scored(_InnerEvaluator(struct, problem).stats(w4), struct, w4)

    # every deterministic channel map, when few enough; each search ranks them
    screened = None
    if 0 < _map_space_size(decomps, pairs_by_y3) <= enum_limit:
        screened = _screen_maps(problem, decomps, pairs_by_y3)

    # seed-independent anchors: the no-information candidate (stochastic
    # source row, so never covered by the deterministic enumeration) plus
    # one balanced map for each of the leading decompositions and each
    # zero-key one: every (c_u2, c_a, 1, 1) decomposition pins V1 = U1,
    # hence key rate identically zero, the natural anchors for small budgets
    anchors = [_blind_structure(problem)]
    anchor_dims = decomps[:16] + [d for d in decomps if d[2] == 1 and d[3] == 1]
    for dims in dict.fromkeys(anchor_dims):
        struct = _balanced_structure(dims, problem, pairs_by_y3)
        if struct is not None:
            anchors.append(struct)
    anchored = [scored(s, _start_weights(s.dims)) for s in anchors]

    def search(r0: float, seed: int) -> SearchResult:
        budget = replace(problem.budget, r0=r0)
        ranked = _ranked_maps(problem, pairs_by_y3, *screened, budget) if screened else ([], [])
        best_maps, to_refine = ranked
        to_refine += anchored

        def sample_one(index: int) -> _Scored:
            rng = stream(seed, index)
            dims = decomps[index % len(decomps)]
            stochastic = rng.random() < 0.25
            struct = _sample_structure(rng, dims, problem, pairs_by_y3, stochastic)
            w0 = None
            if rng.random() < 0.7:
                w0 = _concentrated_weights(rng, struct, problem.p_x.probs, r0)
            if w0 is None:
                w0 = _start_weights(dims, None if rng.random() < 0.15 else rng)
            return scored(struct, w0)

        sampled = [sample_one(i) for i in range(restarts)]
        # a stable sort: ties keep pool order
        ranked = sorted(sampled, key=lambda s: -float(_inner_score(s.stats, budget)))
        to_refine += ranked[:refine_top]

        # only flat layouts have a refiner, the rest compete at their start
        def refined(start: _Scored) -> list[_Scored]:
            struct = start.struct
            if not _is_flat(struct.dims) or len(struct.px_rows) == 1:
                return []
            program = _inner_program(_InnerEvaluator(struct, problem), budget)
            best = _refine_flat_slp(program, start.w4.reshape(-1))
            return [] if best is None else [_Scored(best[1], struct, best[0].reshape(struct.dims))]

        # starts of equal statistics are relabelings that refine to one point
        firsts: dict[tuple, _Scored] = {}  # the first start of each class
        for s in to_refine:
            firsts.setdefault((s.struct.dims, *vars(s.stats).values()), s)
        pool = best_maps + anchored + sampled + [r for s in firsts.values() for r in refined(s)]
        feasible = [s for s in pool if _inner_feasible(s.stats, budget)]
        wall = time.perf_counter() - started
        if not feasible:
            message = "infeasible: no candidate met the rate budget within tolerance"
            return SearchResult(False, None, None, seed, restarts, wall, message)

        winner = max(feasible, key=lambda s: s.stats.pi)  # the first best entry
        cand = _assemble_inner(winner.struct, winner.w4, problem)
        st = winner.stats
        tup = RatePayoffTuple(st.r0, st.r1, st.r2, st.pi)  # feasible, so pi is finite
        _certify(
            check_inner_constraints(cand, p_x=problem.p_x, tol=_MARGINAL_SLACK),
            asdict(tup),
            lambda: asdict(eval_inner_tuple(cand, problem.side, problem.payoff, check=False)),
        )
        msg = f"source-marginal gap {st.marginal_gap:.2e}"
        return SearchResult(True, tup, cand, seed, restarts, wall, msg)

    return search


def search_inner(
    problem: InnerSearchProblem,
    *,
    restarts: int = 64,
    seed: int = 0,
    workers: int = 1,
    refine_top: int = 24,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
) -> SearchResult:
    """Best rate-feasible candidate found for the inner achievability bound.

    One search of :func:`_inner_searcher` at ``problem.budget``, so
    deterministic given (problem, seed, restarts).  ``seed`` must be an
    integer in [0, 2**64), ``restarts`` an integer >= 1, ``refine_top``
    and ``enum_limit`` integers >= 0; anything else raises ``ValueError``
    before any work.  Infeasibility is a result, not an exception; a
    winner that the reference evaluator does not reproduce raises
    :class:`VerificationError`.
    ``workers`` does nothing; it stays while the benchmark in perfbench/ passes it.
    """
    seed = _checked_seed(seed)
    return _inner_searcher(problem, restarts, refine_top, enum_limit)(problem.budget.r0, seed)


# ---------------------------------------------------------------------------
# equivocation search (log-loss disclosure family)


@dataclass(frozen=True)
class EquivocationProblem:
    """Maximize H(S) - [I(S;V1) - R0]+ over the disclosure family.

    Distortion tables: d1 over (X, Y2) and d2 over (X, Y3), with budgets
    max_d1/max_d2; message rates r1/r2 cap I(X;V1)/I(X;V2).
    """

    p_x: Pmf
    secret_set: tuple[str, ...]
    y2_alphabet: Alphabet
    y3_alphabet: Alphabet
    d1: np.ndarray
    d2: np.ndarray
    max_d1: float
    max_d2: float
    r0: float
    r1: float
    r2: float
    cap_v1: int
    cap_v2: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "secret_set", LogLossPayoff(tuple(self.secret_set)).secret_set)
        d1 = np.asarray(self.d1, dtype=np.float64)
        d2 = np.asarray(self.d2, dtype=np.float64)
        if d1.shape != (self.p_x.alphabet.size, self.y2_alphabet.size):
            raise ValueError(f"d1 must have shape (|X|, |Y2|), got {d1.shape}")
        if d2.shape != (self.p_x.alphabet.size, self.y3_alphabet.size):
            raise ValueError(f"d2 must have shape (|X|, |Y3|), got {d2.shape}")
        if not (np.isfinite(d1).all() and np.isfinite(d2).all()):
            raise ValueError("distortion tables must be finite")
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        for tag in ("cap_v1", "cap_v2"):
            object.__setattr__(self, tag, _count(getattr(self, tag), tag))
        for tag in ("max_d1", "max_d2", "r0", "r1", "r2"):
            if math.isnan(getattr(self, tag)):
                raise ValueError(f"{tag} must not be NaN")
        for tag in ("r0", "r1", "r2"):
            if getattr(self, tag) < 0:
                raise ValueError(f"rate {tag} must be >= 0")


@dataclass(frozen=True)
class EquivocationSearchResult:
    feasible: bool
    value: float | None
    candidate: EquivocationCandidate | None
    seed: int
    restarts: int
    wall_time: float
    message: str = ""

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "value": self.value,
            "candidate": candidate_to_json(self.candidate) if self.candidate else None,
            "seed": self.seed,
            "restarts": self.restarts,
            "wall_time": self.wall_time,
            "message": self.message,
        }


@dataclass
class _EquivParams:
    """A stack of family members, one per entry of the leading axis: P(v1|x)
    rows, emission rows and the V2 map.  One member is a stack of one."""

    e_rows: np.ndarray  # (n, |X|, nV1)
    py2: np.ndarray  # (n, nV1, |Y2|)
    py3: np.ndarray  # (n, nV2, |Y3|)
    g: np.ndarray  # (n, nV1) -> v2 index


@dataclass
class _EquivStats:
    """Statistics of a stack of members, one array entry per member."""

    value: np.ndarray
    h_s: np.ndarray
    leak: np.ndarray
    ed1: np.ndarray
    ed2: np.ndarray
    i_xv1: np.ndarray
    i_xv2: np.ndarray


def _take(stack, index):
    """The members ``index`` (a mask or index array) of a params or stats stack."""
    return type(stack)(*(getattr(stack, f.name)[index] for f in fields(stack)))


def _concat(stacks: list):
    """One stack of all members of ``stacks``, in order."""
    return type(stacks[0])(
        *(np.concatenate([getattr(s, f.name) for s in stacks]) for f in fields(stacks[0]))
    )


def _equiv_tables(params: _EquivParams, problem: EquivocationProblem) -> dict:
    """The joint f over (x, v1, y2, y3) of each member and the marginals the
    statistics need; the first axis of every table is the member."""
    p_x = problem.p_x.probs
    n_v2 = params.py3.shape[1]
    jxv = p_x[None, :, None] * params.e_rows  # (n, x, v1)
    py3_v1 = np.take_along_axis(params.py3, params.g[:, :, None], axis=1)  # (n, v1, y3)
    f = jxv[:, :, :, None, None] * params.py2[:, None, :, :, None] * py3_v1[:, None, :, None, :]
    axis_of = {"X": 1, "Y2": 3, "Y3": 4}
    s_axes = tuple(axis_of[s] for s in problem.secret_set)
    drop = tuple(ax for ax in (1, 3, 4) if ax not in s_axes)
    g_onehot = (params.g[:, :, None] == np.arange(n_v2)).astype(float)  # (n, v1, v2)
    jxv2 = np.zeros((len(jxv), len(p_x), n_v2))
    for v1 in range(jxv.shape[2]):  # in V1 order, as a scatter-add would
        jxv2 += jxv[:, :, v1, None] * g_onehot[:, None, v1, :]
    return {
        "jxv": jxv,
        "py3_v1": py3_v1,
        "f": f,
        "g_onehot": g_onehot,
        "keep_s": f.sum(axis=drop + (2,), keepdims=True),
        "keep_sv": f.sum(axis=drop, keepdims=True),
        "pv1": jxv.sum(axis=1),
        "jxv2": jxv2,
        "pv2": jxv2.sum(axis=1),
    }


def _equiv_stats(params: _EquivParams, problem: EquivocationProblem, r0: float) -> _EquivStats:
    """The batch kernel: value, distortions and message rates of every member."""
    t = _equiv_tables(params, problem)
    h_s = _entropies(t["keep_s"])
    h_v1 = _entropies(t["pv1"])
    leak = np.maximum(0.0, h_s + h_v1 - _entropies(t["keep_sv"]))
    ed1 = (t["f"].sum(axis=(2, 4)) * problem.d1).sum(axis=(1, 2))
    ed2 = (t["f"].sum(axis=(2, 3)) * problem.d2).sum(axis=(1, 2))
    h_x = _entropy_of(problem.p_x.probs)
    i_xv1 = np.maximum(0.0, h_x + h_v1 - _entropies(t["jxv"]))
    i_xv2 = np.maximum(0.0, h_x + _entropies(t["pv2"]) - _entropies(t["jxv2"]))
    return _EquivStats(_rerated(h_s, leak, r0), h_s, leak, ed1, ed2, i_xv1, i_xv2)


def _rerated(h_s: np.ndarray, leak: np.ndarray, r0: float) -> np.ndarray:
    """H(S) - [I(S;V1) - R0]+ from the two R0-free statistics."""
    return h_s - np.maximum(0.0, leak - r0)


def _equiv_grads(
    params: _EquivParams, problem: EquivocationProblem, stats: _EquivStats, r0: float
) -> dict:
    """Gradients of the value and of each budget statistic in every
    member's rows: name -> (d/d e_rows, d/d py2, d/d py3).

    The chain rule through the kernel's tables, as
    :meth:`_InnerEvaluator.rate_grads` does; ``stats`` (the kernel's, at
    ``r0``) tells which side of each ``max(0, .)`` a member is on.
    """
    t = _equiv_tables(params, problem)
    f, jxv, py3_v1, g_onehot = t["f"], t["jxv"], t["py3_v1"], t["g_onehot"]
    p_x = problem.p_x.probs[None, :, None]

    def dh(table):  # the entropy's gradient in the table's cells
        return -_log2_clamped(table) - _LOG2E

    def pullback(df, d_e=0.0):  # from the joint's cells to the rows
        df = np.broadcast_to(df, f.shape)
        d_py3_v1 = np.einsum("nxvab,nxv,nva->nvb", df, jxv, params.py2)
        return (
            d_e + p_x * np.einsum("nxvab,nva,nvb->nxv", df, params.py2, py3_v1),
            np.einsum("nxvab,nxv,nvb->nva", df, jxv, py3_v1),
            np.einsum("nvb,nvw->nwb", d_py3_v1, g_onehot),
        )

    # past the key rate the value is H(S|V1) + R0, below it H(S)
    leaking = (stats.leak > r0)[:, None, None]
    i_xv1 = (stats.i_xv1 > 0.0)[:, None, None]
    i_xv2 = (stats.i_xv2 > 0.0)[:, None, None]
    d_pv2 = np.einsum("nxw,nvw->nxv", dh(t["pv2"])[:, None, :] - dh(t["jxv2"]), g_onehot)
    rows_only = (np.zeros_like(params.py2), np.zeros_like(params.py3))
    return {
        "value": pullback(
            np.where(leaking[..., None, None], dh(t["keep_sv"]), dh(t["keep_s"])),
            np.where(leaking, -p_x * dh(t["pv1"])[:, None, :], 0.0),
        ),
        "ed1": pullback(problem.d1[None, :, None, :, None]),
        "ed2": pullback(problem.d2[None, :, None, None, :]),
        "i_xv1": (np.where(i_xv1, p_x * (dh(t["pv1"])[:, None, :] - dh(jxv)), 0.0),) + rows_only,
        "i_xv2": (np.where(i_xv2, p_x * d_pv2, 0.0),) + rows_only,
    }


def _assemble_equiv(params: _EquivParams, problem: EquivocationProblem) -> EquivocationCandidate:
    """The candidate joint of a stack of one."""
    e_rows, py2, py3, g = params.e_rows[0], params.py2[0], params.py3[0], params.g[0]
    n_v1 = e_rows.shape[1]
    n_v2 = py3.shape[0]
    p_x = problem.p_x.probs
    table = np.zeros(
        (len(p_x), problem.y2_alphabet.size, problem.y3_alphabet.size, n_v1, n_v2)
    )
    for v1 in range(n_v1):
        v2 = int(g[v1])
        table[:, :, :, v1, v2] = (
            (p_x * e_rows[:, v1])[:, None, None]
            * py2[v1][None, :, None]
            * py3[v2][None, None, :]
        )
    table = np.clip(table, 0.0, None)
    table /= table.sum()
    variables = (
        ("X", problem.p_x.alphabet),
        ("Y2", problem.y2_alphabet),
        ("Y3", problem.y3_alphabet),
        ("V1", Alphabet("V1", n_v1)),
        ("V2", Alphabet("V2", n_v2)),
    )
    return EquivocationCandidate(JointDistribution(variables, table))


def _equiv_radices(problem: EquivocationProblem) -> tuple[int, ...]:
    """The radix of each digit of a deterministic member: the V1 map of X,
    the V2 map of V1, the Y2 map of V1 and the Y3 map of V2."""
    n_x, n_v1, n_v2 = problem.p_x.alphabet.size, problem.cap_v1, problem.cap_v2
    n_y2, n_y3 = problem.y2_alphabet.size, problem.y3_alphabet.size
    return (n_v1,) * n_x + (n_v2,) * n_v1 + (n_y2,) * n_v1 + (n_y3,) * n_v2


def _equiv_members(problem: EquivocationProblem, index: np.ndarray) -> _EquivParams:
    """The deterministic members ``index``, a stack: member i has the
    mixed-radix digits of i, in the order of ``itertools.product`` over
    the four maps."""
    n_x, n_v1 = problem.p_x.alphabet.size, problem.cap_v1
    n_y2, n_y3 = problem.y2_alphabet.size, problem.y3_alphabet.size
    digits = _digits(index, _equiv_radices(problem))
    m, g, h2, h3 = np.split(digits, (n_x, n_x + n_v1, n_x + 2 * n_v1), axis=1)
    return _EquivParams(np.eye(n_v1)[m], np.eye(n_y2)[h2], np.eye(n_y3)[h3], g)


def _sample_equiv(rng: np.random.Generator, problem: EquivocationProblem) -> _EquivParams:
    """One random member (a stack of one): all rows one-hot or all Dirichlet."""
    n_x = problem.p_x.alphabet.size
    n_v1, n_v2 = problem.cap_v1, problem.cap_v2
    n_y2, n_y3 = problem.y2_alphabet.size, problem.y3_alphabet.size

    def rows(n, k, deterministic):
        if deterministic:
            return np.eye(k)[rng.integers(k, size=n)][None]
        return rng.dirichlet(np.ones(k), size=n)[None]

    det = rng.random() < 0.5
    return _EquivParams(
        rows(n_x, n_v1, det),
        rows(n_v1, n_y2, det),
        rows(n_v2, n_y3, det),
        rng.integers(n_v2, size=n_v1)[None],
    )


def _refine_equiv(
    params: _EquivParams, problem: EquivocationProblem, r0: float
) -> _EquivParams | None:
    """The trust-region LP loop from one member (a stack of one) over its
    free rows, the V2 map fixed: each row of more than one cell is a
    simplex, and the value and every budget are linearized jointly by
    :func:`_equiv_grads`.  None when the member has no free row or no
    feasible point was seen."""
    blocks = (params.e_rows[0], params.py2[0], params.py3[0])
    free = [i for i, block in enumerate(blocks) if block.shape[1] > 1]
    if not free:
        return None
    cuts = np.cumsum([blocks[i].size for i in free])[:-1]
    widths = np.concatenate([np.full(len(blocks[i]), blocks[i].shape[1]) for i in free])
    ends = np.cumsum(widths)

    def member(x: np.ndarray) -> _EquivParams:
        parts = list(blocks)
        for i, block in zip(free, np.split(x, cuts)):
            parts[i] = block.reshape(blocks[i].shape)
        return _EquivParams(*(part[None] for part in parts), params.g)

    def limits(stats: _EquivStats) -> list:
        return [(got.item(), cap) for got, cap in _limits(stats, problem, _EQUIV_BUDGETS)]

    def linearize(x: np.ndarray, stats: _EquivStats) -> tuple:
        by_rows = _equiv_grads(member(x), problem, stats, r0)
        flat = {
            name: np.concatenate([d[i][0].reshape(-1) for i in free]) for name, d in by_rows.items()
        }
        return -flat["value"], [flat[got] for got, _ in _EQUIV_BUDGETS]

    program = _Program(
        stats=lambda x: _equiv_stats(member(x), problem, r0),
        value=lambda stats: stats.value.item() if _within(limits(stats)) else -math.inf,
        limits=limits,
        linearize=linearize,
        a_eq=np.repeat(np.eye(len(widths)), widths, axis=1),
        b_eq=np.ones(len(widths)),
        rows=[slice(end - width, end) for end, width in zip(ends, widths)],
        epigraph=np.zeros((0, ends[-1])),
    )
    best = _refine_flat_slp(program, np.concatenate([blocks[i].reshape(-1) for i in free]))
    return None if best is None else member(best[0])


def _screen_equiv(problem: EquivocationProblem) -> tuple[_EquivStats, np.ndarray] | None:
    """The statistics at ``problem.r0`` and the indices of the feasible
    members of the enumerable family, scored in stacks of at most
    ``_EQUIV_CHUNK``; None when the family is too large to enumerate."""
    total = math.prod(_equiv_radices(problem))
    if total > DEFAULT_ENUM_LIMIT:
        return None
    stats, kept = [], []
    for start in range(0, total, _EQUIV_CHUNK):
        index = np.arange(start, min(start + _EQUIV_CHUNK, total))
        chunk = _equiv_stats(_equiv_members(problem, index), problem, problem.r0)
        ok = _within(_limits(chunk, problem, _EQUIV_BUDGETS))  # feasible members only
        stats.append(_take(chunk, ok))
        kept.append(index[ok])
    return _concat(stats), np.concatenate(kept)


def _equivocation_searcher(problem, restarts) -> tuple[Callable, Callable]:
    """``search(r0, seed)``, the certified search of ``problem`` at key rate
    ``r0``, and ``curve(r0)``, the best value at ``r0`` of every winner
    certified so far (-inf before the first).
    Membership and every budget are free of R0, so the enumerable family is
    screened once, here; at each rate a feasible member's value is re-rated
    from its H(S) and I(S;V1), as the kernel rates it at ``problem.r0``.
    Each search draws its restarts, refines the best, then rebuilds, assembles
    and certifies the first candidate with the best value; its ``wall_time``
    counts from this call.  Certification derives the winner's reference
    H(S) and I(S;V1), and ``curve`` re-rates these recorded pairs."""
    restarts = _count(restarts, "restarts")
    started = time.perf_counter()
    screened = _screen_equiv(problem)
    witnesses: list[tuple[float, float]] = []  # (H(S), I(S;V1)) of each winner

    def search(r0: float, seed: int) -> EquivocationSearchResult:
        sampled = _concat([_sample_equiv(stream(seed, i), problem) for i in range(restarts)])
        stats = _equiv_stats(sampled, problem, r0)
        scores = _penalized(stats.value, _limits(stats, problem, _EQUIV_BUDGETS))
        top = np.argsort(-scores, kind="stable")[:_EQUIV_REFINE_TOP]
        refined = [_refine_equiv(_take(sampled, [i]), problem, r0) for i in top]
        members = _concat([sampled] + [p for p in refined if p is not None])
        stats = _equiv_stats(members, problem, r0)
        ok = _within(_limits(stats, problem, _EQUIV_BUDGETS))
        # the feasible candidates: sampled and refined members, then screened ones
        values, members = stats.value[ok], _take(members, ok)
        if screened is not None:
            values = np.concatenate([values, _rerated(screened[0].h_s, screened[0].leak, r0)])

        wall = time.perf_counter() - started
        if not len(values):
            message = "infeasible: no candidate met the distortion/rate budget"
            return EquivocationSearchResult(False, None, None, seed, restarts, wall, message)
        i = int(np.argmax(values))  # the first best candidate
        value = float(values[i])
        n = len(members.g)
        winner = _take(members, [i]) if i < n else _equiv_members(problem, screened[1][[i - n]])
        cand = _assemble_equiv(winner, problem)
        h_s, leak = _equivocation_terms(cand, problem.secret_set)
        _certify(
            check_equivocation_membership(cand, p_x=problem.p_x, tol=_MARGINAL_SLACK),
            {"value": value},
            lambda: {"value": h_s - max(0.0, leak - r0)},
        )
        witnesses.append((h_s, leak))
        return EquivocationSearchResult(True, value, cand, seed, restarts, wall)

    def curve(r0: float) -> float:
        return max((h_s - max(0.0, leak - r0) for h_s, leak in witnesses), default=-math.inf)

    return search, curve


def search_equivocation(
    problem: EquivocationProblem,
    *,
    restarts: int = 64,
    seed: int = 0,
) -> EquivocationSearchResult:
    """Best disclosure-family value found under distortion/rate budgets.

    A seed that is not an integer in [0, 2**64) raises ``ValueError``
    before any work.  A winner that the reference evaluator does not
    reproduce raises :class:`VerificationError`.
    """
    seed = _checked_seed(seed)
    search, _ = _equivocation_searcher(problem, restarts)
    return search(float(problem.r0), seed)


@dataclass(frozen=True)
class SweepPoint:
    r0: float
    value: float


def _sweep_rates(r0_grid, seed: int) -> list[tuple[float, int]]:
    """(r0, seed) of each grid point, seed ``seed + 7919 i`` (mod 2**64) at
    point i; a seed outside [0, 2**64) or a NaN or negative rate is
    rejected before any screening."""
    seed = _checked_seed(seed)
    rates = []
    for i, r0 in enumerate(r0_grid):
        if math.isnan(r0) or r0 < 0:
            raise ValueError(f"r0_grid[{i}] must be a key rate >= 0, got {r0}")
        rates.append((float(r0), (seed + 7919 * i) % 2**64))
    return rates


def equivocation_sweep(
    problem: EquivocationProblem,
    r0_grid: list[float] | tuple[float, ...],
    *,
    restarts: int = 64,
    seed: int = 0,
    workers: int = 1,
) -> list[SweepPoint]:
    """The value curve over a grid of key rates.

    The family is screened once for the whole grid; each point reads the
    searcher's curve over the winners of every search, nondecreasing by
    construction.  A seed outside [0, 2**64) or a NaN or negative grid
    point raises ``ValueError`` before any work.
    ``workers`` does nothing; it stays while the benchmark in perfbench/ passes it.
    """
    rates = _sweep_rates(r0_grid, seed)
    search, curve = _equivocation_searcher(problem, restarts)
    for r0, rate_seed in rates:
        search(r0, rate_seed)
    return [SweepPoint(r0, curve(r0)) for r0, _ in rates]


@dataclass(frozen=True)
class KeyRateResult:
    feasible: bool
    r0: float | None
    result: SearchResult | None
    target_pi: float
    evaluations: int


def min_key_rate(
    problem: InnerSearchProblem,
    target_pi: float,
    *,
    tol: float = 1e-3,
    restarts: int = 32,
    seed: int = 0,
    refine_top: int = 24,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
) -> KeyRateResult:
    """Smallest key budget (within ``tol``) whose search clears ``target_pi``.

    Bisects the R0 budget, reusing the search at each midpoint: one
    searcher screens the maps once, and the search of step i is seeded
    ``seed + 104729 i`` (mod 2**64).  Requires a finite R0 budget in
    ``problem`` as the upper end, ``tol > 0`` and a seed in [0, 2**64);
    the other arguments are checked as :func:`search_inner` checks them.
    """
    seed = _checked_seed(seed)
    hi = problem.budget.r0
    if not math.isfinite(hi):
        raise ValueError("min_key_rate needs a finite r0 budget as the upper end")
    if not tol > 0:  # the bisection would never close; NaN fails too
        raise ValueError(f"min_key_rate needs tol > 0, got {tol}")
    if math.isnan(target_pi):  # no payoff would clear it
        raise ValueError("min_key_rate needs a target_pi that is not NaN")
    search = _inner_searcher(problem, restarts, refine_top, enum_limit)
    evaluations = 1
    best = search(hi, seed)
    if not (best.feasible and best.tuple.pi >= target_pi):
        return KeyRateResult(False, None, best, target_pi, evaluations)
    lo, best_r0 = 0.0, hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        res = search(mid, (seed + 104729 * evaluations) % 2**64)
        evaluations += 1
        if res.feasible and res.tuple.pi >= target_pi:
            hi, best, best_r0 = mid, res, mid
        else:
            lo = mid
    return KeyRateResult(True, best_r0, best, target_pi, evaluations)
