"""Operational simulation of the cascade scheme at tiny blocklength.

The encoder holds random superposition codebooks: a coarse codebook of
u2-sequences, refined per key value by v2-sequences, and a second layer
(u1, then v1) refining both.  A likelihood encoder picks indices with
probability proportional to the source sequence's likelihood under the
indexed codewords; nodes 2 and 3 emit their actions memorylessly from
the selected v1 and v2 codewords.  The adversary knows the codebooks
and the public messages but not the key, and acts at each time t after
seeing the disclosed signals of times before t.

Everything here is exact: every nonzero cell of the system joint is
enumerated at small blocklength, and the Monte Carlo estimator samples
only the outer expectation over histories — each sampled history is
still scored against its exactly-computed posterior.
"""

from __future__ import annotations

import csv
import math
import weakref
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bounds import (
    InnerCandidate,
    SideInfoSpec,
    _require,
    _role_alphabet,
    _role_size,
    candidate_to_json,
    check_inner_constraints,
    inner_candidate_from_json,
    side_info_from_json,
    side_info_to_json,
)
from .payoff import LogLossPayoff, _batched_values
from .probability import (
    Alphabet,
    CapExceededError,
    ZeroProbabilityError,
    _check_cap,
    _entropies,
    _entropy_of,
    _grouped,
    conditional_mutual_information,
    mutual_information,
)
from .rng import (
    STREAM_ENCODER,
    STREAM_SAMPLE,
    STREAM_U1,
    STREAM_U2,
    STREAM_V1,
    STREAM_V2,
    _cdf,
    _checked_seed,
    _count,
    sample_pmf,
    sample_rows,
    stream,
    symbols,
    uniform_rows,
)

__all__ = [
    "DEFAULT_EPSILON",
    "DEFAULT_CELL_CAP",
    "IndexBits",
    "SchemeSpec",
    "CodebookSet",
    "SystemTable",
    "auto_index_bits",
    "build_codebooks",
    "encoder_distribution",
    "likelihood_encode",
    "run_system_exact",
    "simulate_payoff",
    "empirical_equivocation",
    "history_posterior",
    "mc_estimate",
    "scheme_spec_to_json",
    "scheme_spec_from_json",
]

DEFAULT_EPSILON = 0.1
DEFAULT_CELL_CAP = 1 << 24


@dataclass(frozen=True)
class IndexBits:
    """Bit counts for the four message indices and the key.

    Index spaces have sizes 2**bits, so zero bits means a singleton
    index.  ``key`` is the per-block key budget b0.
    """

    a: int
    b: int
    c: int
    d: int
    key: int

    def __post_init__(self) -> None:
        for tag in ("a", "b", "c", "d", "key"):
            object.__setattr__(self, tag, _count(getattr(self, tag), f"index bits {tag}", 0))

    @property
    def sizes(self) -> tuple[int, int, int, int, int]:
        return (2**self.a, 2**self.b, 2**self.c, 2**self.d, 2**self.key)


def _bits_for(n: int, rate: float) -> int:
    # ceil of n*rate with a dust guard so exact integers stay put
    return max(0, math.ceil(n * rate - 1e-9))


def _checked_epsilon(epsilon) -> float:
    """The rate slack as a float: a finite number >= 0, not a bool."""
    number = isinstance(epsilon, (int, float, np.integer, np.floating))
    if isinstance(epsilon, bool) or not (number and 0 <= epsilon < math.inf):
        raise ValueError(
            f"epsilon must be a finite number >= 0, got {epsilon!r} "
            "(epsilon must be a nonnegative number, not a bool)"
        )
    return float(epsilon)


def auto_index_bits(
    inner: InnerCandidate, n: int, *, key: int, epsilon: float = DEFAULT_EPSILON
) -> IndexBits:
    """Index sizes covering the superposition rates at blocklength n.

    Each message layer gets ceil(n * (I + epsilon)) bits, with the
    mutual informations read off the candidate; the key budget is
    explicit because it is the experiment's independent variable.
    """
    epsilon = _checked_epsilon(epsilon)
    joint = inner.joint
    i_a = mutual_information(joint, inner.x, inner.u2)
    i_b = conditional_mutual_information(joint, inner.x, inner.v2, inner.u2)
    i_c = conditional_mutual_information(joint, inner.x, inner.u1, inner.v2)
    i_d = conditional_mutual_information(
        joint, inner.x, inner.v1, inner.u1 + inner.v2
    )
    return IndexBits(
        a=_bits_for(n, i_a + epsilon),
        b=_bits_for(n, i_b + epsilon),
        c=_bits_for(n, i_c + epsilon),
        d=_bits_for(n, i_d + epsilon),
        key=key,
    )


@dataclass(frozen=True)
class SchemeSpec:
    """A complete, reproducible scheme configuration.

    The candidate supplies every conditional the construction needs; the
    seed, an integer in [0, 2**64), pins the codebook draw.  ``epsilon``,
    a finite number >= 0 (not a bool), records the rate slack the index
    sizes were derived with (informational when they are set by hand).
    """

    n: int
    inner: InnerCandidate
    index_bits: IndexBits
    side: SideInfoSpec
    seed: int = 0
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _count(self.n, "blocklength n"))
        object.__setattr__(self, "seed", _checked_seed(self.seed))
        object.__setattr__(self, "epsilon", _checked_epsilon(self.epsilon))
        _require(check_inner_constraints(self.inner))
        for tag, role in zip(("ch1", "ch2", "ch3"), (self.inner.x, self.inner.y2, self.inner.y3)):
            got = getattr(self.side, tag).input_alphabets[0].size
            want = _role_size(self.inner, role)
            if got != want:
                raise ValueError(
                    f"side-info {tag} expects an input of size {got}, "
                    f"the candidate's role has size {want}"
                )

    @cached_property
    def _scheme(self) -> "_Scheme":
        """The compiled conditionals, built once per spec."""
        return _Scheme(self)


def _kept(owner, name: str, build, weak: bool = False):
    """``build()``, made once and kept on the frozen ``owner`` whose fields
    fix it.  A ``weak`` value (one that refers back to ``owner``) is
    shared only while a caller holds it, so no cycle outlives the run."""
    value = vars(owner).get(name, lambda: None)()
    if value is None:
        value = build()
        vars(owner)[name] = weakref.ref(value) if weak else (lambda: value)
    return value


def _conditional_rows(joint_ab: np.ndarray) -> np.ndarray:
    """P(B|A) rows from a grouped joint whose last axis is B.

    Rows of zero-mass conditions are unreachable; they get a uniform
    placeholder that no draw ever selects.
    """
    flat = joint_ab.reshape(-1, joint_ab.shape[-1])
    mass = flat.sum(axis=1, keepdims=True)
    safe = np.where(mass > 0.0, mass, 1.0)
    rows = flat / safe
    rows[mass[:, 0] == 0.0] = 1.0 / joint_ab.shape[-1]
    return rows.reshape(joint_ab.shape)


class _Scheme:
    """Compiled conditionals of a spec, flattened to plain arrays."""

    def __init__(self, spec: SchemeSpec):
        cand = spec.inner
        joint = cand.joint
        self.x_alphabet = _role_alphabet(cand, cand.x, "X")
        self.y2_alphabet = _role_alphabet(cand, cand.y2, "Y2")
        self.y3_alphabet = _role_alphabet(cand, cand.y3, "Y3")
        self.nx = self.x_alphabet.size
        self.ny2 = self.y2_alphabet.size
        self.ny3 = self.y3_alphabet.size
        self.nu1 = _role_size(cand, cand.u1)
        self.nv1 = _role_size(cand, cand.v1)
        self.nv2 = _role_size(cand, cand.v2)

        p_x = _grouped(joint, cand.x)  # sums to 1 within 1e-12, e.g. read from 12-digit JSON
        self.p_x = p_x / p_x.sum()
        self.p_u2 = _grouped(joint, cand.u2)
        self.v2_of_u2 = _conditional_rows(_grouped(joint, cand.u2, cand.v2))
        self.u1_of_u2 = _conditional_rows(_grouped(joint, cand.u2, cand.u1))
        self.v1_of_u1v2 = _conditional_rows(
            _grouped(joint, cand.u1, cand.v2, cand.v1)
        )
        self.x_of_v1v2 = _conditional_rows(_grouped(joint, cand.v1, cand.v2, cand.x))
        self.y2_of_v1 = _conditional_rows(_grouped(joint, cand.v1, cand.y2))
        self.y3_of_v2 = _conditional_rows(_grouped(joint, cand.v2, cand.y3))

        side = spec.side
        d = np.einsum(
            "xa,yb,zc->xyzabc", side.ch1.rows, side.ch2.rows, side.ch3.rows
        )
        self.n_w = math.prod(d.shape[3:])
        self.disclosure = d.reshape(self.nx * self.ny2 * self.ny3, self.n_w)


@dataclass(frozen=True)
class CodebookSet:
    """Drawn codebooks; all sequences are symbols of the flattened roles.

    Shapes: u2 (Ma, n), v2 (Ma, Mb, K, n), u1 (Ma, Mc, n),
    v1 (Ma, Mb, Mc, Md, K, n).  The key axis is drawn leading, so
    enlarging the key space keeps the existing codewords in place.
    """

    spec: SchemeSpec
    u2: np.ndarray
    v2: np.ndarray
    u1: np.ndarray
    v1: np.ndarray


def build_codebooks(spec: SchemeSpec, *, cell_cap: int = DEFAULT_CELL_CAP) -> CodebookSet:
    """Sample the nested codebooks from the spec's seed.

    Raises CapExceededError with the required sizes when the index
    spaces are too large to materialize.
    """
    _check_codebook_cells(spec, cell_cap)
    scheme = spec._scheme
    n = spec.n
    m_a, m_b, m_c, m_d, n_k = spec.index_bits.sizes
    seed = spec.seed

    u2 = sample_pmf(stream(seed, STREAM_U2), scheme.p_u2, (m_a, n))

    # key-leading draw order makes a larger key space an extension of a
    # smaller one (same seed): the monotonicity-in-key property needs it
    given_v2 = np.broadcast_to(u2[None, :, None, :], (n_k, m_a, m_b, n))
    v2 = sample_rows(stream(seed, STREAM_V2), scheme.v2_of_u2, given_v2)
    v2 = np.ascontiguousarray(np.moveaxis(v2, 0, 2))

    given_u1 = np.broadcast_to(u2[:, None, :], (m_a, m_c, n))
    u1 = sample_rows(stream(seed, STREAM_U1), scheme.u1_of_u2, given_u1)

    pair_rows = scheme.v1_of_u1v2.reshape(scheme.nu1 * scheme.nv2, scheme.nv1)
    u1_b = u1[None, :, None, :, None, :]
    v2_b = np.moveaxis(v2, 2, 0)[:, :, :, None, None, :]
    given_v1 = (
        np.broadcast_to(u1_b, (n_k, m_a, m_b, m_c, m_d, n)) * scheme.nv2
        + np.broadcast_to(v2_b, (n_k, m_a, m_b, m_c, m_d, n))
    )
    v1 = sample_rows(stream(seed, STREAM_V1), pair_rows, given_v1)
    v1 = np.ascontiguousarray(np.moveaxis(v1, 0, 4))

    cb = CodebookSet(spec, u2, v2, u1, v1)
    _verify_support(scheme, cb)
    return cb


def _check_codebook_cells(spec: SchemeSpec, cell_cap: int) -> None:
    n = spec.n
    m_a, m_b, m_c, m_d, n_k = spec.index_bits.sizes
    need = {
        "u2": m_a * n,
        "v2": m_a * m_b * n_k * n,
        "u1": m_a * m_c * n,
        "v1": m_a * m_b * m_c * m_d * n_k * n,
    }
    total = sum(need.values())
    if total > cell_cap:
        raise CapExceededError(f"codebooks need {total} cells ({need}), cap is {cell_cap}")


def _verify_support(scheme: _Scheme, cb: CodebookSet) -> None:
    """Every drawn symbol must be possible under its conditioning parents."""
    # each drawn symbol indexed directly, its parents broadcast against it
    checks = [
        scheme.p_u2[cb.u2],
        scheme.v2_of_u2[cb.u2[:, None, None, :], cb.v2],
        scheme.u1_of_u2[cb.u2[:, None, :], cb.u1],
        scheme.v1_of_u1v2[cb.u1[:, None, :, None, None, :], cb.v2[:, :, None, None, :, :], cb.v1],
    ]
    for arr in checks:
        if arr.size and float(arr.min()) <= 0.0:
            raise ValueError("codebook draw hit a zero-probability symbol")


def _encoder_table(
    scheme: _Scheme, cb: CodebookSet, cell_cap: int = DEFAULT_CELL_CAP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(k) P(x^n) P(m | x^n, k) as its nonzero cells: the flat (k, m) row,
    the flat x^n and the value, ascending in (k, m, x^n), all read-only.

    Every value is the float of the dense (K, M, X^n) build: likelihoods
    multiply in time order, and each (k, x^n) normalizer adds its cells in m
    order (numpy adds a one-column table pairwise, but |X| = 1 makes every
    likelihood 1.0).  The cell cap counts the K*M*|X|^n cells of the dense
    table, before anything of size |X|^n is allocated; a source sequence
    that no codeword covers at some key is named in the error.
    """
    n = cb.spec.n
    m_a, m_b, m_c, m_d, n_k = cb.spec.index_bits.sizes
    m_cells, n_x = m_a * m_b * m_c * m_d, scheme.nx**n
    _check_cap(n_k * m_cells * n_x, "encoder table", cell_cap)
    # the (v1, v2) codeword pair of each (k, m) row and time, built in place
    pairs = np.multiply(np.moveaxis(cb.v1, 4, 0), scheme.nv2, order="C")
    pairs += np.moveaxis(cb.v2, 2, 0)[:, :, :, None, None]
    row, x, weight = _sequence_cells(pairs.reshape(-1, n), scheme.x_of_v1v2.reshape(-1, scheme.nx))
    del pairs
    key_x = row // m_cells * n_x + x
    denom = np.bincount(key_x, weights=weight, minlength=n_k * n_x)
    if float(denom.min()) <= 0.0:
        k, x_seq = divmod(int(np.argmax(denom <= 0.0)), n_x)
        x_seq = tuple(int(x) for x in np.unravel_index(x_seq, (scheme.nx,) * n))
        raise ZeroProbabilityError(f"source sequence x^n={x_seq} has no codeword at key {k}")
    px = np.ones(1)
    for _ in range(n):  # P(x^n) of each flat x^n, its times multiplied in order
        px = np.multiply.outer(px, scheme.p_x).ravel()
    value = (px[x] / n_k) * (weight / denom[key_x])
    for arr in (row, x, value):
        arr.setflags(write=False)
    return row, x, value


def _sequence_cells(given: np.ndarray, law: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nonzero cells of each row of ``given`` (R, n) under the memoryless
    2-D ``law``, time t's symbol selecting the row: (row, flat sequence,
    value), ascending, each value multiplied in time order."""
    row = np.arange(len(given))
    seq, value = np.zeros_like(row), np.ones(len(given))
    for t in range(given.shape[1]):
        cell, sym = _paired(given[row, t], law)
        row, seq = row[cell], seq[cell] * law.shape[1] + sym
        value = value[cell] * law[given[row, t], sym]
    return row, seq, value


def encoder_distribution(x_seq, k: int, cb: CodebookSet) -> np.ndarray:
    """Exact conditional distribution of the index tuple given (x^n, k)."""
    scheme = cb.spec._scheme
    x_seq = list(x_seq)
    if len(x_seq) != cb.spec.n:
        raise ValueError(f"x_seq must be a length-{cb.spec.n} sequence")
    x_seq = tuple(_validated_index(x, scheme.nx, "x_seq entry") for x in x_seq)
    k = _validated_index(k, cb.v2.shape[2], "key value")
    # each message's likelihood of x^n, its times multiplied in order
    likelihoods = scheme.x_of_v1v2[cb.v1[..., k, :], cb.v2[:, :, None, None, k], x_seq]
    weights = np.prod(likelihoods, axis=-1)
    total = weights.sum()
    if total <= 0.0:
        raise ZeroProbabilityError("source sequence outside scheme support")
    return weights / total


def likelihood_encode(x_seq, k: int, cb: CodebookSet, seed: int) -> tuple[int, int, int, int]:
    """Sample the index tuple proportionally to codeword likelihood."""
    seed = _checked_seed(seed)
    dist = encoder_distribution(x_seq, k, cb)
    flat = int(sample_pmf(stream(seed, STREAM_ENCODER), dist.ravel(), ()))
    return tuple(int(i) for i in np.unravel_index(flat, dist.shape))


def _validated_index(value, size: int, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer in 0..{size - 1}, got {value!r}")
    if not 0 <= value < size:
        raise ValueError(f"{what} must lie in 0..{size - 1}, got {value}")
    return int(value)


@dataclass(frozen=True)
class SystemTable:
    """Exact joint of one fixed codebook draw, stored as its nonzero cells.

    Axes are (K, Ma, Mb, Mc, Md, X_1..X_n, Y2_1..Y2_n, Y3_1..Y3_n); the
    disclosed signals are not materialized — they are a memoryless
    channel of the per-time triples and get adjoined where needed.
    ``index`` holds the cells' flat C-order positions, ascending, and
    ``values`` their probabilities; both are read-only.  ``sums`` groups
    the cells of a marginal and adds each group in index order; the audit,
    the exact payoff and the equivocation read everything from it.
    """

    spec: SchemeSpec
    codebooks: CodebookSet
    index: np.ndarray
    values: np.ndarray
    cell_cap: int = DEFAULT_CELL_CAP

    @cached_property
    def _variables(self) -> tuple[tuple[str, Alphabet], ...]:
        scheme = self.spec._scheme
        m_a, m_b, m_c, m_d, n_k = self.spec.index_bits.sizes
        variables = [
            (name, Alphabet(name, size))
            for name, size in zip(("K", "Ma", "Mb", "Mc", "Md"), (n_k, m_a, m_b, m_c, m_d))
        ]
        for prefix, alphabet in (
            ("X", scheme.x_alphabet), ("Y2_", scheme.y2_alphabet), ("Y3_", scheme.y3_alphabet)
        ):
            names = (f"{prefix}{t + 1}" for t in range(self.spec.n))
            variables += [(v, Alphabet(v, alphabet.size, alphabet.labels)) for v in names]
        return tuple(variables)

    @property
    def shape(self) -> tuple[int, ...]:
        """Axis sizes; ``index`` holds C-order positions over them."""
        return tuple(a.size for _, a in self._variables)

    def sums(self, names) -> tuple[np.ndarray, np.ndarray]:
        """The marginal over ``names`` as its cells with mass: their flat
        C-order positions over the kept axes (table order), ascending, and
        their probabilities, each summed from its stored cells in index
        order, which is the order a dense sum over leading axes adds them in.
        """
        variables = self._variables
        unknown = set(names) - {name for name, _ in variables}
        if unknown:
            raise ValueError(f"unknown variables {sorted(unknown)}")
        keep = [i for i, (name, _) in enumerate(variables) if name in names]
        flat = np.ravel_multi_index([self._coords[i] for i in keep], [self.shape[i] for i in keep])
        return _group_sum(flat, self.values)

    @cached_property
    def _coords(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinates of the stored cells, one axis at a time, each
        in the smallest unsigned type that holds its axis."""
        return tuple(
            (self.index // math.prod(self.shape[i + 1:]) % size)
            .astype(np.min_scalar_type(size - 1))
            for i, size in enumerate(self.shape)
        )


def _group_sum(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``keys``, ascending, and the ``values`` of each added in order."""
    groups, inverse = np.unique(keys, return_inverse=True)
    return groups, np.bincount(inverse, weights=values, minlength=groups.size)


@lru_cache(maxsize=64)
def _pairwise_ranks(size: int) -> tuple[np.ndarray, ...]:
    """numpy's order of adding ``size`` contiguous cells, as a tree whose
    nodes add their children in order from 0.0: for each level, from the
    cells' parents to the root, the node of each cell, numbered in tree
    order; read-only."""
    def tree(lo, n):  # numpy's pairwise_sum of cells lo .. lo + n - 1
        if n < 8:
            return list(range(lo, lo + n))
        if n > 128:
            half = n // 2 - n // 2 % 8
            return [tree(lo, half), tree(lo + half, n - half)]
        # 8 strided accumulators joined pairwise, then the rest in order
        acc = [list(range(lo + j, lo + n - n % 8, 8)) for j in range(8)]
        joined = [[[acc[i], acc[i + 1]], [acc[i + 2], acc[i + 3]]] for i in (0, 4)]
        return [joined, *range(lo + n - n % 8, lo + n)]

    def paths(node, path=()):
        if isinstance(node, int):
            return {node: path}
        return {cell: p for i, child in enumerate(node)
                for cell, p in paths(child, path + (i,)).items()}

    path = paths(tree(0, size))
    depth = max(map(len, path.values()))
    # a lone child adds only itself, so every path is padded to one depth
    padded = np.array([path[cell] + (0,) * (depth - len(path[cell])) for cell in range(size)])
    ranks = [np.unique(padded[:, :cut], axis=0, return_inverse=True)[1].ravel()
             for cut in range(depth - 1, -1, -1)]
    for rank in ranks:
        rank.setflags(write=False)
    return tuple(ranks)


def _pairwise_sums(block: np.ndarray, pos: np.ndarray, values: np.ndarray, size: int):
    """The float numpy's sum gives for each block of ``size`` contiguous
    cells, zeros but for ``values`` at ``pos`` (cells ascending in (block,
    pos)): (the blocks with cells, ascending; their sums)."""
    ranks = _pairwise_ranks(size)
    if len(ranks) > 1:  # each cell next to those its parent adds
        order = np.lexsort((ranks[0][pos], block))
        block, pos, values = block[order], pos[order], values[order]
    for rank in ranks:  # a node's first cell stands for it
        new = np.ones(block.size, dtype=bool)
        new[1:] = (block[1:] != block[:-1]) | (rank[pos[1:]] != rank[pos[:-1]])
        values = np.bincount(np.cumsum(new) - 1, weights=values)
        block, pos = block[new], pos[new]
    return block, values


def _fan(rows: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell i once per stored cell of row ``rows[i]`` of a table stored row by
    row, ``count[r]`` cells in row r: (cell, the stored cell's position), in
    order."""
    reps = count[rows]
    cell = np.repeat(np.arange(rows.size), reps)
    at = np.arange(cell.size) - np.repeat(np.cumsum(reps) - reps, reps)
    return cell, (np.cumsum(count) - count)[rows[cell]] + at


def _paired(rows: np.ndarray, law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell i, whose row of the 2-D ``law`` is ``rows[i]``, once per nonzero
    column of that row: (cell, column), cells in order, columns ascending."""
    law_rows, cols = np.nonzero(law)
    cell, at = _fan(rows, np.bincount(law_rows, minlength=law.shape[0]))
    return cell, cols[at]


def run_system_exact(spec: SchemeSpec, *, cell_cap: int = DEFAULT_CELL_CAP) -> SystemTable:
    """Enumerate the nonzero cells of the system joint for one codebook draw.

    A cell is nonzero exactly where the encoder table, the y2 law of its
    (k, m) and the y3 law of its (k, Ma, Mb) all are.  The emission laws
    are held as their nonzero cells, multiplied in time order; each encoder
    cell fans out over those of its rows, and a system cell is (prior * y2)
    * y3, the float a dense product gives.  The cell cap counts stored cells
    and is checked before they are allocated, and it bounds the codebooks
    and encoder table, kept or not.
    """
    scheme = spec._scheme
    n = spec.n
    m_a, m_b, m_c, m_d, n_k = spec.index_bits.sizes
    rows, mcd = n_k * m_a * m_b * m_c * m_d, m_c * m_d
    _check_codebook_cells(spec, cell_cap)
    _check_cap(rows * scheme.nx**n, "encoder table", cell_cap)
    cb = _kept(spec, "_codebooks", lambda: build_codebooks(spec, cell_cap=cell_cap), weak=True)
    km, x, prior = _kept(cb, "_encoder", lambda: _encoder_table(scheme, cb, cell_cap))
    # the cells of each (k, m) row's y2 law and each (k, Ma, Mb) row's y3 law
    y2 = _sequence_cells(np.moveaxis(cb.v1, 4, 0).reshape(rows, n), scheme.y2_of_v1)
    y3 = _sequence_cells(np.moveaxis(cb.v2, 2, 0).reshape(rows // mcd, n), scheme.y3_of_v2)
    y2_count = np.bincount(y2[0], minlength=rows)
    y3_count = np.bincount(y3[0], minlength=rows // mcd)
    need = int((y2_count[km] * y3_count[km // mcd]).sum())
    if need > cell_cap:
        raise CapExceededError(f"system table stores {need} cells, cap is {cell_cap}")

    cell, at = _fan(km, y2_count)
    km, x, y2_sym, values = km[cell], x[cell], y2[1][at], prior[cell] * y2[2][at]
    cell, at = _fan(km // mcd, y3_count)
    km, x, y2_sym, values = km[cell], x[cell], y2_sym[cell], values[cell] * y3[2][at]
    y3_sym = y3[1][at]
    # row-major nesting (k, m), x^n, y2^n, y3^n keeps the index ascending
    index = ((km * scheme.nx**n + x) * scheme.ny2**n + y2_sym) * scheme.ny3**n + y3_sym
    index.setflags(write=False)
    values.setflags(write=False)

    total = float(values.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"system table sums to {total}, expected 1")
    return SystemTable(spec, cb, index, values, cell_cap)


def _row_values(rows: np.ndarray, payoff, scheme: _Scheme) -> np.ndarray:
    """Adversary-minimized expected payoff of each unnormalized row."""
    if isinstance(payoff, LogLossPayoff):
        shaped = rows.reshape(rows.shape[0], scheme.nx, scheme.ny2, scheme.ny3)
        drop = tuple(
            1 + i for i, role in enumerate(("X", "Y2", "Y3"))
            if role not in payoff.secret_set
        )
        p_s = shaped.sum(axis=drop) if drop else shaped
        p_s = p_s.reshape(rows.shape[0], -1)
        return _entropies(p_s) - _entropies(p_s.sum(axis=1, keepdims=True))
    return _batched_values(rows, payoff).min(axis=1)


def simulate_payoff(table: SystemTable, payoff) -> float:
    """Average adversary-optimal payoff over times and histories.

    Strictly causal: the time-t posterior conditions on the messages and
    the disclosed signals of times 1..t-1 only.  At each t the stored cells
    are grouped by (m, triple_1..triple_t); each prefix triple fans out
    over its nonzero disclosure entries, the cells regroup by
    (m, w_1..w_{t-1}, triple_t), and only histories with mass are scored.
    The fanned cells and the scored rows are counted against the table's
    cell cap before either is allocated.
    """
    scheme = table.spec._scheme
    _check_payoff_alphabets(payoff, scheme)
    n, cap = table.spec.n, table.cell_cap
    j = scheme.nx * scheme.ny2 * scheme.ny3
    coords, m_cells = table._coords, math.prod(table.shape[1:5])
    m = np.ravel_multi_index(coords[1:5], table.shape[1:5])
    triples = [np.ravel_multi_index(coords[5 + t::n], (scheme.nx, scheme.ny2, scheme.ny3))
               for t in range(n)]
    fan = np.count_nonzero(scheme.disclosure, axis=1)
    total = 0.0
    for t in range(n):
        shape = (m_cells,) + (j,) * (t + 1)
        keys, mass = _group_sum(np.ravel_multi_index((m, *triples[:t + 1]), shape), table.values)
        group = np.unravel_index(keys, shape)
        reps = np.ones(keys.size, dtype=np.int64)
        for prefix in group[1:-1]:
            reps *= fan[prefix]
        _check_cap(int(reps.sum()), "payoff fan-out", cap)
        cells, history = np.arange(keys.size), group[0]
        for prefix in group[1:-1]:
            cell, w = _paired(prefix[cells], scheme.disclosure)
            cells, history = cells[cell], history[cell] * scheme.n_w + w
            mass = mass[cell] * scheme.disclosure[prefix[cells], w]
        keys, mass = _group_sum(history * j + group[-1][cells], mass)
        row_keys, row = np.unique(keys // j, return_inverse=True)
        _check_cap(row_keys.size * j, "payoff rows", cap)
        rows = np.zeros((row_keys.size, j))
        rows[row, keys % j] = mass
        total += float(_row_values(rows, payoff, scheme).sum())
    return total / n


def _check_payoff_alphabets(payoff, scheme: _Scheme) -> None:
    if isinstance(payoff, LogLossPayoff):
        return
    want = (scheme.nx, scheme.ny2, scheme.ny3)
    got = tuple(a.size for a in (payoff.x_alphabet, payoff.y2_alphabet, payoff.y3_alphabet))
    if want != got:
        raise ValueError(f"payoff alphabets {got} do not match the scheme's {want}")


def empirical_equivocation(table: SystemTable, secret_set) -> float:
    """Exact per-symbol equivocation (1/n) H(S^n | messages)."""
    roles = LogLossPayoff(tuple(secret_set)).secret_set
    n = table.spec.n
    messages = ("Ma", "Mb", "Mc", "Md")
    secret = tuple(f"{prefix}{t + 1}" for role, prefix in (("X", "X"), ("Y2", "Y2_"), ("Y3", "Y3_"))
                   if role in roles for t in range(n))
    h_sm, h_m = (_entropy_of(table.sums(names)[1]) for names in (messages + secret, messages))
    return (h_sm - h_m) / n


class _PosteriorEngine:
    """Exact adversary posteriors for one codebook set, a batch at a time.

    The encoder table is enumerated once, as its nonzero cells.  Given a
    batch of messages and disclosure prefixes, one forward sweep over the
    stored (k, m, x^n) cells of every history at once folds each disclosed
    signal's likelihood into the cells' weights and reads off the posterior
    of every time on the way, so a batch of histories of length n costs n
    steps.  Emissions are read from the nonzero cells of the (y2, y3) law of
    each (v1, v2) codeword pair.  Each step forms the margins over x^n
    first, then adds the keys in ascending order: the additions of numpy's
    sums over a dense (history, k, x^n) sweep, less those of exact zeros.
    So a margin adds each block of later symbols pairwise, as numpy does
    (``_pairwise_sums``), then the blocks in order of the earlier symbols,
    and every posterior is the dense sweep's float.  The Monte Carlo
    estimator, its trace and ``history_posterior`` share it.
    """

    def __init__(self, cb: CodebookSet):
        self.cb = cb
        self.scheme = cb.spec._scheme
        self.n = cb.spec.n
        self.n_k = cb.spec.index_bits.sizes[4]
        self.m_shape = cb.v1.shape[:4]
        self.enc = _kept(cb, "_encoder", lambda: _encoder_table(self.scheme, cb))
        self.row_count = np.bincount(self.enc[0], minlength=self.n_k * math.prod(self.m_shape))
        # the (y2, y3) law of each (v1, v2) codeword pair
        s = self.scheme
        self.pair_law = (s.y2_of_v1[:, None, :, None] * s.y3_of_v2[None, :, None, :]).reshape(
            s.nv1 * s.nv2, -1)

    def posteriors(self, m: np.ndarray, w_prefix: np.ndarray, first: int = 0) -> np.ndarray:
        """Normalized posteriors over the triple, shape (S, T + 1, |X||Y2||Y3|).

        ``m`` is (S, 4) message tuples and ``w_prefix`` (S, T) disclosed
        signals, T < n; row s, t conditions on m[s] and w_prefix[s, :t].
        A history of zero probability raises, named as sample ``first + s``.
        """
        scheme = self.scheme
        n, n_k, nx = self.n, self.n_k, self.scheme.nx
        m = np.asarray(m, dtype=np.intp).reshape(-1, 4)
        w_prefix = np.asarray(w_prefix, dtype=np.intp).reshape(len(m), -1)
        steps = w_prefix.shape[1] + 1
        if steps > n:
            raise ValueError("disclosure prefix must be shorter than the block")
        j = scheme.ny2 * scheme.ny3
        d = scheme.disclosure.reshape(nx, j, scheme.n_w)
        ma, mb, mc, md = m.T
        # the (v1, v2) codeword pair of every (history, key) pair hk = s * K + k and time
        pairs = (self.cb.v1[ma, mb, mc, md] * scheme.nv2 + self.cb.v2[ma, mb]).reshape(-1, n)
        m_flat = np.ravel_multi_index(m.T, self.m_shape)
        rows = np.arange(n_k) * math.prod(self.m_shape) + m_flat[:, None]
        hk, at = _fan(rows.ravel(), self.row_count)
        x, w = self.enc[1][at], self.enc[2][at]
        out = np.empty((len(m), steps, nx * j))
        for t in range(steps):
            if t:
                # per-cell likelihood of the time-(t-1) signal, added over the
                # emitted (y2, y3) pairs in order as a dense sum over all pairs does
                cell, pair = _paired(pairs[hk, t - 1], self.pair_law)
                like = (d[x[cell] // nx ** (n - t) % nx, pair, w_prefix[hk[cell] // n_k, t - 1]]
                        * self.pair_law[pairs[hk[cell], t - 1], pair])
                w = w * np.bincount(cell, weights=like, minlength=x.size)
            # a dense sum over the other times adds each block of later
            # symbols pairwise, then the blocks in order of the earlier ones
            later = nx ** (n - 1 - t)
            block, sums = _pairwise_sums(hk * nx ** (t + 1) + x // later, x % later, w, later)
            margin = np.bincount(block // nx ** (t + 1) * nx + block % nx, weights=sums,
                                 minlength=len(m) * n_k * nx)
            # each (hk, x_t) margin times its emitted pairs, the keys added in order
            g = np.flatnonzero(margin)
            cell, pair = _paired(pairs[g // nx, t], self.pair_law)
            g = g[cell]
            out[:, t] = np.bincount(
                (g // nx // n_k * nx + g % nx) * j + pair,
                weights=margin[g] * self.pair_law[pairs[g // nx, t], pair],
                minlength=len(m) * nx * j,
            ).reshape(len(m), -1)
        total = out.sum(axis=2)
        bad = total <= 0.0
        if bad.any():
            s = int(np.argmax(bad.any(axis=1)))
            t = int(np.argmax(bad[s]))
            raise ZeroProbabilityError(
                f"sample {first + s}: history with message {tuple(m[s].tolist())} and"
                f" disclosure prefix {tuple(w_prefix[s, :t].tolist())} has zero probability"
            )
        out /= total[..., None]
        return out


def history_posterior(cb: CodebookSet, m, w_prefix) -> np.ndarray:
    """Exact posterior of the current (x, y2, y3) triple given a history.

    ``m`` is the message tuple, ``w_prefix`` the disclosed signals of
    earlier times; the result is the flat posterior the adversary best-
    responds to at time len(w_prefix) + 1.
    """
    m = tuple(m)
    if len(m) != 4:
        raise ValueError("message must be a 4-tuple of indices")
    sizes = cb.spec.index_bits.sizes
    m = tuple(_validated_index(i, size, f"message index {name}")
              for i, size, name in zip(m, sizes, ("Ma", "Mb", "Mc", "Md")))
    n_w = cb.spec._scheme.n_w
    w_prefix = [_validated_index(w, n_w, "w_prefix entry") for w in w_prefix]
    return _PosteriorEngine(cb).posteriors([m], [w_prefix])[0, -1]


def mc_estimate(
    spec: SchemeSpec,
    payoff,
    samples: int,
    seed: int,
    *,
    trace=None,
) -> tuple[float, float]:
    """Monte Carlo payoff estimate with its CLT standard error.

    Histories are sampled; each history is scored against its exact
    posterior, so the only noise is the outer expectation.  Each sample
    draws 2 + 4n uniforms from its own stream, so the result depends on
    the seed alone.  ``seed`` must be an integer in [0, 2**64) and ``samples``
    one >= 2, else ``ValueError`` comes before any codebook is built.  The
    uniforms of a sample are used in a fixed order: key, source symbols,
    encoder index, node-2 actions, node-3 actions, disclosed signals; one
    generator reads a chunk's rows (``uniform_rows``).  Every stage runs on
    whole arrays of samples, in chunks of min(Ma*Mb*Mc*Md, K*|X|^n) samples.
    A chunk's encoder cells at its (k, x^n) are scattered into its
    (sample, m) message rows, the one dense per-chunk array, and drawn from;
    by the chunk rule those rows hold no more cells than the dense encoder
    table the cell cap counts.  The posteriors sweep stored cells only.
    """
    seed = _checked_seed(seed)
    samples = _count(samples, "samples", 2)  # a standard error needs two
    engine = _PosteriorEngine(_kept(spec, "_codebooks", lambda: build_codebooks(spec), weak=True))
    scheme, cb, n_k = engine.scheme, engine.cb, engine.n_k
    _check_payoff_alphabets(payoff, scheme)
    n, m_shape = spec.n, engine.m_shape
    m_cells, n_x = math.prod(m_shape), scheme.nx**n
    chunk = min(m_cells, n_k * n_x)
    km, x, prior = engine.enc
    key_x = km // m_cells * n_x + x
    by_key_x = np.argsort(key_x, kind="stable")  # each (k, x^n)'s cells in m order
    key_x_count = np.bincount(key_x, minlength=n_k * n_x)
    key_cdf = _cdf(np.full(n_k, 1.0 / n_k))
    x_cdf, y2_cdf, y3_cdf, w_cdf = (
        _cdf(rows) for rows in (scheme.p_x, scheme.y2_of_v1, scheme.y3_of_v2, scheme.disclosure)
    )
    values, rows = [], []
    for first in range(0, samples, chunk):
        count = min(chunk, samples - first)
        u = uniform_rows(seed, STREAM_SAMPLE, first, count, 2 + 4 * n)
        k = symbols(key_cdf, u[:, 0])
        x_seq = symbols(x_cdf, u[:, 1:1 + n])
        # the (k, x^n) cells scattered into (sample, m) rows are prior * encoder;
        # normalized they are the encoder conditional of the messages, freed
        # before the posterior sweep
        cell, at = _fan(k * n_x + np.ravel_multi_index(x_seq.T, (scheme.nx,) * n), key_x_count)
        weights = np.zeros((count, m_cells))
        weights[cell, km[by_key_x[at]] % m_cells] = prior[by_key_x[at]]
        weights /= weights.sum(axis=1, keepdims=True)
        m_flat = symbols(_cdf(weights), u[:, 1 + n])
        del weights
        ma, mb, mc, md = np.unravel_index(m_flat, m_shape)
        y2_seq = symbols(y2_cdf[cb.v1[ma, mb, mc, md, k]], u[:, 2 + n:2 + 2 * n])
        y3_seq = symbols(y3_cdf[cb.v2[ma, mb, k]], u[:, 2 + 2 * n:2 + 3 * n])
        triples = np.ravel_multi_index((x_seq, y2_seq, y3_seq), (scheme.nx, scheme.ny2, scheme.ny3))
        w_seq = symbols(w_cdf[triples], u[:, 2 + 3 * n:])
        m = np.stack((ma, mb, mc, md), axis=1)
        post = engine.posteriors(m, w_seq[:, :-1], first)
        v = _row_values(post.reshape(count * n, -1), payoff, scheme).reshape(count, n)
        values.append(sum(v.T) / n)  # each sample's times added left to right
        if trace is not None:
            rows += _trace_rows(first, m, w_seq, post, v, payoff)

    if trace is not None:
        _write_trace(trace, rows)
    values = np.concatenate(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(samples))
    return mean, se


def _trace_rows(first: int, m: np.ndarray, w_seq: np.ndarray, post: np.ndarray, v, payoff):
    """CSV rows of a chunk, one per (sample, time): the history, the
    posterior's entropy, the adversary's action and its payoff."""
    log_loss = isinstance(payoff, LogLossPayoff)
    z = None if log_loss else np.argmin(_batched_values(post, payoff), axis=-1)
    rows = []
    for s, (msg, ws) in enumerate(zip(m.tolist(), w_seq.tolist())):
        for t in range(post.shape[1]):
            history = ":".join(map(str, msg)) + ("|" + ",".join(map(str, ws[:t])) if t else "")
            action = "posterior" if log_loss else payoff.z_alphabet.label(int(z[s, t]))
            rows.append([first + s, t + 1, history, round(_entropy_of(post[s, t]), 12),
                         action, float(v[s, t])])
    return rows


def _write_trace(trace, rows) -> None:
    if not hasattr(trace, "write"):
        with open(trace, "w", encoding="utf-8", newline="") as fh:
            return _write_trace(fh, rows)
    writer = csv.writer(trace, lineterminator="\n")
    writer.writerow(["sample", "t", "history", "posterior_entropy", "action", "payoff"])
    writer.writerows(rows)


def scheme_spec_to_json(spec: SchemeSpec) -> dict:
    return {
        "n": spec.n,
        "inner": candidate_to_json(spec.inner),
        "index_bits": asdict(spec.index_bits),
        "side": side_info_to_json(spec.side),
        "seed": spec.seed,
        "epsilon": spec.epsilon,
    }


def scheme_spec_from_json(obj) -> SchemeSpec:
    bits = obj["index_bits"]
    return SchemeSpec(
        n=obj["n"],
        inner=inner_candidate_from_json(obj["inner"]),
        index_bits=IndexBits(**{tag: bits[tag] for tag in ("a", "b", "c", "d", "key")}),
        side=side_info_from_json(obj["side"]),
        seed=obj.get("seed", 0),
        epsilon=obj.get("epsilon", DEFAULT_EPSILON),
    )
