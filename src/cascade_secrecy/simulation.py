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
from functools import cached_property

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
    JointDistribution,
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


def _memoryless(rows: np.ndarray) -> np.ndarray:
    """Product law of per-time rows: lead + (n, |Y|) becomes lead + (|Y|,)*n.

    Time t's row goes on output axis t; the factors multiply in time
    order, so every cell is the same float the scalar product gives.
    """
    lead, n, size = rows.shape[:-2], rows.shape[-2], rows.shape[-1]
    out = np.ones(lead + (size,) * n)
    for t in range(n):
        shape = lead + tuple(size if s == t else 1 for s in range(n))
        out = out * rows[..., t, :].reshape(shape)
    return out


def _encoder_weights(scheme: _Scheme, cb: CodebookSet, k: int) -> np.ndarray:
    """Unnormalized likelihood of every (m, x^n) cell at key value k.

    Shape (Ma, Mb, Mc, Md) + (|X|,)*n.
    """
    v1k = cb.v1[..., k, :]
    v2k = np.broadcast_to(cb.v2[:, :, None, None, k, :], v1k.shape)
    return _memoryless(scheme.x_of_v1v2[v1k, v2k])


def _encoder_table(
    scheme: _Scheme, cb: CodebookSet, cell_cap: int = DEFAULT_CELL_CAP
) -> np.ndarray:
    """P(k) P(x^n) P(m | x^n, k) for every cell (k, m, x^n).

    Shape (K, Ma, Mb, Mc, Md) + (|X|,)*n.  The cell cap is checked before
    anything of size |X|^n is allocated; a source sequence that no
    codeword covers at some key is named in the error.
    """
    n = cb.spec.n
    m_a, m_b, m_c, m_d, n_k = cb.spec.index_bits.sizes
    m_cells = m_a * m_b * m_c * m_d
    _check_cap(n_k * m_cells * scheme.nx**n, "encoder table", cell_cap)
    px_block = _memoryless(np.broadcast_to(scheme.p_x, (n, scheme.nx)))
    enc = np.empty((n_k, m_a, m_b, m_c, m_d) + (scheme.nx,) * n)
    for k in range(n_k):
        weights = _encoder_weights(scheme, cb, k)
        denom = weights.reshape(m_cells, -1).sum(axis=0).reshape((scheme.nx,) * n)
        if float(denom.min()) <= 0.0:
            x_seq = np.unravel_index(int(np.argmax(denom <= 0.0)), denom.shape)
            raise ZeroProbabilityError(
                f"source sequence x^n={tuple(int(x) for x in x_seq)} has no codeword"
                f" at key {k}"
            )
        enc[k] = (px_block / n_k) * (weights / denom)
    enc.setflags(write=False)
    return enc


def encoder_distribution(x_seq, k: int, cb: CodebookSet) -> np.ndarray:
    """Exact conditional distribution of the index tuple given (x^n, k)."""
    scheme = cb.spec._scheme
    x_seq = list(x_seq)
    if len(x_seq) != cb.spec.n:
        raise ValueError(f"x_seq must be a length-{cb.spec.n} sequence")
    x_seq = tuple(_validated_index(x, scheme.nx, "x_seq entry") for x in x_seq)
    k = _validated_index(k, cb.v2.shape[2], "key value")
    weights = _encoder_weights(scheme, cb, k)[(...,) + x_seq]
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
    the exact payoff and the equivocation read everything from it, and
    ``marginal`` is its dense view.  ``table`` is the dense joint, built on
    first access under ``cell_cap``; ``to_joint`` shares it.
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
        """Shape of the dense table."""
        return tuple(a.size for _, a in self._variables)

    @cached_property
    def table(self) -> np.ndarray:
        """The dense table, zeros included."""
        _check_cap(math.prod(self.shape), "dense system table", self.cell_cap)
        dense = np.zeros(self.shape)
        np.put(dense, self.index, self.values)
        dense.setflags(write=False)
        return dense

    def to_joint(self) -> JointDistribution:
        return JointDistribution(self._variables, self.table)

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
        """Per-axis coordinates of the stored cells."""
        return np.unravel_index(self.index, self.shape)

    def marginal(self, names) -> JointDistribution:
        """Dense view of ``sums(names)``, axes in table order."""
        variables = tuple(v for v in self._variables if v[0] in names)
        flat, mass = self.sums(names)
        table = np.zeros([a.size for _, a in variables])
        np.put(table, flat, mass)
        table.setflags(write=False)
        return JointDistribution(variables, table)


def _group_sum(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``keys``, ascending, and the ``values`` of each added in order."""
    groups, inverse = np.unique(keys, return_inverse=True)
    return groups, np.bincount(inverse, weights=values, minlength=groups.size)


def _paired(rows: np.ndarray, law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell i, whose row of the 2-D ``law`` is ``rows[i]``, once per nonzero
    column of that row: (cell, column), cells in order, columns ascending."""
    law_rows, cols = np.nonzero(law)
    count = np.bincount(law_rows, minlength=law.shape[0])
    reps = count[rows]
    cell = np.repeat(np.arange(rows.size), reps)
    at = np.arange(cell.size) - np.repeat(np.cumsum(reps) - reps, reps)
    return cell, cols[(np.cumsum(count) - count)[rows[cell]] + at]


def run_system_exact(spec: SchemeSpec, *, cell_cap: int = DEFAULT_CELL_CAP) -> SystemTable:
    """Enumerate the nonzero cells of the system joint for one codebook draw.

    A cell is nonzero exactly where the encoder table, the y2 law of its
    (k, m) and the y3 law of its (k, Ma, Mb) all are; it is built from
    those three supports as (prior * y2) * y3, the float a dense product
    gives.  The cell cap counts stored cells and is checked before they
    are allocated, and it bounds the codebooks and encoder table, kept or not.
    """
    scheme = spec._scheme
    n = spec.n
    m_a, m_b, m_c, m_d, n_k = spec.index_bits.sizes
    rows = n_k * m_a * m_b * m_c * m_d
    _check_codebook_cells(spec, cell_cap)
    _check_cap(rows * scheme.nx**n, "encoder table", cell_cap)
    cb = _kept(spec, "_codebooks", lambda: build_codebooks(spec, cell_cap=cell_cap), weak=True)
    enc = _kept(cb, "_encoder", lambda: _encoder_table(scheme, cb, cell_cap)).reshape(rows, -1)
    # per-codeword emission laws, one row per (k, m) or per (k, Ma, Mb)
    y2 = np.moveaxis(_memoryless(scheme.y2_of_v1[cb.v1]), 4, 0).reshape(rows, -1)
    y3 = np.moveaxis(_memoryless(scheme.y3_of_v2[cb.v2]), 2, 0).reshape(rows // (m_c * m_d), -1)
    km, x = np.nonzero(enc)
    need = int((np.count_nonzero(y2, axis=1)[km]
                * np.count_nonzero(y3, axis=1)[km // (m_c * m_d)]).sum())
    if need > cell_cap:
        raise CapExceededError(f"system table stores {need} cells, cap is {cell_cap}")

    cell, y2_sym = _paired(km, y2)
    km, x = km[cell], x[cell]
    values = enc[km, x] * y2[km, y2_sym]
    cell, y3_sym = _paired(km // (m_c * m_d), y3)
    km, x, y2_sym = km[cell], x[cell], y2_sym[cell]
    values = values[cell] * y3[km // (m_c * m_d), y3_sym]
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

    The encoder table is enumerated once.  Given a batch of messages and
    disclosure prefixes, one forward sweep over all histories and keys at
    once folds each disclosed signal's per-x likelihood into the
    (history, k, x^n) weights and reads off the posterior of every time
    on the way, so a batch of histories of length n costs n steps.  The
    Monte Carlo estimator, its trace and ``history_posterior`` share it.
    """

    def __init__(self, cb: CodebookSet):
        self.cb = cb
        self.scheme = cb.spec._scheme
        self.n = cb.spec.n
        self.n_k = cb.spec.index_bits.sizes[4]
        self.enc = _kept(cb, "_encoder", lambda: _encoder_table(self.scheme, cb))

    def posteriors(self, m: np.ndarray, w_prefix: np.ndarray, first: int = 0) -> np.ndarray:
        """Normalized posteriors over the triple, shape (S, T + 1, |X||Y2||Y3|).

        ``m`` is (S, 4) message tuples and ``w_prefix`` (S, T) disclosed
        signals, T < n; row s, t conditions on m[s] and w_prefix[s, :t].
        A history of zero probability raises, named as sample ``first + s``.
        """
        scheme = self.scheme
        n, n_k = self.n, self.n_k
        m = np.asarray(m, dtype=np.intp).reshape(-1, 4)
        w_prefix = np.asarray(w_prefix, dtype=np.intp).reshape(len(m), -1)
        steps = w_prefix.shape[1] + 1
        if steps > n:
            raise ValueError("disclosure prefix must be shorter than the block")
        j = scheme.ny2 * scheme.ny3
        d = scheme.disclosure.reshape(scheme.nx, j, scheme.n_w)
        ma, mb, mc, md = m.T
        # per-history, per-key, per-time emission of the (y2, y3) pair: (S, K, n, J)
        emit = (
            scheme.y2_of_v1[self.cb.v1[ma, mb, mc, md]][..., :, None]
            * scheme.y3_of_v2[self.cb.v2[ma, mb]][..., None, :]
        ).reshape(len(m), n_k, n, j)
        w = np.moveaxis(self.enc[:, ma, mb, mc, md], 0, 1)
        out = np.empty((len(m), steps, scheme.nx * j))
        for t in range(steps):
            if t:
                # per-x disclosure likelihood of the time-(t-1) signal,
                # summed over the (y2, y3) pairs in order as matmul adds them
                dw = d[:, :, w_prefix[:, t - 1]].transpose(2, 1, 0)[:, :, None, :]
                f = np.zeros((len(m), n_k, scheme.nx))
                for pair in range(j):
                    f += dw[:, pair] * emit[:, :, t - 1, pair, None]
                at = tuple(scheme.nx if r == t - 1 else 1 for r in range(n))
                w = w * f.reshape(f.shape[:2] + at)
            margin = w.sum(axis=tuple(2 + r for r in range(n) if r != t))
            post = margin[..., None] * emit[:, :, t, None, :]
            out[:, t] = post.reshape(len(m), n_k, -1).sum(axis=1)
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
    encoder index, node-2 actions, node-3 actions, disclosed signals.  Every
    stage runs on whole arrays of samples, in chunks of min(Ma*Mb*Mc*Md,
    K*|X|^n) samples, so neither a chunk's (sample, k, x^n) weights nor its
    (sample, m) message rows hold more cells than the encoder table.
    """
    seed = _checked_seed(seed)
    samples = _count(samples, "samples", 2)  # a standard error needs two
    engine = _PosteriorEngine(_kept(spec, "_codebooks", lambda: build_codebooks(spec), weak=True))
    scheme, cb, n_k = engine.scheme, engine.cb, engine.n_k
    _check_payoff_alphabets(payoff, scheme)
    n = spec.n
    m_shape = cb.v1.shape[:4]
    enc = engine.enc.reshape((n_k, math.prod(m_shape), -1))
    chunk = min(enc.shape[1], n_k * enc.shape[2])
    key_cdf = _cdf(np.full(n_k, 1.0 / n_k))
    x_cdf, y2_cdf, y3_cdf, w_cdf = (
        _cdf(rows) for rows in (scheme.p_x, scheme.y2_of_v1, scheme.y3_of_v2, scheme.disclosure)
    )
    values, rows = [], []
    for first in range(0, samples, chunk):
        count = min(chunk, samples - first)
        u = np.array([stream(seed, STREAM_SAMPLE, row=s).random(2 + 4 * n)
                      for s in range(first, first + count)])
        k = symbols(key_cdf, u[:, 0])
        x_seq = symbols(x_cdf, u[:, 1:1 + n])
        # enc[k, :, x^n] is prior * encoder; normalized it is the encoder
        # conditional of the messages, freed before the posterior sweep
        weights = enc[k, :, np.ravel_multi_index(x_seq.T, (scheme.nx,) * n)]
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
