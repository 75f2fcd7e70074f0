"""Exact probability calculus on finite alphabets.

Distributions are dense float64 tensors with one axis per named variable,
always in row-major (C) layout.  All information measures are in bits
(base-2 logarithms) and use the convention 0 log 0 = 0.  A measure reads
each group of variables as a set of names: a repeated name counts once,
and groups may share variables, as nested auxiliaries do.  Every type is a
frozen dataclass whose array payload is read-only (copied on construction
unless it already is a frozen float64 array), so instances can be shared
freely; all operations are pure functions returning new objects.

Tensor growth (joint tables, products, channel attachment) is guarded by
a cell cap of ``DEFAULT_CELL_CAP`` cells, checked before the table is
built, so an over-ambitious construction fails with
:class:`CapExceededError` ("factor product needs N cells, cap is C")
instead of exhausting memory.  ``_check_cap`` is the one check: the
simulation passes it its own, smaller cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DEFAULT_CELL_CAP",
    "PROB_SUM_TOL",
    "CapExceededError",
    "ZeroProbabilityError",
    "Alphabet",
    "Pmf",
    "Channel",
    "JointDistribution",
    "product_alphabet",
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "marginalize",
    "condition",
    "attach_channel",
    "is_markov",
    "is_deterministic",
    "from_factors",
    "pmf_to_json",
    "pmf_from_json",
    "channel_to_json",
    "channel_from_json",
    "joint_to_json",
    "joint_from_json",
]

#: Hard ceiling on dense table sizes (number of cells): the default cap of
#: :func:`_check_cap`, bound when this module is imported.
DEFAULT_CELL_CAP = 100_000_000

#: Absolute tolerance for "probabilities sum to one" validation.
PROB_SUM_TOL = 1e-12

#: Negative values of entropy-like quantities beyond this magnitude
#: indicate a genuine bug rather than float rounding and raise; smaller
#: ones are clamped to zero.
_NEG_ROUNDING_TOL = 1e-10


class CapExceededError(ValueError):
    """A construction would allocate more cells than the configured cap."""


class ZeroProbabilityError(ValueError):
    """Conditioning on an event of probability zero."""


def _check_cap(need: int, what: str, cap: int = DEFAULT_CELL_CAP) -> None:
    """Raise :class:`CapExceededError` naming ``what`` when ``need`` cells exceed ``cap``."""
    if need > cap:
        raise CapExceededError(f"{what} needs {need} cells, cap is {cap}")


def _frozen_array(values, shape=None) -> np.ndarray:
    """A read-only float64 copy of ``values``, or ``values`` itself when it
    is already frozen: a float64 ndarray that owns its data and is not
    writable, so no caller can reach it to mutate it."""
    frozen = (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
    )
    arr = values if frozen else np.array(values, dtype=np.float64)
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"expected array of shape {tuple(shape)}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Alphabet:
    """A named finite symbol set.

    Symbols are the indices ``0 .. size-1``; ``labels`` optionally gives
    them display names (distinct, one per symbol).
    """

    name: str
    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alphabet name must be non-empty")
        if self.size < 1:
            raise ValueError(f"alphabet {self.name!r} must have size >= 1")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
            if len(self.labels) != self.size:
                raise ValueError(
                    f"alphabet {self.name!r}: {len(self.labels)} labels for "
                    f"{self.size} symbols"
                )
            if len(set(self.labels)) != self.size:
                raise ValueError(f"alphabet {self.name!r}: labels must be distinct")

    def label(self, symbol: int) -> str:
        if not 0 <= symbol < self.size:
            raise ValueError(f"symbol {symbol} out of range for alphabet {self.name!r}")
        return self.labels[symbol] if self.labels is not None else str(symbol)

    def index_of(self, label) -> int:
        """Map a label (or an in-range integer) back to its symbol index."""
        if isinstance(label, (int, np.integer)):
            i = int(label)
            if not 0 <= i < self.size:
                raise ValueError(f"symbol {i} out of range for alphabet {self.name!r}")
            return i
        if self.labels is None:
            raise ValueError(f"alphabet {self.name!r} has no labels to look up {label!r}")
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise ValueError(f"label {label!r} not in alphabet {self.name!r}") from None


def product_alphabet(name: str, *parts: Alphabet) -> Alphabet:
    """Cartesian product alphabet, indexed row-major over ``parts``.

    The flat symbol for component symbols ``(i_1, .., i_k)`` is
    ``numpy.ravel_multi_index`` in C order, and labels join the component
    labels with ``|``.
    """
    if not parts:
        raise ValueError("product alphabet needs at least one component")
    size = math.prod(p.size for p in parts)
    labels = []
    for flat in range(size):
        idx = np.unravel_index(flat, tuple(p.size for p in parts))
        labels.append("|".join(p.label(int(i)) for p, i in zip(parts, idx)))
    return Alphabet(name, size, tuple(labels))


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over one alphabet."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.probs, shape=(self.alphabet.size,))
        if (arr < 0).any():
            raise ValueError(f"pmf over {self.alphabet.name!r} has negative entries")
        if abs(arr.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(
                f"pmf over {self.alphabet.name!r} sums to {arr.sum()!r}, not 1"
            )
        object.__setattr__(self, "probs", arr)

    @staticmethod
    def uniform(alphabet: Alphabet) -> "Pmf":
        return Pmf(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))


@dataclass(frozen=True)
class Channel:
    """Conditional distribution of one output variable given input variables.

    ``rows`` has shape ``(*input sizes, output size)``; each row (slice over
    the last axis) is a pmf.
    """

    input_alphabets: tuple[Alphabet, ...]
    output_alphabet: Alphabet
    rows: np.ndarray

    def __post_init__(self) -> None:
        inputs = tuple(self.input_alphabets)
        object.__setattr__(self, "input_alphabets", inputs)
        if not inputs:
            raise ValueError("channel needs at least one input alphabet")
        shape = tuple(a.size for a in inputs) + (self.output_alphabet.size,)
        arr = _frozen_array(self.rows, shape=shape)
        if (arr < 0).any():
            raise ValueError("channel rows have negative entries")
        sums = arr.sum(axis=-1)
        if np.abs(sums - 1.0).max() > PROB_SUM_TOL:
            raise ValueError("every channel row must sum to 1")
        object.__setattr__(self, "rows", arr)

    @staticmethod
    def identity(alphabet: Alphabet, output_name: str | None = None) -> "Channel":
        """Noiseless copy of a single input."""
        out = Alphabet(output_name or f"{alphabet.name}_copy", alphabet.size, alphabet.labels)
        return Channel((alphabet,), out, np.eye(alphabet.size))

    @staticmethod
    def constant(input_alphabets: Sequence[Alphabet], output_pmf: Pmf) -> "Channel":
        """Output drawn from ``output_pmf`` regardless of the input."""
        inputs = tuple(input_alphabets)
        shape = tuple(a.size for a in inputs) + (output_pmf.alphabet.size,)
        rows = np.broadcast_to(output_pmf.probs, shape)
        return Channel(inputs, output_pmf.alphabet, np.array(rows))


@dataclass(frozen=True)
class JointDistribution:
    """Joint law of named variables as one dense tensor.

    ``variables`` pairs each name with its alphabet, in axis order; ``table``
    has the matching shape and sums to one.
    """

    variables: tuple[tuple[str, Alphabet], ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        variables = tuple((str(n), a) for n, a in self.variables)
        object.__setattr__(self, "variables", variables)
        names = [n for n, _ in variables]
        if not names:
            raise ValueError("joint distribution needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        shape = tuple(a.size for _, a in variables)
        _check_cap(math.prod(shape), "joint distribution table")
        arr = _frozen_array(self.table, shape=shape)
        if (arr < 0).any():
            raise ValueError("joint table has negative entries")
        if abs(arr.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"joint table sums to {arr.sum()!r}, not 1")
        object.__setattr__(self, "table", arr)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.variables)

    def alphabet(self, name: str) -> Alphabet:
        for n, a in self.variables:
            if n == name:
                return a
        raise ValueError(f"unknown variable {name!r}; have {self.names}")

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.variables):
            if n == name:
                return i
        raise ValueError(f"unknown variable {name!r}; have {self.names}")


def _as_names(dist: JointDistribution, vars: str | Iterable[str]) -> tuple[str, ...]:
    """The known names a variable spec lists, each once, in first-seen order."""
    names = tuple(dict.fromkeys((vars,) if isinstance(vars, str) else vars))
    for n in names:
        dist.axis(n)  # raises on unknown names
    return names


def _marginal_table(dist: JointDistribution, keep: tuple[str, ...]) -> np.ndarray:
    """Marginal over ``keep`` (in original axis order), as a bare array."""
    drop = tuple(i for i, (n, _) in enumerate(dist.variables) if n not in keep)
    return dist.table.sum(axis=drop) if drop else dist.table


def _entropy_of(table: np.ndarray) -> float:
    p = table[table > 0.0]
    return float(-(p * np.log2(p)).sum()) if p.size else 0.0


def _entropies(tables: np.ndarray) -> np.ndarray:
    """Entropy in bits of each table of a stack, bit for bit what
    :func:`_entropy_of` gives it alone: the tables with k positive cells
    are summed as one (rows, k) array of those cells, in order."""
    if len(tables) == 1:  # a stack of one, as in every refiner step
        return np.array([_entropy_of(tables)])
    t = tables.reshape(len(tables), -1)
    positive = t > 0.0
    count = positive.sum(axis=1)
    out = np.zeros(len(t))
    for k in set(count.tolist()) - {0}:
        rows = count == k
        p = t[rows][positive[rows]].reshape(-1, k)
        out[rows] = -(p * np.log2(p)).sum(axis=1)
    return out


def _grouped(joint: JointDistribution, *groups: tuple[str, ...]) -> np.ndarray:
    """Joint probability table over flattened role groups (row-major), one
    axis per group; an empty group is an axis of size one.

    Groups may share variables; cells where shared variables disagree
    get zero mass, which is exactly the joint's own statement.
    """
    names: list[str] = []
    for g in groups:
        for n in g:
            if n not in names:
                names.append(n)
    axis_of = {n: i for i, n in enumerate(names)}
    drop = tuple(i for i, (nm, _) in enumerate(joint.variables) if nm not in axis_of)
    marg = joint.table.sum(axis=drop) if drop else joint.table
    present = [nm for nm, _ in joint.variables if nm in axis_of]
    marg = np.transpose(marg, [present.index(nm) for nm in names])
    grids = np.indices(marg.shape)
    out = np.zeros(tuple(math.prod(joint.alphabet(n).size for n in g) for g in groups))
    flat = tuple(
        np.ravel_multi_index(
            [grids[axis_of[n]] for n in g], tuple(joint.alphabet(n).size for n in g)
        ).ravel()
        for g in groups
    )
    np.add.at(out, flat, marg.ravel())
    return out


def _clamped(value: float) -> float:
    """Clamp tiny negative float residue of provably nonnegative quantities."""
    if value < -_NEG_ROUNDING_TOL:
        raise ValueError(f"nonnegative quantity is {value!r}, below float rounding")
    return 0.0 if value < 0.0 else value


def entropy(dist: JointDistribution, targets: str | Iterable[str]) -> float:
    """H(targets) in bits; a repeated name counts once."""
    names = _as_names(dist, targets)
    if not names:
        return 0.0
    return _entropy_of(_marginal_table(dist, names))


def conditional_entropy(
    dist: JointDistribution,
    targets: str | Iterable[str],
    given: str | Iterable[str] = (),
) -> float:
    """H(targets | given) = H(targets ∪ given) - H(given) in bits; the groups
    may share variables, and the value is exactly 0 when ``given`` holds
    every target."""
    t = _as_names(dist, targets)
    g = _as_names(dist, given)
    if set(t) <= set(g):
        return 0.0
    joint = entropy(dist, t + g)
    return _clamped(joint - entropy(dist, g)) if g else joint


def mutual_information(
    dist: JointDistribution,
    a: str | Iterable[str],
    b: str | Iterable[str],
) -> float:
    """I(a ; b) in bits, clamped to zero against float rounding; a and b may overlap."""
    return conditional_mutual_information(dist, a, b, ())


def conditional_mutual_information(
    dist: JointDistribution,
    a: str | Iterable[str],
    b: str | Iterable[str],
    given: str | Iterable[str] = (),
) -> float:
    """I(a ; b | given) in bits.

    The three groups are sets of names and may share variables.  The
    value is H(a ∪ given) + H(b ∪ given) - H(a ∪ b ∪ given) - H(given),
    exactly 0 when ``given`` holds all of ``a`` or all of ``b``; float
    residue down to -1e-10 is rounding and comes back as exactly 0.
    """
    an, bn, gn = (_as_names(dist, group) for group in (a, b, given))
    if set(an) <= set(gn) or set(bn) <= set(gn):
        return 0.0
    value = (
        entropy(dist, an + gn)
        + entropy(dist, bn + gn)
        - entropy(dist, an + bn + gn)
        - entropy(dist, gn)
    )
    return _clamped(value)


def marginalize(dist: JointDistribution, keep: str | Iterable[str]) -> JointDistribution:
    """Marginal joint over ``keep``, axes in their original order."""
    names = _as_names(dist, keep)
    if not names:
        raise ValueError("must keep at least one variable")
    ordered = tuple(v for v in dist.variables if v[0] in names)
    table = _marginal_table(dist, names)
    table.setflags(write=False)  # a fresh sum or dist's frozen table: shared
    return JointDistribution(ordered, table)


def condition(dist: JointDistribution, evidence: Mapping[str, object]) -> JointDistribution:
    """Condition on ``evidence`` (variable name -> symbol index or label).

    All variables stay in place; evidence variables collapse to point masses.
    Raises :class:`ZeroProbabilityError` if the evidence event has
    probability zero.
    """
    if not evidence:
        raise ValueError("evidence must name at least one variable")
    index: list[object] = [slice(None)] * dist.table.ndim
    for name, value in evidence.items():
        ax = dist.axis(name)
        index[ax] = dist.alphabet(name).index_of(value)
    sliced = np.zeros_like(dist.table)
    sliced[tuple(index)] = dist.table[tuple(index)]
    mass = sliced.sum()
    if mass <= 0.0:
        described = {n: dist.alphabet(n).label(dist.alphabet(n).index_of(v)) for n, v in evidence.items()}
        raise ZeroProbabilityError(f"conditioning event {described} has probability zero")
    return JointDistribution(dist.variables, sliced / mass)


def attach_channel(
    dist: JointDistribution,
    channel: Channel,
    inputs: str | Iterable[str],
    new_name: str,
) -> JointDistribution:
    """Adjoin a channel output as a new last variable.

    ``inputs`` names existing variables matching ``channel.input_alphabets``
    in order and size; the output is conditionally independent of everything
    else given the inputs.
    """
    listed = (inputs,) if isinstance(inputs, str) else tuple(inputs)
    in_names = _as_names(dist, listed)
    if len(in_names) != len(listed):
        repeated = next(n for i, n in enumerate(listed) if n in listed[:i])
        raise ValueError(f"channel input {repeated!r} listed twice")
    if len(in_names) != len(channel.input_alphabets):
        raise ValueError(
            f"channel expects {len(channel.input_alphabets)} inputs, got {len(in_names)}"
        )
    for n, a in zip(in_names, channel.input_alphabets):
        have = dist.alphabet(n)
        if have.size != a.size:
            raise ValueError(
                f"input {n!r} has size {have.size}, channel expects {a.size}"
            )
    if new_name in dist.names:
        raise ValueError(f"variable {new_name!r} already present")
    _check_cap(dist.table.size * channel.output_alphabet.size, "channel attachment")

    # Broadcast channel rows across the joint: index rows by the input axes.
    in_axes = [dist.axis(n) for n in in_names]
    # Move input axes to the front of a view, multiply, move back.
    src = np.moveaxis(dist.table, in_axes, range(len(in_axes)))
    rows_shape = channel.rows.shape[:-1]
    expand = channel.rows.reshape(
        rows_shape + (1,) * (src.ndim - len(in_axes)) + (channel.output_alphabet.size,)
    )
    out = src[..., None] * expand
    out = np.moveaxis(out, range(len(in_axes)), in_axes)
    variables = dist.variables + ((new_name, channel.output_alphabet),)
    return JointDistribution(variables, out)


def is_markov(
    dist: JointDistribution,
    a: str | Iterable[str],
    b: str | Iterable[str],
    c: str | Iterable[str],
    tol: float = 1e-9,
) -> tuple[bool, float]:
    """Does the chain a - b - c hold?  Returns (verdict, I(a;c|b) in bits)."""
    value = conditional_mutual_information(dist, a, c, b)
    return value <= tol, value


def is_deterministic(
    dist: JointDistribution,
    targets: str | Iterable[str],
    given: str | Iterable[str],
    tol: float = 1e-9,
) -> tuple[bool, float]:
    """Is ``targets`` a function of ``given``?  Returns (verdict, H(targets|given))."""
    value = conditional_entropy(dist, targets, given)
    return value <= tol, value


def from_factors(
    variables: Sequence[tuple[str, Alphabet]],
    factors: Sequence[tuple[np.ndarray, Sequence[str]]],
) -> JointDistribution:
    """Build a joint as a product of factors, each spanning a subset of axes.

    Each factor is ``(array, names)`` with one axis per named variable, in
    that order.  The factors are broadcast-multiplied; the result must be a
    valid joint (caller is responsible for normalization).
    """
    names = [n for n, _ in variables]
    sizes = {n: a.size for n, a in variables}
    shape = tuple(sizes[n] for n in names)
    _check_cap(math.prod(shape), "factor product")
    table = np.ones(shape)
    for arr, fnames in factors:
        arr = np.asarray(arr, dtype=np.float64)
        fnames = list(fnames)
        if arr.shape != tuple(sizes[n] for n in fnames):
            raise ValueError(f"factor over {fnames} has shape {arr.shape}")
        expand = [names.index(n) for n in fnames]
        view_shape = [1] * len(names)
        for ax, n in zip(expand, fnames):
            view_shape[ax] = sizes[n]
        # Axes of the factor must land on the joint axes in joint order.
        order = np.argsort(expand)
        table = table * np.transpose(arr, order).reshape(view_shape)
    return JointDistribution(tuple(variables), table)


# --------------------------------------------------------------------------
# JSON serialization.  Floats pass through Python's json module, whose
# shortest-repr encoding round-trips float64 exactly.


def _alphabet_to_json(a: Alphabet) -> dict:
    obj: dict = {"name": a.name, "size": a.size}
    if a.labels is not None:
        obj["labels"] = list(a.labels)
    return obj


def _alphabet_from_json(obj: Mapping) -> Alphabet:
    labels = tuple(obj["labels"]) if "labels" in obj and obj["labels"] is not None else None
    return Alphabet(str(obj["name"]), int(obj["size"]), labels)


def pmf_to_json(pmf: Pmf) -> dict:
    return {"variables": [_alphabet_to_json(pmf.alphabet)], "table": pmf.probs.tolist()}


def pmf_from_json(obj: Mapping) -> Pmf:
    (alpha,) = [_alphabet_from_json(v) for v in obj["variables"]]
    return Pmf(alpha, np.array(obj["table"], dtype=np.float64))


def channel_to_json(ch: Channel) -> dict:
    return {
        "inputs": [_alphabet_to_json(a) for a in ch.input_alphabets],
        "output": _alphabet_to_json(ch.output_alphabet),
        "rows": np.ravel(ch.rows, order="C").tolist(),
    }


def channel_from_json(obj: Mapping) -> Channel:
    inputs = tuple(_alphabet_from_json(a) for a in obj["inputs"])
    output = _alphabet_from_json(obj["output"])
    shape = tuple(a.size for a in inputs) + (output.size,)
    rows = np.array(obj["rows"], dtype=np.float64).reshape(shape)
    return Channel(inputs, output, rows)


def joint_to_json(dist: JointDistribution) -> dict:
    """The joint as its nonzero cells: ``index`` holds their flat C-order
    positions, ascending, and ``values`` their probabilities, as
    ``SystemTable`` stores the system joint.  Nested auxiliaries leave a
    candidate's joint almost all zeros, so this is the compact form."""
    flat = np.ravel(dist.table, order="C")
    index = np.flatnonzero(flat)
    return {
        "variables": [
            dict(_alphabet_to_json(a), name=n) for n, a in dist.variables
        ],
        "index": index.tolist(),
        "values": flat[index].tolist(),
    }


def joint_from_json(obj: Mapping) -> JointDistribution:
    """Read the nonzero-cell form of :func:`joint_to_json`, or the dense
    ``"table"`` form (every cell, in C order) of files written before it.
    Cells must be integer positions in the table, strictly ascending, one
    value each, else ``ValueError`` names the fault; the cell cap is
    checked before the dense table is allocated."""
    variables = tuple(
        (str(v["name"]), _alphabet_from_json(v)) for v in obj["variables"]
    )
    shape = tuple(a.size for _, a in variables)
    size = math.prod(shape)
    if ("table" in obj) == ("index" in obj):
        raise ValueError("a joint needs a dense 'table' or an 'index' of cells, not both or neither")
    _check_cap(size, "joint distribution table")
    if "table" in obj:
        return JointDistribution(variables, np.array(obj["table"], dtype=np.float64).reshape(shape))
    index, values = list(obj["index"]), np.array(obj["values"], dtype=np.float64)
    if values.shape != (len(index),):
        raise ValueError(f"a joint's {len(index)} cells need as many values, got shape {values.shape}")
    if any(type(i) is not int for i in index):
        raise ValueError("a joint's cell index holds a non-integer")
    if index and not 0 <= min(index) <= max(index) < size:
        raise ValueError(f"a joint's cell index is out of range for a table of {size} cells")
    steps = np.diff(np.array(index, dtype=np.int64))
    if (steps <= 0).any():
        raise ValueError(f"a joint's cell index {'repeats a cell' if (steps == 0).any() else 'is not ascending'}")
    table = np.zeros(size)
    table[index] = values
    return JointDistribution(variables, table.reshape(shape))
