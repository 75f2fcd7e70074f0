"""Deterministic random streams for reproducible sampling.

All randomness derives from a Philox counter-based generator keyed by
``(master seed, stream tag)`` with the counter positioned at a row index.
Distinct tags give unrelated streams; distinct rows of one tag own
disjoint counter blocks, so a per-row draw does not depend on how the
rows are chunked.

The bit-stream convention is fixed: every categorical draw consumes one
uniform double from the stream (C-order over the requested shape) and
maps it through the inverse CDF of the probability row, i.e. the symbol
whose cumulative interval contains the uniform.  Zero-probability
symbols have empty intervals and are never produced.
"""

import numpy as np

__all__ = [
    "STREAM_U2",
    "STREAM_V2",
    "STREAM_U1",
    "STREAM_V1",
    "STREAM_ENCODER",
    "STREAM_SAMPLE",
    "stream",
    "uniform_rows",
    "sample_pmf",
    "sample_rows",
    "symbols",
]

# stream tags; values are arbitrary but frozen — changing one changes
# every seeded output downstream
STREAM_U2 = 0x75320001
STREAM_V2 = 0x76320002
STREAM_U1 = 0x75310003
STREAM_V1 = 0x76310004
STREAM_ENCODER = 0x454E0005
STREAM_SAMPLE = 0x53410006

_WORD = 2**64


def _count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum``, else ``ValueError`` naming ``name``;
    a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _checked_seed(value, name: str = "seed") -> int:
    """``value`` as an int in [0, 2**64), else ``ValueError`` naming ``name``;
    a bool is no integer."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integral and 0 <= int(value) < _WORD):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def stream(seed: int, tag: int, row: int = 0) -> np.random.Generator:
    """The (seed, tag) stream with its counter positioned at ``row``; a
    seed, tag or row that is not an integer in [0, 2**64) raises
    ``ValueError`` naming it."""
    bg = np.random.Philox(
        key=np.array([_checked_seed(seed), _checked_seed(tag, "tag")], dtype=np.uint64),
        counter=np.array([0, _checked_seed(row, "row"), 0, 0], dtype=np.uint64),
    )
    return np.random.Generator(bg)


def uniform_rows(seed: int, tag: int, first: int, count: int, width: int) -> np.ndarray:
    """``width`` uniforms from each of rows ``first`` .. ``first + count - 1``
    of the (seed, tag) stream: row i is ``stream(seed, tag, first + i)
    .random(width)``, drawn by one generator whose counter and buffer are set
    per row.  A bad argument raises what ``stream`` raises for it, a row past
    2**64 - 1 what it raises for row 2**64.
    """
    key = np.array([_checked_seed(seed), _checked_seed(tag, "tag")], dtype=np.uint64)
    first = _checked_seed(first, "row")
    count = _count(count, "count")
    _checked_seed(min(first + count - 1, _WORD), "row")
    gen = np.random.Generator(np.random.Philox(key=key))
    state = gen.bit_generator.state
    out = np.empty((count, width))
    for i in range(count):
        state["state"]["counter"] = np.array([0, first + i, 0, 0], dtype=np.uint64)
        state.update(buffer_pos=4, has_uint32=0, uinteger=0)  # 4: Philox's buffer is empty
        gen.bit_generator.state = state
        out[i] = gen.random(width)
    return out


def _cdf(rows: np.ndarray) -> np.ndarray:
    """Cumulative rows whose entries from the last positive symbol on are 1.0.

    A trailing zero-probability symbol thus keeps an empty interval even
    when the positive cumsum stops short of 1; a row with no positive
    entry ends in 1.0 alone.
    """
    rows = np.asarray(rows, dtype=np.float64)
    c = np.cumsum(rows, axis=-1)
    size = rows.shape[-1]
    last = size - 1 - np.argmax(rows[..., ::-1] > 0.0, axis=-1)
    c[np.arange(size) >= last[..., None]] = 1.0
    return c


def symbols(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The symbol of each uniform: the count of its ``cdf`` row's entries <= u.

    ``cdf`` rows (from ``_cdf``) broadcast against ``u``; for one sorted row
    this is searchsorted(side="right").
    """
    return np.sum(cdf <= np.asarray(u)[..., None], axis=-1)


def sample_pmf(gen: np.random.Generator, probs: np.ndarray, shape) -> np.ndarray:
    """Symbols drawn i.i.d. from one probability row."""
    c = _cdf(np.atleast_1d(probs))
    u = gen.random(shape)
    return np.searchsorted(c, u.ravel(), side="right").reshape(u.shape)


def sample_rows(
    gen: np.random.Generator, rows: np.ndarray, given: np.ndarray
) -> np.ndarray:
    """One symbol per entry of ``given``, drawn from the selected rows.

    ``rows[g]`` is the probability row used for an entry with value
    ``g``; the output has the shape of ``given``.  Each symbol is the
    count of its row's ``_cdf`` entries <= its uniform, as ``symbols``
    gives, added up one column at a time so that no (entries, row) array
    of cumulative rows is built.
    """
    given = np.asarray(given)
    u = gen.random(given.shape)
    out = np.zeros(given.shape, dtype=np.intp)
    for column in _cdf(rows).T:
        out += column[given] <= u
    return out
