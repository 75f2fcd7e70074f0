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


def _checked_seed(seed) -> int:
    """``seed`` as an int in [0, 2**64), else ``ValueError``; a bool is no seed."""
    integral = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (integral and 0 <= int(seed) < _WORD):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def stream(seed: int, tag: int, row: int = 0) -> np.random.Generator:
    """The (seed, tag) stream with its counter positioned at ``row``."""
    if row < 0:
        raise ValueError("stream row must be nonnegative")
    bg = np.random.Philox(
        key=np.array([seed % _WORD, tag % _WORD], dtype=np.uint64),
        counter=np.array([0, row % _WORD, 0, 0], dtype=np.uint64),
    )
    return np.random.Generator(bg)


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
    ``g``; the output has the shape of ``given``.
    """
    given = np.asarray(given)
    return symbols(_cdf(rows)[given], gen.random(given.shape))
