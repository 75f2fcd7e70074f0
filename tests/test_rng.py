"""Inverse-CDF draws: zero-probability symbols have empty intervals."""

import re

import numpy as np
import pytest

from cascade_secrecy.rng import _cdf, sample_pmf, sample_rows, stream, symbols, uniform_rows


class _TopUniform:
    """Generator stub whose every uniform is the largest double below 1."""

    def random(self, shape=None):
        return np.full(shape, np.nextafter(1.0, 0.0))


# ten 0.1s sum to the top uniform itself, short of 1: before the fix the
# last trailing zero owned [cumsum, 1) and the top uniform drew it
ROW = np.array([0.1] * 10 + [0.0, 0.0])


def test_trailing_zero_symbols_are_never_drawn():
    assert np.cumsum(ROW)[-1] < 1.0
    assert int(sample_pmf(_TopUniform(), ROW, ())) == 9
    rows = np.stack([ROW, np.roll(ROW, 2)])
    assert sample_rows(_TopUniform(), rows, np.array([0, 1, 1])).tolist() == [9, 11, 11]


def test_cdf_ends_at_one_from_the_last_positive_symbol():
    c = _cdf(np.stack([ROW, [0.0] * 12, [0.5, 0.0, 0.5] + [0.0] * 9]))
    assert c[0, 9:].tolist() == [1.0, 1.0, 1.0] and c[0, 8] < 1.0
    assert c[1].tolist() == [0.0] * 11 + [1.0]  # no positive symbol: only the end is 1
    assert c[2].tolist() == [0.5, 0.5] + [1.0] * 10
    # a middle zero keeps its empty interval
    u = np.array([0.0, 0.49, 0.5, np.nextafter(1.0, 0.0)])
    assert symbols(c[2], u).tolist() == [0, 0, 2, 2]


@pytest.mark.parametrize("seed, tag", [(0, 0), (5, 17), (2**64 - 1, 2**63), (123456789, 104729)])
def test_stream_keys_philox_with_seed_and_tag(seed, tag):
    # the searches draw restart ``tag`` from stream(seed, tag); its key is
    # exactly [seed, tag], which every seeded search output depends on
    direct = np.random.Generator(np.random.Philox(key=[seed, tag]))
    assert np.array_equal(stream(seed, tag).random(5), direct.random(5))


@pytest.mark.parametrize("seed", [2**64, -1, 1.5, np.float64(1.0), True, "1"])
def test_stream_rejects_a_seed_that_is_no_integer_below_2_64(seed):
    # not wrapped (2**64 would draw seed 0's stream) nor truncated (1.5
    # would draw seed 1's)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        stream(seed, 7)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("tag", {"tag": 1.5}),
        ("tag", {"tag": -1}),
        ("tag", {"tag": 2**64}),
        ("tag", {"tag": True}),
        ("tag", {"tag": "1"}),
        ("tag", {"tag": np.float64(1.0)}),
        ("row", {"tag": 7, "row": 2.5}),
        ("row", {"tag": 7, "row": -1}),
        ("row", {"tag": 7, "row": 2**64}),
        ("row", {"tag": 7, "row": True}),
    ],
)
def test_stream_rejects_a_tag_or_row_that_is_no_integer_below_2_64(field, kwargs):
    # not wrapped (tag -1 would draw tag 2**64 - 1's stream) nor truncated
    # (tag 1.5 would draw tag 1's, row 2.5 row 2's)
    with pytest.raises(ValueError, match=rf"{field} must be an integer in \[0, 2\*\*64\)"):
        stream(0, **kwargs)


def test_stream_takes_numpy_integer_tags_and_rows():
    want = stream(3, 2**64 - 1, row=5).random(3)
    got = stream(3, np.uint64(2**64 - 1), row=np.int64(5)).random(3)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "seed, tag, first, count, width",
    [
        (0, 0, 0, 1, 1),
        (5, 0x53410006, 0, 400, 10),  # a simulate_n2 chunk: 2 + 4n uniforms a row
        (2**64 - 1, 17, 288, 112, 7),
        (3, 2**64 - 1, 2**64 - 3, 3, 9),  # the last rows a stream has
    ],
)
def test_uniform_rows_are_the_rows_of_fresh_streams(seed, tag, first, count, width):
    want = np.array([stream(seed, tag, row=s).random(width) for s in range(first, first + count)])
    assert np.array_equal(uniform_rows(seed, tag, first, count, width), want)


@pytest.mark.parametrize(
    "args",
    [(2**64, 7, 0), (-1, 7, 0), (0, 2**64, 0), (0, 1.5, 0), (0, 7, -1), (0, 7, 2.5), (0, 7, 2**64),
     (0, 7, True)],
)
def test_uniform_rows_raise_what_stream_raises(args):
    with pytest.raises(ValueError) as want:
        stream(*args[:2], row=args[2])
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        uniform_rows(*args, 2, 3)


def test_uniform_rows_past_the_last_row_name_it():
    # rows 2**64 - 2 and 2**64 - 1 exist; the third row would be 2**64
    with pytest.raises(ValueError) as want:
        stream(0, 7, row=2**64)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        uniform_rows(0, 7, 2**64 - 2, 3, 4)
    assert uniform_rows(0, 7, 2**64 - 2, 2, 4).shape == (2, 4)
    with pytest.raises(ValueError, match=r"count must be an integer >= 1"):
        uniform_rows(0, 7, 0, 0, 4)
