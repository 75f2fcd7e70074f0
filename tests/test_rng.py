"""Inverse-CDF draws: zero-probability symbols have empty intervals."""

import numpy as np

from cascade_secrecy.rng import _cdf, sample_pmf, sample_rows, symbols


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
