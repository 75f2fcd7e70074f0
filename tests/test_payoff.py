import json
import math

import numpy as np
import pytest

from cascade_secrecy.payoff import (
    LogLossPayoff,
    PayoffTable,
    adversary_value,
    best_response,
    log_loss_best_response,
    payoff_from_json,
    payoff_to_json,
)
from cascade_secrecy.probability import Alphabet, conditional_entropy, entropy, marginalize
from conftest import random_joint


def hamming_payoff(n=3):
    """pi(x, y2, y3, z) = 1{x != z}; no forbidden entries."""
    a = Alphabet("X", n)
    values = np.ones((n, n, n, n))
    for x in range(n):
        values[x, :, :, x] = 0.0
    return PayoffTable(a, Alphabet("Y2", n), Alphabet("Y3", n), Alphabet("Z", n), values)


def guarded_payoff(n=3):
    """Hamming guess payoff, -inf whenever (x, y2, y3) are not all distinct."""
    base = hamming_payoff(n)
    values = np.array(base.values)
    for x in range(n):
        for y2 in range(n):
            for y3 in range(n):
                if len({x, y2, y3}) != 3:
                    values[x, y2, y3, :] = -np.inf
    return PayoffTable(base.x_alphabet, base.y2_alphabet, base.y3_alphabet, base.z_alphabet, values)


def uniform_over(mask):
    post = mask.astype(float)
    return post / post.sum()


class TestPayoffTable:
    def test_rejects_positive_infinity(self):
        p = hamming_payoff()
        values = np.array(p.values)
        values[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError, match=r"\+inf"):
            PayoffTable(p.x_alphabet, p.y2_alphabet, p.y3_alphabet, p.z_alphabet, values)

    def test_rejects_nan(self):
        p = hamming_payoff()
        values = np.array(p.values)
        values[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            PayoffTable(p.x_alphabet, p.y2_alphabet, p.y3_alphabet, p.z_alphabet, values)

    def test_finite_mask_marks_all_distinct_triples(self):
        mask = guarded_payoff().finite_mask
        assert mask.sum() == 6
        assert mask[0, 1, 2] and not mask[0, 0, 2]

    def test_secret_set_is_canonicalized(self):
        assert LogLossPayoff(("Y3", "X")).secret_set == ("X", "Y3")
        with pytest.raises(ValueError, match="unknown"):
            LogLossPayoff(("X", "Q"))


class TestBestResponse:
    def test_picks_most_likely_symbol_under_hamming(self):
        post = np.zeros((3, 3, 3))
        post[2, 0, 1] = 0.7
        post[1, 0, 2] = 0.3
        br = best_response(post, hamming_payoff())
        assert br.action == 2
        assert br.value == pytest.approx(0.3, abs=1e-15)
        assert not br.forbidden

    def test_ties_break_to_smallest_action_index(self):
        post = np.zeros((3, 3, 3))
        post[1, 0, 2] = 0.5
        post[2, 0, 1] = 0.5
        assert best_response(post, hamming_payoff()).action == 1

    def test_zero_mass_on_forbidden_cells_is_ignored(self):
        # 0 * (-inf) = 0: mass only on allowed triples stays finite.
        post = np.zeros((3, 3, 3))
        post[0, 1, 2] = 1.0
        br = best_response(post, guarded_payoff())
        assert br.value == 0.0 and not br.forbidden

    def test_mass_on_forbidden_cell_flags_and_returns_neg_inf(self):
        post = np.zeros((3, 3, 3))
        post[0, 0, 0] = 0.5
        post[0, 1, 2] = 0.5
        br = best_response(post, guarded_payoff())
        assert br.forbidden and br.value == -np.inf

    def test_concave_in_the_posterior(self):
        rng = np.random.default_rng(20)
        payoff = hamming_payoff()
        for _ in range(50):
            p, q = rng.random((3, 3, 3)), rng.random((3, 3, 3))
            p, q = p / p.sum(), q / q.sum()
            lam = rng.random()
            mixed = best_response(lam * p + (1 - lam) * q, payoff).value
            split = lam * best_response(p, payoff).value + (1 - lam) * best_response(q, payoff).value
            assert mixed >= split - 1e-9

    def test_log_loss_best_response_is_posterior_with_entropy_value(self):
        post = np.array([0.5, 0.25, 0.25])
        z, value = log_loss_best_response(post)
        np.testing.assert_array_equal(z, post)
        assert value == pytest.approx(1.5, abs=1e-15)

    def test_posterior_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            best_response(np.full((3, 3, 3), 1.0), hamming_payoff())


class TestAdversaryValue:
    def test_blind_adversary_against_uniform_ternary_source(self):
        rng = np.random.default_rng(21)
        # X uniform, (Y2, Y3, U) arbitrary but independent of X.
        rest = rng.random((3, 3, 2))
        rest /= rest.sum()
        table = np.ones(3)[:, None, None, None] / 3 * rest
        d = random_joint(rng, (3, 3, 3, 2), names=("X", "Y2", "Y3", "U"))
        d = type(d)(d.variables, table)
        res = adversary_value(d, "U", hamming_payoff())
        assert res.value == pytest.approx(2 / 3, abs=1e-12)

    def test_log_loss_value_equals_conditional_entropy(self):
        rng = np.random.default_rng(22)
        for trial in range(60):
            sizes = rng.integers(2, 5, size=4)
            d = random_joint(rng, sizes, names=("X", "Y2", "Y3", "U"),
                             sparsity=0.3 if trial % 3 == 0 else 0.0)
            for secret in (("X",), ("X", "Y2"), ("X", "Y2", "Y3"), ("Y3",)):
                res = adversary_value(d, "U", LogLossPayoff(secret))
                want = conditional_entropy(d, secret, "U")
                assert res.value == pytest.approx(want, abs=1e-12)
                assert not res.forbidden

    def test_more_observation_never_helps_the_system(self):
        rng = np.random.default_rng(23)
        payoff = hamming_payoff()
        for _ in range(30):
            d = random_joint(rng, (3, 3, 3, 2, 3), names=("X", "Y2", "Y3", "U", "V"))
            coarse = adversary_value(d, "U", payoff).value
            fine = adversary_value(d, ("U", "V"), payoff).value
            assert fine <= coarse + 1e-12

    def test_forbidden_event_with_positive_probability_is_flagged(self):
        rng = np.random.default_rng(24)
        d = random_joint(rng, (3, 3, 3, 2), names=("X", "Y2", "Y3", "U"))
        res = adversary_value(d, "U", guarded_payoff())
        assert res.forbidden and res.value == -np.inf

    def test_supported_only_on_allowed_triples_stays_finite(self):
        # Uniform over the six all-distinct triples, blind adversary.
        table = np.zeros((3, 3, 3, 1))
        for x in range(3):
            for y2 in range(3):
                for y3 in range(3):
                    if len({x, y2, y3}) == 3:
                        table[x, y2, y3, 0] = 1 / 6
        d = random_joint(np.random.default_rng(0), (3, 3, 3, 1), names=("X", "Y2", "Y3", "U"))
        d = type(d)(d.variables, table)
        res = adversary_value(d, "U", guarded_payoff())
        assert not res.forbidden
        assert res.value == pytest.approx(2 / 3, abs=1e-12)

    def test_blind_adversary_faces_the_secret_marginal(self):
        # an empty observation set is one row holding the whole marginal;
        # dyadic masses keep every sum exact, so the values match exactly
        rng = np.random.default_rng(26)
        weights = rng.integers(0, 3, size=(3, 3, 3, 2)).astype(float)
        weights[-1, -1, -1, -1] += 128.0 - weights.sum()
        d = random_joint(rng, (3, 3, 3, 2), names=("X", "Y2", "Y3", "U"))
        d = type(d)(d.variables, weights / 128.0)
        secret = ("X", "Y3")
        assert adversary_value(d, (), LogLossPayoff(secret)) == (entropy(d, secret), False)
        triple = marginalize(d, ("X", "Y2", "Y3")).table.reshape(-1)
        blind = best_response(triple, hamming_payoff())
        assert adversary_value(d, (), hamming_payoff()) == (blind.value, False)

    def test_role_variables_may_be_groups(self):
        rng = np.random.default_rng(25)
        d = random_joint(rng, (3, 3, 3, 2, 2), names=("X", "Y2", "Y3", "U1", "U2"))
        res = adversary_value(d, ("U1", "U2"), LogLossPayoff(("X",)))
        assert res.value == pytest.approx(conditional_entropy(d, "X", ("U1", "U2")), abs=1e-12)


class TestJson:
    def test_round_trip_preserves_neg_inf_as_string(self):
        payoff = guarded_payoff()
        text = json.dumps(payoff_to_json(payoff))
        assert '"-inf"' in text and "Infinity" not in text
        back = payoff_from_json(json.loads(text))
        assert isinstance(back, PayoffTable)
        np.testing.assert_array_equal(back.values, payoff.values)

    def test_log_loss_round_trip(self):
        back = payoff_from_json(json.loads(json.dumps(payoff_to_json(LogLossPayoff(("X", "Y3"))))))
        assert isinstance(back, LogLossPayoff)
        assert back.secret_set == ("X", "Y3")
