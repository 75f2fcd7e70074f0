import json
import math

import numpy as np
import pytest

from cascade_secrecy.probability import (
    Alphabet,
    CapExceededError,
    Channel,
    JointDistribution,
    Pmf,
    ZeroProbabilityError,
    attach_channel,
    condition,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    from_factors,
    is_deterministic,
    is_markov,
    joint_from_json,
    joint_to_json,
    marginalize,
    mutual_information,
    pmf_from_json,
    pmf_to_json,
    channel_from_json,
    channel_to_json,
    product_alphabet,
)
from cascade_secrecy import probability
from conftest import random_joint


def plain_entropy(probs):
    """Reference entropy, written independently of the library."""
    return -sum(p * math.log2(p) for p in probs if p > 0)


class TestConstruction:
    def test_rejects_negative_probabilities(self):
        a = Alphabet("A", 2)
        with pytest.raises(ValueError, match="negative"):
            Pmf(a, np.array([1.5, -0.5]))

    def test_rejects_bad_total_mass(self):
        a = Alphabet("A", 2)
        with pytest.raises(ValueError, match="sums to"):
            Pmf(a, np.array([0.6, 0.5]))

    def test_rejects_duplicate_variable_names(self):
        a = Alphabet("A", 2)
        with pytest.raises(ValueError, match="duplicate"):
            JointDistribution((("A", a), ("A", a)), np.full((2, 2), 0.25))

    def test_rejects_tables_above_cell_cap(self):
        big = Alphabet("B", 100_000)
        with pytest.raises(CapExceededError):
            JointDistribution(
                (("B1", big), ("B2", big), ("B3", big)), np.zeros((2, 2))
            )

    def test_arrays_are_frozen_copies(self):
        a = Alphabet("A", 2)
        src = np.array([0.5, 0.5])
        pmf = Pmf(a, src)
        src[0] = 99.0
        assert pmf.probs[0] == 0.5
        with pytest.raises(ValueError):
            pmf.probs[0] = 0.1

    def test_frozen_owned_float64_array_is_shared(self):
        a, b = Alphabet("A", 2), Alphabet("B", 2)
        frozen = np.full((2, 2), 0.25)
        frozen.setflags(write=False)
        assert JointDistribution((("A", a), ("B", b)), frozen).table is frozen

    @pytest.mark.parametrize("kind", ["writable", "read-only view", "nested list"])
    def test_other_inputs_are_copied(self, kind):
        a, b = Alphabet("A", 2), Alphabet("B", 2)
        cases = (
            (lambda v: JointDistribution((("A", a), ("B", b)), v).table,
             [[0.25, 0.25], [0.25, 0.25]]),
            (lambda v: Pmf(a, v).probs, [0.5, 0.5]),
            (lambda v: Channel((a,), b, v).rows, [[0.5, 0.5], [0.5, 0.5]]),
        )
        for build, values in cases:
            src = json.loads(json.dumps(values)) if kind == "nested list" else np.array(values)
            given = src
            if kind == "read-only view":
                given = src[...]
                given.setflags(write=False)
            arr = build(given)
            # the caller still holds a writable path to its input
            if kind == "nested list":
                leaf = src[0] if isinstance(src[0], list) else src
                leaf[0] = 99.0
            else:
                src.flat[0] = 99.0
            assert np.array_equal(arr, np.array(values))
            assert not arr.flags.writeable

    def test_alphabet_labels_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            Alphabet("A", 2, ("x", "x"))

    def test_channel_rows_must_normalize(self):
        a = Alphabet("A", 2)
        with pytest.raises(ValueError, match="sum to 1"):
            Channel((a,), a, np.array([[0.5, 0.5], [0.7, 0.4]]))

    def test_product_alphabet_uses_row_major_packing(self):
        a = Alphabet("A", 2, ("a0", "a1"))
        b = Alphabet("B", 3, ("b0", "b1", "b2"))
        prod = product_alphabet("AB", a, b)
        assert prod.size == 6
        # flat index = i_a * 3 + i_b
        assert prod.label(0) == "a0|b0"
        assert prod.label(4) == "a1|b1"


class TestMeasures:
    def test_entropy_of_known_table(self):
        # P(A,B) with dyadic masses: joint entropy is exactly 1.75 bits.
        a, b = Alphabet("A", 2), Alphabet("B", 2)
        table = np.array([[0.5, 0.25], [0.125, 0.125]])
        d = JointDistribution((("A", a), ("B", b)), table)
        assert entropy(d, ("A", "B")) == pytest.approx(1.75, abs=1e-14)
        assert entropy(d, "A") == pytest.approx(plain_entropy([0.75, 0.25]), abs=1e-14)
        assert conditional_entropy(d, "B", "A") == pytest.approx(
            1.75 - plain_entropy([0.75, 0.25]), abs=1e-14
        )

    def test_mutual_information_of_independent_pair_is_zero(self):
        rng = np.random.default_rng(7)
        pa, pb = rng.random(3), rng.random(4)
        pa /= pa.sum()
        pb /= pb.sum()
        d = JointDistribution(
            (("A", Alphabet("A", 3)), ("B", Alphabet("B", 4))), np.outer(pa, pb)
        )
        assert mutual_information(d, "A", "B") == pytest.approx(0.0, abs=1e-12)

    def test_mutual_information_of_copy_equals_entropy(self):
        a = Alphabet("A", 3)
        table = np.zeros((3, 3))
        np.fill_diagonal(table, [0.2, 0.3, 0.5])
        d = JointDistribution((("A", a), ("B", a)), table)
        assert mutual_information(d, "A", "B") == pytest.approx(
            plain_entropy([0.2, 0.3, 0.5]), abs=1e-12
        )

    def test_chain_rule_on_random_joints(self):
        rng = np.random.default_rng(101)
        for trial in range(40):
            d = random_joint(rng, rng.integers(2, 5, size=3), names=("A", "B", "C"),
                             sparsity=0.3 if trial % 2 else 0.0)
            lhs = entropy(d, ("A", "B", "C"))
            rhs = (
                entropy(d, "A")
                + conditional_entropy(d, "B", "A")
                + conditional_entropy(d, "C", ("A", "B"))
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_information_measures_are_nonnegative(self):
        rng = np.random.default_rng(357)
        for _ in range(40):
            d = random_joint(rng, rng.integers(2, 4, size=4), sparsity=0.4)
            n = d.names
            assert conditional_mutual_information(d, n[0], n[1], (n[2], n[3])) >= 0.0
            assert mutual_information(d, (n[0], n[2]), n[1]) >= 0.0
            assert conditional_entropy(d, n[3], (n[0],)) >= 0.0

    def test_conditioning_cannot_increase_entropy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = random_joint(rng, (3, 3, 2), names=("A", "B", "C"), sparsity=0.2)
            assert conditional_entropy(d, "A", ("B", "C")) <= conditional_entropy(d, "A", "B") + 1e-12
            assert conditional_entropy(d, "A", "B") <= entropy(d, "A") + 1e-12

    def test_data_processing_along_attached_channel(self):
        # A - B - C by construction, so I(A;C) <= I(A;B) and I(A;C|B) = 0.
        rng = np.random.default_rng(23)
        for _ in range(25):
            d = random_joint(rng, (3, 4), names=("A", "B"))
            rows = rng.random((4, 3))
            rows /= rows.sum(axis=1, keepdims=True)
            ch = Channel((d.alphabet("B"),), Alphabet("C", 3), rows)
            dc = attach_channel(d, ch, "B", "C")
            assert mutual_information(dc, "A", "C") <= mutual_information(dc, "A", "B") + 1e-10
            ok, value = is_markov(dc, "A", "B", "C")
            assert ok and value <= 1e-12


class TestClamp:
    def test_rounding_residue_is_zero(self):
        assert probability._clamped(-1e-11) == 0.0
        assert probability._clamped(-1e-10) == 0.0
        assert probability._clamped(0.25) == 0.25

    def test_negative_beyond_rounding_raises(self):
        with pytest.raises(ValueError, match="-1e-06"):
            probability._clamped(-1e-6)
        with pytest.raises(ValueError, match="-0.5"):
            probability._clamped(-0.5)


class TestTransforms:
    def test_marginalize_keeps_original_axis_order(self):
        rng = np.random.default_rng(5)
        d = random_joint(rng, (2, 3, 4), names=("A", "B", "C"))
        m = marginalize(d, ("C", "A"))
        assert m.names == ("A", "C")
        np.testing.assert_allclose(m.table, d.table.sum(axis=1), atol=0, rtol=0)

    def test_marginal_is_read_only_and_shared(self, monkeypatch):
        # the freshly reduced sum is frozen, so the marginal's joint holds
        # that array instead of a copy
        original, reduced = probability._marginal_table, []

        def recording(dist, keep):
            reduced.append(original(dist, keep))
            return reduced[-1]

        monkeypatch.setattr(probability, "_marginal_table", recording)
        d = random_joint(np.random.default_rng(8), (2, 3, 4), names=("A", "B", "C"))
        m = marginalize(d, ("A", "C"))
        assert not m.table.flags.writeable
        assert m.table is reduced[-1]
        assert JointDistribution(m.variables, m.table).table is m.table
        # keeping every variable shares the joint's own table
        assert marginalize(d, d.names).table is d.table

    def test_condition_matches_bayes_rule(self):
        rng = np.random.default_rng(6)
        d = random_joint(rng, (3, 4), names=("A", "B"))
        c = condition(d, {"B": 2})
        expected = np.zeros((3, 4))
        expected[:, 2] = d.table[:, 2] / d.table[:, 2].sum()
        np.testing.assert_allclose(c.table, expected, atol=1e-15)

    def test_condition_then_marginalize_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = random_joint(rng, (3, 3, 3), names=("A", "B", "C"), sparsity=0.2)
            mb = marginalize(d, ("B",)).table
            for b in range(3):
                if mb[b] == 0.0:
                    continue
                c = marginalize(condition(d, {"B": b}), ("A", "C"))
                direct = d.table[:, b, :] / mb[b]
                np.testing.assert_allclose(c.table, direct, atol=1e-12)

    def test_condition_on_full_assignment_is_point_mass(self):
        rng = np.random.default_rng(9)
        d = random_joint(rng, (2, 3), names=("A", "B"))
        c = condition(d, {"A": 1, "B": 0})
        assert c.table[1, 0] == 1.0 and c.table.sum() == 1.0

    def test_condition_on_zero_probability_event_raises(self):
        a = Alphabet("A", 2)
        d = JointDistribution((("A", a),), np.array([1.0, 0.0]))
        with pytest.raises(ZeroProbabilityError):
            condition(d, {"A": 1})

    def test_unknown_variable_is_named_in_error(self):
        rng = np.random.default_rng(10)
        d = random_joint(rng, (2, 2), names=("A", "B"))
        with pytest.raises(ValueError, match="'Q'"):
            entropy(d, "Q")

    def test_attach_identity_channel_duplicates_variable(self):
        rng = np.random.default_rng(12)
        d = random_joint(rng, (3, 2), names=("A", "B"))
        dc = attach_channel(d, Channel.identity(d.alphabet("A")), "A", "A2")
        assert is_deterministic(dc, "A2", "A") == (True, 0.0)
        np.testing.assert_allclose(
            marginalize(dc, ("A", "B")).table, d.table, atol=1e-15
        )
        assert entropy(dc, "A2") == pytest.approx(entropy(d, "A"), abs=1e-12)

    def test_attach_channel_respects_cell_cap(self):
        rng = np.random.default_rng(13)
        d = random_joint(rng, (200, 200, 200), names=("A", "B", "C"))
        wide = Channel.constant((d.alphabet("A"),), Pmf.uniform(Alphabet("W", 50_000)))
        with pytest.raises(CapExceededError):
            attach_channel(d, wide, "A", "W")

    def test_multi_input_channel_attachment(self):
        rng = np.random.default_rng(14)
        d = random_joint(rng, (2, 3), names=("A", "B"))
        rows = rng.random((2, 3, 4))
        rows /= rows.sum(axis=-1, keepdims=True)
        ch = Channel((d.alphabet("A"), d.alphabet("B")), Alphabet("W", 4), rows)
        dc = attach_channel(d, ch, ("A", "B"), "W")
        # direct construction
        expected = d.table[:, :, None] * rows
        np.testing.assert_allclose(dc.table, expected, atol=1e-15)

    def test_channel_refuses_a_repeated_input(self):
        # measures read groups as sets, but a channel input list is
        # positional: listing a variable twice is an error that names it
        rng = np.random.default_rng(15)
        d = random_joint(rng, (2, 3), names=("A", "B"))
        rows = np.full((2, 2, 4), 0.25)
        ch = Channel((d.alphabet("A"), d.alphabet("A")), Alphabet("W", 4), rows)
        with pytest.raises(ValueError, match="channel input 'A' listed twice"):
            attach_channel(d, ch, ("A", "A"), "W")

    def test_from_factors_orders_axes_correctly(self):
        a, b = Alphabet("A", 2), Alphabet("B", 3)
        pa = np.array([0.25, 0.75])
        rows = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
        d = from_factors(
            (("B", b), ("A", a)),
            [(pa, ("A",)), (rows, ("A", "B"))],
        )
        expected = (pa[:, None] * rows).T  # (B, A)
        np.testing.assert_allclose(d.table, expected, atol=1e-15)

    def test_from_factors_checks_the_cell_cap_before_allocating(self):
        # 10**15 cells: the allocation itself would fail, so the cap's own
        # message shows the check came first
        big = Alphabet("B", 100_000)
        message = "factor product needs 1000000000000000 cells, cap is 100000000"
        with pytest.raises(CapExceededError, match=message):
            from_factors([(f"B{i}", big) for i in range(3)], [])


class TestWitnesses:
    def test_is_deterministic_reports_entropy_witness(self):
        # B = A xor noise with tiny leak: H(B|A) is the reported value.
        a = Alphabet("A", 2)
        table = np.array([[0.49, 0.01], [0.01, 0.49]])
        d = JointDistribution((("A", a), ("B", a)), table)
        ok, value = is_deterministic(d, "B", "A", tol=1e-9)
        assert not ok
        assert value == pytest.approx(plain_entropy([0.98, 0.02]), abs=1e-12)

    def test_is_markov_accepts_true_chain_and_rejects_fork(self):
        rng = np.random.default_rng(15)
        d = random_joint(rng, (3, 3), names=("A", "B"))
        rows = rng.random((3, 3))
        rows /= rows.sum(axis=1, keepdims=True)
        chain = attach_channel(d, Channel((d.alphabet("B"),), Alphabet("C", 3), rows), "B", "C")
        assert is_markov(chain, "A", "B", "C")[0]
        # A copied straight into C breaks A - B - C unless B already carries A.
        fork = attach_channel(d, Channel.identity(d.alphabet("A"), "C"), "A", "C")
        ok, value = is_markov(fork, "A", "B", "C")
        assert not ok and value > 0.1


class TestJson:
    def test_joint_round_trip_is_exact(self):
        rng = np.random.default_rng(16)
        d = random_joint(rng, (3, 4), names=("A", "B"), sparsity=0.3)
        text = json.dumps(joint_to_json(d))
        back = joint_from_json(json.loads(text))
        assert back.names == d.names
        assert (back.table == d.table).all()

    def test_pmf_and_channel_round_trip(self):
        rng = np.random.default_rng(17)
        probs = rng.random(5)
        probs /= probs.sum()
        pmf = Pmf(Alphabet("A", 5, tuple("abcde")), probs)
        back = pmf_from_json(json.loads(json.dumps(pmf_to_json(pmf))))
        assert (back.probs == pmf.probs).all()
        assert back.alphabet.labels == pmf.alphabet.labels

        rows = rng.random((5, 2))
        rows /= rows.sum(axis=1, keepdims=True)
        ch = Channel((pmf.alphabet,), Alphabet("W", 2), rows)
        ch_back = channel_from_json(json.loads(json.dumps(channel_to_json(ch))))
        assert (ch_back.rows == ch.rows).all()


class TestOverlappingGroups:
    """Measures read each group as a set of names; groups may share variables."""

    def test_a_repeated_name_counts_once(self):
        rng = np.random.default_rng(18)
        d = random_joint(rng, (3, 2), names=("X", "Y"))
        assert entropy(d, ("X", "X")) == entropy(d, "X")
        assert conditional_entropy(d, ("Y", "Y"), ("X", "X")) == conditional_entropy(d, "Y", "X")

    def test_self_information_is_conditional_entropy(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            d = random_joint(rng, rng.integers(2, 4, size=3), names=("A", "B", "C"),
                             sparsity=0.3 if trial % 2 else 0.0)
            for a in ("A", ("A", "B")):
                cmi = conditional_mutual_information(d, a, a, "C")
                assert cmi == pytest.approx(conditional_entropy(d, a, "C"), abs=1e-12)
            assert mutual_information(d, "A", "A") == pytest.approx(entropy(d, "A"), abs=1e-12)

    def test_shared_variables_split_off_by_the_chain_rule(self):
        # I(A,S ; B,S | C) = H(S | C) + I(A ; B | C, S)
        rng = np.random.default_rng(20)
        for trial in range(20):
            d = random_joint(rng, rng.integers(2, 4, size=4), names=("A", "B", "C", "S"),
                             sparsity=0.3 if trial % 2 else 0.0)
            lhs = conditional_mutual_information(d, ("A", "S"), ("S", "B"), "C")
            rhs = conditional_entropy(d, "S", "C") + conditional_mutual_information(
                d, "A", "B", ("C", "S")
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_a_group_inside_the_conditioner_gives_exactly_zero(self):
        rng = np.random.default_rng(21)
        d = random_joint(rng, (3, 2, 2), names=("A", "B", "C"))
        assert conditional_entropy(d, ("A", "B"), ("B", "A", "C")) == 0.0
        assert conditional_mutual_information(d, ("A", "B"), "C", ("A", "B")) == 0.0
        assert conditional_mutual_information(d, "C", "A", ("A", "B")) == 0.0
        # a partial overlap measures only what the conditioner lacks
        assert conditional_entropy(d, ("A", "B"), "B") == conditional_entropy(d, "A", "B")
