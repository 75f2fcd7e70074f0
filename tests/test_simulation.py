"""Simulation tests: codebooks, encoding, exact system tables, adversary.

The frozen numbers were produced by independent hand computations on the
same fixed-seed draws (brute-force enumeration of index tuples, direct
conditioning of the full table) before being pinned here.
"""

import gc
import io
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from conftest import dense_joint, random_factored_candidate

from cascade_secrecy.bounds import (
    ConstraintViolationError,
    SideInfoSpec,
    candidate_to_json,
    inner_candidate_from_json,
)
from cascade_secrecy.payoff import LogLossPayoff, PayoffTable, adversary_value
from cascade_secrecy.payoff import _batched_values as batched_values
from cascade_secrecy.probability import (
    Alphabet,
    CapExceededError,
    Channel,
    Pmf,
    ZeroProbabilityError,
    conditional_mutual_information,
    _entropy_of as entropy_of,
    _grouped,
    entropy,
    marginalize,
    mutual_information,
)
from cascade_secrecy import cli, simulation
from cascade_secrecy.search import CardinalityCaps, InnerSearchProblem, RateBudget, search_inner
from cascade_secrecy.rng import STREAM_SAMPLE, sample_pmf, sample_rows, stream
from cascade_secrecy.simulation import (
    CodebookSet,
    IndexBits,
    SchemeSpec,
    auto_index_bits,
    build_codebooks,
    empirical_equivocation,
    encoder_distribution,
    history_posterior,
    likelihood_encode,
    mc_estimate,
    run_system_exact,
    scheme_spec_from_json,
    scheme_spec_to_json,
    simulate_payoff,
    _Scheme,
)
from cascade_secrecy.ternary import corner_candidate, ternary_example

EX = ternary_example()
CORNER = corner_candidate(1)

# corner-1 reference configurations used throughout: a modest n=1 system
# and the generous-key n=2 system (index spaces sized for full source
# coverage, which the asymptotic auto-sizing cannot guarantee at n=2)
BITS_N1 = IndexBits(1, 1, 2, 1, 2)
BITS_N2 = IndexBits(2, 3, 3, 1, 5)


def corner_spec(n, bits, seed=0):
    return SchemeSpec(n=n, inner=CORNER, index_bits=bits, side=EX.side, seed=seed)


def binary_side(nx=2):
    a = Alphabet("X", nx)
    return SideInfoSpec.identity(a, Alphabet("Y2", 2), Alphabet("Y3", 2))


def random_spec(rng_seed, n, bits, seed=0, nx=2):
    cand = random_factored_candidate(np.random.default_rng(rng_seed), (2, 2, 2, 1, nx, 2, 2))
    return SchemeSpec(n=n, inner=cand, index_bits=bits, side=binary_side(nx), seed=seed)


# ---------------------------------------------------------------------------
# types and sizing


def test_index_bits_validation():
    with pytest.raises(ValueError):
        IndexBits(-1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        IndexBits(1, 1, 1, 1.5, 0)
    with pytest.raises(ValueError):
        IndexBits(True, 0, 0, 0, 0)
    assert IndexBits(1, 2, 0, 0, 3).sizes == (2, 4, 1, 1, 8)


def test_auto_index_bits_cover_rates():
    for n in (1, 2, 3):
        bits = auto_index_bits(CORNER, n, key=n)
        joint = CORNER.joint
        floors = (
            mutual_information(joint, "X", "U2"),
            conditional_mutual_information(joint, "X", "V2", "U2"),
            conditional_mutual_information(joint, "X", "U1", "V2"),
            conditional_mutual_information(joint, "X", "V1", ("U1", "V2")),
        )
        for got, rate in zip((bits.a, bits.b, bits.c, bits.d), floors):
            assert got >= n * rate - 1e-9
            # the slack never adds more than one extra bit beyond eps
            assert got <= n * (rate + 0.1) + 1
        assert bits.key == n
    assert auto_index_bits(CORNER, 1, key=2) == IndexBits(1, 1, 2, 1, 2)
    with pytest.raises(ValueError):
        auto_index_bits(CORNER, 1, key=0, epsilon=-0.5)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, -0.5, True])
def test_auto_index_bits_rejects_an_epsilon_that_is_no_finite_number_above_zero(epsilon):
    # NaN and inf failed in the rounding ("cannot convert float NaN to
    # integer", OverflowError) and True was taken as 1
    with pytest.raises(ValueError, match="epsilon must be a finite number >= 0"):
        auto_index_bits(CORNER, 1, key=0, epsilon=epsilon)


def test_a_search_winner_reaches_the_simulator():
    # a winner's roles nest, u1 = (U2, A), v2 = (U2, B), v1 = (U2, A, B, C),
    # so index sizing, the scheme and the audit all measure groups that
    # share variables
    problem = InnerSearchProblem(
        EX.p_x, EX.payoff, EX.side, RateBudget(1.0, math.inf, math.inf),
        CardinalityCaps(4, 3, 12, 6),
    )
    winner = search_inner(problem, restarts=8, seed=0, refine_top=2).candidate
    assert set(winner.u1) & set(winner.v2)
    joint = winner.joint
    floors = (
        mutual_information(joint, winner.x, winner.u2),
        conditional_mutual_information(joint, winner.x, winner.v2, winner.u2),
        conditional_mutual_information(joint, winner.x, winner.u1, winner.v2),
        conditional_mutual_information(joint, winner.x, winner.v1, winner.u1 + winner.v2),
    )
    bits = auto_index_bits(winner, 1, key=1)
    for got, rate in zip((bits.a, bits.b, bits.c, bits.d), floors):
        assert rate + 0.1 - 1e-9 <= got <= rate + 1.1
    spec = SchemeSpec(n=1, inner=winner, index_bits=bits, side=EX.side)
    assert cli._audit(spec, run_system_exact(spec))["passed"] is True


def test_a_candidate_read_back_from_rounded_json_passes_the_audit():
    # result files keep 12 significant digits, so a published candidate's
    # table sums to 1 only within 1e-12; the scheme's source law is
    # renormalized, or the key would seem to depend on the source
    obj = cli._round_floats(json.loads(json.dumps(candidate_to_json(CORNER))))
    rounded = inner_candidate_from_json(obj)
    assert _grouped(rounded.joint, rounded.x).sum() != 1.0
    spec = SchemeSpec(n=1, inner=rounded, index_bits=BITS_N1, side=EX.side)
    audit = cli._audit(spec, run_system_exact(spec))
    assert audit["passed"] is True
    assert audit["mi_key_source_bits"] < 1e-14


def test_system_table_sums_rejects_an_unknown_name():
    table = run_system_exact(corner_spec(1, BITS_N1))
    with pytest.raises(ValueError, match=r"unknown variables \['Q'\]"):
        table.sums(("K", "Q"))


def test_scheme_spec_validation():
    with pytest.raises(ValueError):
        SchemeSpec(n=0, inner=CORNER, index_bits=BITS_N1, side=EX.side)
    with pytest.raises(ValueError):
        SchemeSpec(n=1, inner=CORNER, index_bits=BITS_N1, side=EX.side, epsilon=-1.0)
    # side channels must act on the candidate's flattened alphabets
    with pytest.raises(ValueError):
        SchemeSpec(n=1, inner=CORNER, index_bits=BITS_N1, side=binary_side())
    # a joint that breaks the structural constraints is rejected outright
    rng = np.random.default_rng(0)
    good = random_factored_candidate(rng, (2, 2, 2, 1, 2, 2, 2))
    broken = type(good)(
        joint=random_factored_candidate(rng, (2, 2, 2, 1, 2, 2, 2)).joint,
        x="X", y2="Y3", y3="Y2",  # swapped actions break the chains
        u1=("U2", "A"), u2=("U2",), v1=("U2", "A", "B", "C"), v2=("U2", "B"),
    )
    with pytest.raises(ConstraintViolationError):
        SchemeSpec(n=1, inner=broken, index_bits=IndexBits(0, 0, 0, 0, 0), side=binary_side())


# no seed: floats, a bool, integers outside [0, 2**64), a string
BAD_SEEDS = [1.5, 4.7, np.float64(1.0), True, -1, 2**64, "1"]
SEED_MESSAGE = r"seed must be an integer in \[0, 2\*\*64\)"


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_scheme_spec_rejects_a_seed_that_is_no_integer_below_2_64(seed):
    with pytest.raises(ValueError, match=SEED_MESSAGE):
        corner_spec(1, BITS_N1, seed=seed)


def test_scheme_spec_stores_a_numpy_seed_as_int():
    spec = corner_spec(1, BITS_N1, seed=np.uint64(2**64 - 1))
    assert type(spec.seed) is int and spec.seed == 2**64 - 1


# ---------------------------------------------------------------------------
# codebooks


def test_codebook_shapes():
    cb = build_codebooks(corner_spec(1, BITS_N1))
    assert cb.u2.shape == (2, 1)
    assert cb.v2.shape == (2, 2, 4, 1)
    assert cb.u1.shape == (2, 4, 1)
    assert cb.v1.shape == (2, 2, 4, 2, 4, 1)
    # n=2 with a single index bit on the coarse layer: two length-2 rows
    cb2 = build_codebooks(corner_spec(2, IndexBits(1, 1, 1, 1, 1)))
    assert cb2.u2.shape == (2, 2)
    # all-zero bits: four singleton codebooks drawn from the marginals
    cb0 = build_codebooks(random_spec(7, 1, IndexBits(0, 0, 0, 0, 0)))
    assert cb0.u2.shape == (1, 1) and cb0.v1.shape == (1, 1, 1, 1, 1, 1)


def test_codebooks_reproducible_and_golden():
    spec = corner_spec(2, IndexBits(1, 1, 1, 1, 1))
    cb = build_codebooks(spec)
    again = build_codebooks(spec)
    for a, b in ((cb.u2, again.u2), (cb.v2, again.v2), (cb.u1, again.u1), (cb.v1, again.v1)):
        assert np.array_equal(a, b)
    # golden draw for seed 0 under the documented counter-based stream
    assert cb.u2.tolist() == [[1, 2], [1, 0]]
    assert cb.v2.tolist() == [
        [[[1, 5], [1, 2]], [[7, 2], [1, 5]]],
        [[[7, 6], [1, 6]], [[1, 6], [7, 3]]],
    ]
    assert cb.u1.tolist() == [[[4, 5], [4, 5]], [[1, 0], [4, 0]]]
    assert cb.v1.ravel().tolist() == [
        19, 5, 19, 20, 19, 5, 19, 20, 19, 5, 19, 20, 19, 5, 19, 20,
        16, 20, 19, 5, 16, 20, 19, 5, 16, 20, 19, 5, 16, 20, 19, 5,
        7, 6, 10, 6, 7, 6, 10, 6, 16, 6, 19, 6, 16, 6, 19, 6,
        10, 6, 7, 21, 10, 6, 7, 21, 19, 6, 16, 21, 19, 6, 16, 21,
    ]


def test_codebook_cap_exceeded():
    spec = corner_spec(2, IndexBits(8, 8, 8, 8, 8))
    with pytest.raises(CapExceededError) as err:
        build_codebooks(spec, cell_cap=1000)
    assert "cells" in str(err.value)
    with pytest.raises(CapExceededError):
        run_system_exact(corner_spec(2, BITS_N2), cell_cap=1000)


@pytest.mark.parametrize("cap, message", [
    (30_000, "codebooks need 34888 cells"),
    (100_000, "encoder table needs 147456 cells, cap is 100000"),
])
def test_cell_cap_holds_for_codebooks_and_encoder_kept_from_an_earlier_call(cap, message):
    # the default-cap table keeps its codebooks and encoder table alive on
    # the spec; a later call under a smaller cap must still refuse them
    spec = corner_spec(2, BITS_N2)
    with pytest.raises(CapExceededError, match=message):
        run_system_exact(spec, cell_cap=cap)
    table = run_system_exact(spec)
    with pytest.raises(CapExceededError, match=message):
        run_system_exact(spec, cell_cap=cap)
    assert run_system_exact(spec).codebooks is table.codebooks


@pytest.mark.parametrize("field", ["v2", "u1", "v1"])
def test_support_check_rejects_a_tampered_codebook(field):
    # one symbol, in the last cell of its codebook, swapped for one its
    # parents give probability zero
    spec = corner_spec(2, BITS_N2)
    scheme = spec._scheme
    cb = build_codebooks(spec)
    arrays = {f: getattr(cb, f).copy() for f in ("u2", "v2", "u1", "v1")}
    at = tuple(s - 1 for s in arrays[field].shape)
    law = {
        "v2": lambda: scheme.v2_of_u2[cb.u2[at[0], at[3]]],
        "u1": lambda: scheme.u1_of_u2[cb.u2[at[0], at[2]]],
        "v1": lambda: scheme.v1_of_u1v2[cb.u1[at[0], at[2], at[5]], cb.v2[at[0], at[1], at[4], at[5]]],
    }[field]()
    assert law[arrays[field][at]] > 0.0
    simulation._verify_support(scheme, CodebookSet(spec, **arrays))
    arrays[field][at] = np.flatnonzero(law == 0.0)[0]
    with pytest.raises(ValueError, match="zero-probability symbol"):
        simulation._verify_support(scheme, CodebookSet(spec, **arrays))


def test_posterior_engine_cap_exceeded():
    # the codebooks are small at n = 40, but the encoder table over the
    # 3**40 source sequences is not: the cap must stop it before numpy does
    with pytest.raises(CapExceededError, match="encoder table needs"):
        mc_estimate(corner_spec(40, IndexBits(1, 1, 1, 1, 1)), EX.payoff, 2, 0)


def test_key_prefix_property():
    """Doubling the key space extends the codebooks without moving them."""
    base = IndexBits(1, 1, 2, 1, 1)
    big = IndexBits(1, 1, 2, 1, 2)
    cb_small = build_codebooks(corner_spec(1, base))
    cb_big = build_codebooks(corner_spec(1, big))
    assert np.array_equal(cb_small.u2, cb_big.u2)
    assert np.array_equal(cb_small.u1, cb_big.u1)
    assert np.array_equal(cb_small.v2, cb_big.v2[:, :, :2])
    assert np.array_equal(cb_small.v1, cb_big.v1[:, :, :, :, :2])


# ---------------------------------------------------------------------------
# likelihood encoder


def test_encoder_matches_brute_force():
    """Exact encoder distribution against direct index-space enumeration."""
    spec = corner_spec(1, BITS_N1)
    cb = build_codebooks(spec)
    # P(x | v1, v2) for the corner candidate, recovered from the joint
    marg = marginalize(CORNER.joint, ("V1", "V2", "X"))
    p_v1v2x = np.transpose(marg.table, [marg.names.index(n) for n in ("V1", "V2", "X")])
    with np.errstate(invalid="ignore"):
        x_given = p_v1v2x / p_v1v2x.sum(axis=-1, keepdims=True)
    x_given = np.nan_to_num(x_given)  # unreachable (v1, v2) pairs
    for x in range(3):
        for k in range(4):
            dist = encoder_distribution([x], k, cb)
            brute = np.zeros(dist.shape)
            for m in np.ndindex(*dist.shape):
                v1 = cb.v1[m][k][0]
                v2 = cb.v2[m[0], m[1], k][0]
                brute[m] = x_given[v1, v2, x]
            brute /= brute.sum()
            assert np.abs(dist - brute).sum() < 1e-12
            # one draw from the same distribution
            m_draw = likelihood_encode([x], k, cb, seed=x * 7 + k)
            assert dist[m_draw] > 0.0


def test_encoder_validation_and_support():
    cb = build_codebooks(corner_spec(1, BITS_N1))
    with pytest.raises(ValueError):
        encoder_distribution([0, 1], 0, cb)  # wrong length
    with pytest.raises(ValueError):
        encoder_distribution([3], 0, cb)  # symbol out of range
    with pytest.raises(ValueError):
        encoder_distribution([0], 99, cb)  # key out of range
    with pytest.raises(ValueError, match="x_seq entry must be an integer"):
        encoder_distribution([1.7], 0, cb)  # not truncated to symbol 1
    with pytest.raises(ValueError, match="key value must be an integer"):
        encoder_distribution([0], 0.5, cb)
    # deterministic P(x|v1,v2) plus singleton codebooks leaves most source
    # symbols unencodable
    spec = corner_spec(1, IndexBits(0, 0, 0, 0, 0))
    cb0 = build_codebooks(spec)
    dists = []
    for x in range(3):
        try:
            dists.append(encoder_distribution([x], 0, cb0))
        except ZeroProbabilityError:
            dists.append(None)
    assert sum(d is not None for d in dists) == 1


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_likelihood_encode_rejects_a_seed_that_is_no_integer_below_2_64(seed):
    cb = build_codebooks(corner_spec(1, BITS_N1))
    with pytest.raises(ValueError, match=SEED_MESSAGE):
        likelihood_encode([0], 0, cb, seed=seed)


def test_singleton_codebooks_trivial_encode():
    spec = random_spec(3, 1, IndexBits(0, 0, 0, 0, 0))
    cb = build_codebooks(spec)
    for x in range(2):
        for seed in (0, 1, 2):
            assert likelihood_encode([x], 0, cb, seed) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# exact system tables and the constraint audit


AUDIT_SPECS = [
    corner_spec(1, BITS_N1),
    corner_spec(2, BITS_N2),
    random_spec(11, 1, IndexBits(1, 1, 1, 1, 1)),
    random_spec(11, 2, IndexBits(1, 1, 1, 0, 1), seed=3),
    random_spec(29, 2, IndexBits(0, 1, 1, 1, 2), seed=5),
]


def _message_names(n):
    xs = tuple(f"X{t + 1}" for t in range(n))
    y2s = tuple(f"Y2_{t + 1}" for t in range(n))
    y3s = tuple(f"Y3_{t + 1}" for t in range(n))
    return xs, y2s, y3s


@pytest.mark.parametrize("idx", range(len(AUDIT_SPECS)))
def test_system_constraint_audit(idx):
    """Key uniform and independent; both cascade Markov chains hold."""
    spec = AUDIT_SPECS[idx]
    joint = dense_joint(run_system_exact(spec))
    assert abs(joint.table.sum() - 1.0) < 1e-12
    n = spec.n
    xs, y2s, y3s = _message_names(n)

    n_k = spec.index_bits.sizes[4]
    k_marg = joint.table.reshape(n_k, -1).sum(axis=1)
    assert np.abs(k_marg - 1.0 / n_k).max() < 1e-14
    assert entropy(joint, ("K",)) == pytest.approx(spec.index_bits.key, abs=1e-12)

    # source i.i.d. and independent of the key
    x_marg = joint.table.sum(
        axis=tuple(i for i in range(joint.table.ndim) if not 5 <= i < 5 + n)
    )
    p_x = spec.inner.joint.table.sum(
        axis=tuple(
            i for i in range(spec.inner.joint.table.ndim)
            if i != spec.inner.joint.axis(spec.inner.x[0])
        )
    )
    block = p_x
    for _ in range(n - 1):
        block = np.multiply.outer(block, p_x)
    assert np.abs(x_marg - block).max() < 1e-12
    assert mutual_information(joint, ("K",), xs) < 1e-12

    # chain (4): messages and node-2 actions carry nothing extra about the
    # source beyond (M1, K); M2 is a function of M1 and drops out
    c4 = conditional_mutual_information(
        joint, xs, y2s, ("K", "Ma", "Mb", "Mc", "Md")
    )
    # chain (5): node 3 acts on (M2, K) alone
    c5 = conditional_mutual_information(
        joint, xs + ("Mc", "Md") + y2s, y3s, ("K", "Ma", "Mb")
    )
    assert c4 <= 1e-9
    assert c5 <= 1e-9


@pytest.mark.parametrize(
    "spec",
    AUDIT_SPECS + [corner_spec(2, BITS_N2, seed=3)],
    ids=[f"audit-{i}" for i in range(len(AUDIT_SPECS))] + ["simulate_n2"],
)
def test_audit_from_shared_marginals_matches_full_joint(spec):
    """The CLI audit's marginal-derived numbers equal the whole-joint formulas."""
    table = run_system_exact(spec)
    joint = dense_joint(table)
    xs, y2s, y3s = _message_names(spec.n)
    n_k = spec.index_bits.sizes[4]
    want = {
        "table_sum_error": abs(float(joint.table.sum()) - 1.0),
        "key_entropy_bits": entropy(joint, ("K",)),
        "key_uniformity_gap": np.abs(joint.table.reshape(n_k, -1).sum(axis=1) - 1.0 / n_k).max(),
        "mi_key_source_bits": mutual_information(joint, ("K",), xs),
        "markov_chain_4_bits": conditional_mutual_information(
            joint, xs, y2s, ("K", "Ma", "Mb", "Mc", "Md")
        ),
        "markov_chain_5_bits": conditional_mutual_information(
            joint, xs + ("Mc", "Md") + y2s, y3s, ("K", "Ma", "Mb")
        ),
    }
    got = cli._audit(spec, table)
    assert set(got) == set(want) | {"key_bits", "passed"}
    for field, value in want.items():
        assert abs(got[field] - value) <= 1e-12, field
    assert got["key_bits"] == spec.index_bits.key and got["passed"] is True


@pytest.mark.parametrize("idx", range(len(AUDIT_SPECS)))
def test_marginals_of_stored_cells_match_the_dense_reductions(idx):
    spec = AUDIT_SPECS[idx]
    table = run_system_exact(spec)
    joint = dense_joint(table)
    xs, y2s, y3s = _message_names(spec.n)
    for names in (
        joint.names[1:],
        ("K", "Ma", "Mb") + y3s,
        ("K", "Ma", "Mb", "Mc", "Md") + xs + y2s,
    ):
        want = marginalize(joint, names)
        assert want.names == names
        flat, mass = table.sums(names)
        got = np.zeros(want.table.shape)
        np.put(got, flat, mass)
        assert np.array_equal(got, want.table), names


def test_corner_n2_stores_one_cell_per_key_and_message():
    # deterministic encoder and emissions: 32 keys x 512 messages, one
    # nonzero cell each, of 11.9M dense cells
    table = run_system_exact(corner_spec(2, BITS_N2))
    assert table.index.size == table.values.size == 16_384
    assert np.all(np.diff(table.index) > 0)
    for arr in (table.index, table.values):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_cell_cap_counts_stored_cells():
    table = run_system_exact(corner_spec(2, BITS_N2), cell_cap=200_000)
    assert simulate_payoff(table, EX.payoff) == pytest.approx(0.3886258640539077, abs=1e-12)
    # the encoder table has 64 cells and the codebooks 60, but the
    # emissions are not deterministic: 1,024 stored cells
    spec = random_spec(11, 2, IndexBits(1, 1, 1, 0, 1), seed=3)
    with pytest.raises(CapExceededError, match="system table stores 1024 cells, cap is 64"):
        run_system_exact(spec, cell_cap=64)


def test_table_requires_full_coverage():
    # auto-sized spaces at n=2 are too small for the deterministic
    # corner-1 encoder: some source pairs have no consistent codeword
    with pytest.raises(ZeroProbabilityError, match=r"x\^n=\(\d, \d\) has no codeword at key \d"):
        run_system_exact(corner_spec(2, auto_index_bits(CORNER, 2, key=4)))


def _loop_table(spec, cb):
    """Oracle: the system table cell by cell from the codebooks.

    Products run in a fixed order: per-time factors in time order, the
    normalizer summed over messages in order, then (prior * y2 law) * y3
    law.  The whole-array construction must match it bit for bit.
    """
    sch = _Scheme(spec)
    n = spec.n
    m_a, m_b, m_c, m_d, n_k = spec.index_bits.sizes
    messages = list(np.ndindex(m_a, m_b, m_c, m_d))
    xs = list(itertools.product(range(sch.nx), repeat=n))
    y2s = list(itertools.product(range(sch.ny2), repeat=n))
    y3s = list(itertools.product(range(sch.ny3), repeat=n))
    table = np.zeros((n_k, m_a, m_b, m_c, m_d) + (sch.nx,) * n + (sch.ny2,) * n + (sch.ny3,) * n)
    for k in range(n_k):
        weight = {}
        for m in messages:
            v1, v2 = cb.v1[m][k], cb.v2[m[0], m[1], k]
            for x in xs:
                w = 1.0
                for t in range(n):
                    w = w * sch.x_of_v1v2[v1[t], v2[t], x[t]]
                weight[m, x] = w
        for x in xs:
            denom = 0.0
            for m in messages:
                denom += weight[m, x]
            p_x = 1.0
            for t in range(n):
                p_x = p_x * sch.p_x[x[t]]
            for m in messages:
                v1, v2 = cb.v1[m][k], cb.v2[m[0], m[1], k]
                prior = (p_x / n_k) * (weight[m, x] / denom)
                for y2 in y2s:
                    e2 = 1.0
                    for t in range(n):
                        e2 = e2 * sch.y2_of_v1[v1[t], y2[t]]
                    for y3 in y3s:
                        e3 = 1.0
                        for t in range(n):
                            e3 = e3 * sch.y3_of_v2[v2[t], y3[t]]
                        table[(k,) + m + x + y2 + y3] = (prior * e2) * e3
    return table


def _dense_encoder(engine):
    """The engine's stored encoder cells as a dense (K, Ma, Mb, Mc, Md) + (|X|,)*n table."""
    row, x, value = engine.enc
    dense = np.zeros((engine.n_k * math.prod(engine.m_shape), engine.scheme.nx**engine.n))
    dense[row, x] = value
    return dense.reshape((engine.n_k,) + engine.m_shape + (engine.scheme.nx,) * engine.n)


def _keywise_posteriors(engine, m, w_prefix, first=0):
    """Oracle: every time's posterior from scratch, one history and one key at a time."""
    enc = _dense_encoder(engine)
    return np.array([_keywise_history(engine, enc, tuple(mi), wi) for mi, wi in zip(m, w_prefix)])


def _keywise_history(engine, enc, m, w_prefix):
    sch = engine.scheme
    n = engine.n
    d = sch.disclosure.reshape(sch.nx, sch.ny2 * sch.ny3, sch.n_w)
    out = []
    for t in range(len(w_prefix) + 1):
        post = np.zeros(sch.nx * sch.ny2 * sch.ny3)
        for k in range(engine.n_k):
            v1, v2 = engine.cb.v1[m][k], engine.cb.v2[m[0], m[1], k]
            w = enc[(k,) + m]
            for s in range(t):
                emit = np.outer(sch.y2_of_v1[v1[s]], sch.y3_of_v2[v2[s]]).ravel()
                f_s = d[:, :, w_prefix[s]] @ emit
                w = w * f_s.reshape(tuple(sch.nx if r == s else 1 for r in range(n)))
            margin = w.sum(axis=tuple(r for r in range(n) if r != t))
            emit_t = np.outer(sch.y2_of_v1[v1[t]], sch.y3_of_v2[v2[t]])
            post += (margin[:, None, None] * emit_t[None]).ravel()
        out.append(post / post.sum())
    return out


@pytest.mark.parametrize(
    "spec",
    [
        random_spec(11, 2, IndexBits(1, 1, 1, 0, 1), seed=3),
        corner_spec(1, BITS_N1),
        random_spec(5, 3, IndexBits(1, 0, 1, 1, 2), seed=1),
        # a ternary x^3 block: numpy adds the 9 later-symbol cells of a
        # time-1 margin pairwise, not in order
        random_spec(4, 3, IndexBits(1, 1, 1, 1, 2), nx=3),
    ],
    ids=["random-n2", "corner-n1", "random-n3", "random-n3-ternary-x"],
)
def test_whole_array_table_and_sweep_match_the_loops(spec, monkeypatch):
    table = run_system_exact(spec)
    assert np.array_equal(dense_joint(table).table, _loop_table(spec, table.codebooks))
    payoff = EX.payoff if spec.inner is CORNER else LogLossPayoff(("X",))
    swept = mc_estimate(spec, payoff, 40, seed=9)
    monkeypatch.setattr(simulation._PosteriorEngine, "posteriors", _keywise_posteriors)
    assert mc_estimate(spec, payoff, 40, seed=9) == swept


@pytest.mark.parametrize("size", [1, 3, 8, 9, 16, 27, 81, 127, 128, 129, 243, 300, 1025])
def test_pairwise_sums_add_as_numpy_sums_a_block(size):
    rng = np.random.default_rng(size)
    dense = rng.random((5, size)) * 10.0 ** rng.integers(-12, 12, (5, size))
    dense[rng.random((5, size)) < 0.4] = 0.0
    dense[3] = 0.0
    block, pos = np.nonzero(dense)
    blocks, sums = simulation._pairwise_sums(block, pos, dense[block, pos], size)
    assert blocks.tolist() == [b for b in range(5) if dense[b].any()]
    assert np.array_equal(sums, dense.sum(axis=1)[blocks])


def test_shared_draw_leaves_no_reference_cycle():
    # the spec keeps its compiled scheme and (weakly) its codebook draw, and
    # the draw keeps its encoder table; dropping the run frees all of them
    # by reference counting, with the cycle collector off
    gc.disable()
    try:
        spec = corner_spec(1, BITS_N1)
        table = run_system_exact(spec)
        assert mc_estimate(spec, EX.payoff, 4, 0)[1] >= 0.0
        refs = [weakref.ref(obj) for obj in (spec, table.codebooks, table)]
        del spec, table
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# adversary posteriors


def test_incremental_posterior_matches_direct_conditioning():
    spec = random_spec(11, 2, IndexBits(1, 1, 1, 0, 1), seed=3)
    table = run_system_exact(spec)
    cb = table.codebooks
    side = spec.side
    d_full = np.einsum(
        "xa,yb,zc->xyzabc", side.ch1.rows, side.ch2.rows, side.ch3.rows
    ).reshape(8, -1)
    q = dense_joint(table).table  # (k, ma, mb, mc, md, x1, x2, y21, y22, y31, y32)
    for m in [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)]:
        sub = q[:, m[0], m[1], m[2], m[3]]
        if sub.sum() <= 0.0:
            continue
        trip = np.einsum("kabcdef->kacebdf", sub).reshape(sub.shape[0], 8, 8)
        # t = 1: condition on the message alone
        direct0 = trip.sum(axis=(0, 2)).ravel()
        direct0 = direct0 / direct0.sum()
        assert np.abs(direct0 - history_posterior(cb, m, [])).sum() < 1e-12
        # t = 2: condition on the message and the first disclosed signal
        for w1 in range(d_full.shape[1]):
            weighted = trip * d_full[:, w1][None, :, None]
            direct = weighted.sum(axis=(0, 1))
            if direct.sum() <= 0.0:
                with pytest.raises(ZeroProbabilityError):
                    history_posterior(cb, m, [w1])
                continue
            direct = direct / direct.sum()
            inc = history_posterior(cb, m, [w1])
            assert np.abs(direct - inc).sum() < 1e-12


def test_history_posterior_validation():
    cb = build_codebooks(corner_spec(1, BITS_N1))
    with pytest.raises(ValueError):
        history_posterior(cb, (0, 0, 0), [])
    with pytest.raises(ValueError):
        history_posterior(cb, (0, 0, 0, 0), [0])  # prefix as long as the block
    # out-of-range or non-integer indices name their field instead of
    # wrapping around (negative) or escaping as a bare IndexError
    cb = build_codebooks(corner_spec(2, BITS_N2))
    for m, needle in (((-1, 0, 0, 0), "Ma must lie in 0..3"),
                      ((4, 0, 0, 0), "Ma must lie in 0..3"),
                      ((0, 0, 0, 2), "Md must lie in 0..1"),
                      ((0, 1.0, 0, 0), "Mb must be an integer")):
        with pytest.raises(ValueError, match=needle):
            history_posterior(cb, m, [])
    for w, needle in ((-1, "must lie in 0..26"), (27, "must lie in 0..26"),
                      (1.7, "must be an integer")):
        with pytest.raises(ValueError, match="w_prefix entry " + needle):
            history_posterior(cb, (0, 0, 0, 0), [w])


# ---------------------------------------------------------------------------
# exact payoff simulation


def test_simulate_payoff_corner_values():
    """Frozen exact values for the corner-1 systems."""
    t1 = run_system_exact(corner_spec(1, BITS_N1))
    p1 = simulate_payoff(t1, EX.payoff)
    assert p1 == pytest.approx(0.3198292448292448, abs=1e-12)
    t2 = run_system_exact(corner_spec(2, BITS_N2))
    p2 = simulate_payoff(t2, EX.payoff)
    assert p2 == pytest.approx(0.3886258640539077, abs=1e-12)
    # the finite-n trend the construction promises
    assert p2 >= p1 - 1e-12
    assert abs(p2 - 0.5) <= 0.15


def test_payoff_monotone_in_key():
    values = []
    for b0 in (0, 1, 2):
        spec = corner_spec(1, IndexBits(1, 1, 2, 1, b0))
        values.append(simulate_payoff(run_system_exact(spec), EX.payoff))
    assert values == pytest.approx([0.0, 0.2524891774891775, 0.3198292448292448], abs=1e-12)
    assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9


def test_z_independent_payoff_is_plain_expectation():
    spec = random_spec(11, 2, IndexBits(1, 1, 1, 0, 1), seed=3)
    table = run_system_exact(spec)
    rng = np.random.default_rng(5)
    base = rng.random((2, 2, 2, 1))
    payoff = PayoffTable(
        Alphabet("X", 2), Alphabet("Y2", 2), Alphabet("Y3", 2), Alphabet("Z", 3),
        np.repeat(base, 3, axis=3),
    )
    got = simulate_payoff(table, payoff)
    q = dense_joint(table).table.sum(axis=(0, 1, 2, 3, 4))
    per_t = [
        np.einsum("abcdef,ace->", q, base[..., 0]),
        np.einsum("abcdef,bdf->", q, base[..., 0]),
    ]
    assert got == pytest.approx(sum(per_t) / 2, abs=1e-13)


def test_forbidden_payoff_propagates():
    spec = random_spec(11, 1, IndexBits(1, 1, 1, 1, 1))
    table = run_system_exact(spec)
    hostile = PayoffTable(
        Alphabet("X", 2), Alphabet("Y2", 2), Alphabet("Y3", 2), Alphabet("Z", 1),
        np.full((2, 2, 2, 1), -np.inf),
    )
    assert simulate_payoff(table, hostile) == -np.inf


def test_payoff_alphabet_mismatch_rejected():
    table = run_system_exact(corner_spec(1, BITS_N1))
    wrong = PayoffTable(
        Alphabet("X", 2), Alphabet("Y2", 2), Alphabet("Y3", 2), Alphabet("Z", 2),
        np.zeros((2, 2, 2, 2)),
    )
    with pytest.raises(ValueError):
        simulate_payoff(table, wrong)


def test_n1_payoff_equals_static_adversary_value():
    """With one symbol there is no disclosure yet, so the operational
    adversary coincides with the single-shot one observing the messages."""
    table = run_system_exact(corner_spec(1, BITS_N1))
    got = simulate_payoff(table, EX.payoff)
    want = adversary_value(
        dense_joint(table), ("Ma", "Mb", "Mc", "Md"), EX.payoff,
        x="X1", y2="Y2_1", y3="Y3_1",
    )
    assert got == pytest.approx(want.value, abs=1e-12)


# ---------------------------------------------------------------------------
# equivocation


def test_equivocation_zero_when_messages_determine_secret():
    spec = corner_spec(1, IndexBits(1, 1, 2, 1, 0))
    table = run_system_exact(spec)
    assert empirical_equivocation(table, ("X",)) == pytest.approx(0.0, abs=1e-12)


def test_equivocation_full_entropy_with_constant_messages():
    spec = random_spec(3, 1, IndexBits(0, 0, 0, 0, 0))
    table = run_system_exact(spec)
    h_x = entropy(spec.inner.joint, ("X",))
    assert empirical_equivocation(table, ("X",)) == pytest.approx(h_x, abs=1e-12)
    # two-symbol block: exactly (1/n) H(S^n) = H(S)
    spec2 = random_spec(3, 2, IndexBits(0, 0, 0, 0, 0))
    table2 = run_system_exact(spec2)
    assert empirical_equivocation(table2, ("X",)) == pytest.approx(h_x, abs=1e-12)


def test_log_loss_telescopes_to_equivocation():
    """Disclosing exactly the secret makes the causal log-loss payoff
    average out to the block equivocation (the chain-rule identity)."""
    x_a, y2_a, y3_a = Alphabet("X", 2), Alphabet("Y2", 2), Alphabet("Y3", 2)
    blank = Pmf(Alphabet("W", 1, ("*",)), np.ones(1))
    side = SideInfoSpec(
        Channel.identity(x_a, "W1"),
        Channel.constant((y2_a,), blank),
        Channel.constant((y3_a,), blank),
    )
    cand = random_factored_candidate(np.random.default_rng(11), (2, 2, 2, 1, 2, 2, 2))
    spec = SchemeSpec(n=2, inner=cand, index_bits=IndexBits(1, 1, 1, 0, 1), side=side, seed=3)
    table = run_system_exact(spec)
    ll = simulate_payoff(table, LogLossPayoff(("X",)))
    eq = empirical_equivocation(table, ("X",))
    assert ll == pytest.approx(eq, abs=1e-9)


def test_equivocation_accepts_role_aliases():
    table = run_system_exact(corner_spec(1, BITS_N1))
    a = empirical_equivocation(table, ("X", "Y2"))
    b = empirical_equivocation(table, ("Y2", "X"))
    assert a == b
    with pytest.raises(ValueError):
        empirical_equivocation(table, ())


# ---------------------------------------------------------------------------
# Monte Carlo estimator


MC_SPECS = [
    corner_spec(1, BITS_N1),
    random_spec(11, 1, IndexBits(1, 1, 1, 1, 1)),
    random_spec(11, 2, IndexBits(1, 1, 1, 0, 1), seed=3),
]


@pytest.mark.parametrize("idx", range(len(MC_SPECS)))
def test_mc_estimate_within_three_se(idx):
    spec = MC_SPECS[idx]
    payoff = EX.payoff if spec.inner is CORNER else LogLossPayoff(("X",))
    exact = simulate_payoff(run_system_exact(spec), payoff)
    est, se = mc_estimate(spec, payoff, 600, seed=17)
    assert se > 0.0
    assert abs(est - exact) <= 3.0 * se


def test_mc_zero_variance_constant_payoff():
    spec = random_spec(11, 1, IndexBits(1, 1, 1, 1, 1))
    const = PayoffTable(
        Alphabet("X", 2), Alphabet("Y2", 2), Alphabet("Y3", 2), Alphabet("Z", 2),
        np.full((2, 2, 2, 2), 0.75),
    )
    est, se = mc_estimate(spec, const, 64, seed=1)
    assert est == pytest.approx(0.75, abs=1e-12)
    assert se <= 1e-15


def test_mc_se_shrinks_with_sqrt_samples():
    spec = corner_spec(1, BITS_N1)
    _, se_small = mc_estimate(spec, EX.payoff, 800, seed=10)
    _, se_big = mc_estimate(spec, EX.payoff, 1600, seed=10)
    ratio = se_big / se_small
    assert 0.8 / np.sqrt(2) <= ratio <= 1.2 / np.sqrt(2)


def test_mc_estimate_validation_and_determinism():
    spec = corner_spec(1, BITS_N1)
    with pytest.raises(ValueError):
        mc_estimate(spec, EX.payoff, 1, seed=0)
    a = mc_estimate(spec, EX.payoff, 120, seed=4)
    b = mc_estimate(spec, EX.payoff, 120, seed=4)
    assert a == b


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_mc_estimate_rejects_a_seed_that_is_no_integer_below_2_64(seed, monkeypatch):
    # the check comes before the codebooks are drawn
    def unreachable(*args, **kwargs):
        raise AssertionError("the codebooks were drawn")

    monkeypatch.setattr(simulation, "build_codebooks", unreachable)
    with pytest.raises(ValueError, match=SEED_MESSAGE):
        mc_estimate(corner_spec(1, BITS_N1, seed=1), EX.payoff, 20, seed=seed)


@pytest.mark.parametrize("samples", [3.0, 2.5, "5", True])
def test_mc_estimate_rejects_a_sample_count_that_is_no_integer(samples, monkeypatch):
    # refused before the codebooks are drawn, naming the field; a float
    # count used to fail in range() after the encoder table was built
    def unreachable(*args, **kwargs):
        raise AssertionError("the codebooks were drawn")

    monkeypatch.setattr(simulation, "build_codebooks", unreachable)
    with pytest.raises(ValueError, match="samples must be an integer >= 2"):
        mc_estimate(corner_spec(1, BITS_N1, seed=1), EX.payoff, samples, seed=0)


def test_mc_trace_csv(tmp_path):
    spec = corner_spec(1, BITS_N1)
    buf = io.StringIO()
    mc_estimate(spec, EX.payoff, 6, seed=2, trace=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "sample,t,history,posterior_entropy,action,payoff"
    assert len(lines) == 1 + 6 * spec.n
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    float(first[3]), float(first[5])  # numeric columns parse
    # file path variant writes the same bytes
    out = tmp_path / "trace.csv"
    mc_estimate(spec, EX.payoff, 6, seed=2, trace=str(out))
    assert out.read_text(encoding="utf-8").splitlines() == lines


def _per_sample_mc(spec, payoff, samples, seed):
    """Oracle: the Monte Carlo loop one sample at a time, each sample making
    six draws from its own stream and scoring one posterior row at a time.
    Returns (mean, se) and the trace CSV text."""
    engine = simulation._PosteriorEngine(build_codebooks(spec))
    sch, cb, n = engine.scheme, engine.cb, spec.n
    dense_enc = _dense_encoder(engine)
    key_pmf = np.full(engine.n_k, 1.0 / engine.n_k)
    values, rows = [], []
    for sample in range(samples):
        gen = stream(seed, STREAM_SAMPLE, row=sample)
        k = int(sample_pmf(gen, key_pmf, ()))
        x_seq = sample_pmf(gen, sch.p_x, (n,))
        weights = dense_enc[(k,) + (...,) + tuple(x_seq)]
        enc = weights / weights.sum()
        flat = int(sample_pmf(gen, enc.ravel(), ()))
        m = tuple(int(i) for i in np.unravel_index(flat, enc.shape))
        y2_seq = sample_rows(gen, sch.y2_of_v1, cb.v1[m][k])
        y3_seq = sample_rows(gen, sch.y3_of_v2, cb.v2[m[0], m[1], k])
        triples = np.ravel_multi_index((x_seq, y2_seq, y3_seq), (sch.nx, sch.ny2, sch.ny3))
        w_seq = sample_rows(gen, sch.disclosure, triples)
        value = 0.0
        for t, post in enumerate(engine.posteriors([m], [w_seq[:-1]])[0]):
            pay = float(simulation._row_values(post[None, :], payoff, sch)[0])
            value += pay
            history = ":".join(str(i) for i in m)
            if t:
                history += "|" + ",".join(str(int(w)) for w in w_seq[:t])
            if isinstance(payoff, LogLossPayoff):
                action = "posterior"
            else:
                vals = batched_values(post[None, :], payoff)[0]
                action = payoff.z_alphabet.label(int(np.argmin(vals)))
            rows.append([sample, t + 1, history, round(entropy_of(post), 12), action, pay])
        values.append(value / n)
    values = np.array(values)
    buf = io.StringIO()
    simulation._write_trace(buf, rows)
    se = float(values.std(ddof=1) / np.sqrt(samples))
    return (float(values.mean()), se), buf.getvalue()


@pytest.mark.parametrize(
    "spec, samples, seed",
    [
        (corner_spec(2, BITS_N2, seed=3), 400, 5),
        (corner_spec(2, BITS_N2, seed=6), 400, 2),
        (corner_spec(1, BITS_N1), 100, 9),
        (random_spec(5, 3, IndexBits(1, 0, 1, 1, 2), seed=1), 60, 4),
    ],
    ids=["simulate_n2-3-5", "simulate_n2-6-2", "corner-n1-chunks", "random-n3-log-loss"],
)
def test_whole_array_mc_matches_the_per_sample_loop(spec, samples, seed, monkeypatch):
    payoff = EX.payoff if spec.inner is CORNER else LogLossPayoff(("X",))
    want, want_trace = _per_sample_mc(spec, payoff, samples, seed)
    batches = []
    swept = simulation._PosteriorEngine.posteriors

    def counted(engine, m, w_prefix, first=0):
        batches.append((first, len(m)))
        return swept(engine, m, w_prefix, first)

    monkeypatch.setattr(simulation._PosteriorEngine, "posteriors", counted)
    buf = io.StringIO()
    assert mc_estimate(spec, payoff, samples, seed, trace=buf) == want
    assert buf.getvalue() == want_trace
    # chunks of min(Ma*Mb*Mc*Md, K*|X|^n) samples, here several with a partial last one
    sizes = spec.index_bits.sizes
    chunk = min(int(np.prod(sizes[:4])), sizes[4] * spec._scheme.nx**spec.n)
    assert batches == [(s, min(chunk, samples - s)) for s in range(0, samples, chunk)]
    assert len(batches) > 1 and batches[-1][1] < chunk


def test_zero_probability_history_names_its_sample(monkeypatch):
    # negated encoder values draw the same messages (each normalized row
    # is unchanged) but give every history negative total mass
    encoder_table = simulation._encoder_table

    def negated(*args, **kwargs):
        row, x, value = encoder_table(*args, **kwargs)
        return row, x, -value

    monkeypatch.setattr(simulation, "_encoder_table", negated)
    with pytest.raises(
        ZeroProbabilityError,
        match=r"sample 0: history with message \(\d+, \d+, \d+, \d+\) and disclosure"
        r" prefix \(\) has zero probability",
    ):
        mc_estimate(corner_spec(1, BITS_N1), EX.payoff, 8, seed=0)


def test_zero_probability_names_message_and_prefix():
    # corner emissions are deterministic, so most first signals are impossible
    spec = corner_spec(2, BITS_N2)
    engine = simulation._PosteriorEngine(build_codebooks(spec))
    m = (0, 0, 0, 0)
    impossible = []
    for w in range(engine.scheme.n_w):
        try:
            history_posterior(engine.cb, m, [w])
        except ZeroProbabilityError:
            impossible.append(w)
    possible = sorted(set(range(engine.scheme.n_w)) - set(impossible))
    assert impossible and possible
    with pytest.raises(
        ZeroProbabilityError,
        match=rf"sample 8: history with message \(0, 0, 0, 0\) and disclosure"
        rf" prefix \({impossible[0]},\) has zero probability",
    ):
        engine.posteriors([m, m], [[possible[0]], [impossible[0]]], first=7)


# ---------------------------------------------------------------------------
# serialization


def test_scheme_spec_json_round_trip():
    spec = corner_spec(1, BITS_N1)
    obj = scheme_spec_to_json(spec)
    back = scheme_spec_from_json(obj)
    assert scheme_spec_to_json(back) == obj
    assert back.n == spec.n and back.index_bits == spec.index_bits
    assert back.seed == spec.seed and back.epsilon == spec.epsilon
    # the rebuilt spec drives the construction to the same place
    cb_a = build_codebooks(spec)
    cb_b = build_codebooks(back)
    assert np.array_equal(cb_a.v1, cb_b.v1)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", 2**64), ("seed", True), ("n", 1.0), ("n", True), ("a", 1.0),
    ("key", 2.5),
])
def test_scheme_spec_json_rejects_what_is_no_integer(field, value):
    # a float or a bool is refused, not truncated by int()
    obj = scheme_spec_to_json(corner_spec(1, BITS_N1))
    if field in obj:
        obj[field] = value
    else:
        obj["index_bits"][field] = value
    with pytest.raises(ValueError):
        scheme_spec_from_json(obj)


@pytest.mark.parametrize("epsilon", ["0.25", True, None, [0.25]])
def test_scheme_spec_rejects_an_epsilon_that_is_no_number(epsilon):
    # a JSON string or a bool is refused, not converted by float()
    with pytest.raises(ValueError, match="epsilon must be a nonnegative number"):
        SchemeSpec(n=1, inner=CORNER, index_bits=BITS_N1, side=EX.side, epsilon=epsilon)
    obj = scheme_spec_to_json(corner_spec(1, BITS_N1))
    obj["epsilon"] = epsilon
    with pytest.raises(ValueError, match="epsilon"):
        scheme_spec_from_json(obj)


def test_scheme_spec_rejects_an_infinite_epsilon():
    # it was accepted, and scheme_spec_to_json then wrote "epsilon":
    # Infinity, which is not standard JSON; auto_index_bits refused it
    with pytest.raises(ValueError, match="epsilon must be a finite number >= 0, got inf"):
        SchemeSpec(n=1, inner=CORNER, index_bits=BITS_N1, side=EX.side, epsilon=np.inf)


def test_scheme_spec_stores_an_integer_epsilon_as_float():
    spec = SchemeSpec(n=1, inner=CORNER, index_bits=BITS_N1, side=EX.side, epsilon=np.int64(1))
    assert type(spec.epsilon) is float and spec.epsilon == 1.0
