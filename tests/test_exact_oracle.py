"""The exact audit, payoff and equivocation against their dense oracles.

``simulation`` and ``cli._audit`` evaluate an exact system from the
grouped sums of its stored cells.  The reference functions here are the
dense formulations they replaced: every marginal is a full dense
reduction of the system table, and the payoff contracts whole
(m, triple^n) arrays with the disclosure matrix one prefix time at a time.
"""

import dataclasses

import numpy as np
import pytest

from conftest import dense_joint, random_factored_candidate

from cascade_secrecy import cli, simulation
from cascade_secrecy.bounds import SideInfoSpec
from cascade_secrecy.payoff import LogLossPayoff, PayoffTable
from cascade_secrecy.probability import (
    Alphabet,
    CapExceededError,
    Channel,
    _clamped,
    _entropy_of as entropy_of,
    conditional_mutual_information,
    entropy,
    marginalize,
    mutual_information,
)
from cascade_secrecy.simulation import (
    IndexBits,
    SchemeSpec,
    empirical_equivocation,
    run_system_exact,
    simulate_payoff,
)
from cascade_secrecy.ternary import corner_candidate, ternary_example

from test_simulation import AUDIT_SPECS, BITS_N2, CORNER, corner_spec, random_spec

EX = ternary_example()


# ---------------------------------------------------------------------------
# dense oracles


def _names(n):
    return tuple(tuple(f"{p}{t + 1}" for t in range(n)) for p in ("X", "Y2_", "Y3_"))


def dense_audit(spec, table):
    xs, y2s, y3s = _names(spec.n)
    h_all = entropy_of(table.values)
    # marginals over names in table order, by dense reductions of the joint
    joint = dense_joint(table)
    h_y3 = entropy_of(marginalize(joint, ("K", "Ma", "Mb") + y3s).table)
    head = marginalize(joint, ("K", "Ma", "Mb", "Mc", "Md") + xs + y2s)
    n_k = spec.index_bits.sizes[4]
    key_gap = float(np.abs(head.table.reshape(n_k, -1).sum(axis=1) - 1.0 / n_k).max())
    markov_4 = conditional_mutual_information(head, xs, y2s, ("K", "Ma", "Mb", "Mc", "Md"))
    markov_5 = entropy(head, head.names) + h_y3 - h_all - entropy(head, ("K", "Ma", "Mb"))
    audit = {
        "table_sum_error": abs(float(head.table.sum()) - 1.0),
        "key_entropy_bits": entropy(head, ("K",)),
        "key_bits": spec.index_bits.key,
        "key_uniformity_gap": key_gap,
        "mi_key_source_bits": mutual_information(head, ("K",), xs),
        "markov_chain_4_bits": markov_4,
        "markov_chain_5_bits": _clamped(markov_5),
    }
    limits = {"table_sum_error": 1e-9, "key_uniformity_gap": 1e-12, "mi_key_source_bits": 1e-12,
              "markov_chain_4_bits": 1e-9, "markov_chain_5_bits": 1e-9}
    audit["passed"] = all(audit[field] <= tol for field, tol in limits.items())
    return audit


def dense_time_grouped(table):
    """Key-summed table over (m, triple_1, ..., triple_n), dense."""
    scheme = table.spec._scheme
    n = table.spec.n
    m_cells = int(np.prod(table.shape[1:5]))
    perm = list(range(4)) + [4 + block * n + t for t in range(n) for block in range(3)]
    joint = dense_joint(table)
    keyless = marginalize(joint, joint.names[1:]).table
    q = np.transpose(keyless, perm)
    return q.reshape((m_cells,) + (scheme.nx * scheme.ny2 * scheme.ny3,) * n)


def dense_payoff(table, payoff):
    scheme = table.spec._scheme
    q = dense_time_grouped(table)
    n = table.spec.n
    j = scheme.nx * scheme.ny2 * scheme.ny3
    total = 0.0
    for t in range(n):
        cur = q.sum(axis=tuple(range(2 + t, 1 + n)))
        for _ in range(t):
            # disclose the leading prefix triple, moving its signal last
            cur = np.tensordot(cur, scheme.disclosure, axes=([1], [0]))
        cur = np.moveaxis(cur, 1, -1)
        rows = cur.reshape(-1, j)
        total += float(simulation._row_values(rows, payoff, scheme).sum())
    return total / n


def dense_equivocation(table, secret_set):
    roles = LogLossPayoff(tuple(secret_set)).secret_set
    q, scheme = dense_time_grouped(table), table.spec._scheme
    n = table.spec.n
    shaped = q.reshape((q.shape[0],) + (scheme.nx, scheme.ny2, scheme.ny3) * n)
    drop = tuple(
        1 + 3 * t + i
        for t in range(n)
        for i, role in enumerate(("X", "Y2", "Y3"))
        if role not in roles
    )
    p_sm = shaped.sum(axis=drop) if drop else shaped
    p_m = p_sm.reshape(p_sm.shape[0], -1).sum(axis=1)
    return (entropy_of(p_sm) - entropy_of(p_m)) / n


def assert_matches_oracle(spec, payoffs, secret_sets=(("X",),)):
    table = run_system_exact(spec)
    got, want = cli._audit(spec, table), dense_audit(spec, table)
    assert set(got) == set(want)
    for field, value in want.items():
        assert abs(got[field] - value) <= 1e-12, field
    for payoff in payoffs:
        got, want = simulate_payoff(table, payoff), dense_payoff(table, payoff)
        assert got == want if np.isinf(want) else abs(got - want) <= 1e-12
    for secret in secret_sets:
        got, want = empirical_equivocation(table, secret), dense_equivocation(table, secret)
        assert abs(got - want) <= 1e-12, secret


# ---------------------------------------------------------------------------
# specs


def noisy_binary_side(rng):
    """Binary roles disclosed through random channels with some zero entries,
    so a prefix triple fans out over one to eight disclosed signals."""
    channels = []
    for tag, outputs in (("W1", 3), ("W2", 2), ("W3", 2)):
        rows = rng.random((2, outputs)) * (rng.random((2, outputs)) < 0.7)
        rows[np.arange(2), rng.integers(outputs, size=2)] += 0.5
        channels.append(Channel((Alphabet("I", 2),), Alphabet(tag, outputs), rows / rows.sum(1, keepdims=True)))
    return SideInfoSpec(*channels)


def random_noisy_spec(rng_seed, n, bits, seed=0):
    rng = np.random.default_rng(rng_seed)
    cand = random_factored_candidate(rng, (2, 2, 2, 1, 2, 2, 2))
    return SchemeSpec(n=n, inner=cand, index_bits=bits, side=noisy_binary_side(rng), seed=seed)


def random_table_payoff(rng):
    values = rng.random((2, 2, 2, 3))
    return PayoffTable(Alphabet("X", 2), Alphabet("Y2", 2), Alphabet("Y3", 2), Alphabet("Z", 3), values)


RANDOM_SPECS = [
    (random_spec, 7, 1, IndexBits(1, 1, 1, 1, 1), 0),
    (random_spec, 11, 2, IndexBits(1, 1, 1, 0, 1), 3),
    (random_spec, 5, 3, IndexBits(1, 0, 1, 1, 2), 1),
    (random_noisy_spec, 13, 1, IndexBits(1, 1, 1, 0, 1), 2),
    (random_noisy_spec, 17, 2, IndexBits(1, 1, 1, 1, 1), 4),
    (random_noisy_spec, 19, 3, IndexBits(1, 0, 1, 0, 1), 0),
    (random_noisy_spec, 23, 3, IndexBits(0, 1, 1, 1, 1), 6),
]


# ---------------------------------------------------------------------------
# agreement


@pytest.mark.parametrize("idx", range(len(AUDIT_SPECS)))
def test_audit_specs_match_the_dense_oracle(idx):
    spec = AUDIT_SPECS[idx]
    payoff = EX.payoff if spec.inner is CORNER else LogLossPayoff(("X",))
    assert_matches_oracle(spec, [payoff], [("X",), ("X", "Y2", "Y3")])


@pytest.mark.parametrize("seed", range(8))
def test_simulate_n2_seeds_match_the_dense_oracle(seed):
    assert_matches_oracle(corner_spec(2, BITS_N2, seed=seed), [EX.payoff])


@pytest.mark.parametrize("make, rng_seed, n, bits, seed", RANDOM_SPECS,
                         ids=[f"{m.__name__}-{r}-n{n}" for m, r, n, _, _ in RANDOM_SPECS])
def test_random_binary_specs_match_the_dense_oracle(make, rng_seed, n, bits, seed):
    spec = make(rng_seed, n, bits, seed=seed)
    payoffs = [LogLossPayoff(("X",)), LogLossPayoff(("X", "Y3")), random_table_payoff(np.random.default_rng(rng_seed))]
    assert_matches_oracle(spec, payoffs, [("X",), ("X", "Y3")])


def test_forbidden_payoff_matches_the_dense_oracle():
    # the corner specs above score the example's payoff, whose forbidden
    # cells never carry mass; here every action is forbidden everywhere
    table = run_system_exact(random_noisy_spec(17, 2, IndexBits(1, 1, 1, 1, 1), seed=4))
    hostile = PayoffTable(Alphabet("X", 2), Alphabet("Y2", 2), Alphabet("Y3", 2), Alphabet("Z", 1),
                          np.full((2, 2, 2, 1), -np.inf))
    assert simulate_payoff(table, hostile) == dense_payoff(table, hostile) == -np.inf


# ---------------------------------------------------------------------------
# cell cap


def _fan_out(table):
    """Cells the payoff fans the last time's prefixes out to, counted densely."""
    scheme = table.spec._scheme
    n = table.spec.n
    q = dense_time_grouped(table)
    fan = np.count_nonzero(scheme.disclosure, axis=1)
    count = np.ones(q.shape, dtype=np.int64)
    for t in range(n - 1):
        count *= fan.reshape(tuple(fan.size if s == t + 1 else 1 for s in range(n + 1)))
    return int(count[q > 0.0].sum())


def test_payoff_fan_out_is_capped_before_it_is_allocated(monkeypatch):
    table = run_system_exact(random_noisy_spec(19, 3, IndexBits(1, 0, 1, 0, 1)))
    need = _fan_out(table)
    assert need > table.index.size
    capped = dataclasses.replace(table, cell_cap=need - 1)

    paired = simulation._paired

    def checked_paired(rows, law):
        assert np.count_nonzero(law, axis=1)[rows].sum() < need, "an over-cap fan-out was allocated"
        return paired(rows, law)

    monkeypatch.setattr(simulation, "_paired", checked_paired)
    with pytest.raises(CapExceededError, match=f"payoff fan-out needs {need} cells, cap is {need - 1}"):
        simulate_payoff(capped, LogLossPayoff(("X",)))
    monkeypatch.undo()
    assert simulate_payoff(dataclasses.replace(table, cell_cap=need), LogLossPayoff(("X",))) == pytest.approx(
        dense_payoff(table, LogLossPayoff(("X",))), abs=1e-12)


def test_n3_corner_runs_under_a_cap_its_dense_marginals_exceed():
    # bits (3,4,4,2,4): the key-summed (M, triple^3) table has 161M cells and
    # the audit's Y3-free (K, M, X^3, Y2^3) marginal 95.6M; everything the
    # exact evaluation allocates fits in 4.2M
    cap = 1 << 22
    spec = SchemeSpec(n=3, inner=corner_candidate(1), index_bits=IndexBits(3, 4, 4, 2, 4), side=EX.side)
    table = run_system_exact(spec, cell_cap=cap)
    m_cells, k_cells = np.prod(table.shape[1:5]), table.shape[0]
    assert m_cells * 27**3 == 161_243_136 > cap
    assert k_cells * m_cells * 9**3 == 95_551_488 > cap
    assert cli._audit(spec, table)["passed"] is True
    assert simulate_payoff(table, EX.payoff) == pytest.approx(0.336208112771, abs=1e-12)
    assert 0.0 < empirical_equivocation(table, ("X",)) <= np.log2(3)
