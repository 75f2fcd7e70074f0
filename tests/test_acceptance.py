"""Acceptance gate: eight end-to-end criteria, one test per criterion (two for 8).

Each test pins its tolerance in-line and prints a single PASS line on
success (visible with ``pytest -s``; under ``pytest -v`` the per-test
PASSED/FAILED verdict carries the same information).  These tests state
the package-level contract; module test files hold the fine-grained
oracles behind them.
"""

import math
import time

import numpy as np
from conftest import dense_joint, random_factored_candidate, random_joint

from cascade_secrecy import cli
from cascade_secrecy.bounds import (
    SideInfoSpec,
    check_inner_constraints,
    check_outer_constraints,
    eval_inner_tuple,
    eval_outer_tuple,
    inner_to_outer,
)
from cascade_secrecy.payoff import LogLossPayoff, adversary_value
from cascade_secrecy.probability import (
    Alphabet,
    Pmf,
    ZeroProbabilityError,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    marginalize,
    mutual_information,
)
from cascade_secrecy.search import (
    CardinalityCaps,
    EquivocationProblem,
    InnerSearchProblem,
    RateBudget,
    equivocation_sweep,
    search_equivocation,
    search_inner,
)
from cascade_secrecy.simulation import (
    IndexBits,
    SchemeSpec,
    build_codebooks,
    encoder_distribution,
    history_posterior,
    mc_estimate,
    run_system_exact,
    simulate_payoff,
)
from cascade_secrecy.ternary import LOG2_3, corner_candidate, ternary_example, verify_example

EX = ternary_example()
CORNER_1 = corner_candidate(1)
CORNER_2 = corner_candidate(2)
HAMMING = np.array([[0.0, 1.0], [1.0, 0.0]])

# corner-1 index sizing reused across criteria: a modest n=1 system and
# the generous-key n=2 system (deterministic encoders need index spaces
# beyond the asymptotic auto-sizing at this blocklength)
BITS_N1 = IndexBits(1, 1, 2, 1, 2)
BITS_N2 = IndexBits(2, 3, 3, 1, 5)


def corner_spec(n, bits, candidate=CORNER_1):
    return SchemeSpec(n=n, inner=candidate, index_bits=bits, side=EX.side, seed=0)


def random_spec(rng_seed, n, bits, seed=0):
    cand = random_factored_candidate(np.random.default_rng(rng_seed), (2, 2, 2, 1, 2, 2, 2))
    side = SideInfoSpec.identity(Alphabet("X", 2), Alphabet("Y2", 2), Alphabet("Y3", 2))
    return SchemeSpec(n=n, inner=cand, index_bits=bits, side=side, seed=seed)


def binary_equiv_problem(d_cap, r0):
    return EquivocationProblem(
        p_x=Pmf.uniform(Alphabet("X", 2)),
        secret_set=("X",),
        y2_alphabet=Alphabet("Y2", 2),
        y3_alphabet=Alphabet("Y3", 2),
        d1=HAMMING,
        d2=HAMMING,
        max_d1=d_cap,
        max_d2=d_cap,
        r0=r0,
        r1=1.0,
        r2=1.0,
        cap_v1=4,
        cap_v2=4,
    )


def test_criterion_1_example_curve():
    """Worked-example curve on the ten-point grid; corner tuples exact."""
    t0 = time.perf_counter()
    report = verify_example()
    elapsed = time.perf_counter() - t0

    assert len(report.rows) == 10
    for row in report.rows:
        assert abs(row.pi_evaluated - row.pi_analytic) <= 1e-6, row
    assert report.determinism_ok

    expected = (
        (1.0, LOG2_3, LOG2_3 - 1.0, 0.5),
        (LOG2_3, LOG2_3, LOG2_3 - 1.0, 2.0 / 3.0),
    )
    for got, want in zip(report.corner_tuples, expected):
        for g, w in zip((got.r0, got.r1, got.r2, got.pi), want):
            assert abs(g - w) <= 1e-9
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1: PASS — curve within 1e-6, corners within 1e-9, {elapsed:.2f}s")


def test_criterion_2_log_loss_reduction():
    """Adversary value under log-loss equals conditional entropy."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    secrets = (("X",), ("Y2",), ("Y3",), ("X", "Y2"), ("X", "Y3"), ("Y2", "Y3"),
               ("X", "Y2", "Y3"))
    worst = 0.0
    for trial in range(200):
        sizes = rng.integers(1, 5, size=4)
        sizes[1:] = np.maximum(sizes[1:], 2)
        dist = random_joint(
            rng, sizes, names=("U", "X", "Y2", "Y3"),
            sparsity=0.25 if trial % 3 == 0 else 0.0,
        )
        secret = secrets[rng.integers(len(secrets))]
        got = adversary_value(dist, ("U",), LogLossPayoff(secret)).value
        want = conditional_entropy(dist, secret, ("U",))
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2: PASS — 200 joints, max |Δ| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_equivocation_closed_forms():
    """Binary Hamming configurations hit their closed forms; sweep monotone."""
    targets = [
        ((0.0, 1.0), 1.0),  # zero distortion, unit key: fully re-hidden
        ((0.0, 0.0), 0.0),  # zero distortion, no key: source disclosed
        ((0.5, 0.0), 1.0),  # vacuous distortion: blind actions leak nothing
    ]
    for (d_cap, r0), want in targets:
        res = search_equivocation(binary_equiv_problem(d_cap, r0), restarts=16, seed=0)
        assert res.feasible
        assert abs(res.value - want) <= 1e-6, (d_cap, r0, res.value)

    grid = [i * 1.25 / 19 for i in range(20)]
    pts = equivocation_sweep(binary_equiv_problem(0.0, 0.0), grid, restarts=8, seed=0)
    vals = [p.value for p in pts]
    assert len(vals) == 20
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    print("ACCEPTANCE 3: PASS — closed forms within 1e-6, 20-point sweep monotone")


def test_criterion_4_system_constraint_audit():
    """Key exactly uniform and source-independent; Markov chains hold."""
    specs = [
        corner_spec(1, BITS_N1),
        corner_spec(2, BITS_N2),
        random_spec(11, 1, IndexBits(1, 1, 1, 1, 1)),
        random_spec(11, 2, IndexBits(1, 1, 1, 0, 1), seed=3),
        random_spec(29, 2, IndexBits(0, 1, 1, 1, 2), seed=5),
    ]
    for spec in specs:
        table = run_system_exact(spec)
        joint = dense_joint(table)
        n = spec.n
        xs = tuple(f"X{t + 1}" for t in range(n))
        y2s = tuple(f"Y2_{t + 1}" for t in range(n))
        y3s = tuple(f"Y3_{t + 1}" for t in range(n))

        n_k = spec.index_bits.sizes[4]
        k_marg = joint.table.reshape(n_k, -1).sum(axis=1)
        assert np.abs(k_marg - 1.0 / n_k).max() < 1e-14
        assert abs(entropy(joint, ("K",)) - spec.index_bits.key) < 1e-12
        assert mutual_information(joint, ("K",), xs) < 1e-12

        c4 = conditional_mutual_information(joint, xs, y2s, ("K", "Ma", "Mb", "Mc", "Md"))
        c5 = conditional_mutual_information(joint, xs + ("Mc", "Md") + y2s, y3s, ("K", "Ma", "Mb"))
        assert c4 <= 1e-9, spec.index_bits
        assert c5 <= 1e-9, spec.index_bits
    print(f"ACCEPTANCE 4: PASS — {len(specs)} systems audited (n in {{1,2}})")


def test_criterion_5_oracle_equivalence():
    """Encoder, incremental posteriors, and Monte Carlo against oracles."""
    # (a) exact encoder distribution vs index-space enumeration, n = 1
    for cand, bits in ((CORNER_1, BITS_N1), (CORNER_2, IndexBits(1, 2, 3, 1, 2))):
        cb = build_codebooks(corner_spec(1, bits, candidate=cand))
        marg = marginalize(cand.joint, ("V1", "V2", "X"))
        p = np.transpose(marg.table, [marg.names.index(v) for v in ("V1", "V2", "X")])
        with np.errstate(invalid="ignore"):
            x_given = np.nan_to_num(p / p.sum(axis=-1, keepdims=True))
        for x in range(3):
            for k in range(4):
                try:
                    dist = encoder_distribution([x], k, cb)
                except ZeroProbabilityError:
                    continue
                brute = np.zeros(dist.shape)
                for m in np.ndindex(*dist.shape):
                    v1 = cb.v1[m][k][0]
                    v2 = cb.v2[m[0], m[1], k][0]
                    brute[m] = x_given[v1, v2, x]
                brute /= brute.sum()
                assert np.abs(dist - brute).sum() <= 1e-12

    # (b) incremental adversary posteriors vs direct table conditioning
    spec = random_spec(11, 2, IndexBits(1, 1, 1, 0, 1), seed=3)
    table = run_system_exact(spec)
    cb = table.codebooks
    d_full = np.einsum(
        "xa,yb,zc->xyzabc",
        spec.side.ch1.rows, spec.side.ch2.rows, spec.side.ch3.rows,
    ).reshape(8, -1)
    q = dense_joint(table).table  # (k, ma, mb, mc, md, x1, x2, y21, y22, y31, y32)
    checked = 0
    for m in [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)]:
        sub = q[:, m[0], m[1], m[2], m[3]]
        if sub.sum() <= 0.0:
            continue
        trip = np.einsum("kabcdef->kacebdf", sub).reshape(sub.shape[0], 8, 8)
        direct0 = trip.sum(axis=(0, 2)).ravel()
        direct0 = direct0 / direct0.sum()
        assert np.abs(direct0 - history_posterior(cb, m, [])).sum() <= 1e-12
        for w1 in range(d_full.shape[1]):
            weighted = trip * d_full[:, w1][None, :, None]
            direct = weighted.sum(axis=(0, 1))
            if direct.sum() <= 0.0:
                continue
            direct = direct / direct.sum()
            assert np.abs(direct - history_posterior(cb, m, [w1])).sum() <= 1e-12
            checked += 1
    assert checked >= 10

    # (c) Monte Carlo within three standard errors of the exact payoff
    mc_specs = [
        corner_spec(1, BITS_N1),
        random_spec(11, 1, IndexBits(1, 1, 1, 1, 1)),
        random_spec(11, 2, IndexBits(1, 1, 1, 0, 1), seed=3),
    ]
    for spec in mc_specs:
        payoff = EX.payoff if spec.inner is CORNER_1 else LogLossPayoff(("X",))
        exact = simulate_payoff(run_system_exact(spec), payoff)
        est, se = mc_estimate(spec, payoff, 600, seed=17)
        assert se > 0.0
        assert abs(est - exact) <= 3.0 * se
    print("ACCEPTANCE 5: PASS — encoder/posterior oracles within 1e-12, MC within 3 SE")


def test_criterion_6_containment():
    """Feasible inner candidates reinterpret as outer ones, tuples identical."""
    rng = np.random.default_rng(6)
    for trial in range(500):
        sizes = (
            rng.integers(1, 3),  # u2
            rng.integers(1, 3),  # refinement to u1
            rng.integers(1, 3),  # refinement to v2
            rng.integers(1, 3),  # refinement to v1
            rng.integers(2, 4),  # x
            rng.integers(2, 4),  # y2
            rng.integers(2, 4),  # y3
        )
        cand = random_factored_candidate(rng, sizes)
        assert check_inner_constraints(cand).passed
        outer = inner_to_outer(cand)
        assert check_outer_constraints(outer).passed

        side = SideInfoSpec.identity(
            cand.joint.alphabet("X"), cand.joint.alphabet("Y2"), cand.joint.alphabet("Y3")
        )
        payoff = LogLossPayoff(("X",))
        ti = eval_inner_tuple(cand, side, payoff, check=False)
        to = eval_outer_tuple(outer, side, payoff, check=False)
        assert ti == to, (trial, ti, to)
    print("ACCEPTANCE 6: PASS — 500 candidates contained with identical tuples")


def test_criterion_7_search_floor():
    """Randomized search recovers the unit-key optimum; thread-count invariant."""
    problem = InnerSearchProblem(
        p_x=EX.p_x,
        payoff=EX.payoff,
        side=EX.side,
        budget=RateBudget(1.0, math.inf, math.inf),
        caps=CardinalityCaps(u1=6, u2=3, v1=27, v2=9),
    )
    outcomes = []
    for workers in (1, 2):
        res = search_inner(problem, restarts=64, seed=0, workers=workers)
        assert res.feasible
        assert res.tuple.pi >= 0.48
        assert res.tuple.r0 <= 1.0 + 1e-9
        obj = res.to_json()
        obj.pop("wall_time")
        outcomes.append(obj)
    assert outcomes[0] == outcomes[1]
    print(f"ACCEPTANCE 7: PASS — floor {outcomes[0]['tuple']['pi']:.6f} >= 0.48, "
          "identical across worker counts")


def test_criterion_8_simulation_trend():
    """Exact finite-n payoff approaches the corner value from below."""
    assert BITS_N1.key >= 2 * 1 and BITS_N2.key >= 2 * 2
    pi = {}
    for n, bits in ((1, BITS_N1), (2, BITS_N2)):
        pi[n] = simulate_payoff(run_system_exact(corner_spec(n, bits)), EX.payoff)
    assert pi[2] >= pi[1] - 1e-12
    assert abs(pi[2] - 0.5) <= 0.15
    print(f"ACCEPTANCE 8: PASS — payoff {pi[1]:.4f} -> {pi[2]:.4f}, within 0.15 of 1/2")


def test_criterion_8_simulation_trend_at_n3():
    """The exact trend continues at n = 3, where the audit passes too.

    Criterion 8 spends a key of at least 2n bits.  With 6 key bits the
    n = 3 payoff rises past n = 2's; with 5 it stays above n = 1's but
    below n = 2's, which spends 5 bits on two symbols.
    """
    pi1, pi2 = (simulate_payoff(run_system_exact(corner_spec(n, bits)), EX.payoff)
                for n, bits in ((1, BITS_N1), (2, BITS_N2)))
    pi3 = {}
    for bits in (IndexBits(3, 4, 4, 1, 5), IndexBits(3, 4, 4, 1, 6)):
        spec = corner_spec(3, bits)
        table = run_system_exact(spec)
        assert cli._audit(spec, table)["passed"] is True
        pi3[bits.key] = simulate_payoff(table, EX.payoff)
        assert abs(pi3[bits.key] - 0.5) <= 0.15
    assert abs(pi3[5] - 0.368261541782) <= 1e-12
    assert pi1 - 1e-12 <= pi3[5] <= pi3[6] + 1e-12
    assert pi3[6] >= pi2 - 1e-12
    print(f"ACCEPTANCE 8 (n = 3): PASS — payoff {pi1:.4f} -> {pi2:.4f} -> {pi3[6]:.4f} "
          f"(6 key bits; {pi3[5]:.4f} with 5), within 0.15 of 1/2")
