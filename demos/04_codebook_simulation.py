"""Running the actual coding scheme at blocklength one and two.

Everything upstream treats the achievable region analytically; here the
scheme itself is materialized.  Superposition codebooks are drawn from
seeded streams, the likelihood encoder maps source blocks to indices,
and every nonzero cell of the joint over (key, messages, source block,
action blocks) is enumerated exactly.  At tiny blocklength the payoff
sits below the single-letter value and climbs toward it as n grows —
soft covering only kicks in asymptotically.
"""

import math

from cascade_secrecy import (
    IndexBits,
    SchemeSpec,
    auto_index_bits,
    empirical_equivocation,
    likelihood_encode,
    mc_estimate,
    run_system_exact,
    simulate_payoff,
)
from cascade_secrecy.ternary import corner_candidate, ternary_example

ex = ternary_example()
corner = corner_candidate(1)

# the asymptotic sizing rule (rate + slack, ceiled) for reference...
print("auto-sized index bits at n=1:", auto_index_bits(corner, 1, key=2))
# ...but the corner's encoder is deterministic, so small blocks need
# hand-picked, roomier index spaces to cover every source sequence
bits = {1: IndexBits(1, 1, 2, 1, 2), 2: IndexBits(2, 3, 3, 1, 5)}

for n in (1, 2):
    spec = SchemeSpec(n=n, inner=corner, index_bits=bits[n], side=ex.side, seed=0)
    table = run_system_exact(spec)
    pi = simulate_payoff(table, ex.payoff)
    eq = empirical_equivocation(table, ("X",))
    # the table stores its nonzero cells only; the dense size is what a
    # full enumeration of (k, m, x^n, y2^n, y3^n) would hold
    print(f"n={n}: stored cells={table.values.size:>6,} of {math.prod(table.shape):>10,}  "
          f"payoff={pi:.6f}  equivocation={eq:.6f}  (single-letter corner payoff is 0.5)")

# the same payoff, estimated by sampling histories instead of exact sums
spec = SchemeSpec(n=1, inner=corner, index_bits=bits[1], side=ex.side, seed=0)
est, se = mc_estimate(spec, ex.payoff, samples=2000, seed=42)
print(f"Monte Carlo at n=1: {est:.4f} +/- {se:.4f} (exact 0.319829)")

# one encoded block, reproducibly: key 3 maps the source symbol '2' to
# the same message four-tuple on every run
m = likelihood_encode([1], 3, run_system_exact(spec).codebooks, seed=5)
print("likelihood_encode([1], key=3) ->", m)
