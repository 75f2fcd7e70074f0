"""Rate-limited secrecy over a two-hop cascade.

Library layout:

- :mod:`cascade_secrecy.probability` — alphabets, pmfs, channels, joint
  tables, and information measures (all logs base 2).
- :mod:`cascade_secrecy.payoff` — payoff tables, log-loss, and the
  minimizing adversary's value against a revealed index.
- :mod:`cascade_secrecy.bounds` — outer/inner candidate regions, their
  constraint checkers, and rate–payoff tuple evaluation.
- :mod:`cascade_secrecy.ternary` — the uniform-ternary worked example
  with its closed-form key-rate curve.
- :mod:`cascade_secrecy.search` — randomized restarts + refinement over
  candidate families, equivocation curves, minimum key rate.
- :mod:`cascade_secrecy.simulation` — explicit superposition codebooks,
  likelihood encoding, exact finite-blocklength system tables, and
  Monte Carlo estimates.
- :mod:`cascade_secrecy.cli` — the ``cascade-secrecy`` command.
"""

from .bounds import (
    ConstraintReport,
    ConstraintViolationError,
    EquivocationCandidate,
    InnerCandidate,
    OuterCandidate,
    RatePayoffTuple,
    SideInfoSpec,
    check_equivocation_membership,
    check_inner_constraints,
    check_outer_constraints,
    equivocation_value,
    eval_inner_tuple,
    eval_outer_tuple,
    inner_to_outer,
)
from .payoff import (
    AdversaryValue,
    LogLossPayoff,
    PayoffTable,
    adversary_value,
    best_response,
)
from .probability import (
    Alphabet,
    CapExceededError,
    Channel,
    JointDistribution,
    Pmf,
    ZeroProbabilityError,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    from_factors,
    mutual_information,
    product_alphabet,
)
from .search import (
    CardinalityCaps,
    EquivocationProblem,
    InnerSearchProblem,
    RateBudget,
    SearchResult,
    VerificationError,
    equivocation_sweep,
    min_key_rate,
    search_equivocation,
    search_inner,
)
from .simulation import (
    IndexBits,
    SchemeSpec,
    SystemTable,
    auto_index_bits,
    build_codebooks,
    empirical_equivocation,
    history_posterior,
    likelihood_encode,
    mc_estimate,
    run_system_exact,
    simulate_payoff,
)
from .ternary import analytic_pi, corner_candidate, ternary_example, verify_example

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # probability
    "Alphabet",
    "Pmf",
    "Channel",
    "JointDistribution",
    "product_alphabet",
    "from_factors",
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "conditional_mutual_information",
    "CapExceededError",
    "ZeroProbabilityError",
    # payoff
    "PayoffTable",
    "LogLossPayoff",
    "AdversaryValue",
    "best_response",
    "adversary_value",
    # bounds
    "SideInfoSpec",
    "OuterCandidate",
    "InnerCandidate",
    "EquivocationCandidate",
    "RatePayoffTuple",
    "ConstraintReport",
    "ConstraintViolationError",
    "check_outer_constraints",
    "check_inner_constraints",
    "check_equivocation_membership",
    "eval_outer_tuple",
    "eval_inner_tuple",
    "equivocation_value",
    "inner_to_outer",
    # ternary example
    "ternary_example",
    "analytic_pi",
    "corner_candidate",
    "verify_example",
    # search
    "RateBudget",
    "CardinalityCaps",
    "InnerSearchProblem",
    "SearchResult",
    "VerificationError",
    "search_inner",
    "EquivocationProblem",
    "search_equivocation",
    "equivocation_sweep",
    "min_key_rate",
    # simulation
    "IndexBits",
    "SchemeSpec",
    "SystemTable",
    "auto_index_bits",
    "build_codebooks",
    "likelihood_encode",
    "run_system_exact",
    "simulate_payoff",
    "empirical_equivocation",
    "history_posterior",
    "mc_estimate",
]
