"""Shared helpers for building random test distributions."""

import numpy as np

from cascade_secrecy.bounds import InnerCandidate
from cascade_secrecy.probability import Alphabet, JointDistribution


def random_joint(rng, sizes, names=None, sparsity=0.0):
    """Random dense joint over the given alphabet sizes.

    ``sparsity`` zeroes that fraction of cells (keeping at least one) so
    zero-probability paths get exercised too.
    """
    sizes = tuple(int(s) for s in sizes)
    names = tuple(names) if names is not None else tuple(f"V{i}" for i in range(len(sizes)))
    table = rng.random(sizes)
    if sparsity > 0.0:
        mask = rng.random(sizes) < sparsity
        flat = np.argmax(table)  # keep the largest cell alive
        table[mask] = 0.0
        table.flat[flat] = max(table.flat[flat], 0.5)
    table /= table.sum()
    variables = tuple((n, Alphabet(n, s)) for n, s in zip(names, sizes))
    return JointDistribution(variables, table)


def random_factored_candidate(rng, sizes, concentration=3.0):
    """Random feasible inner candidate with full-support conditionals.

    ``sizes`` = (u2, a, b, c, x, y2, y3).  The joint is assembled from
    the factorization the achievability structure prescribes — P(u2)
    P(a|u2) P(b|u2) P(c|u2,a,b) P(x|v1) P(y2|v1) P(y3|v2) with the
    composite roles v1 = (U2, A, B, C), u1 = (U2, A), v2 = (U2, B) — so
    every structural constraint holds by construction and every
    conditional has full support.
    """
    nu2, na, nb, nc, nx, ny2, ny3 = (int(s) for s in sizes)
    alpha = float(concentration)
    p_u2 = rng.dirichlet(np.ones(nu2) * alpha)
    a_of = rng.dirichlet(np.ones(na) * alpha, size=nu2)
    b_of = rng.dirichlet(np.ones(nb) * alpha, size=nu2)
    c_of = rng.dirichlet(np.ones(nc) * alpha, size=(nu2, na, nb))
    x_of = rng.dirichlet(np.ones(nx) * alpha, size=(nu2, na, nb, nc))
    y2_of = rng.dirichlet(np.ones(ny2) * alpha, size=(nu2, na, nb, nc))
    y3_of = rng.dirichlet(np.ones(ny3) * alpha, size=(nu2, nb))
    table = np.einsum(
        "u,ua,ub,uabc,uabcx,uabcy,ubz->uabcxyz",
        p_u2, a_of, b_of, c_of, x_of, y2_of, y3_of,
    )
    table /= table.sum()
    variables = tuple(
        (n, Alphabet(n, s))
        for n, s in zip(("U2", "A", "B", "C", "X", "Y2", "Y3"), (nu2, na, nb, nc, nx, ny2, ny3))
    )
    return InnerCandidate(
        JointDistribution(variables, table),
        x="X", y2="Y2", y3="Y3",
        u1=("U2", "A"), u2=("U2",), v1=("U2", "A", "B", "C"), v2=("U2", "B"),
    )


def dense_joint(table):
    """The dense joint of a ``SystemTable``: its stored cells scattered into
    ``table.shape``, zeros included; the exact oracles' input."""
    dense = np.zeros(table.shape)
    np.put(dense, table.index, table.values)
    return JointDistribution(table._variables, dense)
