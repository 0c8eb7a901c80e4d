"""Small dense LP solver for the storage arbitrage subproblems.

Solves  max c^T x  s.t.  G x <= h,  x >= 0  with h >= 0, so the all-slack
basis is feasible and a single primal phase suffices.  Pivoting is Dantzig's
rule with deterministic tie-breaking, falling back to Bland's rule after a
long degenerate streak to guarantee termination.  Problem sizes here are a
few hundred columns at most, so a dense tableau is the simplest robust
choice.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9
MAX_ITERATIONS = 50_000
DEGENERATE_STREAK = 200


class UnboundedError(Exception):
    """The LP has unbounded objective value."""


def maximize(c, G, h) -> tuple[np.ndarray, float]:
    """Solve max c^T x s.t. G x <= h, x >= 0 (requires h >= 0).

    Returns (x, value) at an optimal vertex.
    """
    c = np.asarray(c, dtype=float)
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    m, n = G.shape
    if c.shape != (n,) or h.shape != (m,):
        raise ValueError("inconsistent LP dimensions")
    if np.any(h < 0.0):
        raise ValueError("right-hand side must be non-negative")

    # Tableau: m constraint rows plus objective row; columns are x, slacks, rhs.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = G
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = h
    T[m, :n] = -c
    basis = list(range(n, n + m))

    bland = False
    stalled = 0
    last_objective = 0.0
    for _ in range(MAX_ITERATIONS):
        obj = T[m, : n + m]
        if bland:
            candidates = np.nonzero(obj < -PIVOT_TOL)[0]
            if candidates.size == 0:
                break
            j = int(candidates[0])
        else:
            j = int(np.argmin(obj))
            if obj[j] >= -PIVOT_TOL:
                break

        col = T[:m, j]
        eligible = np.nonzero(col > PIVOT_TOL)[0]
        if eligible.size == 0:
            raise UnboundedError(f"LP unbounded along column {j}")
        ratios = T[eligible, -1] / col[eligible]
        best = np.min(ratios)
        ties = eligible[ratios <= best + PIVOT_TOL * max(1.0, abs(best))]
        # smallest basis index among ties keeps the pivot sequence deterministic
        row = int(min(ties, key=lambda i: basis[i]))

        pivot = T[row, j]
        T[row] /= pivot
        factors = T[:, j].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        basis[row] = j

        objective = T[m, -1]
        if objective <= last_objective + PIVOT_TOL:
            stalled += 1
            if stalled >= DEGENERATE_STREAK:
                bland = True
        else:
            stalled = 0
        last_objective = objective
    else:
        raise ArithmeticError("simplex iteration limit exceeded")

    x = np.zeros(n + m)
    for i, var in enumerate(basis):
        x[var] = T[i, -1]
    return x[:n], float(T[m, -1])
