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


class UnboundedError(ArithmeticError):
    """The LP has unbounded objective value."""


def maximize(c, G, h):
    """Solve max c^T x s.t. G x <= h, x >= 0 (requires h >= 0).

    Returns (x, value, basis, rows) at an optimal vertex: ``basis[i]`` is
    the column basic in row i, columns n.. being the slacks, and ``rows`` is
    the final tableau's constraint block B^-1 [G I], shape (m, n + m).
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
    rhs = T[:, -1]
    basis = np.arange(n, n + m)

    bland = False
    stalled = 0
    last_objective = 0.0
    for _ in range(MAX_ITERATIONS):
        obj = T[m, : n + m]
        if bland:
            candidates = (obj < -PIVOT_TOL).nonzero()[0]
            if candidates.size == 0:
                break
            j = int(candidates[0])
        else:
            j = int(obj.argmin())
            if obj[j] >= -PIVOT_TOL:
                break

        col = T[:m, j]
        eligible = (col > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            raise UnboundedError(f"LP unbounded along column {j}")
        ratios = rhs[eligible] / col[eligible]
        best = ratios.min()
        ties = eligible[ratios <= best + PIVOT_TOL * max(1.0, abs(best))]
        # smallest basis index among ties keeps the pivot sequence deterministic
        row = int(ties[basis[ties].argmin()])

        T[row] /= T[row, j]
        factors = T[:, j].copy()
        factors[row] = 0.0
        # rows with a zero factor would only subtract zeros
        rows = factors.nonzero()[0]
        T[rows] -= factors[rows, None] * T[row]
        basis[row] = j

        objective = rhs[m]
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
    x[basis] = rhs[:m]
    return x[:n], float(rhs[m]), basis, T[:m, : n + m]
