"""Dense two-phase simplex with Bland's anticycling rule.

Deterministic and dependency-free; sized for the desk-scale linear programs
the oracle module produces (a few thousand variables).  Problems are stated
as  max/min c.x  subject to  A_eq x = b_eq, A_ub x <= b_ub, x >= 0.

The tableau is dense, but a pivot updates only the rows whose entry in the
pivot column is nonzero: on the oracle's transport LPs that is a few percent
of the rows.  Phase one keeps no artificial columns, since no step reads
them.  Before returning, the solver checks its point against the caller's
own rows (feasibility to FEAS_TOL of each row's scale) and raises
InaccurateError when pivots on near-zero elements have lost it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
MAX_PIVOTS = 200_000
MAX_VARIABLES = 5_000


class LPError(ValueError):
    """Malformed linear program."""


class InfeasibleError(LPError):
    """Phase one terminated with positive artificial mass."""


class UnboundedError(LPError):
    """A negative reduced cost column has no blocking row."""


class InaccurateError(LPError):
    """The final point breaks the caller's constraints beyond FEAS_TOL."""


@dataclass
class LPResult:
    x: np.ndarray
    fun: float
    pivots: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    # only rows with a nonzero pivot-column entry change (0 * x leaves finite
    # entries as they are); on transport LPs the column is mostly zero
    nz = np.flatnonzero(colvals)
    T[nz] -= colvals[nz, None] * T[row]
    # exact unit column to stop drift
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


STALL_LIMIT = 12


def _bland_loop(T: np.ndarray, basis: np.ndarray, ncols: int, start_pivots: int) -> int:
    """Run minimizing pivots on tableau T (last row = objective, last col = rhs).

    Pivots on the most negative reduced cost while the objective moves and
    falls back to Bland's anticycling rule during degenerate stalls, which
    guarantees termination.
    """
    m = T.shape[0] - 1
    pivots = start_pivots
    stall = 0
    while True:
        red = T[-1, :ncols]
        if stall < STALL_LIMIT:
            col = int(np.argmin(red))
            if red[col] >= -PIVOT_TOL:
                return pivots
        else:
            candidates = np.nonzero(red < -PIVOT_TOL)[0]
            if candidates.size == 0:
                return pivots
            col = int(candidates[0])                  # Bland: smallest index
        rows = np.nonzero(T[:m, col] > PIVOT_TOL)[0]
        if rows.size == 0:
            raise UnboundedError("objective unbounded along a feasible ray")
        ratios = T[rows, -1] / T[rows, col]
        best = np.min(ratios)
        ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        row = int(ties[np.argmin(basis[ties])])       # Bland: smallest basic var
        before = T[-1, -1]
        _pivot(T, basis, row, col)
        stall = 0 if T[-1, -1] > before + 1e-13 * (1.0 + abs(before)) else stall + 1
        pivots += 1
        if pivots - start_pivots > MAX_PIVOTS:
            raise LPError("pivot limit exceeded")


def _constraint_rows(A, b, n: int, name: str):
    """(A, b) as float arrays of shapes (k, n) and (k,); k = 0 when absent."""
    if A is None or not len(A):
        return np.zeros((0, n)), np.zeros(0)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.shape != (b.size, n):
        raise LPError(f"{name} shape mismatch")
    return A, b


def _certify(x, A_eq, b_eq, A_ub, b_ub, scale) -> None:
    """Raise InaccurateError unless x >= 0, A_eq x = b_eq and A_ub x <= b_ub.

    Row residuals are taken in the units the tableau works in, i.e. divided
    by the equilibration scale of each row; a negative entry of x is measured
    against max(1, max|x|), so an optimum at x = 0 with rounding-level entries
    passes.  FEAS_TOL bounds both.  An inequality row's scale counts its
    slack coefficient 1, so a row whose entries and rhs are all below 1 is
    checked only to an absolute FEAS_TOL; callers that need a bound relative
    to the rhs check it themselves (see oracle.dro_lp).
    """
    if np.min(x, initial=0.0) < -FEAS_TOL * max(1.0, float(np.max(np.abs(x), initial=0.0))):
        raise InaccurateError(f"returned point has a negative entry {np.min(x):.3e}")
    n_eq = b_eq.size
    for kind, rel in (("equality", np.abs(A_eq @ x - b_eq) / scale[:n_eq]),
                      ("inequality", (A_ub @ x - b_ub) / scale[n_eq:])):
        if rel.size and np.max(rel) > FEAS_TOL:
            raise InaccurateError(f"returned point breaks {kind} row {int(np.argmax(rel))} "
                                  f"by {np.max(rel):.3e} of its scale")


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None,
             maximize: bool = False) -> LPResult:
    """Solve the LP; returns primal solution and optimal value.

    Raises InfeasibleError / UnboundedError; rhs rows are sign-normalized and
    equilibrated before phase one.  The returned point is certified feasible
    for the caller's own rows (see _certify) or InaccurateError is raised.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if n > MAX_VARIABLES:
        raise LPError(f"{n} variables exceed the {MAX_VARIABLES} cap")
    A_eq, b_eq = _constraint_rows(A_eq, b_eq, n, "A_eq")
    A_ub, b_ub = _constraint_rows(A_ub, b_ub, n, "A_ub")
    n_eq, n_ub = b_eq.size, b_ub.size
    m = n_eq + n_ub
    if not m:
        raise LPError("no constraints")
    A = np.zeros((m, n + n_ub))
    A[:n_eq, :n] = A_eq
    A[n_eq:, :n] = A_ub
    A[n_eq:, n:] = np.eye(n_ub)                       # slack variables
    b = np.concatenate([b_eq, b_ub])
    # row equilibration, then sign-normalize the rhs
    scale = np.maximum(np.max(np.abs(A), axis=1), np.abs(b))
    scale[scale == 0.0] = 1.0
    A /= scale[:, None]
    b /= scale
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    ntot = n + n_ub
    # phase one: artificial basis.  The artificial columns are never read
    # (entering candidates are [:ntot]), so the tableau omits them and a basis
    # entry >= ntot marks an artificial variable.
    T = np.zeros((m + 1, ntot + 1))
    T[:m, :ntot] = A
    T[:m, -1] = b
    basis = np.arange(ntot, ntot + m)
    T[-1, :] = -T[:m, :].sum(axis=0)                  # minimize sum of artificials
    pivots = _bland_loop(T, basis, ntot, 0)
    if T[-1, -1] < -FEAS_TOL:
        raise InfeasibleError(f"phase one residual {-T[-1, -1]:.3e}")
    # drive leftover artificials out of the basis / drop redundant rows
    keep_rows = []
    for i in range(m):
        if basis[i] >= ntot:
            piv = np.nonzero(np.abs(T[i, :ntot]) > PIVOT_TOL)[0]
            if piv.size:
                _pivot(T, basis, i, int(piv[0]))
                pivots += 1
                keep_rows.append(i)
            # else: redundant row, drop it
        else:
            keep_rows.append(i)
    keep_rows = np.asarray(keep_rows, dtype=int)
    T2 = np.zeros((keep_rows.size + 1, ntot + 1))
    T2[:-1] = T[keep_rows]
    basis = basis[keep_rows]

    obj = np.zeros(ntot)
    obj[:n] = -c if maximize else c
    T2[-1, :ntot] = obj
    for i, bi in enumerate(basis):                    # reduce over the basis
        T2[-1, :] -= T2[-1, bi] * T2[i, :]
    pivots = _bland_loop(T2, basis, ntot, pivots)
    x = np.zeros(ntot)
    x[basis] = T2[:-1, -1]
    fun = float(obj @ x)
    _certify(x[:n], A_eq, b_eq, A_ub, b_ub, scale)
    return LPResult(x=x[:n], fun=-fun if maximize else fun, pivots=pivots)
