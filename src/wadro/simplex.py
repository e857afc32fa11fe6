"""Dense two-phase simplex with Harris's ratio test and Bland's anticycling rule.

Deterministic and dependency-free; sized for the desk-scale linear programs
the oracle module produces (a few thousand variables).  Problems are stated
as  max/min c.x  subject to  A x = b on rows [0, n_eq),  A x <= b on the
others,  x >= 0,  with A as one (row, column, value) entry per nonzero.

Rows are equilibrated (each divided by the largest of its entries and its
rhs) and sign-normalized in the column lists, which the two-phase path
writes into the zeroed tableau, the one dense array.  The slack of every <= row with a nonnegative
rhs starts basic; only the other rows get artificial variables, and phase one
runs only while their sum is positive, so an LP whose origin is feasible
(as the oracle's displacement form is) starts in phase two.  Artificials
left basic at level zero stay there, with no drive-out pass or row drop: a
column entering with a nonzero entry in such a row pivots there at ratio 0
(Bazaraa, Jarvis & Sherali, Linear Programming and Network Flows, on the
two-phase method), and a redundant row keeps its artificial at 0.

While the objective moves, the entering column is the most negative reduced
cost and the leaving row comes from Harris's two-pass ratio test: among the
rows that block the step to within HARRIS_TOL it takes the largest pivot
element, where the textbook test took the exact minimum ratio however small
its element.  During degenerate stalls Bland's rule takes over, which
guarantees termination.

The tableau is dense, but a pivot updates only the rows that its column
moves by more than DROP_TOL: on the oracle's transport LPs that is a few
percent of the rows, the rest being zero or rounding noise.  Neither phase
keeps artificial columns, since no step reads them.  Before returning, the
solver checks its point against the caller's own rows (feasibility to
FEAS_TOL of each row's scale) and raises InaccurateError when pivots on
near-zero elements have lost it.

A starting basis, such as an earlier LP's final one, is checked on the
lists, without the tableau: B from its columns' entries, the levels B^-1 rhs
and the row prices y = B^-T c_B with B's singleton rows eliminated first
(_basis_solve), and one sum over the entries for the reduced costs c - y A.
If the levels are >= -HARRIS_TOL and every reduced cost is >= -PIVOT_TOL
(the pivot loop's own stopping tests), its point is certified and returned
after 0 pivots.  Any other basis (a wrong length, a repeated or out-of-range
index, an artificial, a singular B) is ignored.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
DROP_TOL = 1e-14
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
    basis: np.ndarray       # m columns: variables, then <= slacks; past those, artificials


STALL_LIMIT = 12
HARRIS_TOL = 1e-11          # how far a Harris step may push a basic variable below 0
PHASE_ONE_TOL = 1e-12       # artificial sum at which phase one stops
TIE_RTOL = 1e-3             # Bland ties on elements below this share of the largest lose


def _bland_loop(T: np.ndarray, basis: np.ndarray, ncols: int, start_pivots: int,
                floor: float = np.inf, pinned=()) -> int:
    """Run minimizing pivots on tableau T (last row = objective, last col = rhs).

    Pivots on the most negative reduced cost with Harris's ratio test while
    the objective moves, and falls back to Bland's anticycling rule during
    degenerate stalls, which guarantees termination.  Stops once the
    objective is at most ``-floor`` (T[-1, -1] >= floor).

    Harris's two-pass test: the first pass bounds the step by each row's
    ratio relaxed by HARRIS_TOL, the second takes the largest pivot element
    among the rows whose ratio is within that bound.  A basic variable can
    then fall below 0 by at most HARRIS_TOL.  In a stall the test is the
    textbook minimum ratio with Bland's tie-break (smallest basic variable),
    which anticycling needs.  Before either, a ``pinned`` row (its basic
    variable an artificial at level 0) in which the entering column has an
    entry above PIVOT_TOL in magnitude is the pivot row, at ratio 0.
    """
    m = T.shape[0] - 1
    red = T[-1, :ncols]
    rhs = T[:m, -1]
    pinned = np.asarray(pinned, dtype=np.intp)
    pivots = start_pivots
    stall = 0
    while T[-1, -1] < floor:
        harris = stall < STALL_LIMIT
        if harris:
            col = red.argmin()
            if red[col] >= -PIVOT_TOL:
                return pivots
        else:
            candidates = (red < -PIVOT_TOL).nonzero()[0]
            if candidates.size == 0:
                return pivots
            col = candidates[0]                       # Bland: smallest index
        column = T[:m, col]
        k = np.abs(column[pinned]).argmax() if pinned.size else -1
        if k >= 0 and abs(column[pinned[k]]) > PIVOT_TOL:
            row = pinned[k]
            pinned = pinned[pinned != row]
        else:
            rows = (column > PIVOT_TOL).nonzero()[0]
            if rows.size == 0:
                raise UnboundedError("objective unbounded along a feasible ray")
            alpha = column[rows]
            level = np.maximum(rhs[rows], 0.0)
            if harris:
                bound = ((level + HARRIS_TOL) / alpha).min()
                within = (level <= bound * alpha).nonzero()[0]
                row = rows[within[alpha[within].argmax()]]
            else:
                ratios = level / alpha
                best = ratios.min()
                near = (ratios <= best + 1e-12 * (1.0 + abs(best))).nonzero()[0]
                ties = rows[near[alpha[near] >= TIE_RTOL * alpha[near].max()]]
                row = ties[basis[ties].argmin()]
            rhs[row] = max(rhs[row], 0.0)             # a Harris step's undershoot
        before = T[-1, -1]
        prow = T[row]
        prow /= prow[col]
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        # only rows whose pivot-column entry moves them by more than DROP_TOL
        # change; on transport LPs the column is mostly zero or rounding
        # noise that cancellation left where an exact pivot leaves 0
        nz = (np.abs(colvals) * np.abs(prow).max() > DROP_TOL).nonzero()[0]
        T[nz] -= colvals[nz, None] * prow
        T[:, col] = 0.0                               # exact unit column to stop drift
        prow[col] = 1.0
        basis[row] = col
        stall = 0 if T[-1, -1] > before + 1e-13 * (1.0 + abs(before)) else stall + 1
        pivots += 1
        if pivots - start_pivots > MAX_PIVOTS:
            raise LPError("pivot limit exceeded")
    return pivots


def _certify(x, rows, cols, vals, b, n_eq, scale) -> None:
    """Raise InaccurateError unless x >= 0, the first n_eq rows hold with
    equality and the others with <=.

    Row values are np.bincount sums over the entries, and their residuals are
    taken in the units the tableau works in, i.e. divided by the
    equilibration scale of each row; a negative entry of x is measured
    against max(1, max|x|), so an optimum at x = 0 with rounding-level
    entries passes.  FEAS_TOL bounds both.  A row's scale is the largest of
    its entries and its rhs, so a transport budget is checked relative to
    the budget.
    """
    if np.min(x, initial=0.0) < -FEAS_TOL * max(1.0, float(np.max(np.abs(x), initial=0.0))):
        raise InaccurateError(f"returned point has a negative entry {np.min(x):.3e}")
    rel = (np.bincount(rows, weights=vals * x[cols], minlength=b.size) - b) / scale
    for kind, part in (("equality", np.abs(rel[:n_eq])), ("inequality", rel[n_eq:])):
        if part.size and np.max(part) > FEAS_TOL:
            raise InaccurateError(f"returned point breaks {kind} row {int(np.argmax(part))} "
                                  f"by {np.max(part):.3e} of its scale")


def _basis_solve(B, rhs, cost):
    """The levels B^-1 rhs and the row prices B^-T cost of a basis matrix B.

    A singleton row of B (one nonzero entry) fixes its column's level, and its
    price follows by back-substitution, so only the other rows' block takes
    the dense solves (Markowitz 1957).  Raises LinAlgError when that block is
    singular or, two singletons sharing a column, not square."""
    one = (np.count_nonzero(B, axis=1) == 1).nonzero()[0]
    col = (B[one] != 0.0).argmax(axis=1)
    rest, free = (np.flatnonzero(np.bincount(k, minlength=len(B)) == 0) for k in (one, col))
    K, C, piv = B[rest][:, free], B[rest][:, col], B[one, col]
    levels, y = np.empty_like(rhs), np.empty_like(rhs)
    levels[col] = rhs[one] / piv
    levels[free] = np.linalg.solve(K, rhs[rest] - C @ levels[col])
    y[rest] = np.linalg.solve(K.T, cost[free])
    y[one] = (cost[col] - y[rest] @ C) / piv
    return levels, y


def solve_lp(c, rows, cols, vals, b, n_eq: int, maximize: bool = False, basis=None) -> LPResult:
    """Solve the LP; returns primal solution, optimal value and final basis.

    A holds vals[k] at (rows[k], cols[k]), one entry per nonzero; its rows
    [0, n_eq) are equalities and the others <= rows, with right-hand sides b.
    ``basis`` is an optional starting basis (see the module docstring).
    Raises LPError before any work when the lists are malformed, and
    InfeasibleError / UnboundedError.  The returned point is certified
    feasible for the caller's own rows (see _certify) or InaccurateError is
    raised.
    """
    c, b, vals = (np.asarray(a, dtype=float) for a in (c, b, vals))
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    n, m = c.size, b.size
    if n > MAX_VARIABLES:
        raise LPError(f"{n} variables exceed the {MAX_VARIABLES} cap")
    if not m:
        raise LPError("no constraints")
    if not rows.shape == cols.shape == vals.shape or rows.ndim != 1:
        raise LPError("rows, cols and vals differ in length")
    if rows.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= m or cols.max() >= n):
        raise LPError("an entry lies outside the rows or the columns")
    if np.any(np.diff(np.sort(rows * n + cols)) == 0):
        raise LPError("a (row, column) pair repeats")
    if not 0 <= n_eq <= m:
        raise LPError(f"{n_eq} equality rows out of {m}")
    if not all(np.all(np.isfinite(a)) for a in (c, b, vals)):
        raise LPError("a cost, value or rhs is not finite")
    n_ub = m - n_eq
    ntot = n + n_ub
    # row equilibration by the largest of a row's entries and its rhs, then
    # sign-normalization; the tableau's entries as lists: A's, then the slacks'
    # (1 in row units)
    scale = np.abs(b)
    np.maximum.at(scale, rows, np.abs(vals))
    scale[scale == 0.0] = 1.0
    rhs = b / scale
    neg = rhs < 0
    rhs = np.where(neg, -rhs, rhs)
    t_rows = np.concatenate([rows, np.arange(n_eq, m)])
    t_cols = np.concatenate([cols, np.arange(n, ntot)])
    t_vals = np.concatenate([vals / scale[rows], np.ones(n_ub)]) * np.where(neg[t_rows], -1.0, 1.0)
    obj = np.zeros(ntot + m)
    obj[:n] = -c if maximize else c

    def answer(basis, levels, pivots):
        x = np.zeros(ntot + m)
        x[basis] = levels
        # entries below one rounding unit of the largest are noise from pivots
        # on degenerate rows: a Harris step can leave them on either side of 0
        x[np.abs(x) <= np.finfo(float).eps * np.max(np.abs(x), initial=0.0)] = 0.0
        fun = float(obj @ x)
        _certify(x[:n], rows, cols, vals, b, n_eq, scale)
        return LPResult(x=x[:n], fun=-fun if maximize else fun, pivots=pivots, basis=basis)

    # a starting basis that passes the check of the module docstring is the answer
    start = np.array(() if basis is None else basis)
    if (start.shape == (m,) and start.dtype.kind in "iu" and np.unique(start).size == m
            and start.min() >= 0 and start.max() < ntot):
        at = np.full(ntot, -1)
        at[start] = np.arange(m)
        on = at[t_cols] >= 0
        B = np.zeros((m, m))
        B[t_rows[on], at[t_cols[on]]] = t_vals[on]
        with contextlib.suppress(np.linalg.LinAlgError):        # a singular B
            levels, y = _basis_solve(B, rhs, obj[start])        # y: the row prices
            red = obj[:ntot] - np.bincount(t_cols, y[t_rows] * t_vals, ntot)
            if np.all(levels >= -HARRIS_TOL) and np.all(red >= -PIVOT_TOL):
                return answer(start, levels, 0)
    # tableau: rows, then the objective; columns: variables, slacks, then the
    # rhs.  The artificial columns are never read (entering candidates are
    # [:ntot]), so the tableau omits them and a basis entry >= ntot marks an
    # artificial variable.
    T = np.zeros((m + 1, ntot + 1))
    T[t_rows, t_cols] = t_vals
    T[:m, -1] = rhs
    # the slack of a <= row with nonnegative rhs starts basic; every other
    # row gets an artificial variable
    slack_start = np.zeros(m, dtype=bool)
    slack_start[n_eq:] = ~neg[n_eq:]
    basis = np.where(slack_start, n - n_eq + np.arange(m), ntot + np.arange(m))
    art = np.flatnonzero(~slack_start)
    pivots = 0
    if art.size:
        # phase one: minimize the sum of artificials while it is positive
        T[-1, :] = -T[art, :].sum(axis=0)
        pivots = _bland_loop(T, basis, ntot, 0, floor=-PHASE_ONE_TOL)
        if T[-1, -1] < -FEAS_TOL:
            raise InfeasibleError(f"phase one residual {-T[-1, -1]:.3e}")
    # artificials left basic (level at most PHASE_ONE_TOL, taken as 0) stay;
    # an artificial's index is ntot + its row, its objective coefficient 0
    pinned = np.flatnonzero(basis >= ntot)
    T[pinned, -1] = 0.0
    T[-1, :ntot] = obj[:ntot]
    T[-1, -1] = 0.0
    T[-1] -= obj[basis] @ T[:-1]                      # reduce over the basis
    pivots = _bland_loop(T, basis, ntot, pivots, pinned=pinned)
    return answer(basis, T[:-1, -1], pivots)
