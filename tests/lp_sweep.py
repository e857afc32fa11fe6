"""The oracle's coupled ball LPs solved by ``solve_lp`` and by scipy's HiGHS.

    PYTHONPATH=src python tests/lp_sweep.py

The sweep: 7x7 ``lattice_measure`` draws 0.1 and 0.15 apart (centre 1,
jitter 0.02, seeds 0-149), the ``martingale`` and ``both`` sets at radii 0.1
and 0.2, objective y2; 1,200 LPs, whose nearby atoms couple.  It prints one
JSON line: ``lps``, ``failed`` (solve_lp raised), ``max_rel_err`` (of the
ball value against HiGHS on the same LP), ``pivots`` (summed) and
``solve_s`` (time in solve_lp); HiGHS reads sparse matrices built from
the LP's column lists.

Two passes check the starting basis of ``solve_lp``.  ``own_basis_*``: each
sweep LP is solved again from its own final basis; ``accepted`` counts the
bases answered with 0 pivots, and ``max_rel_err`` is the second solves'
largest error against HiGHS.  ``chained_*``: as the oracle report does, the
``none`` and ``martingale`` LPs of 9x9 lattices 0.5 apart (centre 3, jitter
0.04, seeds 0-49) are solved at radii 0.02, 0.05, 0.1 and 0.2, each from the
final basis of the radius before (``lps`` counts those handed a basis).
Not collected by pytest; the LPs on which earlier solvers failed are
``lattice.REPRODUCERS``, which the tests solve.
"""

import json
import time

from scipy.optimize import linprog

from lattice import Reproducer, linprog_rows
from wadro.oracle import transport_lp
from wadro.simplex import LPError, solve_lp


def sweep_cases():
    for spacing in (0.1, 0.15):
        for seed in range(150):
            for constraints in ("martingale", "both"):
                for radius in (0.1, 0.2):
                    yield Reproducer(spacing, seed, constraints, radius)


def case_lp(case):
    """(solve_lp keyword arguments, v0) of a Reproducer's ball LP."""
    return transport_lp(case.problem())


def highs_value(lp) -> float:
    ref = linprog(-lp["c"], **linprog_rows(lp), bounds=(0, None), method="highs")
    if ref.status != 0:
        raise RuntimeError(f"HiGHS status {ref.status}: {ref.message}")
    return -ref.fun


def chained_cases():
    """Per measure and set, the Reproducers of the oracle report's radii."""
    for seed in range(50):
        for constraints in ("none", "martingale"):
            yield [Reproducer(0.5, seed, constraints, radius, n=9, centre=3.0, jitter=0.04)
                   for radius in (0.02, 0.05, 0.1, 0.2)]


def chained() -> dict:
    lps = accepted = 0
    max_rel_err = 0.0
    for chain in chained_cases():
        basis = None
        for case in chain:
            lp, v0 = case_lp(case)
            res = solve_lp(**lp, maximize=True, basis=basis)
            if basis is not None:
                lps += 1
                accepted += res.pivots == 0
            basis = res.basis
            ref = v0 + highs_value(lp)
            max_rel_err = max(max_rel_err, abs(v0 + res.fun - ref) / abs(ref))
    return {"chained_lps": lps, "chained_accepted": accepted,
            "chained_max_rel_err": max_rel_err}


def main() -> None:
    lps = failed = pivots = own_accepted = 0
    max_rel_err = own_rel_err = solve_s = 0.0
    for case in sweep_cases():
        lp, v0 = case_lp(case)
        lps += 1
        start = time.perf_counter()
        try:
            res = solve_lp(**lp, maximize=True)
        except LPError:
            failed += 1
            continue
        finally:
            solve_s += time.perf_counter() - start
        pivots += res.pivots
        ref = v0 + highs_value(lp)
        max_rel_err = max(max_rel_err, abs(v0 + res.fun - ref) / abs(ref))
        again = solve_lp(**lp, maximize=True, basis=res.basis)
        own_accepted += again.pivots == 0
        own_rel_err = max(own_rel_err, abs(v0 + again.fun - ref) / abs(ref))
    print(json.dumps({"lps": lps, "failed": failed, "max_rel_err": max_rel_err,
                      "pivots": pivots, "solve_s": round(solve_s, 2),
                      "own_basis_accepted": own_accepted, "own_basis_max_rel_err": own_rel_err,
                      **chained()}))


if __name__ == "__main__":
    main()
