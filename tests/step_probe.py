"""Wall time of the warm general-p Newton solve of each constraint set.

    PYTHONPATH=src python tests/step_probe.py [--solves 1000]

The point is the ``general_p`` benchmark's kind: Black-Scholes sigma 0.7,
Gauss-Hermite 16x16 with the default 16 requested bins (10 after merging),
the buyer's American put with K = 1.3 and rho = 0.05, adapted ball, p = 1.5.
The model, gradient, binning and point state are built once; each round then
calls ``solve_foc`` once per constraint set, warm-started from the p = 2
closed form, and the first round only warms up.  The sets are the four of
``CONSTRAINT_SETS``, ``mart_m2``, the martingale with the second marginal,
and ``psi_m2``, the conditional constraint x2^2 - x1^2 with the second
marginal, whose d > r bin-space solves no benchmark workload runs (the
second's cross block weighs each atom by d2 psi = 2 x2).  Prints one JSON line:
per set, the ``p10_us`` and ``median_us`` time of one solve over ``--solves``
rounds, its Newton ``steps`` and its ``value``.  Not collected by pytest (no
``test_`` prefix).

The sets alternate within each round, so a drift of the host's speed reaches
all of them alike; compare two trees by alternating runs of this script.
"""

import argparse
import json
import os
import statistics
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread settings)

from wadro.criterion import american_put, gradient_field  # noqa: E402
from wadro.measure import ModelSpec, build_model, quantile_bins  # noqa: E402
from wadro.sensitivity import (CONSTRAINT_SETS, ConstraintSet, Metric,  # noqa: E402
                               PointState, solve_foc)
from report_sweep import PSI_SQ  # noqa: E402

SETS = {**CONSTRAINT_SETS, "mart_m2": ConstraintSet(martingale=True, marginal2=True),
        "psi_m2": ConstraintSet(marginal2=True, cond_psi=PSI_SQ)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--solves", type=int, default=1000)
    args = ap.parse_args()
    if args.solves < 1:
        raise SystemExit("--solves must be at least 1")
    mu = build_model(ModelSpec("black_scholes", 0.7, 16, 16))
    state = PointState(mu, gradient_field(american_put(K=1.3, rho=0.05, side="buyer"), mu),
                       Metric("wp_adapted", 1.5), quantile_bins(mu, 16))
    times = {name: [] for name in SETS}
    reports = {}
    clock = time.perf_counter
    for k in range(args.solves + 1):
        for name, cs in SETS.items():
            t0 = clock()
            rep = solve_foc(state, cs)
            t1 = clock()
            if k:               # the first round warms up
                times[name].append(t1 - t0)
            reports[name] = rep
    out = {"solves": args.solves, "sets": {}}
    for name, ts in times.items():
        rep = reports[name]
        if not rep.converged:
            raise SystemExit(f"{name} did not converge: residual {rep.foc_residual:.3e}")
        out["sets"][name] = {"p10_us": round(1e6 * float(np.percentile(ts, 10)), 1),
                             "median_us": round(1e6 * statistics.median(ts), 1),
                             "steps": rep.iterations, "value": rep.value}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
