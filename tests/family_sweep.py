"""``oracle.family_check`` on every converged adapted-ball report of a grid.

    PYTHONPATH=src python tests/family_sweep.py

The grid: Black-Scholes at sigma 0.1, 0.5 and 1 and Bachelier at sigma 0.1,
0.3 and 1, both quadratures, 16x16 and 64x64; the American put and the
payoff x2^2; p in {1.5, 2, 3}; the 17 constraint sets of
``report_sweep.constraint_sets`` with the model's ``psi_sq``.  A solve that
raises (a set whose assumptions the model breaks) or does not converge is
not a case.  It prints one JSON line: ``cases``; ``clean`` (untruncated,
error within ``FAMILY_RTOL``); ``over_tolerance`` (untruncated, error above
it); ``refused`` by set label and message (the solves that raise);
``truncations`` by reason (the truncating message up to its radius);
``max_error`` over the untruncated families; ``clean_by_model``, per
"family sigma", as [clean, cases]; and ``seconds``.  The error is relative
to max(value, |S|_L2(mu)).  Not collected by pytest (no ``test_`` prefix).
"""

import itertools
import json
import math
import time
from collections import Counter

from report_sweep import constraint_sets, psi_sq
from wadro.criterion import gradient_field, preset
from wadro.measure import ModelSpec, build_model
from wadro.oracle import FAMILY_RTOL, family_check
from wadro.sensitivity import Metric, PointState, SensitivityError, solve_foc

MODELS = [("black_scholes", s) for s in (0.1, 0.5, 1.0)] + [("bachelier", s) for s in (0.1, 0.3, 1.0)]


def main() -> None:
    start = time.perf_counter()
    payoffs = [preset(name) for name in ("american_put", "linear:x2^2")]
    cases = clean = 0
    max_error = 0.0
    refused, truncations, by_model = Counter(), Counter(), {}
    for (family, sigma), quadrature, n in itertools.product(
            MODELS, ("gauss_hermite", "equally_weighted"), (16, 64)):
        mu = build_model(ModelSpec(family, sigma, n, n, quadrature))
        sets = constraint_sets(psi_sq(mu)).values()
        tally = by_model.setdefault(f"{family} {sigma:g}", [0, 0])
        for c, p in itertools.product(payoffs, (1.5, 2.0, 3.0)):
            state = PointState(mu, gradient_field(c, mu), Metric("wp_adapted", p))
            for cs in sets:
                try:
                    rep = solve_foc(state, cs)
                except SensitivityError as exc:
                    refused[f"{cs.label()}: {exc}"] += 1
                    continue
                if not rep.converged:
                    continue
                out = family_check(c, state, cs, rep)
                cases += 1
                tally[1] += 1
                if math.isnan(out["error"]):        # the family was truncated
                    truncations[out["warnings"][-1].split(" at r=")[0]] += 1
                    continue
                max_error = max(max_error, out["error"])
                if out["error"] <= FAMILY_RTOL:
                    clean += 1
                    tally[0] += 1
    print(json.dumps({"cases": cases, "clean": clean,
                      "over_tolerance": cases - clean - sum(truncations.values()),
                      "refused": dict(refused),
                      "truncations": dict(truncations), "max_error": max_error,
                      "clean_by_model": by_model,
                      "seconds": round(time.perf_counter() - start, 1)}))


if __name__ == "__main__":
    main()
