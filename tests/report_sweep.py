"""Every SensitivityReport over a grid of models, payoffs, balls, exponents and
constraint sets, written to a pickle and compared between two such pickles.

The grid: the canned 5x5 measure and the Black-Scholes and Bachelier models
on 16x16 and 64x64 grids at sigma 0.1, 0.5 and 1; the American put and the
payoff x2^2; both balls; p in {1.5, 2, 3}; the eight martingale/marginal flag
sets, a conditional constraint (x2 - x1 and x2^2 - x1^2), a mean constraint
(x1*x2) alone, with a conditional one and next to the flag sets M, m1+m2 and
M+m1+m2, and x2^2 - x1^2 next to m1, m2 and m1+m2.  A solve that raises is
recorded as the error's type and message.

    PYTHONPATH=src python tests/report_sweep.py --write reports.pkl
    PYTHONPATH=src python tests/report_sweep.py --compare old.pkl new.pkl

``--compare`` prints, per (constraint set, p), how many reports are
byte-identical, the largest difference of each field, and every combination
whose raised error changed.  The value differs relative to the larger of
the two; the direction T = (T1, T2), of unit norm, by the mass-weighted L^p
norm of the difference; the multipliers by mass-weighted norms relative to
the report's |S|_L2(mu): h and f1 in L2(mu1), f2 in L2 of the bin masses,
lambda in the max norm; and the residual, the iteration count and the
converged flag by their absolute differences.  So a multiplier that is zero
to rounding, or noise on a row of negligible mass, reads as no change.  Not
collected by the test suite (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import itertools
import pickle

import numpy as np

from wadro.criterion import gradient_field, preset
from wadro.measure import ModelSpec, build_model, canonical_test_measure, quantile_bins
from wadro.sensitivity import (CondConstraint, ConstraintSet, MeanConstraint, Metric, PointState,
                               martingale_psi, solve_foc)

FIELDS = ("value", "T1", "T2", "f1", "f2", "h_hat", "lambda_hat", "foc_residual", "iterations",
          "converged")
ABSOLUTE = ("foc_residual", "iterations", "converged")

PSI_SQ = CondConstraint(lambda a, b: b ** 2 - a ** 2, lambda a, b: -2.0 * a,
                        lambda a, b: 2.0 * b, "x2^2-x1^2")
PHI = MeanConstraint(lambda a, b: a * b, lambda a, b: b, lambda a, b: a, "x1*x2")


def constraint_sets() -> dict:
    sets = {}
    for m, m1, m2 in itertools.product((False, True), repeat=3):
        cs = ConstraintSet(martingale=m, marginal1=m1, marginal2=m2)
        sets[cs.label()] = cs
    for cs in (ConstraintSet(cond_psi=martingale_psi()), ConstraintSet(cond_psi=PSI_SQ),
               ConstraintSet(mean_phi=(PHI,)),
               ConstraintSet(mean_phi=(PHI,), cond_psi=martingale_psi()),
               ConstraintSet(mean_phi=(PHI,), cond_psi=PSI_SQ),
               ConstraintSet(martingale=True, mean_phi=(PHI,)),
               ConstraintSet(marginal1=True, marginal2=True, mean_phi=(PHI,)),
               ConstraintSet(martingale=True, marginal1=True, marginal2=True, mean_phi=(PHI,)),
               ConstraintSet(marginal1=True, cond_psi=PSI_SQ),
               ConstraintSet(marginal2=True, cond_psi=PSI_SQ),
               ConstraintSet(marginal1=True, marginal2=True, cond_psi=PSI_SQ)):
        sets[cs.label()] = cs
    return sets


def measures():
    yield "canned", canonical_test_measure()
    for family, n, sigma in itertools.product(("black_scholes", "bachelier"), (16, 64),
                                              (0.1, 0.5, 1.0)):
        yield f"{family}-{n}-{sigma}", build_model(ModelSpec(family, sigma, n, n))


def sweep() -> dict:
    """{"reports": {key: fields or error}, "masses": {measure name: atom masses},
    "bin_masses": {measure name: masses of its n2 quantile bins},
    "scales": {(measure, payoff, ball): |S|_L2(mu)}}."""
    out, masses, bin_masses, scales = {}, {}, {}, {}
    sets = constraint_sets()
    payoffs = {name: preset(name) for name in ("american_put", "linear:x2^2")}
    for (mname, mu), (pname, crit) in itertools.product(measures(), payoffs.items()):
        G = gradient_field(crit, mu)
        masses[mname] = mu.atom_masses()
        bin_masses[mname] = quantile_bins(mu, mu.n2).mass
        for ball, p in itertools.product(("wp", "wp_adapted"), (1.5, 2.0, 3.0)):
            state = PointState(mu, G, Metric(ball, p))
            scales[mname, pname, ball] = state.norm
            for label, cs in sets.items():
                try:
                    rep = solve_foc(state, cs)
                    entry = {f: getattr(rep, f) for f in FIELDS}
                except Exception as exc:    # recorded, so that changed errors show
                    entry = {"error": f"{type(exc).__name__}: {exc}"}
                out[mname, pname, ball, p, label] = entry
    return {"reports": out, "masses": masses, "bin_masses": bin_masses, "scales": scales}


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _diff(a, b, weights=None, scale=None) -> float:
    """The largest |a - b|, or its L2(weights) norm; relative to ``scale``,
    else to the larger of |a| and |b| when ``scale`` is None."""
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    if weights is None:
        gap = float(np.max(np.abs(a - b), initial=0.0))
    else:
        gap = float(np.sqrt(np.sum(weights * (a - b) ** 2)))
    if gap == 0.0 or scale == 0.0:
        return gap
    if scale is None:
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return gap / scale


def compare(old: dict, new: dict) -> None:
    masses, bin_masses, scales = new["masses"], new["bin_masses"], new["scales"]
    old, new = old["reports"], new["reports"]
    groups = {}
    changed_errors = []
    for key in sorted(set(old) | set(new), key=str):
        a, b = old.get(key), new.get(key)
        group = groups.setdefault((key[4], key[3]), {"n": 0, "identical": 0, "errors": 0,
                                                     "diff": {"T": 0.0}})
        group["n"] += 1
        if a is None or b is None or "error" in a or "error" in b:
            ea, eb = (None if e is None else e.get("error") for e in (a, b))
            if ea != eb or a is None or b is None:
                changed_errors.append((key, ea, eb))
            else:
                group["errors"] += 1
                group["identical"] += 1
            continue
        group["identical"] += all(_same(a[f], b[f]) for f in FIELDS)
        p, diff = key[3], group["diff"]
        gap = masses[key[0]] * (np.abs(a["T1"] - b["T1"]) ** p + np.abs(a["T2"] - b["T2"]) ** p)
        diff["T"] = max(diff["T"], float(np.sum(gap)) ** (1.0 / p))
        w1, scale = masses[key[0]].sum(axis=1), scales[key[0], key[1], key[2]]
        # per field: the L2 weights, if any, and the scale it is measured against
        args = {"value": (), "f1": (w1, scale), "f2": (bin_masses[key[0]], scale),
                "h_hat": (w1, scale), "lambda_hat": (None, scale),
                **{f: (None, 1.0) for f in ABSOLUTE}}
        for f, arg in args.items():
            diff[f] = max(diff.get(f, 0.0), _diff(a[f], b[f], *arg))
    for (label, p), g in sorted(groups.items(), key=str):
        worst = " ".join(f"{f}={v:.1e}" for f, v in g["diff"].items() if v)
        print(f"{label:28s} p={p:<4} {g['identical']:4d}/{g['n']:<4d} byte-identical "
              f"({g['errors']} same error)  {worst or 'no difference'}")
    print(f"{len(changed_errors)} combinations changed the error they raise")
    for key, ea, eb in changed_errors:
        print(f"  {key}: {ea!r} -> {eb!r}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", metavar="PATH")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.write:
        with open(args.write, "wb") as fh:
            pickle.dump(sweep(), fh)
    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path, "rb") as fh:
                loaded.append(pickle.load(fh))
        compare(*loaded)


if __name__ == "__main__":
    main()
