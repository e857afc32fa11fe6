"""Where the time of one ``oracle_report`` op goes, LP by LP.

    PYTHONPATH=src python tests/lp_probe.py [--seed 5] [--ops 20]

The op is the ``oracle`` benchmark's kind: the payoff x2 on a 9x9
``lattice_measure`` 0.5 apart around 3 with jitter 0.04 (``default_rng`` of
``--seed``), the four sets of ``ORACLE_SETS`` at radii 0.02, 0.05, 0.1 and
0.2, each radius's LP started from the basis of the one before.  One op
warms up; ``--ops`` more are timed.  Prints one JSON line:

* ``lps``: per LP its set, radius, ``start`` (``cold`` without a basis,
  ``warm`` with one), ``pivots`` and the median ``us`` in ``solve_lp``, and
  for a warm LP the median ``check_us`` in the basis solve of its warm check
  (``simplex._basis_solve``; null when the basis is refused before it or
  the tree has no such function);
* ``op_us`` and the median microseconds per op in ``default_target_support``
  (``support_us``), ``Coupling`` (``coupling_us``), ``transport_lp``
  (``transport_lp_us``) and ``solve_lp`` (``solve_lp_us``).

Not collected by pytest (no ``test_`` prefix).  Compare two trees by
alternating runs of this script.
"""

import argparse
import json
import os
import statistics
import time
from collections import defaultdict

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from lattice import lattice_measure  # noqa: E402  (after the BLAS thread settings)
from wadro import oracle, simplex  # noqa: E402
from wadro.criterion import preset  # noqa: E402

RADII = (0.02, 0.05, 0.1, 0.2)
clock = time.perf_counter
spent = defaultdict(float)      # seconds per layer in the current op
lps = []                        # per LP of the current op: set, radius, start, pivots, seconds
checks = []                     # seconds of the basis solve of the current LP's check
ball = []                       # the set and radius of the LP being solved


def timed(name, fn):
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += clock() - t0
    return wrapper


def solve_lp(*args, basis=None, **kwargs):
    checks.clear()
    t0 = clock()
    res = solve_lp_inner(*args, basis=basis, **kwargs)
    lps.append((*ball, "cold" if basis is None else "warm", res.pivots, clock() - t0,
                sum(checks) if checks else None))
    return res


def dro_lp(prob, *args, **kwargs):
    ball[:] = [label for label, cs in oracle.ORACLE_SETS.items() if cs == prob.constraints]
    ball.append(prob.radius)
    return dro_lp_inner(prob, *args, **kwargs)


def basis_solve(*args):
    t0 = clock()
    try:
        return basis_solve_inner(*args)
    finally:
        checks.append(clock() - t0)


solve_lp_inner = timed("solve_lp", simplex.solve_lp)
basis_solve_inner = getattr(simplex, "_basis_solve", None)
if basis_solve_inner is not None:       # a tree whose check has no basis solve: null
    simplex._basis_solve = basis_solve
oracle.solve_lp = solve_lp
dro_lp_inner = oracle.dro_lp
oracle.dro_lp = dro_lp
for layer in ("default_target_support", "Coupling", "transport_lp"):
    setattr(oracle, layer, timed(layer, getattr(oracle, layer)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--ops", type=int, default=20)
    args = ap.parse_args()
    if args.ops < 1:
        raise SystemExit("--ops must be at least 1")
    mu, c = lattice_measure(args.seed, 9, 0.5, 3.0, 0.04), preset("linear:x2")
    ops = []
    for k in range(args.ops + 1):
        spent.clear()
        lps.clear()
        t0 = clock()
        oracle.oracle_report(mu, c, RADII)
        if k:                   # the first op warms up
            ops.append((clock() - t0, dict(spent), list(lps)))

    def median_us(values):
        return round(1e6 * statistics.median(values), 1)

    out = {"seed": args.seed, "ops": args.ops, "lps": [], "op_us": median_us([o[0] for o in ops])}
    for k, (label, radius, start, pivots, _, check) in enumerate(ops[0][2]):
        out["lps"].append({
            "set": label, "radius": radius, "start": start, "pivots": pivots,
            "us": median_us([o[2][k][4] for o in ops]),
            "check_us": None if check is None else median_us([o[2][k][5] for o in ops])})
    for layer, key in (("default_target_support", "support_us"), ("Coupling", "coupling_us"),
                       ("transport_lp", "transport_lp_us"), ("solve_lp", "solve_lp_us")):
        out[key] = median_us([o[1].get(layer, 0.0) for o in ops])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
