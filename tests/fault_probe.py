"""Wall time and minor page faults of one fixed 128x128 ``wadro curve`` op.

    PYTHONPATH=src python tests/fault_probe.py [--ops 20]

The op is the ``curve_p2`` benchmark's kind: Black-Scholes, Gauss-Hermite
128x128, sigma 0.1, 0.4 and 1.2, the buyer's American put with K = 1.3 and
rho = 0.05, adapted ball, p = 2, all four constraint sets.  It runs once to
warm up and then ``--ops`` times in this process, each a call of
``wadro.cli.main`` with its output written to a temporary directory.  Minor
faults are ``resource.getrusage(RUSAGE_SELF).ru_minflt`` around each op, so
they count this process only: pages the heap gives back to the system and
faults in again show here.  Prints one JSON line: ``ops``, ``min_s``,
``median_s``, ``median_minflt``, ``min_minflt`` and ``max_minflt``.  Not
collected by pytest (no ``test_`` prefix).

The count follows the heap's layout as much as the code: the same tree reads
from about 500 to over 2,000 faults per op when only the length of an unused
``PYTHONPATH`` entry changes.  Compare two trees from the same directory with
``PYTHONPATH`` entries of equal length, and over several such layouts.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import tempfile
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from wadro import cli  # noqa: E402  (after the BLAS thread settings)


def argv(out: str) -> list:
    return ["curve", "--out", out,
            "--set", "model.family=black_scholes", "--set", "model.quadrature=gauss_hermite",
            "--set", "model.n1=128", "--set", "model.n2=128",
            "--set", "model.sigma=0.1,0.4,1.2",
            "--set", "criterion.name=american_put:K=1.3,rho=0.05,side=buyer",
            "--set", "metric.ball=wp_adapted", "--set", "metric.p=2.0",
            "--set", "constraints.sets=unconstrained,martingale,marginal,mart_marginal"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ops", type=int, default=20)
    args = ap.parse_args()
    times, faults = [], []
    with tempfile.TemporaryDirectory() as out:
        cmd = argv(out)
        for k in range(args.ops + 1):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
                code = cli.main(cmd)
                t1, f1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            if code != 0:
                raise SystemExit(f"wadro curve exited {code}")
            if k:               # the first op warms up
                times.append(t1 - t0)
                faults.append(f1 - f0)
    print(json.dumps({"ops": args.ops, "min_s": min(times),
                      "median_s": statistics.median(times),
                      "median_minflt": statistics.median(faults),
                      "min_minflt": min(faults), "max_minflt": max(faults)}))


if __name__ == "__main__":
    main()
