"""Benchmark of the ``wadro`` command line.

    python3 bench/run.py --workload {curve_p2,general_p,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree: the benchmark imports ``wadro`` from its
``src/``.  Each op is one in-process call of ``wadro.cli.main([...])``, the
command a user types minus interpreter start.  The run repeats whole rounds
over the workload's inputs, stops at the round boundary nearest to
``--seconds``, then checks every op's output against references computed
apart from wadro (``reference.py``).  It prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from spans
around wadro's layers with ``--trace 1``.  BLAS runs on one thread.

Times are reported at a fixed reference speed of the machine.  A short fixed
numpy kernel with the kind of work the workload does (the speed probe) runs
between ops and after each set-up, and each time is multiplied by the
probe's reference time over the probe times around it.  On a shared host
whose speed changes within seconds this keeps runs comparable, while a
change to wadro moves the scaled times just as it moves the wall-clock ones.
The summary line before the result also prints the wall-clock figures.
"""

import os

# before numpy loads: one BLAS thread, so a run uses one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# the keys of workloads.WORKLOADS, which cannot be imported before the timed
# set-up because it loads numpy
WORKLOAD_NAMES = ("curve_p2", "general_p", "oracle")
SETUP_SAMPLES = 7           # set-ups per run: this process and six fresh ones
PROBE_TIMEOUT_S = 60
# each speed probe's time at the reference speed
REFERENCE_PROBE_S = {"small": 0.004, "pivot": 0.006}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up in this process, print it and exit")
    return ap.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path):
    """Import wadro and generate the workload's inputs; the timed set-up."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import wadro.cli  # noqa: F401  (the import is part of the set-up)
    import workloads

    wl = workloads.WORKLOADS[workload]
    return wl, wl.inputs(np.random.default_rng(seed), str(workdir))


def speed_probe(kind: str) -> float:
    """Seconds for a fixed numpy kernel with the kind of work a workload does.

    ``small``: a Python loop of 16x16 matrix-vector products and norms, like
    the row loops and small solves of ``wadro curve``.  ``pivot``: rank-one
    updates of a 200 x 2000 array, like the dense simplex pivots of
    ``wadro oracle``.
    """
    import numpy as np

    t0 = time.perf_counter()
    if kind == "small":
        a = np.arange(256.0).reshape(16, 16) / 256.0
        v = np.ones(16)
        for _ in range(1000):
            v = a @ v
            v /= np.linalg.norm(v)
    else:
        t = np.linspace(1.0, 2.0, 200 * 2000).reshape(200, 2000)
        for k in range(4):
            row = t[k] / t[k, k]
            t -= np.outer(t[:, k] * 1e-3, row)
    return time.perf_counter() - t0


def _timed_setup(workload: str, seed: int, workdir: Path):
    """(set-up seconds, ``small`` probe seconds right after it, workload, inputs).

    Set-up is interpreter work (imports, input generation), so the ``small``
    probe gives its speed whatever the workload.
    """
    t0 = time.perf_counter()
    wl, inputs = setup(workload, seed, workdir)
    elapsed = time.perf_counter() - t0
    return elapsed, speed_probe("small"), wl, inputs


def _probe_setup(args) -> tuple:
    """(set-up seconds, speed probe seconds) of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    elapsed, probe = proc.stdout.split()[-2:]
    return float(elapsed), float(probe)


def _run_op(main, inp, outdir: Path):
    """One op: (exit code or exception text, seconds, output bytes or None)."""
    argv = inp.argv + ["--out", str(outdir)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    try:
        data = (outdir / inp.output).read_bytes()
    except OSError:
        data = None
    return rc, elapsed, data


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "wadro" / "__init__.py").is_file():
        print(f"no wadro sources under {ROOT / 'src'}; run from a wadro source tree",
              file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            elapsed, probe, _, _ = _timed_setup(args.workload, args.seed, workdir)
            print(elapsed, probe)
            return 0
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    elapsed, probe, wl, inputs = _timed_setup(args.workload, args.seed, workdir)
    setups = [(elapsed, probe)] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]

    import wadro.cli
    from spans import Tracer
    from workloads import tally

    outdirs = [workdir / f"op{k}" for k in range(len(inputs))]
    for d in outdirs:
        d.mkdir()
    first = {}          # input index -> output bytes of its first op
    reference = REFERENCE_PROBE_S[wl.probe]
    results = []        # (input index, exit code, seconds, bytes equal to the first op's)
    scales = []         # per op: reference speed over the speed measured around it
    tracer = Tracer() if args.trace else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _run_op(wadro.cli.main, inputs[0], outdirs[0])      # warm-up, not counted
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            rounds = 0
            probes = [speed_probe(wl.probe)]
            while True:
                for k, inp in enumerate(inputs):
                    rc, elapsed, data = _run_op(wadro.cli.main, inp, outdirs[k])
                    probes.append(speed_probe(wl.probe))
                    scales.append(2 * reference / (probes[-2] + probes[-1]))
                    first.setdefault(k, data)
                    results.append((k, rc, elapsed, data is not None and data == first[k]))
                rounds += 1
                wall = time.perf_counter() - start
                # stop at the round boundary nearest to --seconds
                if wall + 0.5 * wall / rounds >= args.seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = {k: (["no output file"] if data is None
                    else wl.check(inputs[k], data.decode("utf-8", "replace")))
                for k, data in first.items()}
    failed, correct, notes = tally(results, problems)

    wall_times = [e for _, _, e, _ in results]
    times = [e * f for e, f in zip(wall_times, scales)]
    summary = {"workload": args.workload, "seed": args.seed, "inputs": len(inputs),
               "ops": len(results), "traced": bool(tracer),
               "ops_per_s": len(times) / sum(times), "op_s.p50": statistics.median(times),
               "setup_s": statistics.median(e * REFERENCE_PROBE_S["small"] / p for e, p in setups),
               "wall_ops_per_s": len(wall_times) / sum(wall_times),
               "wall_op_s.p50": statistics.median(wall_times),
               "wall_setup_s": statistics.median(e for e, _ in setups),
               "speed_probe_s.p50": statistics.median(probes)}
    if len(times) >= 100:
        summary["op_s.p90"] = statistics.quantiles(times, n=10)[-1]
    print(json.dumps(summary))
    for note in dict.fromkeys(notes):
        print(f"FAILED {note}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"wall_s": wall_times, "scale": scales, "probe_s": probes,
                   "setups": setups}, f)
    if tracer:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = tracer.layer_metrics(scales)
    else:
        metrics = {
            "setup_s": {"value": summary["setup_s"], "unit": "s"},
            "ops_per_s": {"value": summary["ops_per_s"], "unit": "1/s"},
            "op_s.p50": {"value": summary["op_s.p50"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
