"""The benchmark's workloads: inputs drawn from a seed, the ``wadro`` command
each op runs, and the checks on the file the op writes.

Ops of one workload cost about the same, so that percentiles and throughput
do not depend on where a run ends; a run repeats whole rounds over the
workload's inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference

PUT = "american_put:K=1.3,rho=0.05,side=buyer"
CURVE_COLUMNS = ("G_ad", "G_ad_M", "G_ad_m", "G_ad_Mm")
CURVE_HEADER = (["sigma", "price", *CURVE_COLUMNS, "vega"]
                + [f"relative_{c}" for c in CURVE_COLUMNS])
PRICE_RTOL = 1e-12
VEGA_TOL = 1e-8            # absolute and relative; a central difference of prices
RELATIVE_RTOL = 1e-12
# the p = 2 values are closed forms and stay equal to rounding; a general-p
# value may come from any solver that meets the first-order conditions
SENS_RTOL_P2 = 1e-10
SENS_RTOL_GENERAL = 1e-9
ORACLE_CLOSED_TOL = 1e-10
ORACLE_SLOPE_RTOL = 0.05   # the relative tolerance wadro's oracle report applies
ORACLE_SLOPE_FLOOR = 1e-6


@dataclass
class Input:
    """One op's command (without ``--out``) and the file the checks read."""

    argv: list
    output: str
    check_args: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def check_curve(text: str, refs: list, rtol: float) -> list:
    """Compare a ``curve.csv`` with reference rows (one per sigma)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CURVE_HEADER:
        return [f"unexpected header {rows[0] if rows else None}"]
    if len(rows) - 1 != len(refs):
        return [f"{len(rows) - 1} rows for {len(refs)} sigma values"]
    problems = []
    for raw, ref in zip(rows[1:], refs):
        try:
            row = dict(zip(CURVE_HEADER, (float(v) for v in raw), strict=True))
        except ValueError as exc:
            problems.append(f"sigma={ref['sigma']}: unreadable row {raw} ({exc})")
            continue
        where = f"sigma={ref['sigma']}"
        bad = [k for k, v in row.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{where}: non-finite {bad}")
            continue
        if row["sigma"] != ref["sigma"]:
            problems.append(f"{where}: sigma column reads {row['sigma']!r}")
        if not _close(row["price"], ref["price"], PRICE_RTOL):
            problems.append(f"{where}: price {row['price']!r} vs reference {ref['price']!r}")
        for col in CURVE_COLUMNS:
            if not _close(row[col], ref[col], rtol):
                problems.append(f"{where}: {col} {row[col]!r} vs reference {ref[col]!r}")
            if not _close(row[f"relative_{col}"], row[col] / row["price"], RELATIVE_RTOL):
                problems.append(f"{where}: relative_{col} is not {col}/price")
        if not _close(row["vega"], ref["vega"], VEGA_TOL, VEGA_TOL):
            problems.append(f"{where}: vega {row['vega']!r} vs central difference {ref['vega']!r}")
        # more constraints can only lower the infimum
        slack = rtol * abs(row["G_ad"])
        low, high = sorted((row["G_ad_M"], row["G_ad_m"]))
        if not (row["G_ad_Mm"] <= low + slack and high <= row["G_ad"] + slack):
            problems.append(f"{where}: chain Mm <= min(M, m) <= max(M, m) <= unconstrained "
                            f"fails: {row['G_ad_Mm']!r}, {low!r}, {high!r}, {row['G_ad']!r}")
    return problems


def check_oracle(text: str) -> list:
    """Compare an ``oracle.json`` for the payoff x2 with the analytic values."""
    try:
        doc = json.loads(text)
        sets = doc["constraint_sets"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable oracle report ({exc})"]
    problems = [] if doc.get("pass") is True else ["report does not pass"]
    for label, exact in reference.LINEAR_X2_CLOSED_FORMS.items():
        res = sets.get(label)
        if res is None:
            problems.append(f"{label}: missing")
            continue
        values = [res.get("closed_form"), res.get("slope"), res.get("value_at_zero"),
                  *res.get("lp_values", [])]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"{label}: non-finite or missing values")
            continue
        if not _close(res["closed_form"], exact, 0.0, ORACLE_CLOSED_TOL):
            problems.append(f"{label}: closed form {res['closed_form']!r}, analytic {exact!r}")
        if not _close(res["slope"], exact, 0.0, ORACLE_SLOPE_RTOL * max(abs(exact),
                                                                         ORACLE_SLOPE_FLOOR)):
            problems.append(f"{label}: LP slope {res['slope']!r}, analytic {exact!r}")
    return problems


def tally(results, problems):
    """(failed ops, whether every output was right, one note per failed op).

    ``results`` holds (input index, exit code, seconds, output equal to the
    first op's on that input) per op and ``problems`` the check findings per
    input.  An op fails on a nonzero exit, on output that differs from the
    first op on its input, or on a finding for its input.
    """
    failed = 0
    notes = []
    for k, rc, _, same in results:
        why = []
        if rc != 0:
            why.append(f"exit {rc}")
        if not same:
            why.append("output differs from the first op on this input")
        why += problems[k]
        if why:
            failed += 1
            notes.append(f"input {k}: " + "; ".join(why))
    correct = not any(problems.values()) and all(same for *_, same in results)
    return failed, correct, notes


# ---------------------------------------------------------------------------
# workloads


class CurveWorkload:
    """Each op is one ``wadro curve`` on an n x n Gauss-Hermite grid."""

    output = "curve.csv"
    probe = "small"         # the speed probe kind, see run.speed_probe

    def __init__(self, name, n, p, sigma_range, sigmas_per_op, pool, log_uniform):
        self.name = name
        self.n = n
        self.p = p
        self.sigma_range = sigma_range
        self.sigmas_per_op = sigmas_per_op
        self.pool = pool
        self.log_uniform = log_uniform

    def _draw_sigmas(self, rng) -> list:
        lo, hi = self.sigma_range
        while True:
            u = rng.uniform(0.0, 1.0, self.sigmas_per_op)
            s = lo * (hi / lo) ** u if self.log_uniform else lo + (hi - lo) * u
            s = sorted({round(float(v), 4) for v in s})
            if len(s) == self.sigmas_per_op:
                return s

    def inputs(self, rng, workdir) -> list:
        out = []
        for _ in range(self.pool):
            sigmas = self._draw_sigmas(rng)
            argv = ["curve", "--set", "model.family=black_scholes",
                    "--set", "model.quadrature=gauss_hermite",
                    "--set", f"model.n1={self.n}", "--set", f"model.n2={self.n}",
                    "--set", "model.sigma=" + ",".join(repr(s) for s in sigmas),
                    "--set", f"criterion.name={PUT}", "--set", "metric.ball=wp_adapted",
                    "--set", f"metric.p={self.p!r}",
                    "--set", "constraints.sets=unconstrained,martingale,marginal,mart_marginal"]
            out.append(Input(argv, self.output, {"sigmas": sigmas}))
        return out

    def check(self, inp: Input, text: str) -> list:
        refs = [reference.curve_point(s, self.n, self.p, 1.3, 0.05)
                for s in inp.check_args["sigmas"]]
        return check_curve(text, refs, SENS_RTOL_P2 if self.p == 2.0 else SENS_RTOL_GENERAL)


def martingale_measure_csv(rng, n: int) -> str:
    """A random n x n martingale measure on a jittered lattice, as CSV.

    First-stage atoms sit 0.5 apart around 3 and second-stage offsets 0.5
    apart around 0, each moved by less than 0.04; weights are Dirichlet
    draws, and every row's offsets are recentred under its weights so the
    measure is a martingale.  Distinct atoms are thus more than 0.4 apart,
    twice the largest oracle radius, so every LP coupling moves mass to a
    shifted copy of its own atom: the LPs have the same shape for every draw,
    which keeps the ops alike, and stay clear of the simplex fault that
    couplings between neighbouring atoms trigger on denser lattices.
    """
    base = 0.5 * (np.arange(n) - (n - 1) / 2)
    x1 = (3.0 + base + rng.uniform(-0.04, 0.04, n)).tolist()
    w1 = rng.dirichlet(np.full(n, 4.0)).tolist()
    lines = ["i,j,x1,w1,x2,q"]
    for i in range(n):
        q = rng.dirichlet(np.full(n, 4.0))
        off = base + rng.uniform(-0.04, 0.04, n)
        off = (off - q @ off).tolist()
        q = q.tolist()
        for j in range(n):
            lines.append(f"{i},{j},{x1[i]!r},{w1[i]!r},{x1[i] + off[j]!r},{q[j]!r}")
    return "\n".join(lines) + "\n"


class OracleWorkload:
    """Each op is one ``wadro oracle`` for the payoff x2 on a measure file."""

    output = "oracle.json"
    probe = "pivot"         # the speed probe kind, see run.speed_probe

    def __init__(self, name, n, pool):
        self.name = name
        self.n = n
        self.pool = pool

    def inputs(self, rng, workdir) -> list:
        out = []
        for k in range(self.pool):
            path = os.path.join(workdir, f"measure{k}.csv")
            with open(path, "w") as f:
                f.write(martingale_measure_csv(rng, self.n))
            argv = ["oracle", "--set", "criterion.name=linear:x2",
                    "--set", f"model.measure_csv={path}",
                    "--set", "oracle.radii=0.02,0.05,0.1,0.2"]
            out.append(Input(argv, self.output))
        return out

    def check(self, inp: Input, text: str) -> list:
        return check_oracle(text)


WORKLOADS = {
    w.name: w for w in (
        CurveWorkload("curve_p2", n=128, p=2.0, sigma_range=(0.05, 1.5), sigmas_per_op=3,
                      pool=8, log_uniform=True),
        CurveWorkload("general_p", n=16, p=1.5, sigma_range=(0.3, 1.2), sigmas_per_op=1,
                      pool=3, log_uniform=False),
        OracleWorkload("oracle", n=9, pool=4),
    )
}
