"""Command-line interface: sensitivity curves, hedging tables, self-checks.

Subcommands
-----------
curve      sensitivity and Vega curves over a volatility grid (CSV + SVG)
hedge      hedging-strategy tables and profiles at one volatility
oracle     LP ball suprema vs closed forms on a small canned measure (JSON)
selfcheck  run the full invariant suite; nonzero exit on any failure

Configuration uses flat ``key = value`` files with sections [model],
[criterion], [metric], [constraints], [output], [oracle]; command-line flags
override file values.  An unknown key or a bad value is a bad configuration,
refused before any work.  Exit codes: 0 success, 1 check failure, 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import fredholm, oracle, simplex
from .criterion import (Criterion, CriterionError, buyer_seller_violation, exercise_mass,
                        gradient_field, preset, stopping_rule, value, vega)
from .measure import (GridMeasure, MeasureError, ModelSpec, build_model,
                      canonical_test_measure, from_csv, invariant_violation, quantile_bins)
from .sensitivity import (CONSTRAINT_SETS, W2AD, ConstraintSet, MeanConstraint, Metric,
                          PointState, SensitivityError, chain_violation, closed_form_error,
                          marginal_path_violation, martingale_psi, report_tables, solve_foc)
from .svgplot import line_chart

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2

DEFAULT_SIGMA_GRID = tuple(float(x) for x in
                           np.exp(np.linspace(np.log(0.05), np.log(1.5), 20)))
CONSTRAINT_CHOICES = tuple(CONSTRAINT_SETS)
# curve.csv column of each constraint set
CURVE_COLUMNS = {"unconstrained": "G_ad", "martingale": "G_ad_M", "marginal": "G_ad_m",
                 "mart_marginal": "G_ad_Mm"}

CONFIG_KEYS = """\
configuration keys (section.key, with defaults):
  model.family        bachelier | black_scholes        [black_scholes]
  model.sigma         comma list or single value       [20 log-spaced in 0.05..1.5]
  model.n1, model.n2  grid sizes                       [64, 64]
  model.quadrature    gauss_hermite | equally_weighted [gauss_hermite]
  model.measure_csv   oracle only: load a custom measure instead of the canned one
  criterion.name      linear:<payoff> | american_put:K=..,rho=..,side=..
                                                       [american_put]
  metric.ball         wp | wp_adapted                  [wp_adapted]
  metric.p            exponent > 1, p/(p-1) > 1        [2]
  constraints.sets    comma list of unconstrained, martingale, marginal,
                      mart_marginal; hedge takes one   [curve: all four,
                                                        hedge: mart_marginal]
  output.dir          output directory                 [.]
  output.bins         upper bound on the E2 bin count  [n2]
                      (quantile cuts between the same two atoms merge:
                      64 on 64x64 gives 44, 128 on 128x128 gives 84)
  oracle.radii        3+ distinct LP radii > 0         [0.02,0.05,0.1,0.2]
"""


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    family: str = "black_scholes"
    sigmas: tuple = DEFAULT_SIGMA_GRID
    n1: int = 64
    n2: int = 64
    quadrature: str = "gauss_hermite"
    measure_csv: str | None = None
    criterion: str = "american_put"
    ball: str = "wp_adapted"
    p: float = 2.0
    sets: tuple | None = None       # curve: all four; hedge: mart_marginal
    out_dir: str = "."
    bins: int | None = None
    oracle_radii: tuple = (0.02, 0.05, 0.1, 0.2)

    def metric(self, which: str = "") -> Metric:
        """The configured ball; the set ``mart_marginal`` always takes the adapted one."""
        return Metric("wp_adapted" if which == "mart_marginal" else self.ball, self.p)

    def curve_sets(self) -> tuple:
        return CONSTRAINT_CHOICES if self.sets is None else self.sets

    def model_spec(self, sigma: float) -> ModelSpec:
        return ModelSpec(self.family, sigma, self.n1, self.n2, self.quadrature)

    @functools.cached_property
    def parsed_criterion(self) -> Criterion:    # built, its derivatives checked, once
        return preset(self.criterion)

    def validate(self):
        """Refuse a bad value before any work: the ball, criterion, sigma grid,
        bin count and oracle radii (``main`` checks the models a command builds)."""
        if not self.sigmas:
            raise ConfigError("sigma grid must be nonempty")
        if any(b <= a for a, b in zip(self.sigmas, self.sigmas[1:])):
            raise ConfigError("sigma grid must be strictly increasing")
        for s in self.sets or ():
            if s not in CONSTRAINT_CHOICES:
                raise ConfigError(f"unknown constraint set {s!r}")
        self.metric()
        try:
            _ = self.parsed_criterion       # kept: the command reads it
        except ValueError as exc:
            raise ConfigError(f"criterion.name {self.criterion!r}: {exc}") from exc
        if self.bins is not None and self.bins < 1:
            raise ConfigError("output.bins must be at least 1")
        radii = np.asarray(self.oracle_radii, dtype=float)
        if np.unique(radii).size < 3 or not np.all(np.isfinite(radii) & (radii > 0)):
            raise ConfigError("oracle.radii needs at least 3 radii, distinct, finite and positive")


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


# each configuration key's RunConfig field and the parser of its text
_CONFIG_FIELDS = {
    "model.family": ("family", str.strip), "model.sigma": ("sigmas", _parse_floats),
    "model.n1": ("n1", int), "model.n2": ("n2", int), "metric.p": ("p", float),
    "model.quadrature": ("quadrature", str.strip), "metric.ball": ("ball", str.strip),
    "model.measure_csv": ("measure_csv", str.strip), "criterion.name": ("criterion", str.strip),
    "constraints.sets": ("sets", lambda t: tuple(s.strip() for s in t.split(",") if s.strip())),
    "output.dir": ("out_dir", str.strip), "output.bins": ("bins", int),
    "oracle.radii": ("oracle_radii", _parse_floats)}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    cfg = RunConfig()
    raw = {}
    if path:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            for key, val in parser.items(section):
                raw[f"{section}.{key}"] = val
    raw.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(raw) - set(_CONFIG_FIELDS))
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
    for key, val in raw.items():
        field, parse = _CONFIG_FIELDS[key]
        setattr(cfg, field, parse(str(val)))
    cfg.validate()
    return cfg


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else (repr(float(v)) if isinstance(v, float) else v)
                             for v in row])


def _write_chart(path: str, series, title, xlabel, ylabel, logx=False) -> None:
    """Write the SVG plus a sidecar CSV holding exactly the plotted series."""
    with open(path, "w") as f:
        f.write(line_chart(series, title, xlabel, ylabel, logx=logx))
    header = [f"{name}_{axis}" for name, _, _ in series for axis in "xy"]
    _write_csv(path + ".csv", header,
               itertools.zip_longest(*(col for _, xs, ys in series for col in (xs, ys))))


def _curve_point(cfg: RunConfig, c: Criterion, sigma: float) -> dict:
    """One curve row: the model, its binning, gradient and operator are built
    once and shared by every constraint set's solve."""
    spec = cfg.model_spec(sigma)
    mu = build_model(spec)
    G = gradient_field(c, mu)
    bins = quantile_bins(mu, cfg.bins or cfg.n2)
    state = PointState(mu, G, cfg.metric(), bins)
    adapted = state if state.metric.adapted else PointState(
        mu, G, cfg.metric("mart_marginal"), bins)
    out = {"price": value(c, mu), "notes": list(G.warnings)}
    for name in cfg.curve_sets():
        rep = solve_foc(adapted if name == "mart_marginal" else state, CONSTRAINT_SETS[name])
        # an unconverged value is written as NaN, like a failed sigma point
        out[CURVE_COLUMNS[name]] = rep.value if rep.converged else float("nan")
        out["notes"] += [f"{CURVE_COLUMNS[name]}: {msg}" for msg in rep.warnings]
    out["vega"] = vega(spec, c)
    return out


def cmd_curve(cfg: RunConfig) -> int:
    c = cfg.parsed_criterion
    sens_cols = [col for name, col in CURVE_COLUMNS.items() if name in cfg.curve_sets()]
    header = ["sigma", "price"] + sens_cols + ["vega"] + [f"relative_{cn}" for cn in sens_cols]
    rows, failed = [], 0
    for sigma in cfg.sigmas:
        try:
            res = _curve_point(cfg, c, sigma)
        except (MeasureError, CriterionError, SensitivityError, fredholm.FredholmError) as exc:
            print(f"sigma={sigma:g} failed: {exc}", file=sys.stderr)
            res, failed = {}, failed + 1
        for note in res.get("notes", ()):
            print(f"sigma={sigma:g}: {note}", file=sys.stderr)
        price = res.get("price", float("nan"))
        sens = [res.get(cn, float("nan")) for cn in sens_cols]
        rows.append([sigma, price] + sens + [res.get("vega", float("nan"))]
                    + [s / price if np.isfinite(price) and price > 1e-12 and np.isfinite(s)
                       else None for s in sens])
    path = os.path.join(cfg.out_dir, "curve.csv")
    _write_csv(path, header, rows)
    xs = [r[0] for r in rows]
    series = [(cn, xs, [r[2 + k] for r in rows]) for k, cn in enumerate(sens_cols + ["vega"])]
    _write_chart(os.path.join(cfg.out_dir, "curve.svg"), series,
                 f"{cfg.criterion} sensitivities ({cfg.family})", "sigma", "sensitivity",
                 logx=True)
    print(f"wrote {path} and curve.svg ({len(rows)} sigma points)")
    if failed == len(cfg.sigmas):
        print("every sigma point failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_hedge(cfg: RunConfig, sigma: float) -> int:
    c = cfg.parsed_criterion
    spec = cfg.model_spec(sigma)
    mu = build_model(spec)
    G = gradient_field(c, mu)
    which = cfg.sets[0] if cfg.sets else "mart_marginal"
    state = PointState(mu, G, cfg.metric(which), quantile_bins(mu, cfg.bins or cfg.n2))
    rep = solve_foc(state, CONSTRAINT_SETS[which])
    rows1, rows2 = report_tables(rep, mu)
    _write_csv(os.path.join(cfg.out_dir, "hedge_h.csv"), ["x1", "h", "f1"], rows1)
    _write_csv(os.path.join(cfg.out_dir, "hedge_f2.csv"), ["x2_bin_center", "f2"], rows2)
    series = []
    if rep.h_hat is not None:
        series.append(("h", [r[0] for r in rows1], [r[1] for r in rows1]))
    if rep.f1 is not None:
        series.append(("f1", [r[0] for r in rows1], [r[2] for r in rows1]))
    if rows2:
        series.append(("f2", [r[0] for r in rows2], [r[1] for r in rows2]))
    _write_chart(os.path.join(cfg.out_dir, "hedge.svg"), series,
                 f"hedging profiles at sigma={sigma:g} ({which})", "state", "multiplier")
    status = "" if rep.converged else f"  not converged (FOC residual {rep.foc_residual:.3e})"
    print(f"value G'(0) = {rep.value!r}  [{rep.constraints}]{status}")
    for note in G.warnings + rep.warnings:
        print(note, file=sys.stderr)
    if rep.h_hat is not None:
        stats = hedge_jump_stats(mu, rep.h_hat, c)
        if stats["jump_ratio"] is None:
            print("h jump ratio = n/a")
        else:
            print(f"h jump ratio = {stats['jump_ratio']:.3f} at x1 = {stats['jump_x1']!r}")
        if stats["boundary_x1"] is not None:
            print(f"exercise boundary near x1 = {stats['boundary_x1']!r} "
                  f"(within {stats['cells_from_boundary']} grid cell(s))")
        print(f"stage-1 exercise mass = {stats['exercise_mass']:.3e}")
    return EXIT_OK if rep.converged else EXIT_CHECK_FAILED


def hedge_jump_stats(mu: GridMeasure, h: np.ndarray, c: Criterion) -> dict:
    """Locate the largest adjacent-atom jump of h and relate it to the
    exercise boundary of the stopping rule.

    The jump ratio is the largest adjacent jump over the median of the
    jumps above rounding level (1e-12 max|h|): h is often flat on most rows,
    where a median over all jumps is 0 or noise.  It is None when no jump
    exceeds rounding level.
    """
    dh = np.abs(np.diff(h))
    moving = dh[dh > 1e-12 * float(np.max(np.abs(h)))]
    k = int(np.argmax(dh))
    ratio = float(dh[k] / np.median(moving)) if moving.size else None
    out = {"jump_ratio": ratio, "jump_x1": float(0.5 * (mu.x1[k] + mu.x1[k + 1])),
           "boundary_x1": None, "cells_from_boundary": None, "exercise_mass": 0.0}
    if c.kind != "linear":
        rule = stopping_rule(c, mu)
        out["exercise_mass"] = exercise_mass(c, mu)
        flips = np.nonzero(np.diff(rule.stop_at_1.astype(int)) != 0)[0]
        if flips.size:
            b = int(flips[np.argmin(np.abs(flips - k))])
            out["boundary_x1"] = float(0.5 * (mu.x1[b] + mu.x1[b + 1]))
            out["cells_from_boundary"] = int(abs(b - k))
    return out


def cmd_oracle(cfg: RunConfig) -> int:
    if cfg.measure_csv:
        try:
            mu = from_csv(cfg.measure_csv, is_martingale=True)
        except OSError as exc:
            raise ConfigError(f"cannot read model.measure_csv: {exc}") from exc
    else:
        mu = canonical_test_measure()
    if mu.n1 * mu.n2 > 100:
        print("oracle instances are capped at 100 atoms", file=sys.stderr)
        return EXIT_BAD_CONFIG
    c = cfg.parsed_criterion
    if c.kind != "linear":
        print("the LP oracle needs a linear criterion (e.g. linear:x2)", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        rep = oracle.oracle_report(mu, c, cfg.oracle_radii,
                                   quantile_bins(mu, min(cfg.bins or mu.n2, mu.n2)))
    except (oracle.OracleError, simplex.LPError) as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    path = os.path.join(cfg.out_dir, "oracle.json")
    with open(path, "w") as f:
        json.dump(rep, f, indent=2, sort_keys=True)
    print(f"wrote {path}")
    for label, res in rep["constraint_sets"].items():
        print(f"  {label:11s} slope {res['slope']:+.6f}  closed {res['closed_form']:+.6f}  "
              f"{'PASS' if res['pass'] else 'FAIL'}")
    return EXIT_OK if rep["pass"] else EXIT_CHECK_FAILED


def _selfcheck_items():
    """(name, callable) pairs; each returns True on pass.  Where the tests
    share a check function, the item calls it on fixed inputs."""
    def fredholm_certificate():
        mu = build_model(ModelSpec("bachelier", 1.0, 16, 16))
        op = fredholm.build_operator(quantile_bins(mu, 16))
        rhs = np.random.default_rng(0).standard_normal(16)
        rhs -= float(mu.w1 @ rhs)
        residual, gap = fredholm.certificate(op, rhs)
        return residual <= 1e-8 and gap <= 1e-8

    def monotonicity():
        mu = build_model(ModelSpec("black_scholes", 1.0, 16, 16))
        state = PointState(mu, gradient_field(preset("american_put:side=buyer"), mu), W2AD)
        values = [solve_foc(state, cs).value for cs in CONSTRAINT_SETS.values()]
        return chain_violation(values) <= 1e-10

    def feasible_family():
        mu = build_model(ModelSpec("black_scholes", 0.5, 16, 16))
        c = preset("american_put:side=buyer")
        phi = MeanConstraint(lambda a, b: a * b, lambda a, b: b, lambda a, b: a, "x1*x2")
        errors = []
        for p, cs in ((1.5, ConstraintSet(mean_phi=(phi,), cond_psi=martingale_psi())),
                      (2.0, CONSTRAINT_SETS["mart_marginal"])):
            state = PointState(mu, gradient_field(c, mu), Metric("wp_adapted", p))
            errors.append(oracle.family_check(c, state, cs, solve_foc(state, cs))["error"])
        return np.max(errors) <= oracle.FAMILY_RTOL     # NaN, a truncated family, fails

    return [("measure invariants", lambda: invariant_violation() == 0.0),
            ("criterion consistency", lambda: buyer_seller_violation() == 0.0),
            ("analytic closed forms",
             lambda: closed_form_error(canonical_test_measure()) <= 1e-10),
            ("marginal dual path", lambda: marginal_path_violation() == 0.0),
            ("fredholm certificate", fredholm_certificate),
            ("constraint monotonicity", monotonicity),
            ("feasible family", feasible_family),
            ("oracle sandwich",
             lambda: oracle.oracle_report(canonical_test_measure(), preset("linear:x2"),
                                          (0.02, 0.05, 0.1, 0.2))["pass"]),
            ("contraction counterexample", lambda: fredholm.counterexample_violation() == 0.0)]


def _took(start: float) -> str:
    return f"{time.perf_counter() - start:7.3f} s"


def _run_check(name: str, fn) -> int:
    """Print one PASS/FAIL line for ``fn()``; 1 if it failed, else 0."""
    start = time.perf_counter()
    try:
        ok = fn()
    except Exception as exc:   # a crashed check is a failed check
        print(f"{name:32s} FAIL  {_took(start)}  ({type(exc).__name__}: {exc})")
        return 1
    print(f"{name:32s} {'PASS' if ok else 'FAIL'}  {_took(start)}")
    return 0 if ok else 1


def cmd_selfcheck(measure_path: str | None = None) -> int:
    failures = 0 if measure_path is None else _run_check(
        "measure file invariants", lambda: from_csv(measure_path) is not None)
    failures += sum(_run_check(name, fn) for name, fn in _selfcheck_items())
    print(f"{'-' * 40}\n{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


@functools.cache     # parsing leaves the parser unchanged: --set appends to a copy
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wadro",
        description="Model-risk sensitivities of two-period models under "
                    "(adapted) Wasserstein ambiguity balls.",
        epilog=CONFIG_KEYS,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("curve", "sensitivity curves over a sigma grid"),
                           ("hedge", "hedging strategies at one sigma"),
                           ("oracle", "LP oracle sandwich report"),
                           ("selfcheck", "run the invariant suite")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="INI-style configuration file")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a configuration value (repeatable)")
        p.add_argument("--out", help="output directory")
        if name == "hedge":
            p.add_argument("--sigma", type=float, required=True)
        if name == "selfcheck":
            p.add_argument("--measure", help="validate a measure CSV file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    for item in args.set:
        key, sep, val = item.partition("=")
        if not sep or "." not in key:
            print(f"bad --set {item!r}, expected SECTION.KEY=VALUE", file=sys.stderr)
            return EXIT_BAD_CONFIG
        overrides[key.strip()] = val.strip()
    if args.out:
        overrides["output.dir"] = args.out
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "hedge" and len(cfg.sets or ()) > 1:
            raise ConfigError(f"hedge solves one constraint set, not {len(cfg.sets)}")
        if args.command in ("curve", "hedge") and cfg.measure_csv:
            raise ConfigError(f"model.measure_csv is read by oracle only, not {args.command}")
        if args.command in ("curve", "hedge"):   # each model it builds; oracle builds none
            for sigma in cfg.sigmas if args.command == "curve" else (args.sigma,):
                cfg.model_spec(sigma)
        if args.command == "selfcheck" and (args.config or overrides):
            raise ConfigError("selfcheck checks fixed inputs and reads no configuration (--measure "
                              f"is its one input), got {', '.join(sorted(overrides)) or args.config}")
        # made only once every refusal has passed, so a refused run leaves none
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output directory: {exc}") from exc
    except (ConfigError, ValueError) as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        if args.command == "curve":
            return cmd_curve(cfg)
        if args.command == "hedge":
            return cmd_hedge(cfg, args.sigma)
        if args.command == "oracle":
            return cmd_oracle(cfg)
        if args.command == "selfcheck":
            return cmd_selfcheck(args.measure)
    except (MeasureError, CriterionError, SensitivityError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
