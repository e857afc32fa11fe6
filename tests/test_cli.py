import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import wadro
from wadro import cli, measure, sensitivity
from wadro.criterion import GradientField, gradient_field, preset, value
from wadro.measure import ModelSpec, build_model, canonical_test_measure, quantile_bins, to_csv
from wadro.svgplot import _ticks, line_chart

from lattice import lattice_measure


def run_cli(args):
    return cli.main(args)


def test_bad_config_exit_code(tmp_path):
    rc = run_cli(["curve", "--set", "model.sigma=0.5,0.1", "--out", str(tmp_path)])
    assert rc == cli.EXIT_BAD_CONFIG
    rc = run_cli(["curve", "--set", "nonsense", "--out", str(tmp_path)])
    assert rc == cli.EXIT_BAD_CONFIG
    rc = run_cli(["curve", "--config", str(tmp_path / "missing.cfg")])
    assert rc == cli.EXIT_BAD_CONFIG


@pytest.mark.parametrize("args", [
    ["curve", "--set", "model.sigma=-1,0.5"], ["curve", "--set", "model.n1=1"],
    ["curve", "--set", "metric.ball=foo"], ["curve", "--set", "metric.p=0.5"],
    ["curve", "--set", "metric.p=1e308"], ["curve", "--set", "metric.p=inf"],
    ["curve", "--set", "model.family=heston"], ["curve", "--set", "model.quadrature=x"],
    ["curve", "--set", "output.bins=-3"], ["curve", "--set", "output.bins=0"],
    ["hedge", "--sigma", "0.5", "--set", "metric.ball=foo"],
    ["hedge", "--sigma", "0.5", "--set", "constraints.sets=martingale,marginal"],
    ["curve", "--set", "model.family=custom"],
    ["hedge", "--sigma", "0.5", "--set", "model.family=custom"], ["hedge", "--sigma", "-1"],
    ["curve", "--set", "criterion.name=american_put:K=abc"],
    ["curve", "--set", "criterion.name=foo"],
    ["oracle", "--set", "oracle.radii=-0.1,0.1,0.2"],
    ["oracle", "--set", "oracle.radii=0.1,0.1,0.1"],
    ["curve", "--set", "oracle.radii=0.02,0.05,nan"],
    ["curve", "--set", "model.measure_csv=missing.csv"],     # oracle reads it, curve would not
    ["hedge", "--sigma", "0.5", "--set", "model.measure_csv=missing.csv"],
    ["selfcheck", "--set", "model.measure_csv=missing.csv"],     # selfcheck reads no key
    ["curve", "--out", "{file}"]], ids=" ".join)
def test_bad_value_exits_bad_config_before_any_work(tmp_path, capsys, args):
    # refused up front: no sigma point runs and nothing is written
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = [args[0], "--set", "model.n1=8", "--set", "model.n2=8", "--out", str(tmp_path)]
    rc = run_cli(argv + [str(taken) if a == "{file}" else a for a in args[1:]])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "bad configuration" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["taken"] and taken.read_text() == ""


@pytest.mark.parametrize("args", [["selfcheck"], ["curve", "--set", "model.measure_csv=a.csv"]],
                         ids=" ".join)
def test_refused_run_leaves_no_output_directory(tmp_path, args):
    out = tmp_path / "new"
    assert run_cli(args + ["--out", str(out)]) == cli.EXIT_BAD_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("key", ["model.sigmaa", "output.workers", "output.seed"])
def test_unknown_config_key_exits_bad_config(tmp_path, capsys, key):
    # a typo, or a key this version does not have, stops the run by name
    rc = run_cli(["selfcheck", "--set", f"{key}=5", "--out", str(tmp_path)])
    assert rc == cli.EXIT_BAD_CONFIG
    assert key in capsys.readouterr().err
    section, name = key.split(".")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{section}]\n{name} = 5\n")
    rc = run_cli(["curve", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == cli.EXIT_BAD_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


def test_load_config_names_every_unknown_key():
    with pytest.raises(cli.ConfigError, match="model.sigmaa, output.wrokers$"):
        cli.load_config(None, {"output.wrokers": "3", "model.sigmaa": "5", "model.n1": "8"})


def test_malformed_config_file_exits_bad_config(tmp_path, capsys):
    (tmp_path / "twice.cfg").write_text("[model]\nn1 = 8\n[model]\nn2 = 8\n")
    rc = run_cli(["curve", "--config", str(tmp_path / "twice.cfg"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "section 'model' already exists" in capsys.readouterr().err


def test_help_lists_exactly_the_parsed_keys():
    # every section.key the help text names is parsed, and every parsed key is named
    named = set(re.findall(r"\b[a-z]+\.[a-z_0-9]+\b", cli.CONFIG_KEYS.split("\n", 1)[1]))
    assert named == set(cli._CONFIG_FIELDS)


def test_successive_mains_share_no_parser_state(monkeypatch):
    # the parser is built once per process; each call's --set list is its own
    seen = []

    def record(path, overrides):
        seen.append(overrides)
        raise cli.ConfigError("stop here")

    monkeypatch.setattr(cli, "load_config", record)
    for argv in (["curve", "--set", "model.sigma=0.5", "--set", "model.n=8"],
                 ["oracle", "--set", "oracle.radii=0.1,0.2,0.3"], ["curve"]):
        assert run_cli(argv) == cli.EXIT_BAD_CONFIG
    assert seen == [{"model.sigma": "0.5", "model.n": "8"}, {"oracle.radii": "0.1,0.2,0.3"}, {}]
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().parse_args(["curve"]).set == []


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[model]
family = bachelier
sigma = 0.5
n1 = 12
n2 = 12

[criterion]
name = linear:x2

[output]
dir = %s
""" % tmp_path)
    rc = run_cli(["curve", "--config", str(cfg), "--set", "model.sigma=0.1"])
    assert rc == cli.EXIT_OK
    rows = list(csv.DictReader(open(tmp_path / "curve.csv")))
    assert len(rows) == 1
    # linear:x2 on a Bachelier grid: unconstrained sensitivity 1, vega 0
    assert abs(float(rows[0]["G_ad"]) - 1.0) <= 1e-10
    assert abs(float(rows[0]["vega"])) <= 1e-12
    # price is 0, so relative columns are empty
    assert rows[0]["relative_G_ad"] == ""


def test_curve_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["curve", "--set", "model.sigma=0.2,0.6", "--set", "model.n1=16",
            "--set", "model.n2=16"]
    assert run_cli(args + ["--out", str(a)]) == cli.EXIT_OK
    assert run_cli(args + ["--out", str(b)]) == cli.EXIT_OK
    for name in ("curve.csv", "curve.svg", "curve.svg.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("args", [
    ["curve", "--set", "model.sigma=0.5"], ["hedge", "--sigma", "0.5"],
    ["oracle", "--set", "criterion.name=linear:x2"]], ids=lambda a: a[0])
def test_command_builds_its_criterion_once(tmp_path, monkeypatch, args):
    # validation builds the criterion, its derivative check included, and the
    # command reads the one it kept
    names, preset_ = [], cli.preset

    def counted(name):
        names.append(name)
        return preset_(name)

    monkeypatch.setattr(cli, "preset", counted)
    grid = ["--set", "model.n1=8", "--set", "model.n2=8"] if args[0] != "oracle" else []
    assert run_cli(args + grid + ["--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(names) == 1


def test_curve_relative_columns(tmp_path):
    rc = run_cli(["curve", "--set", "model.sigma=0.5", "--set", "model.n1=16",
                  "--set", "model.n2=16", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    row = next(csv.DictReader(open(tmp_path / "curve.csv")))
    price = float(row["price"])
    assert price > 0
    for col in ("G_ad", "G_ad_M", "G_ad_m", "G_ad_Mm"):
        assert abs(float(row[f"relative_{col}"]) - float(row[col]) / price) <= 1e-12


def test_svg_sidecar_matches_plot(tmp_path):
    rc = run_cli(["curve", "--set", "model.sigma=0.2,0.4,0.8",
                  "--set", "model.n1=12", "--set", "model.n2=12",
                  "--set", "criterion.name=linear:x2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    svg = (tmp_path / "curve.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    side = list(csv.reader(open(tmp_path / "curve.svg.csv")))
    header, rows = side[0], side[1:]
    assert "G_ad_x" in header and "G_ad_y" in header
    col = header.index("G_ad_y")
    ys = [float(r[col]) for r in rows]
    assert np.allclose(ys, 1.0, atol=1e-10)


@pytest.mark.parametrize("n", [371, 384])
def test_gauss_hermite_grid_numpy_cannot_build_exits_bad_config(tmp_path, n):
    # refused at validate, in a fresh process so that numpy's rule is computed
    # there: no output and no numpy warning, only the message
    out, src = tmp_path / "out", os.path.dirname(os.path.dirname(wadro.__file__))
    proc = subprocess.run([sys.executable, "-m", "wadro.cli", "curve", "--set", f"model.n1={n}",
                           "--set", f"model.n2={n}", "--set", "model.sigma=0.5", "--out", str(out)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_BAD_CONFIG and proc.stdout == "" and not out.exists()
    assert proc.stderr == (f"bad configuration: numpy's gauss_hermite rule has weights that are "
                           f"not finite and positive at n = {n}; use fewer nodes\n")


def test_oracle_computes_no_quadrature(tmp_path, monkeypatch):
    # oracle reads the canned measure or model.measure_csv, so no sigma
    # point's model is built, not even to validate it
    calls, nodes = [], measure._cached_nodes
    monkeypatch.setattr(measure, "_cached_nodes", lambda *a: calls.append(a) or nodes(*a))
    assert run_cli(["oracle", "--set", "criterion.name=linear:x2", "--out", str(tmp_path)]) \
        == cli.EXIT_OK
    assert calls == []


def test_line_chart_without_finite_points():
    for logx in (False, True):
        svg = line_chart([("G", [0.5, 80.0], [float("nan")] * 2)], logx=logx)
        assert svg.startswith("<svg") and "polyline" not in svg


def test_ticks_of_a_range_a_few_ulps_wide():
    # a tick step below half an ulp of t never moves t: such a range is flat
    lo, hi = -0.5000000000000001, -0.49999999999999994
    assert _ticks(lo, hi) == _ticks(lo, lo) == [-0.4, -0.2, 0.0, 0.2, 0.4]
    assert _ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


def test_ticks_of_a_flat_range_at_large_magnitudes():
    # lo + 1 is lo from 2^53 on (log10(0) raised there) and below half an ulp
    # from 2^52 (the tick loop never ended there)
    for v in (2.0 ** 52, 2.0 ** 53, 1e20, -1e20, 1e300):
        ticks = _ticks(v, v)
        assert 1 <= len(ticks) <= 6 and all(math.isfinite(t) for t in ticks), v
    svg = line_chart([("a", [1, 2], [1e20, 1e20])])
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_hedge_chart_of_a_strategy_flat_to_rounding(tmp_path):
    # f2 is -1 up to rounding, so a chart range is a few ulps wide; in a
    # fresh process, so that a hang fails by the timeout
    src = os.path.dirname(os.path.dirname(wadro.__file__))
    proc = subprocess.run([sys.executable, "-m", "wadro.cli", "hedge", "--sigma", "0.7",
                           "--set", "criterion.name=linear:x1+x2",
                           "--set", "constraints.sets=marginal", "--set", "model.n1=6",
                           "--set", "model.n2=6", "--out", str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert (tmp_path / "hedge.svg").read_text().startswith("<svg")


def test_curve_with_every_sigma_failed_exits_check_failed(tmp_path, capsys):
    rc = run_cli(["curve", "--set", "model.sigma=80.0", "--set", "model.n1=8",
                  "--set", "model.n2=8", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert "sigma=80 failed" in err and "every sigma point failed" in err
    assert (tmp_path / "curve.svg").exists()
    row = next(csv.DictReader(open(tmp_path / "curve.csv")))
    assert row["price"] == "nan"


def test_hedge_constant_strategy(tmp_path, capsys):
    rc = run_cli(["hedge", "--sigma", "1.0",
                  "--set", "criterion.name=linear:x2",
                  "--set", "constraints.sets=martingale",
                  "--set", "model.n1=12", "--set", "model.n2=12",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rows = list(csv.DictReader(open(tmp_path / "hedge_h.csv")))
    hvals = np.array([float(r["h"]) for r in rows])
    assert np.allclose(hvals, -0.5, atol=1e-12)
    # every jump of a constant h is rounding: no ratio to report
    out = capsys.readouterr().out
    assert "h jump ratio = n/a" in out and "not converged" not in out


def test_hedge_marks_unconverged_solve(tmp_path, capsys):
    rc = run_cli(["hedge", "--sigma", "0.1", "--set", "metric.p=6",
                  "--set", "model.n1=16", "--set", "model.n2=16",
                  "--set", "constraints.sets=mart_marginal", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    line = next(ln for ln in captured.out.splitlines() if ln.startswith("value G'(0)"))
    assert "not converged (FOC residual" in line
    assert re.fullmatch(r"FOC iteration did not converge: residual \S+ after \d+ steps\n",
                        captured.err)


def test_hedge_put_jump_near_boundary(tmp_path, capsys):
    rc = run_cli(["hedge", "--sigma", "1.0", "--set", "model.n1=48",
                  "--set", "model.n2=48", "--set", "constraints.sets=martingale",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "jump ratio" in out and "n/a" not in out and "inf" not in out
    assert "within 0 grid cell" in out or "within 1 grid cell" in out


def test_selfcheck_passes(tmp_path, capsys):
    rc = run_cli(["selfcheck"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    # every check reports its wall time next to its verdict
    checks = out.split("-" * 40)[0].splitlines()
    assert len(checks) == 9 and all(re.search(r" PASS +\d+\.\d{3} s$", ln) for ln in checks)


def test_selfcheck_rejects_corrupted_measure(tmp_path, capsys):
    buf = io.StringIO()
    to_csv(canonical_test_measure(), buf)
    bad = buf.getvalue().replace("0.4", "0.9", 1)
    path = tmp_path / "bad.csv"
    path.write_text(bad)
    rc = run_cli(["selfcheck", "--measure", str(path)])
    assert rc == cli.EXIT_CHECK_FAILED
    assert "measure file invariants" in capsys.readouterr().out


def test_oracle_requires_three_radii(tmp_path, capsys):
    rc = run_cli(["oracle", "--set", "oracle.radii=0.0",
                  "--set", "criterion.name=linear:x2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "3 radii" in capsys.readouterr().err


def test_oracle_refuses_unreadable_or_malformed_measure(tmp_path, capsys):
    # both refused before any work with exit 2, not a traceback
    argv = ["oracle", "--set", "criterion.name=linear:x2", "--out", str(tmp_path)]
    rc = run_cli(argv + ["--set", f"model.measure_csv={tmp_path / 'missing.csv'}"])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "cannot read model.measure_csv" in capsys.readouterr().err
    path = tmp_path / "bad.csv"
    path.write_text("i,j,x1,w1,x2,q\n0,0,1.0,1.0,1.0,1.0\n0,1,1.0,1.0,abc,0.0\n")
    rc = run_cli(argv + ["--set", f"model.measure_csv={path}"])
    assert rc == cli.EXIT_BAD_CONFIG
    assert "line 3: could not convert string to float: 'abc'" in capsys.readouterr().err
    for line, message in (("-1,0,1.0,1.0,1.0,1.0", "line 3: negative atom index (-1, 0)"),
                          ("0,0,1.0,1.0,1.0,1.0", "line 3: atom (0, 0) appears twice")):
        path.write_text(f"i,j,x1,w1,x2,q\n0,0,1.0,1.0,1.0,1.0\n{line}\n")
        rc = run_cli(argv + ["--set", f"model.measure_csv={path}"])
        assert rc == cli.EXIT_BAD_CONFIG
        assert message in capsys.readouterr().err
    assert not (tmp_path / "oracle.json").exists()


def test_oracle_report_written(tmp_path):
    rc = run_cli(["oracle", "--set", "criterion.name=linear:x2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rep = json.load(open(tmp_path / "oracle.json"))
    assert rep["pass"]
    assert set(rep["constraint_sets"]) == {"none", "martingale", "marginal2", "both"}
    for res in rep["constraint_sets"].values():
        assert (len(res["lp_pivots"]) == len(res["lp_variables"]) == len(res["budget_used"])
                == len(rep["radii"]))
        # an LP can be optimal at its starting basis: the identity coupling
        assert all(isinstance(k, int) and k >= 0 for k in res["lp_pivots"])
        # every radius moves some mass: each set has a displacement variable
        assert all(isinstance(k, int) and k > 0 for k in res["lp_variables"])
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in res["budget_used"])
    sets = rep["constraint_sets"]
    assert sets["none"]["lp_variables"][0] > sets["marginal2"]["lp_variables"][0]
    # with the second marginal pinned, every coupling gives the payoff x2
    # mu's own value, so each LP is optimal at the identity coupling it
    # starts from.  Pivots are not pinned: from r = 0.1 on, moves between
    # neighbouring atoms bring in the zero-rhs marginal rows, whose
    # artificials the simplex pivots out of its basis (8 per LP, also on a
    # lattice whose sums are exact)
    v0 = value(preset("linear:x2"), canonical_test_measure())
    res = sets["marginal2"]
    assert res["value_at_zero"] == pytest.approx(v0, rel=1e-15)
    assert res["lp_values"] == pytest.approx([v0] * len(res["lp_values"]), rel=1e-14)


def test_oracle_reports_no_overspent_coupling(tmp_path):
    # a 7x7 lattice 0.15 apart, where the martingale LP at radius 0.2 couples
    # neighbouring atoms.  A textbook ratio test pivoted on near-zero
    # elements there: an unchecked point spent 2.23 times the budget, a
    # checked one failed the run.  Every set now solves within its budget.
    path = tmp_path / "measure.csv"
    with open(path, "w", newline="") as f:
        to_csv(lattice_measure(76, 7, 0.15, 1.0, 0.02), f)
    rc = run_cli(["oracle", "--set", "criterion.name=linear:x2",
                  "--set", f"model.measure_csv={path}",
                  "--set", "oracle.radii=0.05,0.1,0.2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    for res in json.load(open(tmp_path / "oracle.json"))["constraint_sets"].values():
        assert all(u is None or u <= 1.0 + 1e-9 for u in res["budget_used"])


def test_curve_partial_failure_writes_nan_markers(tmp_path, capsys):
    rc = run_cli(["curve", "--set", "model.sigma=0.5,80.0",
                  "--set", "model.n1=8", "--set", "model.n2=8",
                  "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().err.startswith("sigma=80 failed: ")
    rows = list(csv.DictReader(open(tmp_path / "curve.csv")))
    assert len(rows) == 2
    assert rows[0]["price"] not in ("", "nan")
    assert rows[1]["price"] == "nan"


def test_curve_writes_a_gradient_of_infinite_norm_as_a_failed_row(tmp_path, monkeypatch, capsys):
    # the second sigma's gradient field (0, 1e300) squares to inf: its row is
    # NaN throughout and stderr names the field; the other rows are solved
    real = cli.gradient_field
    fields = iter([real, lambda c, mu: GradientField(0.0 * mu.x2, 1e300 + 0.0 * mu.x2), real])
    monkeypatch.setattr(cli, "gradient_field", lambda c, mu: next(fields)(c, mu))
    rc = run_cli(["curve", "--set", "metric.p=1.5", "--set", "model.sigma=0.2,0.5,1.0",
                  "--set", "model.n1=8", "--set", "model.n2=8", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert err == ["sigma=0.5 failed: the gradient field's L2(mu) norm is inf, not finite"]
    rows = list(csv.DictReader(open(tmp_path / "curve.csv")))
    assert [row["sigma"] for row in rows] == ["0.2", "0.5", "1.0"]
    for k, row in enumerate(rows):
        assert all((row[col] in ("nan", "")) == (k == 1) for col in row if col != "sigma"), row


def test_curve_writes_nan_for_unconverged_values(tmp_path, monkeypatch, capsys):
    # one step is the p = 2 warm start, which cannot certify a p = 1.5 value
    monkeypatch.setattr(sensitivity, "FOC_MAX_ITER", 1)
    rc = run_cli(["curve", "--set", "metric.p=1.5", "--set", "model.sigma=0.5",
                  "--set", "model.n1=8", "--set", "model.n2=8", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    row = next(csv.DictReader(open(tmp_path / "curve.csv")))
    assert float(row["G_ad"]) > 0                # no multipliers: nothing to iterate
    # one stderr line per unconverged value, naming its sigma and column
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    for col, line in zip(("G_ad_M", "G_ad_m", "G_ad_Mm"), err):
        assert row[col] == "nan"
        assert row[f"relative_{col}"] == ""
        assert line.startswith(f"sigma=0.5: {col}: FOC iteration did not converge: residual ")


def test_curve_p3_certified_and_fast(tmp_path):
    # p = 3 (p' = 3/2): the dual field's duality map is not Lipschitz at zero
    argv = ["curve", "--set", "metric.p=3", "--set", "model.n1=16", "--set", "model.n2=16",
            "--set", "model.sigma=0.5", "--out", str(tmp_path)]
    t0 = time.perf_counter()
    assert run_cli(argv) == cli.EXIT_OK
    assert time.perf_counter() - t0 < 2.0
    row = next(csv.DictReader(open(tmp_path / "curve.csv")))
    # a fixed point stalled at FOC residual 1.4e-1 reported 0.3110546 here
    assert float(row["G_ad_m"]) < 0.3110546
    mu = build_model(ModelSpec("black_scholes", 0.5, 16, 16))
    G = gradient_field(preset("american_put"), mu)
    metric = sensitivity.Metric("wp_adapted", 3.0)
    bins = quantile_bins(mu, 16)
    for col, cs in (("G_ad", sensitivity.ConstraintSet()),
                    ("G_ad_M", sensitivity.ConstraintSet(cond_psi=sensitivity.martingale_psi())),
                    ("G_ad_m", sensitivity.ConstraintSet(marginal1=True, marginal2=True)),
                    ("G_ad_Mm", sensitivity.ConstraintSet(
                        marginal1=True, marginal2=True, cond_psi=sensitivity.martingale_psi()))):
        rep = sensitivity.solve_foc(sensitivity.PointState(mu, G, metric, bins), cs)
        assert rep.converged and rep.foc_residual <= 1e-8 and not rep.warnings
        assert float(row[col]) == rep.value


def test_curve_point_bins_the_atoms_once(tmp_path, monkeypatch):
    # the four constraint sets share one binning: one search of the edges
    cfg = cli.load_config(None, {"model.n1": "32", "model.n2": "32",
                                 "output.dir": str(tmp_path)})
    sizes = []
    searchsorted = np.searchsorted

    def counted(a, v, *args, **kwargs):
        sizes.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    row = cli._curve_point(cfg, preset(cfg.criterion), 0.5)
    assert all(np.isfinite(row[col]) for col in cli.CURVE_COLUMNS.values())
    assert sizes.count(32 * 32) == 1


@pytest.mark.parametrize("n,m", [(64, 44), (128, 84)])
def test_output_bins_is_an_upper_bound(n, m):
    # quantile cuts that fall between the same two atoms merge; the help
    # text states these two counts
    mu = build_model(ModelSpec("black_scholes", 0.5, n, n))
    assert quantile_bins(mu, n).m == m
    assert f"{n} on {n}x{n} gives {m}" in " ".join(cli.CONFIG_KEYS.split())


def test_import_loads_no_scipy():
    # the library is numpy-only; scipy serves the tests as an independent check
    src = os.path.dirname(os.path.dirname(wadro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c",
                          "import sys, wadro; print('scipy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_library_does_not_import_warnings():
    # diagnostics travel on the returned objects, and the CLI prints them
    src = os.path.dirname(wadro.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    assert all(a.name != "warnings" for a in node.names), name
                elif isinstance(node, ast.ImportFrom):
                    assert node.module != "warnings", name


def test_library_reads_every_import():
    # a top-level import that its module never reads is dead code;
    # __init__.py imports to re-export
    src = os.path.dirname(wadro.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(src, name)) as f:
                tree = ast.parse(f.read())
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                    and node.module != "__future__"):
                    for a in node.names:
                        bound = a.asname or a.name.split(".")[0]
                        assert bound in read, f"{name} never reads {bound}"


def test_default_sigma_grid_csv_floats(tmp_path):
    rc = run_cli(["curve", "--set", "model.n1=8", "--set", "model.n2=8",
                  "--set", "criterion.name=linear:x2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    text = (tmp_path / "curve.csv").read_text()
    assert "np.float" not in text
    rows = list(csv.DictReader(open(tmp_path / "curve.csv")))
    assert len(rows) == 20                      # default log-spaced grid
    sig = [float(r["sigma"]) for r in rows]
    assert abs(sig[0] - 0.05) <= 1e-12 and abs(sig[-1] - 1.5) <= 1e-12
