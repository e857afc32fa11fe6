"""Tests of the benchmark's references, checks and tracer.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench``.
"""

import csv
import io
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER_UNITS, Tracer  # noqa: E402
from wadro import cli, measure  # noqa: E402

CONSTANT_X2 = {"G_ad": 1.0, "G_ad_M": 2 ** -0.5, "G_ad_m": 0.0, "G_ad_Mm": 0.0}


def _grids():
    mu = measure.canonical_test_measure()
    return [reference.Grid(mu.x1, mu.w1, mu.x2, mu.q),
            reference.black_scholes_grid(0.5, 16, 16)]


def _minimum(grid, S1, S2, col, pc=2.0):
    binidx, m = reference.quantile_bin_index(grid, grid.x2.shape[1])
    return reference.dual_norm_minimum(grid.mw, S1, S2,
                                       reference.HedgeMap(binidx, m, reference.SETS[col]), pc)


@pytest.mark.parametrize("grid", _grids(), ids=["canonical_5x5", "black_scholes_16x16"])
def test_reference_constant_field_closed_forms(grid):
    zero, one = np.zeros_like(grid.x2), np.ones_like(grid.x2)
    for col, exact in CONSTANT_X2.items():
        assert abs(_minimum(grid, zero, one, col) - exact) <= 1e-10
    assert abs(_minimum(grid, one, one, "G_ad") - 2 ** 0.5) <= 1e-10
    # p' = 3: the martingale hedge still splits the unit move evenly
    assert abs(_minimum(grid, zero, one, "G_ad_M", pc=3.0) - 4 ** (-1 / 3)) <= 1e-10


def test_reference_bins_match_wadro():
    grid = reference.black_scholes_grid(0.7, 64, 64)
    mu = measure.build_model(measure.ModelSpec("black_scholes", 0.7, 64, 64))
    binidx, m = reference.quantile_bin_index(grid, 64)
    bins = measure.quantile_bins(mu, 64)
    assert m == bins.m
    assert np.array_equal(binidx, bins.assign(mu.x2.ravel()).reshape(mu.x2.shape))


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_reference_matches_curve_output(tmp_path, p):
    sigma = 0.4 if p == 2.0 else 0.9
    sets = "unconstrained,martingale,marginal,mart_marginal" if p == 2.0 \
        else "unconstrained,martingale,marginal"
    argv = ["curve", "--set", "model.n1=16", "--set", "model.n2=16",
            "--set", f"model.sigma={sigma}", "--set", f"metric.p={p}",
            "--set", f"constraints.sets={sets}", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    row = next(csv.DictReader(open(tmp_path / "curve.csv")))
    cols = [c for c in reference.SETS if c in row]
    ref = reference.curve_point(sigma, 16, p, 1.3, 0.05, sets=cols)
    for key in ["price", "vega", *cols]:
        assert abs(float(row[key]) - ref[key]) <= 1e-10 * max(1.0, abs(ref[key])), key


# ---------------------------------------------------------------------------
# every check rejects a value moved beyond its tolerance


def _curve_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(workloads.CURVE_HEADER)
    for r in rows:
        writer.writerow([repr(r[k]) if k in r else repr(r[k[9:]] / r["price"])
                         for k in workloads.CURVE_HEADER])
    return buf.getvalue()


@pytest.fixture(scope="module")
def curve_refs():
    return [reference.curve_point(s, 16, 2.0, 1.3, 0.05) for s in (0.3, 0.8)]


def test_check_curve_accepts_reference_rows(curve_refs):
    assert workloads.check_curve(_curve_text(curve_refs), curve_refs, 1e-10) == []


@pytest.mark.parametrize("col,tol", [("price", workloads.PRICE_RTOL),
                                     ("vega", workloads.VEGA_TOL),
                                     *[(c, 1e-10) for c in workloads.CURVE_COLUMNS]])
def test_check_curve_rejects_perturbed_value(curve_refs, col, tol):
    rows = [dict(r) for r in curve_refs]
    rows[1][col] += 10 * tol * max(1.0, abs(rows[1][col]))
    problems = workloads.check_curve(_curve_text(rows), curve_refs, 1e-10)
    assert any(f"{col} " in p for p in problems), problems


def test_check_curve_rejects_relative_column(curve_refs):
    text = _curve_text(curve_refs).splitlines()
    cells = text[1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-9) + 1e-9)
    text[1] = ",".join(cells)
    problems = workloads.check_curve("\n".join(text) + "\n", curve_refs, 1e-10)
    assert any("relative_G_ad_Mm" in p for p in problems), problems


def test_check_curve_rejects_broken_chain(curve_refs):
    rows = [dict(r) for r in curve_refs]
    rows[0]["G_ad_Mm"] = rows[0]["G_ad_m"] * (1 + 1e-6) + 1e-6
    # references equal to the output, so only the ordering can fail
    problems = workloads.check_curve(_curve_text(rows), rows, 1e-10)
    assert len(problems) == 1 and "chain" in problems[0], problems


def test_check_curve_rejects_nan_and_bad_shape(curve_refs):
    rows = [dict(r) for r in curve_refs]
    rows[0]["G_ad_M"] = math.nan
    assert any("non-finite" in p for p in
               workloads.check_curve(_curve_text(rows), curve_refs, 1e-10))
    assert workloads.check_curve(_curve_text(curve_refs[:1]), curve_refs, 1e-10)
    text = _curve_text(curve_refs).replace("sigma,", "s,", 1)
    assert workloads.check_curve(text, curve_refs, 1e-10)


def _oracle_doc():
    sets = {}
    for label, exact in reference.LINEAR_X2_CLOSED_FORMS.items():
        sets[label] = {"closed_form": exact, "slope": exact, "value_at_zero": 1.0,
                       "lp_values": [1.0, 1.0, 1.0, 1.0], "pass": True}
    return {"pass": True, "constraint_sets": sets}


def test_check_oracle_accepts_analytic_values():
    assert workloads.check_oracle(json.dumps(_oracle_doc())) == []


@pytest.mark.parametrize("label", list(reference.LINEAR_X2_CLOSED_FORMS))
def test_check_oracle_rejects_perturbed_values(label):
    exact = reference.LINEAR_X2_CLOSED_FORMS[label]
    doc = _oracle_doc()
    doc["constraint_sets"][label]["closed_form"] = exact + 10 * workloads.ORACLE_CLOSED_TOL
    assert any("closed form" in p for p in workloads.check_oracle(json.dumps(doc)))
    doc = _oracle_doc()
    doc["constraint_sets"][label]["slope"] = exact + 2 * workloads.ORACLE_SLOPE_RTOL * max(
        abs(exact), workloads.ORACLE_SLOPE_FLOOR)
    assert any("slope" in p for p in workloads.check_oracle(json.dumps(doc)))
    doc = _oracle_doc()
    doc["constraint_sets"][label]["lp_values"][2] = math.nan
    assert any("non-finite" in p for p in workloads.check_oracle(json.dumps(doc)))
    doc = _oracle_doc()
    del doc["constraint_sets"][label]
    assert any("missing" in p for p in workloads.check_oracle(json.dumps(doc)))


def test_check_oracle_rejects_failed_report():
    doc = _oracle_doc()
    doc["pass"] = False
    assert workloads.check_oracle(json.dumps(doc)) == ["report does not pass"]


def test_tally_fails_exit_code_byte_change_and_findings():
    ok = (0, 0, 0.1, True)
    assert workloads.tally([ok, ok], {0: []}) == (0, True, [])
    failed, correct, _ = workloads.tally([ok, (0, 1, 0.1, True)], {0: []})
    assert (failed, correct) == (1, True)
    failed, correct, _ = workloads.tally([ok, (0, 0, 0.1, False)], {0: []})
    assert (failed, correct) == (1, False)
    failed, correct, _ = workloads.tally([ok, ok], {0: ["price off"]})
    assert (failed, correct) == (2, False)


def test_oracle_measures_are_martingales():
    rng = np.random.default_rng(3)
    mu = measure.from_csv(io.StringIO(workloads.martingale_measure_csv(rng, 9)),
                          is_martingale=True)
    assert mu.x2.shape == (9, 9) and mu.martingale_residual() <= 1e-12


# ---------------------------------------------------------------------------
# tracer


def test_tracer_spans_and_counts(tmp_path):
    tracer = Tracer()
    original = measure.std_normal_nodes
    tracer.install()
    try:
        argv = ["curve", "--set", "model.n1=8", "--set", "model.n2=8",
                "--set", "model.sigma=0.3,0.6", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert measure.std_normal_nodes is original
    metrics = tracer.layer_metrics()
    assert list(metrics) == list(PER_LAYER_UNITS)
    m = {k: v["value"] for k, v in metrics.items()}
    # two sigma points, three model builds each (value and both vega legs)
    assert m["measure.std_normal_nodes.calls"] == 12
    assert m["measure.std_normal_nodes.calls_per_key"] == 12
    assert m["sensitivity.solve_foc.calls"] == 8
    assert m["fredholm.solve.calls"] == 2
    assert m["oracle.dro_lp.calls"] == 0
    assert all(v >= 0 for v in m.values())
    tracer.write(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert saved["start"].size == saved["parent"].size == len(tracer.start)
    assert np.all(saved["end"] >= saved["start"])
