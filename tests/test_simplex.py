import dataclasses

import numpy as np
import pytest

from lattice import LP_SETS, REPRODUCERS, Reproducer, lattice_measure, linprog_rows, lp_bytes
from wadro.measure import canonical_test_measure, marginal_2
from wadro.criterion import preset
from wadro import oracle, simplex
from wadro.oracle import (ORACLE_SETS, Coupling, DiscreteBallProblem, OracleError,
                          default_target_support, dro_lp, oracle_report, transport_lp)
from wadro.simplex import (InaccurateError, InfeasibleError, LPError, UnboundedError,
                           _basis_solve, _certify, solve_lp)
from wadro.sensitivity import martingale_psi

scipy_opt = pytest.importorskip("scipy.optimize")


def _lists(A_eq=None, b_eq=(), A_ub=None, b_ub=()):
    """solve_lp's column lists of a dense LP: one entry per np.nonzero entry."""
    A = np.vstack([np.reshape(np.asarray(M, dtype=float), (len(rhs), -1))
                   for M, rhs in ((A_eq, b_eq), (A_ub, b_ub)) if len(rhs)])
    rows, cols = np.nonzero(A)
    return {"rows": rows, "cols": cols, "vals": A[rows, cols],
            "b": np.concatenate([b_eq, b_ub]).astype(float), "n_eq": len(b_eq)}


def _dense(lp):
    """The LP's rows as one dense matrix (entries of a repeated pair add up)."""
    A = np.zeros((len(lp["b"]), len(lp["c"])))
    np.add.at(A, (lp["rows"], lp["cols"]), lp["vals"])
    return A


def test_simple_box():
    res = solve_lp(np.array([1.0, 1.0]), **_lists(A_ub=[[1.0, 1.0]], b_ub=[1.0]),
                   maximize=True)
    assert abs(res.fun - 1.0) <= 1e-12
    assert abs(res.x.sum() - 1.0) <= 1e-12


def test_equality_transport():
    # 2x2 transportation problem with known optimum
    c = np.array([0.0, 1.0, 1.0, 0.0])
    A = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float)
    b = np.array([0.5, 0.5, 0.5, 0.5])
    res = solve_lp(c, **_lists(A_eq=A, b_eq=b), maximize=False)
    assert abs(res.fun) <= 1e-12


def test_infeasible_and_unbounded():
    with pytest.raises(InfeasibleError):
        solve_lp(np.array([1.0]), **_lists(A_eq=[[1.0]], b_eq=[1.0], A_ub=[[1.0]], b_ub=[0.2]))
    with pytest.raises(UnboundedError):
        solve_lp(np.array([1.0, -1.0]), **_lists(A_ub=[[0.0, 1.0]], b_ub=[1.0]), maximize=True)


def test_variable_cap():
    with pytest.raises(LPError, match="5001 variables exceed the 5000 cap"):
        solve_lp(np.zeros(5001), **_lists(A_eq=np.zeros((1, 5001)), b_eq=np.zeros(1)))


_SMALL = {"c": [1.0, 2.0], "rows": [0, 0, 1], "cols": [0, 1, 0], "vals": [1.0, 1.0, 1.0],
          "b": [1.0, 0.5], "n_eq": 1}
_MALFORMED = {
    "lengths": ({"vals": [1.0, 1.0]}, "differ in length"),
    "negative-row": ({"rows": [0, -1, 1]}, "outside the rows or the columns"),
    "row-past-b": ({"rows": [0, 0, 2]}, "outside the rows or the columns"),
    "column-past-c": ({"cols": [0, 2, 0]}, "outside the rows or the columns"),
    "repeated-pair": ({"rows": [0, 0, 0], "cols": [0, 1, 0]}, "pair repeats"),
    "negative-n_eq": ({"n_eq": -1}, "equality rows"),
    "n_eq-past-b": ({"n_eq": 3}, "equality rows"),
    "nan-cost": ({"c": [np.nan, 2.0]}, "not finite"),
    "inf-value": ({"vals": [1.0, np.inf, 1.0]}, "not finite"),
    "nan-rhs": ({"b": [1.0, np.nan]}, "not finite"),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_malformed_lists_raise_lp_error(case):
    # each would otherwise wrap, overwrite or propagate in the tableau
    assert solve_lp(**_SMALL).fun == pytest.approx(1.5)
    change, message = _MALFORMED[case]
    with pytest.raises(LPError, match=message):
        solve_lp(**{**_SMALL, **change})


def _dense_lp(seed):
    rng = np.random.default_rng(1000 + seed)
    n, m_ub, m_eq = 14, 5, 3
    c = rng.standard_normal(n)
    A_ub = rng.standard_normal((m_ub, n))
    b_ub = rng.uniform(0.5, 2.0, m_ub)
    A_eq = rng.standard_normal((m_eq, n))
    x_feas = rng.uniform(0.0, 0.5, n)
    b_eq = A_eq @ x_feas            # guarantees feasibility
    b_ub = np.maximum(b_ub, A_ub @ x_feas + 0.1)
    return {"c": c, "A_eq": A_eq, "b_eq": b_eq, "A_ub": A_ub, "b_ub": b_ub}


def _dense_case(seed, redundant=False):
    dense = _dense_lp(seed)
    if redundant:                              # a duplicated row keeps its artificial
        dense["A_eq"] = np.vstack([dense["A_eq"], dense["A_eq"][:1]])
        dense["b_eq"] = np.append(dense["b_eq"], dense["b_eq"][0])
    return {"c": dense.pop("c"), **_lists(**dense)}


def _ball_lp(mu, label, r):
    cs = LP_SETS[label]
    lp, _ = transport_lp(DiscreteBallProblem(mu, default_target_support(mu, [r], cs), r, 2.0, cs,
                                             objective=lambda y1, y2: y2))
    return lp


def _lp_case(case):
    """(LP keyword arguments, maximize) for a test_against_scipy_linprog case."""
    if isinstance(case, int):                  # 14-variable dense LP
        return _dense_case(case), False
    if case == "redundant-row":
        return _dense_case(0, redundant=True), False
    # sparse transport LPs of the oracle: the pivot columns are mostly zero
    name, label = case.split("-")
    mu = (canonical_test_measure() if name == "canonical"
          else lattice_measure(5, 9, 0.5, 3.0, 0.04))
    return _ball_lp(mu, label, 0.1), True


def _assert_feasible(x, lp, tol):
    assert np.all(x >= -tol)
    k = lp["n_eq"]
    Ax = _dense(lp) @ x
    assert np.max(np.abs(Ax[:k] - lp["b"][:k]), initial=0.0) <= tol
    assert np.max(Ax[k:] - lp["b"][k:], initial=-np.inf) <= tol


def _highs(lp, maximize):
    sign = -1.0 if maximize else 1.0
    ref = scipy_opt.linprog(sign * lp["c"], **linprog_rows(lp), bounds=(0, None),
                            method="highs")
    return ref.status, sign * ref.fun if ref.status == 0 else None


@pytest.mark.parametrize("case", [*range(8), "redundant-row",
                                  *(f"{m}-{f}" for m in ("canonical", "lattice9")
                                    for f in LP_SETS)])
def test_against_scipy_linprog(case):
    lp, maximize = _lp_case(case)
    status, ref = _highs(lp, maximize)
    if status == 3:
        with pytest.raises(UnboundedError):
            solve_lp(**lp, maximize=maximize)
        return
    assert status == 0
    res = solve_lp(**lp, maximize=maximize)
    assert abs(res.fun - ref) <= 1e-9 * max(1.0, abs(ref))
    _assert_feasible(res.x, lp, 1e-9)


def test_certificate_checks_each_constraint_kind():
    lp = _lists(A_eq=[[1.0, 1.0]], b_eq=[1.0], A_ub=[[1.0, 0.0]], b_ub=[0.5])
    rows = (*(lp[k] for k in ("rows", "cols", "vals", "b", "n_eq")), np.array([1.0, 1.0]))
    _certify(np.array([0.5, 0.5]), *rows)
    _certify(np.array([0.5, 0.5 + 1e-12]), *rows)
    for x in ([0.5, 0.5 + 1e-6],             # equality
              [0.6, 0.4],                    # inequality
              [-1e-6, 1.0 + 1e-6]):          # sign
        with pytest.raises(InaccurateError):
            _certify(np.array(x), *rows)


def test_certificate_rejects_inaccurate_pivots():
    # 7x7 lattice 0.15 apart: at radius 0.2 the martingale LP couples
    # neighbouring atoms.  A textbook ratio test pivoted on elements just
    # above PIVOT_TOL there and reached a point that spent 2.23 times the
    # budget; the certificate turned it into InaccurateError.  Harris's test
    # solves it.
    mu = lattice_measure(76, 7, 0.15, 1.0, 0.02)
    lp = _ball_lp(mu, "martingale", 0.2)
    assert lp["c"].size == 2020 and lp["n_eq"] == 35 and lp["b"].size - lp["n_eq"] == 50
    status, ref = _highs(lp, True)
    assert status == 0
    res = solve_lp(**lp, maximize=True)
    assert abs(res.fun - ref) <= 1e-9 * max(1.0, abs(ref))
    _assert_feasible(res.x, lp, 1e-9)
    budget = lp["n_eq"]                        # the first <= row
    assert _dense(lp)[budget] @ res.x <= lp["b"][budget] * (1.0 + 1e-9)


def _payoff(y1, y2):
    return y2 + 0.5 * y1 * y2


def _full_coupling_value(prob):
    """HiGHS's optimum of the ball LP over every (atom, target) pair within
    the budget, stay pairs included, written from the definition."""
    mu, cs = prob.mu, prob.constraints
    atoms = np.array([(a, z) for a, row in zip(mu.x1, mu.x2) for z in row])
    masses = mu.atom_masses().ravel()
    tgt = prob.target_support
    budget = prob.radius ** prob.p
    cost = (((atoms[:, None, :] - tgt[None, :, :]) ** 2).sum(axis=2)) ** (prob.p / 2.0)
    src, dst = np.nonzero(cost <= budget * (1.0 + 1e-9) + 1e-15)
    costs = cost[src, dst]
    t1, t2 = tgt[dst].T
    rows, rhs = [], []
    for i, m in enumerate(masses):                       # each atom ships its mass
        rows.append(src == i)
        rhs.append(m)
    if cs.cond_psi is not None:                          # E[psi(Y) | Y1] = 0
        for g in np.unique(t1):
            rows.append(np.where(t1 == g, cs.cond_psi.fn(t1, t2), 0.0))
            rhs.append(0.0)
    if cs.marginal2:                                     # Y2 has mu's second marginal
        order = np.argsort(mu.x2.ravel(), kind="stable")
        z, zm = mu.x2.ravel()[order], masses[order]
        for group in np.split(np.arange(z.size), np.flatnonzero(np.diff(z) > 1e-9) + 1):
            rows.append((t2 >= z[group[0]] - 1e-9) & (t2 <= z[group[-1]] + 1e-9))
            rhs.append(np.sum(zm[group]))
    if cs.marginal1:                                     # Y1 has mu's first marginal
        for a, w in zip(mu.x1, mu.w1):
            rows.append(np.abs(t1 - a) <= 1e-9)
            rhs.append(w)
    ref = scipy_opt.linprog(-prob.objective(t1, t2), A_ub=[costs], b_ub=[budget],
                            A_eq=np.array(rows, dtype=float), b_eq=rhs, bounds=(0, None),
                            method="highs")
    assert ref.status == 0
    return -ref.fun


def _without_atoms(mu, tgt):
    atoms = {(a, z) for a, row in zip(mu.x1, mu.x2) for z in row}
    return tgt[[tuple(t) not in atoms for t in tgt]]


_MEASURES = {"canonical": canonical_test_measure,
             "lattice9": lambda: lattice_measure(5, 9, 0.5, 3.0, 0.04),
             "coupled7": lambda: lattice_measure(18, 7, 0.1, 1.0, 0.02)}


@pytest.mark.parametrize("name", [*_MEASURES, "canonical-no-atoms"])
@pytest.mark.parametrize("label", LP_SETS)
def test_dro_lp_equals_full_coupling_lp(name, label):
    # the displacement form about mu against the LP over every pair
    mu = _MEASURES[name.split("-")[0]]()
    # off the canned measure's 0.1 grid, so that shifted atoms are no atoms
    for r in ((0.0, 0.02, 0.1, 0.2) if name in _MEASURES else (0.05, 0.15)):
        tgt = default_target_support(mu, [r], LP_SETS[label])
        if name not in _MEASURES:
            tgt = _without_atoms(mu, tgt)
        prob = DiscreteBallProblem(mu, tgt, r, 2.0, LP_SETS[label], objective=_payoff)
        value, info = dro_lp(prob)
        ref = _full_coupling_value(prob)
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref)), (r, value, ref)
        assert (info["variables"] == 0) == (r == 0.0)
        if name in _MEASURES:
            # every atom keeps its stay pair: the constraint rows are
            # homogeneous by construction, not up to mu's rounding
            lp, v0 = transport_lp(prob)
            assert not np.any(lp["b"][:lp["n_eq"]])
            assert v0 == pytest.approx(np.sum(mu.atom_masses() * _payoff(mu.x1[:, None], mu.x2)),
                                       rel=1e-15)


def _all_pairs_lp(prob):
    """transport_lp's LP written from its definition: every (atom, target)
    pair is tested, and the columns come in np.nonzero order."""
    mu = prob.mu
    atoms = np.column_stack([np.repeat(mu.x1, mu.n2), mu.x2.ravel()])
    masses = mu.atom_masses().ravel()
    tgt = prob.target_support
    f = prob.objective_values()
    budget = prob.radius ** prob.p
    d1 = atoms[:, 0, None] - tgt[None, :, 0]
    d2 = atoms[:, 1, None] - tgt[None, :, 1]
    cost = (d1 * d1 + d2 * d2) ** (prob.p / 2.0)
    same = (d1 == 0.0) & (d2 == 0.0)
    stays = same.any(axis=1)
    src, dst = np.nonzero((cost <= budget * (1.0 + 1e-9) + 1e-15) & ~same)
    f_stay = np.where(stays, f[same.argmax(axis=1)], 0.0)
    moves = np.equal.outer(np.arange(atoms.shape[0]), src).astype(float)
    A_eq, b_eq = [moves[~stays]], [masses[~stays]]

    def family(keys, key_t, w_t, key_a, w_a):
        # one row per key: a move weighs its target's weight, less its
        # atom's when it leaves a stay pair; an atom without one owes
        for k in keys:
            row = np.where(key_t[dst] == k, w_t[dst], 0.0)
            row -= np.where(stays[src] & (key_a[src] == k), w_a[src], 0.0)
            rhs = 0.0
            for a in np.flatnonzero(~stays & (key_a == k)):
                rhs += w_a[a] * masses[a]
            if np.any(row != 0.0) or rhs != 0.0:
                A_eq.append(row[None])
                b_eq.append([rhs])

    def pooled(values, support):
        return support[np.abs(values[:, None] - support[None, :]).argmin(axis=1)]

    if prob.constraints.cond_psi is martingale_psi():
        family(np.unique(tgt[:, 0]), tgt[:, 0], tgt[:, 1] - tgt[:, 0],
               atoms[:, 0], atoms[:, 1] - atoms[:, 0])
    if prob.constraints.marginal2:
        z = marginal_2(mu)[0]
        family(z, pooled(tgt[:, 1], z), np.ones(len(tgt)), pooled(atoms[:, 1], z),
               np.ones(len(atoms)))
    if prob.constraints.marginal1:
        family(mu.x1, pooled(tgt[:, 0], mu.x1), np.ones(len(tgt)), atoms[:, 0],
               np.ones(len(atoms)))
    capped = stays & moves.any(axis=1)
    return {"c": f[dst] - f_stay[src], "A_eq": np.vstack(A_eq), "b_eq": np.concatenate(b_eq),
            "A_ub": np.vstack([cost[src, dst], moves[capped]]),
            "b_ub": np.concatenate([[budget], masses[capped]])}


_COUPLED = {f"coupled7-{seed}": lambda seed=seed: lattice_measure(seed, 7, 0.1, 1.0, 0.02)
            for seed in (22, 53)}


@pytest.mark.parametrize("name", [*_MEASURES, *_COUPLED])
@pytest.mark.parametrize("label", LP_SETS)
def test_transport_lp_equals_all_pairs_assembly(name, label):
    # pairs found by reach are the pairs within budget, in the same order;
    # the support of twice the radius adds targets out of reach, and the
    # reversed support is not sorted by first coordinate.  The column lists
    # hold one nonzero entry per (row, column) pair.
    mu = {**_MEASURES, **_COUPLED}[name]()
    cases = ((0.2, 2.0),) if name in _COUPLED else ((0.02, 2.0), (0.1, 2.0), (0.1, 1.5),
                                                    (0.2, 2.0))
    for r, p in cases:
        for radii, step in (([r], 1), ([r, 2 * r], 1), ([r], -1)):
            tgt = default_target_support(mu, radii, LP_SETS[label])[::step]
            prob = DiscreteBallProblem(mu, tgt, r, p, LP_SETS[label], objective=_payoff)
            lp, _ = transport_lp(prob)
            assert np.all(lp["vals"] != 0.0)
            pairs = lp["rows"] * lp["c"].size + lp["cols"]
            assert np.unique(pairs).size == pairs.size
            A, k = _dense(lp), lp["n_eq"]
            got = {"c": lp["c"], "A_eq": A[:k], "b_eq": lp["b"][:k], "A_ub": A[k:],
                   "b_ub": lp["b"][k:]}
            ref = _all_pairs_lp(prob)
            for key in ref:
                assert np.array_equal(got[key], ref[key]), (r, p, radii, step, key)


def test_zero_level_artificials_cost_no_pivots():
    # the both set's equality rows have rhs 0, so their artificials stay
    # basic at level 0; no move on this lattice gains, so no pivot is taken
    # (pivoting the 27 artificials out took 27 per LP)
    mu = _MEASURES["lattice9"]()
    for r in (0.02, 0.05, 0.1, 0.2):
        prob = DiscreteBallProblem(mu, default_target_support(mu, [r], LP_SETS["both"]), r, 2.0,
                                   LP_SETS["both"], objective=lambda y1, y2: y2)
        lp, _ = transport_lp(prob)
        assert lp["n_eq"] == 27
        assert dro_lp(prob)[1]["pivots"] == 0


@pytest.mark.parametrize("case", REPRODUCERS, ids=lambda c: f"{c.spacing}-{c.seed}-{c.radius}")
def test_reproducer_lps(case):
    # LPs on which the textbook ratio test broke its rows or reported a
    # bounded LP unbounded
    prob = case.problem()
    lp, v0 = transport_lp(prob)
    res = solve_lp(**lp, maximize=True)
    _assert_feasible(res.x, lp, 1e-9)
    ref = _full_coupling_value(prob)
    assert abs(v0 + res.fun - ref) <= 1e-9 * abs(ref)
    # an optimal basis without artificials passes the check when handed back
    if res.basis.max() < lp["c"].size + lp["b"].size - lp["n_eq"]:
        again = solve_lp(**lp, maximize=True, basis=res.basis)
        assert again.pivots == 0 and np.array_equal(again.basis, res.basis)
        assert abs(again.fun - res.fun) <= 1e-12 * abs(v0 + res.fun)


def test_oracle_report_starts_each_radius_from_the_last_basis():
    # on the benchmark's kind of 9x9 lattice the LP at one radius has the
    # shape of the one before, whose optimal basis is still optimal
    mu = _MEASURES["lattice9"]()
    radii = (0.02, 0.05, 0.1, 0.2)
    sets = oracle_report(mu, preset("linear:x2"), radii)["constraint_sets"]
    for label in ("none", "martingale"):
        first, *rest = sets[label]["lp_pivots"]
        assert first > 0 and rest == [0, 0, 0], label
        for r, value in zip(radii, sets[label]["lp_values"]):
            prob = DiscreteBallProblem(mu, default_target_support(mu, [r]), r, 2.0,
                                       LP_SETS[label], objective=lambda y1, y2: y2)
            cold, info = dro_lp(prob)
            assert info["pivots"] > 0
            assert abs(value - cold) <= 1e-12 * abs(cold), (label, r)


_SHARED = {**_MEASURES, "lattice9-11": lambda: lattice_measure(11, 9, 0.5, 3.0, 0.04)}


@pytest.mark.parametrize("name", ["canonical", "lattice9", "lattice9-11"])
def test_shared_coupling_gives_the_same_lp(name):
    # the sets on one support share its coupling; each LP built from it is
    # the one its problem builds alone, bit for bit, and radius 0, which the
    # report answers with the couplings' v0, is the radius-0 LP's value
    mu = _SHARED[name]()
    radii = (0.02, 0.05, 0.1, 0.2)
    for marginals in (ORACLE_SETS["none"], ORACLE_SETS["marginal2"]):
        for r in radii:
            ball = DiscreteBallProblem(mu, default_target_support(mu, [r], marginals), r, 2.0,
                                       objective=_payoff)
            shared = Coupling(ball)
            for label, cs in ORACLE_SETS.items():
                if cs.marginal2 != marginals.marginal2:
                    continue
                prob = dataclasses.replace(ball, constraints=cs)
                (lp, v0), (ref, ref_v0) = transport_lp(prob, shared), transport_lp(prob)
                assert (lp_bytes(lp), v0.hex()) == (lp_bytes(ref), ref_v0.hex()), (label, r)
            with pytest.raises(OracleError, match="another ball"):
                transport_lp(dataclasses.replace(ball, radius=2 * r), shared)
    c = preset("linear:x2")
    sets = oracle_report(mu, c, radii)["constraint_sets"]
    for label, cs in ORACLE_SETS.items():
        support = default_target_support(mu, [0.0], cs)
        zero, info = dro_lp(DiscreteBallProblem(mu, support, 0.0, 2.0, cs, objective=c.f))
        assert info["variables"] == 0
        assert sets[label]["value_at_zero"].hex() == zero.hex(), label


@pytest.mark.parametrize("radii", [(0.02, 0.1, 0.2), (0.02, 0.05, 0.1, 0.2),
                                   (0.01, 0.02, 0.05, 0.1, 0.15, 0.2)])
def test_oracle_report_assembles_each_support_once(monkeypatch, radii):
    # per radius: one support and one coupling for each of the two supports
    # (second coordinate free or pinned), and one LP per set; none at radius 0
    calls = {"supports": [], "couplings": [], "lps": []}

    def counted(name, fn, radius):
        def wrapper(*args, **kwargs):
            calls[name].append(radius(*args, **kwargs))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "default_target_support",
                        counted("supports", default_target_support, lambda mu, radii, *_: radii))
    monkeypatch.setattr(oracle, "Coupling", counted("couplings", Coupling, lambda p: p.radius))
    monkeypatch.setattr(oracle, "dro_lp", counted("lps", dro_lp, lambda p, *_: p.radius))
    rep = oracle_report(_MEASURES["lattice9"](), preset("linear:x2"), radii)
    k = len(radii)
    assert sorted(map(tuple, calls["supports"])) == sorted([(r,) for r in radii] * 2)
    assert sorted(calls["couplings"]) == sorted(radii * 2)
    assert sorted(calls["lps"]) == sorted(radii * 4)
    assert len(calls["lps"]) == 4 * k and 0.0 not in calls["lps"]
    assert all(len(res["lp_values"]) == k for res in rep["constraint_sets"].values())


def _tableau_accepts(lp, basis, maximize):
    """The starting-basis check of the module docstring written on the dense
    equilibrated, sign-normalized tableau."""
    A, b, k = _dense(lp), lp["b"], lp["n_eq"]
    m = b.size
    scale = np.maximum(np.abs(b), np.abs(A).max(axis=1))
    scale[scale == 0.0] = 1.0
    T = np.hstack([A, np.eye(m)[:, k:]]) * (np.where(b < 0, -1.0, 1.0) / scale)[:, None]
    obj = np.r_[-lp["c"] if maximize else lp["c"], np.zeros(m - k)]
    try:
        levels = np.linalg.solve(T[:, basis], np.abs(b) / scale)
        red = obj - np.linalg.solve(T[:, basis].T, obj[basis]) @ T
    except np.linalg.LinAlgError:
        return False
    return bool(levels.min() >= -1e-11 and red.min() >= -1e-10)


def _covering_lp(seed):
    """min c.x with c > 0 over rows A x >= d (<= rows with negative rhs),
    x_1 + ... + x_n <= 10 and one equality: the optimum keeps the slacks of
    the loose >= rows basic, each with entry -1 in the tableau."""
    rng = np.random.default_rng(2000 + seed)
    n, m_ge = 8, 5
    A = rng.uniform(0.0, 1.0, (m_ge, n))
    return {"c": rng.uniform(0.5, 2.0, n),
            **_lists(A_eq=rng.uniform(0.0, 1.0, (1, n)), b_eq=[2.0],
                     A_ub=np.vstack([-A, np.ones((1, n))]),
                     b_ub=np.r_[-rng.uniform(0.2, 1.0, m_ge), 10.0])}


@pytest.mark.parametrize("case", [*(f"dense-{s}" for s in (0, 1, 4)),
                                  *(f"covering-{s}" for s in range(4)), "lattice9-none"])
def test_basis_check_decides_as_the_tableau(case):
    # the check on the column lists accepts exactly the bases the dense
    # tableau's check accepts (the bounded dense LPs, covering LPs whose
    # optimal basis holds slacks with entry -1, and an oracle LP)
    kind, arg = case.split("-")
    lp, maximize = ((_dense_case(int(arg)), False) if kind == "dense"
                    else (_covering_lp(int(arg)), False) if kind == "covering"
                    else (_ball_lp(_MEASURES["lattice9"](), arg, 0.05), True))
    n, m = lp["c"].size, lp["b"].size
    ntot = n + m - lp["n_eq"]
    cold = solve_lp(**lp, maximize=maximize)
    rng = np.random.default_rng(3)
    bases = [b for b in [cold.basis] if b.max() < ntot]
    bases += [rng.choice(ntot, m, replace=False) for _ in range(20)]
    bases += [np.r_[rng.choice(np.setdiff1d(np.arange(ntot), b)), b[1:]] for b in bases[:1]]
    if kind == "covering":
        ge_slacks = n + np.flatnonzero(lp["b"][lp["n_eq"]:] < 0)
        assert np.isin(ge_slacks, cold.basis).any(), "no slack of a >= row is basic"
    accepted = 0
    for basis in bases:
        res = solve_lp(**lp, maximize=maximize, basis=basis)
        took = res.pivots == 0 and np.array_equal(res.basis, basis)
        assert took == _tableau_accepts(lp, basis, maximize)
        accepted += took
    assert accepted >= (cold.basis.max() < ntot)


def test_refused_basis_changes_no_result_bit():
    # a basis that fails the check is ignored: the two-phase path runs as
    # without one
    lp = _ball_lp(_MEASURES["lattice9"](), "none", 0.05)
    n, m = lp["c"].size, lp["b"].size
    ntot = n + m - lp["n_eq"]
    cold = solve_lp(**lp, maximize=True)
    assert cold.pivots > 0 and cold.basis.max() < ntot
    optimal = cold.basis
    assert solve_lp(**lp, maximize=True, basis=optimal).pivots == 0
    refused = {"wrong-length": optimal[:-1],
               "out-of-range": np.r_[-1, optimal[1:]],
               "repeated": np.r_[optimal[1], optimal[1:]],          # B singular
               "artificial": np.r_[ntot, optimal[1:]],              # row 0's artificial
               "slack": n - lp["n_eq"] + np.arange(m)}              # feasible, not optimal
    for name, basis in refused.items():
        res = solve_lp(**lp, maximize=True, basis=basis)
        assert res.x.tobytes() == cold.x.tobytes(), name
        assert (res.fun, res.pivots) == (cold.fun, cold.pivots), name
        assert np.array_equal(res.basis, cold.basis), name


def test_against_scipy_unbounded_guard():
    rng = np.random.default_rng(77)
    c = rng.standard_normal(6)
    A_eq = rng.standard_normal((2, 6))
    x0 = rng.uniform(0, 1, 6)
    b_eq = A_eq @ x0
    ref = scipy_opt.linprog(-c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if ref.status == 0:
        res = solve_lp(c, **_lists(A_eq=A_eq, b_eq=b_eq), maximize=True)
        assert abs(res.fun + ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
    else:
        with pytest.raises(UnboundedError):
            solve_lp(c, **_lists(A_eq=A_eq, b_eq=b_eq), maximize=True)


def test_basis_solve_equals_dense_solves(monkeypatch):
    # the warm check eliminates B's singleton rows before its two solves; its
    # levels and row prices are the dense solves' of all of B, on sweep LPs
    # (lp_sweep.py's kind) and oracle LPs handed their own optimal basis and
    # random reorderings of it
    blocks = []

    def against_dense(B, rhs, cost):
        levels, y = _basis_solve(B, rhs, cost)
        for got, ref in ((levels, np.linalg.solve(B, rhs)), (y, np.linalg.solve(B.T, cost))):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), len(B)
        blocks.append(len(B) - np.count_nonzero(np.count_nonzero(B, axis=1) == 1))
        return levels, y

    monkeypatch.setattr(simplex, "_basis_solve", against_dense)
    rng = np.random.default_rng(8)
    lps = [transport_lp(Reproducer(spacing, seed, label, 0.2).problem())[0]
           for spacing in (0.1, 0.15) for seed in range(10) for label in ("martingale", "both")]
    lps += [_ball_lp(_MEASURES["lattice9"](), label, 0.05) for label in ("none", "martingale")]
    for lp in lps:
        cold = solve_lp(**lp, maximize=True)
        if cold.basis.max() >= lp["c"].size + lp["b"].size - lp["n_eq"]:
            continue                    # an artificial: refused before the solves
        for basis in [cold.basis] + [rng.permutation(cold.basis) for _ in range(3)]:
            res = solve_lp(**lp, maximize=True, basis=basis)
            assert res.pivots == 0 and np.array_equal(res.basis, basis)
            assert abs(res.fun - cold.fun) <= 1e-12 * max(1.0, abs(cold.fun))
    # bases with and without singletons, with a 1x1 block and larger ones
    assert len(blocks) >= 40 and min(blocks) == 1 and max(blocks) > 40


def _refusal_lp(case):
    """A 2-variable LP (maximize x0 + x1, <= rows) and a basis whose B is
    singular in a singleton row: two of them share column x0, or the only
    basic entry of row 1 is a listed zero."""
    if case == "shared-column":     # rows x0 <= 1, 2 x0 <= 3, x1 <= 1; basis x0, x1, slack 2
        rows, cols, vals, b, basis = [0, 1, 2], [0, 0, 1], [1.0, 2.0, 1.0], [1.0, 3.0, 1.0], [0, 1, 4]
    else:                           # rows x0 <= 1, 0 x0 <= 1, x1 <= 1; basis x0, x1, slack 0
        rows, cols, vals, b, basis = [0, 1, 2], [0, 0, 1], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0, 1, 2]
    lp = {"c": np.ones(2), "rows": rows, "cols": cols, "vals": vals, "b": b, "n_eq": 0}
    return lp, np.array(basis)


@pytest.mark.parametrize("case", ["shared-column", "zero-entry"])
def test_singular_singleton_basis_is_ignored(monkeypatch, case):
    # the basis solve refuses the basis, and the tableau gives its cold answer
    refused = []

    def recorded(*args):
        try:
            return _basis_solve(*args)
        except np.linalg.LinAlgError:
            refused.append(case)
            raise

    monkeypatch.setattr(simplex, "_basis_solve", recorded)
    lp, basis = _refusal_lp(case)
    cold = solve_lp(**lp, maximize=True)
    res = solve_lp(**lp, maximize=True, basis=basis)
    assert refused == [case]
    assert res.x.tobytes() == cold.x.tobytes() and res.fun == cold.fun == 2.0
    assert res.pivots == cold.pivots > 0 and np.array_equal(res.basis, cold.basis)


# lp_pivots and lp_values of oracle_report for the payoff x2 at radii 0.02,
# 0.05, 0.1 and 0.2, as the check with two dense m x m solves gave them
_PINNED_REPORTS = {
    "canonical": {
        "none": ([25, 0, 25, 25], [1.0200000000000005, 1.0500000000000005, 1.1000000000000005,
                                   1.2000000000000004]),
        "martingale": ([76, 69, 103, 83], [1.0141421356237315, 1.0353553390593278,
                                           1.0707106781186553, 1.14142135623731]),
        "marginal2": ([0, 0, 8, 8], [1.0000000000000004] * 4),
        "both": ([0, 0, 11, 12], [1.0000000000000004] * 4)},
    "lattice9": {
        "none": ([81, 0, 0, 0], [2.8678482486353083, 2.897848248635308, 2.9478482486353084,
                                 3.0478482486353085]),
        "martingale": ([185, 0, 0, 0], [2.8619903842590393, 2.8832035876946356,
                                        2.918558926753963, 2.9892696048726175]),
        "marginal2": ([0, 0, 0, 0], [2.8478482486353083] * 4),
        "both": ([0, 0, 0, 0], [2.8478482486353083] * 4)},
}


@pytest.mark.parametrize("name", _PINNED_REPORTS)
def test_oracle_report_pivots_and_values_are_pinned(name):
    sets = oracle_report(_MEASURES[name](), preset("linear:x2"),
                         (0.02, 0.05, 0.1, 0.2))["constraint_sets"]
    for label, (pivots, values) in _PINNED_REPORTS[name].items():
        assert sets[label]["lp_pivots"] == pivots, label
        assert np.allclose(sets[label]["lp_values"], values, rtol=1e-14, atol=0.0), label
