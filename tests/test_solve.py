"""Root finding for Bethe equations and vacuum equations."""

import math

import numpy as np
import pytest

from bethegauge.bridge import preset_by_id
from bethegauge.chain import ChainSpec, _bethe_system, bethe_residuals, certify_roots
from bethegauge.gauge import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    GaugeTheorySpec,
    vacuum_lhs,
    vacuum_lhs_2d,
)
from bethegauge.solve import (
    SolveConfig,
    SolveResult,
    _LogSystem,
    _newton,
    cross_check,
    solve_bethe,
    solve_vacuum,
)

CFG = SolveConfig(n_starts=48, seed=0)

CLOSED_XXZ = ChainSpec("closed-xxz", 3, 1, 0.317, (0.5,) * 3, (0.03, -0.07, 0.11))
OPEN_XXZ = ChainSpec(
    "open-xxz", 2, 1, 0.289, (0.5,) * 2, (0.04, -0.06), xi_plus=0.23, xi_minus=-0.41
)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(n_starts=0)
    with pytest.raises(ValueError):
        SolveConfig(max_iter=5)
    with pytest.raises(ValueError):
        SolveConfig(damping=0.0)
    with pytest.raises(ValueError):
        SolveConfig(damping=1.5)
    with pytest.raises(ValueError):
        SolveConfig(tol=1e-6, dedup_tol=1e-8)


def test_result_container():
    res = SolveResult([1, 2, 3], {"k": "v"})
    assert len(res) == 3
    assert list(res) == [1, 2, 3]
    assert res[1] == 2


# ---------------------------------------------------------------------------
# Bethe side
# ---------------------------------------------------------------------------


def test_closed_xxx_finds_exact_root():
    chain = ChainSpec("closed-xxx", 2, 1, 0.37, (0.5,) * 2, (0.0, 0.0))
    res = solve_bethe(chain, CFG)
    assert any(abs(r.values[0] - (-0.185)) < 1e-8 for r in res)


def test_newton_evaluates_each_point_once(monkeypatch):
    # the Jacobian at an accepted point reuses the arguments of its residual
    system = _LogSystem(*_bethe_system(CLOSED_XXZ), 0.0, lambda u: True)
    points = []
    factors = system.table.factors
    monkeypatch.setattr(system.table, "factors", lambda x: points.append(tuple(x)) or factors(x))
    u = _newton(system, np.array([0.3 + 0.05j]), CFG)
    assert abs(u[0] - 0.3646017624694252) < 1e-10
    assert len(points) > 2
    assert len(set(points)) == len(points)


def test_closed_xxz_finds_all_frozen_roots():
    expected = (
        0.3646017624694252,
        0.8649491187652875 + 0.08432783059645961j,
        0.8649491187652875 - 0.08432783059645961j,
    )
    res = solve_bethe(CLOSED_XXZ, CFG)
    found = [r.values[0] for r in res]
    for e in expected:
        assert any(abs(f - e) < 1e-8 for f in found)
    for r in res:
        assert bethe_residuals(CLOSED_XXZ, r).max() < CFG.tol
        assert certify_roots(CLOSED_XXZ, r).residual < 1e-8


def test_open_xxz_finds_frozen_root():
    res = solve_bethe(OPEN_XXZ, CFG)
    assert any(abs(r.values[0] - (0.5 - 0.3229164223161368j)) < 1e-8 for r in res)
    for r in res:
        assert certify_roots(OPEN_XXZ, r).residual < 1e-8


def test_zero_magnons():
    chain = ChainSpec("closed-xxx", 2, 0, 0.37, (0.5,) * 2, (0.0, 0.0))
    res = solve_bethe(chain, CFG)
    assert len(res) == 1
    assert res[0].values == ()


def test_solutions_are_deduplicated_and_deterministic():
    a = solve_bethe(CLOSED_XXZ, CFG)
    b = solve_bethe(CLOSED_XXZ, CFG)
    assert [r.values for r in a] == [r.values for r in b]
    vals = [r.values[0] for r in a]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert abs(vals[i] - vals[j]) > CFG.dedup_tol


# ---------------------------------------------------------------------------
# vacuum side
# ---------------------------------------------------------------------------


def test_vacuum_branches_of_rank_one_c():
    # even N_f: sigma = pi/2 solves the + branch and sigma = 0 the - branch
    # exactly, since every matter ratio collapses to -1 at those points
    spec = GaugeTheorySpec("C", 1, 2, (0.26, 0.41), 0.17)
    plus = solve_vacuum(spec, BRANCH_PLUS, CFG)
    minus = solve_vacuum(spec, BRANCH_MINUS, CFG)
    assert any(abs(s[0] - math.pi / 2) < 1e-9 for s in plus)
    assert any(abs(s[0]) < 1e-9 for s in minus)
    for s in plus:
        for t in minus:
            assert abs(s[0] - t[0]) > 0.1


def test_vacuum_solutions_verify_and_canonicalize():
    spec = GaugeTheorySpec("B", 2, 2, (0.31, 0.52), 0.23)
    res = solve_vacuum(spec, BRANCH_PLUS, CFG)
    assert len(res) >= 3
    for s in res:
        assert max(abs(vacuum_lhs(spec, s, j) - 1) for j in range(2)) < CFG.tol
        # canonical representatives: folded into [0, pi), components ascending
        assert np.all(s >= -1e-12) and np.all(s < math.pi)
        assert s[0] <= s[1] + 1e-12
    keys = [tuple(np.round(s, 6)) for s in res]
    assert len(keys) == len(set(keys))


def test_vacuum_rational_root_matches_closed_form():
    # + branch of rank-one C in the rational limit: the even part of the
    # cubic gives sigma^2 = -(m/2)*m1*m2 / (m/2 + m1 + m2)
    m_adj, m1, m2 = 0.17, -0.26, 0.41
    spec = GaugeTheorySpec("C", 1, 2, (m1, m2), m_adj)
    expected = math.sqrt(-(m_adj / 2 * m1 * m2) / (m_adj / 2 + m1 + m2))
    res = solve_vacuum(spec, BRANCH_PLUS, CFG, rational=True)
    assert any(abs(abs(s[0]) - expected) < 1e-9 for s in res)
    for s in res:
        assert abs(vacuum_lhs_2d(spec, s, 0) - 1) < CFG.tol


def test_vacuum_rational_positive_masses_has_no_real_plus_root():
    # with every mass positive that sigma^2 is negative, so the + branch has
    # no real solutions at all
    spec = GaugeTheorySpec("C", 1, 2, (0.26, 0.41), 0.17)
    res = solve_vacuum(spec, BRANCH_PLUS, CFG, rational=True)
    assert len(res) == 0


def test_vacuum_underdetermined_rank_one_d():
    # rank-one D has no roots and no matter: every sigma solves the + branch
    spec = GaugeTheorySpec("D", 1, 0, (), 0.2)
    plus = solve_vacuum(spec, BRANCH_PLUS, CFG)
    assert len(plus) == 1
    assert plus.diagnostics["underdetermined"]
    assert np.all(plus[0] == 0.0)
    minus = solve_vacuum(spec, BRANCH_MINUS, CFG)
    assert len(minus) == 0


def test_vacuum_rejects_exceptional_families():
    with pytest.raises(ValueError):
        solve_vacuum(GaugeTheorySpec("E8", 8, 0, (), 0.2), BRANCH_PLUS, CFG)
    with pytest.raises(ValueError):
        solve_vacuum(GaugeTheorySpec("F4", 4, 0, (), 0.2), BRANCH_PLUS, CFG)


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


def test_cross_check_open_dictionary():
    spec = GaugeTheorySpec("B", 1, 2, (0.61, 0.94), 0.52)
    report = cross_check(spec, preset_by_id("B-3d-P1"), CFG)
    assert report.passed
    assert report.max_residual < 1e-6
    assert report.notes["n_root_sets"] >= 1


def test_cross_check_closed_dictionary():
    spec = GaugeTheorySpec("A", 2, 2, (0.55, 0.91), 0.48, masses_anti=(0.62, 0.83))
    report = cross_check(spec, preset_by_id("A-3d"), CFG)
    assert report.passed
    assert report.max_residual < 1e-6
    assert report.notes["n_root_sets"] >= 1


def test_cross_check_reports_empty_runs():
    spec = GaugeTheorySpec("B", 1, 2, (0.61, 0.94), 0.52)
    starved = SolveConfig(n_starts=1, seed=0, max_iter=10)
    report = cross_check(spec, preset_by_id("B-3d-P1"), starved)
    assert not report.passed
    assert report.max_residual == math.inf
    assert report.notes["diagnostics"] == "no Bethe root sets converged"
