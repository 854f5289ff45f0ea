"""Root finding for Bethe equations and vacuum equations."""

import math
import warnings

import numpy as np
import pytest

from bethegauge.bridge import preset_by_id
from bethegauge.chain import ChainSpec, _bethe_system, bethe_residuals, certify_roots
from bethegauge import solve
from bethegauge.gauge import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    GaugeTheorySpec,
    _vacuum_system,
    vacuum_lhs,
    vacuum_lhs_2d,
)
from bethegauge.rows import RowTable
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
    monkeypatch.setattr(system.table, "factors", lambda x: points.extend(map(tuple, x)) or factors(x))
    u = _newton(system, np.array([0.3 + 0.05j]), CFG)
    assert abs(u[0] - 0.3646017624694252) < 1e-10
    assert len(points) > 2
    assert len(set(points)) == len(points)


def test_newton_batch_evaluates_each_point_once(monkeypatch):
    system = _LogSystem(*_bethe_system(CLOSED_XXZ), 0.0, lambda u: True)
    points = []
    factors = system.table.factors
    monkeypatch.setattr(system.table, "factors",
                        lambda x: points.extend(map(tuple, x)) or factors(x))
    starts = np.array([[0.3 + 0.05j], [0.8 + 0.1j], [0.85 - 0.1j], [0.5j], [0.1], [0.6]])
    assert sum(u is not None for u in _newton(system, starts, CFG)) >= 3
    assert len(points) > 2 * len(starts)
    assert len(set(points)) == len(points)


def test_newton_batch_matches_each_start_alone():
    # each start keeps its own step length, so stacking changes no start's path
    chain = ChainSpec("open-xxz", 3, 2, 0.289, (0.5,) * 3, (0.04, -0.06, 0.02),
                      xi_plus=0.23, xi_minus=-0.41)
    system = _LogSystem(*_bethe_system(chain), 0.0,
                        lambda u: np.all(np.abs(u.imag) <= 3.0, axis=-1))
    rng = np.random.default_rng(5)
    starts = rng.uniform(0.02, 0.98, size=(24, 2)) + 1j * rng.normal(0.0, 0.2, size=(24, 2))
    out = _newton(system, starts, CFG)
    alone = [_newton(system, u0, CFG) for u0 in starts]
    assert [u is None for u in out] == [u is None for u in alone]
    assert 0 < sum(u is not None for u in out) < len(starts)
    for u, v in zip(out, alone):
        if u is not None:
            assert np.max(np.abs(u - v)) < 1e-9


def _quadratic_system():
    # (u - 1)(u + 1) = 1 with linear factors: roots +-sqrt(2), and the
    # Jacobian 1/(u - 1) + 1/(u + 1) vanishes exactly at u = 0
    rows = [(0, 1, {0: 1.0}, -1.0), (0, 1, {0: 1.0}, 1.0)]
    table = RowTable("linear", 1, 1, 0, rows, "denominator", 1e-12)
    domain = lambda u: np.all(np.abs(u) <= 5.0, axis=-1)  # noqa: E731
    return _LogSystem(table, np.array([1.0 + 0j]), 0.0, domain)


def test_newton_batch_isolates_failing_starts():
    system = _quadratic_system()
    good = np.array([1.3 + 0j])
    alone = _newton(system, good, CFG)
    assert abs(alone[0] - math.sqrt(2.0)) < 1e-12
    # near u = 0 the first step jumps ~1.6e3i, outside the domain at every
    # step length; u = 0 has a singular Jacobian; u = 1 starts on a pole
    stack = np.array([good, [1e-3 + 0j], [0j], [1.0 + 0j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = _newton(system, stack, CFG)
    assert np.max(np.abs(out[0] - alone)) < 1e-12
    assert out[1:] == [None, None, None]
    assert system.table.log_jacobian(system.evaluate(stack[2:3])[2])[0, 0, 0] == 0


def test_newton_of_no_starts():
    assert _newton(_quadratic_system(), np.zeros((0, 1), dtype=complex), CFG) == []


def _drawn_one_at_a_time(system, cfg, draw):
    """The start stream as the one-start solver drew it, with its rejections."""
    starts, rejected = [], 0
    for _ in range(cfg.n_starts):
        for _ in range(100):
            cand = draw()
            if system.min_factor(cand.astype(complex)) > solve.POLE_TOL:
                starts.append(cand)
                break
            rejected += 1
    return np.array(starts, dtype=complex), rejected


def _starts_handed_to_newton(monkeypatch, run):
    stacks = []
    monkeypatch.setattr(solve, "_newton",
                        lambda system, u0, cfg: stacks.append(u0) or [None] * len(u0))
    run()
    assert len(stacks) == 1
    return stacks[0]


def test_bethe_starts_follow_the_one_at_a_time_stream(monkeypatch):
    monkeypatch.setattr(solve, "POLE_TOL", 0.05)  # so that the filter rejects draws
    for chain in (CLOSED_XXZ, ChainSpec("open-xxx", 2, 2, 0.37, (0.5,) * 2, (0.02, -0.03),
                                        xi_plus=0.3, xi_minus=-0.2)):
        stack = _starts_handed_to_newton(monkeypatch, lambda: solve_bethe(chain, CFG))
        system = _LogSystem(*_bethe_system(chain), 0.0, lambda u: True)
        rng = np.random.default_rng(CFG.seed)
        half = 0.5 * (2.0 + chain.n_sites * chain.eta * max(1.0, *map(abs, chain.spins))
                      + max(abs(t) for t in chain.inhomogeneities))
        m = chain.n_magnons

        def draw():
            if chain.is_trig:
                re = rng.uniform(0.02, 0.98, size=m)
            else:
                re = rng.uniform(-half, half, size=m)
            return re + 1j * rng.normal(0.0, 0.2, size=m)

        expected, rejected = _drawn_one_at_a_time(system, CFG, draw)
        assert rejected > 0
        assert stack.shape == expected.shape
        assert np.array_equal(stack, expected)


@pytest.mark.parametrize("rational", [False, True])
def test_vacuum_starts_follow_the_one_at_a_time_stream(monkeypatch, rational):
    monkeypatch.setattr(solve, "POLE_TOL", 0.05)
    spec = GaugeTheorySpec("B", 2, 2, (0.31, 0.52), 0.23)
    stack = _starts_handed_to_newton(
        monkeypatch, lambda: solve_vacuum(spec, BRANCH_PLUS, CFG, rational=rational))
    system = _LogSystem(*_vacuum_system(spec, "rational" if rational else "root"), 0.0,
                        lambda u: True)
    rng = np.random.default_rng(CFG.seed)
    span = 1.0 if rational else math.pi
    expected, rejected = _drawn_one_at_a_time(
        system, CFG, lambda: span * rng.uniform(0.02, 0.98, size=2))
    assert rejected > 0
    assert np.array_equal(stack, expected)


def test_solves_never_evaluate_points_outside_the_domain(monkeypatch):
    # outside the box complex sin overflows; such points are masked, never evaluated
    outside = []
    evaluate = _LogSystem.evaluate

    def counting(self, u):
        outside.append(int(np.sum(~np.broadcast_to(self.domain(u), len(u)))))
        return evaluate(self, u)

    monkeypatch.setattr(_LogSystem, "evaluate", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solve_vacuum(GaugeTheorySpec("C", 1, 2, (0.26, 0.41), 0.17), BRANCH_MINUS, CFG)
        solve_vacuum(GaugeTheorySpec("B", 2, 2, (0.31, 0.52), 0.23), BRANCH_PLUS, CFG)
    assert sum(outside) > 0


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
