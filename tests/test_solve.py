"""Root finding for Bethe equations and vacuum equations."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bethegauge.bridge import map_gauge_to_chain, preset_by_id
from bethegauge.chain import (
    BetheRoots,
    ChainSpec,
    _bethe_system,
    bethe_residuals,
    certify_roots,
)
from bethegauge import solve
from bethegauge.gauge import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    GaugeTheorySpec,
    _vacuum_lhs_stack,
    _vacuum_lhs_values,
    _vacuum_system,
    vacuum_lhs,
    vacuum_lhs_2d,
)
from bethegauge.lie_roots import weyl_images
from bethegauge.rows import LogScratch, RowTable, deviation
from bethegauge.solve import (
    SolveConfig,
    SolveResult,
    _LogSystem,
    _newton,
    cross_check,
    solve_bethe,
    solve_vacuum,
)
from bethegauge.specfun import SingularPointError

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
    with pytest.raises(ValueError, match="DEDUP_TOL"):
        SolveConfig(tol=solve.DEDUP_TOL)


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
    system = _LogSystem(*_bethe_system(CLOSED_XXZ), 0.0, math.inf)
    points = []
    arguments = system.table.arguments
    monkeypatch.setattr(system.table, "arguments",
                        lambda x, out=None: points.extend(map(tuple, x)) or arguments(x, out))
    (u,), (code,) = _newton(system, np.array([[0.3 + 0.05j]]), CFG)
    assert code == solve._CONVERGED and abs(u[0] - 0.3646017624694252) < 1e-10
    assert len(points) > 2
    assert len(set(points)) == len(points)


def test_newton_batch_evaluates_each_point_once(monkeypatch):
    system = _LogSystem(*_bethe_system(CLOSED_XXZ), 0.0, math.inf)
    points = []
    arguments = system.table.arguments
    monkeypatch.setattr(system.table, "arguments",
                        lambda x, out=None: points.extend(map(tuple, x)) or arguments(x, out))
    starts = np.array([[0.3 + 0.05j], [0.8 + 0.1j], [0.85 - 0.1j], [0.5j], [0.1], [0.6]])
    assert np.sum(_newton(system, starts, CFG)[1] == solve._CONVERGED) >= 3
    assert len(points) > 2 * len(starts)
    assert len(set(points)) == len(points)


def test_newton_batch_matches_each_start_alone():
    # each start keeps its own step length, so stacking changes no start's path
    chain = ChainSpec("open-xxz", 3, 2, 0.289, (0.5,) * 3, (0.04, -0.06, 0.02),
                      xi_plus=0.23, xi_minus=-0.41)
    system = _LogSystem(*_bethe_system(chain), 0.0, 3.0)
    rng = np.random.default_rng(5)
    starts = rng.uniform(0.02, 0.98, size=(24, 2)) + 1j * rng.normal(0.0, 0.2, size=(24, 2))
    points, codes = _newton(system, starts, CFG)
    alone = [_newton(system, u0[None], CFG) for u0 in starts]
    converged = codes == solve._CONVERGED
    assert list(converged) == [c[0] == solve._CONVERGED for _, c in alone]
    assert 0 < converged.sum() < len(starts)
    for k in np.flatnonzero(converged):
        assert np.max(np.abs(points[k] - alone[k][0][0])) < 1e-9


def _evaluate(system, u):
    """The indices of u's clear points, and there the residuals and row ratios f'/f."""
    scratch = LogScratch(system.table, len(u))
    ok, res = system.evaluate(u, scratch)
    return ok, res, system.table.log_ratios(scratch, slice(None))


def _quadratic_system():
    # (u - p)(u + p) / ((u - 2p)(u + 2p)) = -1 with linear factors and the
    # parameter p = 1: roots +-sqrt(5/2), poles at +-1, and the Jacobian
    # 1/(u - 1) + 1/(u + 1) - 1/(u - 2) - 1/(u + 2) vanishes exactly at u = 0
    ratios = [(0, 1, {0: 1.0, 1: -1.0}, {0: 1.0, 1: -2.0}),
              (0, 1, {0: 1.0, 1: 1.0}, {0: 1.0, 1: 2.0})]
    table = RowTable("linear", 1, 1, 1, ratios, "denominator", 1e-12)
    return _LogSystem(table, np.array([1.0 + 0j]), math.pi * 1j, 5.0)


def test_newton_batch_isolates_failing_starts():
    system = _quadratic_system()
    good = np.array([1.3 + 0j])
    alone = _newton(system, good[None], CFG)[0][0]
    assert abs(alone[0] - math.sqrt(2.5)) < 1e-12
    # near u = 0 the first step is ~2.3e3 long, outside the domain at every
    # step length; u = 0 has a singular Jacobian; u = 1 starts on a pole
    stack = np.array([good, [1e-3 + 0j], [0j], [1.0 + 0j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        points, codes = _newton(system, stack, CFG)
    assert codes[0] == solve._CONVERGED and np.max(np.abs(points[0] - alone)) < 1e-12
    assert (codes[1:] != solve._CONVERGED).all()
    assert system.table.log_jacobian(_evaluate(system, stack[2:3])[2])[0, 0, 0] == 0


def _ladder_stack(system, rng):
    """A ladder-sized stack: 7 trial points for each of 64 starts, the first
    point on a zero of the first row's factor and the second outside the radius."""
    n = system.table.n_unknowns
    u = rng.uniform(0.02, 0.98, size=(64 * 7, n)) + 1j * rng.normal(0.0, 0.2, size=(64 * 7, n))
    coeffs = system.table.coeffs.real
    u[0, 0] = -(coeffs[0, n:] @ system.params.real) / coeffs[0, 0]
    u[1, 0] += 2j * system.radius
    return u


L6_M4 = [ChainSpec("closed-xxz", 6, 4, eta, (0.5,) * 6, thetas)
         for eta, thetas in ((0.31, (0.03, -0.07, 0.09, -0.02, 0.05, 0.0)),
                             (0.27, (-0.04, 0.08, 0.01, -0.09, 0.02, 0.06)))]


def test_evaluate_allocates_nothing_the_size_of_its_stack():
    # the kernel works in the solve's scratch: after a warm-up, scoring the
    # widest ladder of the solve workload peaks below one float array of its rows
    system = _LogSystem(*_bethe_system(L6_M4[0]), 0.0, 4.0)
    u = _ladder_stack(system, np.random.default_rng(2))
    scratch = LogScratch(system.table, len(u))
    system.evaluate(u, scratch)
    tracemalloc.start()
    try:
        ok, _ = system.evaluate(u, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 not in ok and 1 not in ok and len(ok) == len(u) - 2
    assert peak < np.empty((len(u), system.table.n_rows)).nbytes


def test_what_the_kernel_returns_does_not_share_its_scratch():
    # two systems of one table, evaluated alternately in one scratch, give
    # bitwise what each gives alone, and nothing returned changes afterwards
    systems = [_LogSystem(*_bethe_system(chain), 0.0, 4.0) for chain in L6_M4]
    assert systems[0].table is systems[1].table
    u = _ladder_stack(systems[0], np.random.default_rng(3))

    def scored(system, scratch):
        ok, res = system.evaluate(u, scratch)
        return ok, res, system.table.log_ratios(scratch, slice(None))

    alone = [scored(system, LogScratch(system.table, len(u))) for system in systems]
    scratch = LogScratch(systems[0].table, len(u))
    returned, kept = [], []
    for k in range(4):
        returned.append(scored(systems[k % 2], scratch))
        kept.append([a.copy() for a in returned[-1]])
    for k, (r, copy) in enumerate(zip(returned, kept)):
        for got, then, want in zip(r, copy, alone[k % 2]):
            assert np.array_equal(got, then) and np.array_equal(got, want)
    starts = u[:: 7][:24]
    points, codes = _newton(systems[0], starts, CFG)
    first = points.copy(), codes.copy()
    _newton(systems[1], starts, CFG)
    _newton(systems[0], starts[::-1], CFG)
    assert np.array_equal(points, first[0]) and np.array_equal(codes, first[1])
    assert np.array_equal(_newton(systems[0], starts, CFG)[0], points)


def test_newton_of_no_starts():
    points, codes = _newton(_quadratic_system(), np.zeros((0, 1), dtype=complex), CFG)
    assert points.shape == (0, 1) and codes.shape == (0,)


def _newton_one_start(system, u0, cfg):
    """One start by the rule _newton documents, one trial point at a time:
    (where it ended, its fate, the Jacobians it solved)."""
    ok, res, ratios = _evaluate(system, u0[None])
    if not len(ok):
        return u0, "bad_start", 0
    u, res, ratios = u0, res[0], ratios[0]
    norm = np.abs(res).max(initial=0.0)
    for it in range(cfg.max_iter + 1):
        if norm < 1e-12:
            return u, None, it
        if it == cfg.max_iter:
            return u, "max_iter", it
        try:
            step = np.linalg.solve(system.table.log_jacobian(ratios[None])[0], -res)
        except np.linalg.LinAlgError:
            return u, "singular_jacobian", it + 1
        lam = 1.0
        while lam > 1.0 / 256.0:
            ok, res_try, ratios_try = _evaluate(system, (u + lam * step)[None])
            norm_try = np.abs(res_try).max(initial=0.0) if len(ok) else np.inf
            if norm_try < norm * (1.0 - 0.25 * lam) or norm_try < 1e-12:
                u, res, ratios, norm = u + lam * step, res_try[0], ratios_try[0], norm_try
                break
            lam *= 0.5
        else:
            return u, "step_exhausted", it + 1


def _reference_cases():
    """(name, system, starts, config): Newton's fates from every branch of its rule."""
    rng = np.random.default_rng(7)

    def trig_starts(k, n, radius):
        u = rng.uniform(0.02, 0.98, size=(k, n)) + 1j * rng.normal(0.0, 0.2, size=(k, n))
        return np.concatenate((u, [[0.3 + 1j * (radius + 0.5)] * n]))  # outside the radius

    closed = ChainSpec("closed-xxz", 6, 3, 0.31, (0.5,) * 6, (0.03, -0.07, 0.09, -0.02, 0.05, 0.0))
    radius = 2.0 + 6 * 0.31 + 0.09  # as solve_bethe takes it
    yield "closed-xxz", _LogSystem(*_bethe_system(closed), 0.0, radius), \
        trig_starts(24, 3, radius), CFG
    opened = ChainSpec("open-xxz", 3, 2, 0.289, (0.5,) * 3, (0.04, -0.06, 0.02),
                       xi_plus=0.23, xi_minus=-0.41)
    yield "open-xxz", _LogSystem(*_bethe_system(opened), 0.0, 3.0), trig_starts(24, 2, 3.0), CFG
    spec = GaugeTheorySpec("B", 2, 2, (-0.31, 0.52), 0.3)
    radius = 10.0 * (2.0 + math.pi + 2 * 0.52)  # as solve_vacuum takes it in 2d
    vacuum = _LogSystem(*_vacuum_system(spec, "rational"), 0.0, radius)
    yield "B2-2d", vacuum, rng.uniform(0.02, 0.98, size=(24, 2)).astype(complex), CFG
    yield "B2-2d-max_iter", vacuum, rng.uniform(-1.5, 1.5, size=(24, 2)).astype(complex), \
        SolveConfig(max_iter=10)
    # converged; off the domain at every step length; a singular Jacobian; on a pole
    yield "quadratic", _quadratic_system(), np.array([[1.3 + 0j], [1e-3], [0j], [1.0]]), CFG


@pytest.mark.parametrize("name", [case[0] for case in _reference_cases()])
def test_newton_matches_the_one_start_rule(name):
    _, system, starts, cfg = next(c for c in _reference_cases() if c[0] == name)
    points, codes = _newton(system, starts, cfg)
    alone = [_newton_one_start(system, u0, cfg) for u0 in starts]
    assert [solve._NEWTON_FATES[k] for k in codes] == [fate for _, fate, _ in alone]
    for k in np.flatnonzero(codes == solve._CONVERGED):
        assert np.max(np.abs(points[k] - alone[k][0])) < 1e-9


def test_newton_reference_cases_meet_every_fate():
    met = set()
    for _, system, starts, cfg in _reference_cases():
        for u, fate, _ in (_newton_one_start(system, u0, cfg) for u0 in starts):
            size = np.abs(u if system.table.kind == "linear" else u.imag).max()
            met.add("step_exhausted at the wall" if fate == "step_exhausted"
                    and size > 0.9 * system.radius else fate)
    assert met == {None, "bad_start", "step_exhausted", "step_exhausted at the wall",
                   "singular_jacobian", "max_iter"}


@pytest.mark.parametrize("name", [case[0] for case in _reference_cases()])
def test_newton_takes_one_iteration_per_tick(name, monkeypatch):
    _, system, starts, cfg = next(c for c in _reference_cases() if c[0] == name)
    jacobians = max(j for _, _, j in (_newton_one_start(system, u0, cfg) for u0 in starts))
    calls = {"evaluate": 0, "log_jacobian": 0}
    for obj, method in ((system, "evaluate"), (system.table, "log_jacobian")):
        def counted(*args, _fn=getattr(obj, method), _method=method):
            calls[_method] += 1
            return _fn(*args)
        monkeypatch.setattr(obj, method, counted)
    _newton(system, starts, cfg)
    assert calls["log_jacobian"] == jacobians
    assert calls["evaluate"] <= 2 * jacobians + 1


def _min_factors(system, u):
    """The smallest |f| per point of a stack u, from np.sin of the row
    arguments: a witness for the start filter, which reads the Newton kernel."""
    a = system.table.arguments(system._points(u))
    return np.abs(a if system.table.kind == "linear" else np.sin(a)).min(axis=1)


def _drawn_one_at_a_time(system, cfg, draw):
    """The start stream as the one-start solver drew it, with its rejections."""
    starts, rejected = [], 0
    for _ in range(cfg.n_starts):
        for _ in range(100):
            cand = draw()
            if _min_factors(system, cand.astype(complex)[None])[0] > solve.POLE_TOL:
                starts.append(cand)
                break
            rejected += 1
    return np.array(starts, dtype=complex), rejected


def _starts_handed_to_newton(monkeypatch, run):
    stacks = []
    monkeypatch.setattr(solve, "_newton",
                        lambda system, u0, cfg: stacks.append(u0)
                        or (u0, np.full(len(u0), solve._BAD_START)))
    run()
    assert len(stacks) == 1
    return stacks[0]


def test_bethe_starts_follow_the_one_at_a_time_stream(monkeypatch):
    monkeypatch.setattr(solve, "POLE_TOL", 0.05)  # so that the filter rejects draws
    for chain in (CLOSED_XXZ, ChainSpec("open-xxx", 2, 2, 0.37, (0.5,) * 2, (0.02, -0.03),
                                        xi_plus=0.3, xi_minus=-0.2)):
        stack = _starts_handed_to_newton(monkeypatch, lambda: solve_bethe(chain, CFG))
        system = _LogSystem(*_bethe_system(chain), 0.0, math.inf)
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
                        math.inf)
    rng = np.random.default_rng(CFG.seed)
    span = 1.0 if rational else math.pi
    expected, rejected = _drawn_one_at_a_time(
        system, CFG, lambda: span * rng.uniform(0.02, 0.98, size=2))
    assert rejected > 0
    assert np.array_equal(stack, expected)


def _filter_cases():
    spec = GaugeTheorySpec("C", 3, 2, (0.31, 0.52), 0.23)
    xxz = ChainSpec("closed-xxz", 4, 2, 0.317, (0.5,) * 4, (0.03, -0.07, 0.11, 0.0))
    xxx = ChainSpec("open-xxx", 3, 2, 0.37, (0.5,) * 3, (0.02, -0.03, 0.05),
                    xi_plus=0.3, xi_minus=-0.2)
    yield "vacuum-3d-sin", _vacuum_system(spec, "root"), (0.0, math.pi)
    yield "xxz-sin_pi", _bethe_system(xxz), (0.0, 1.0)
    yield "xxx-linear", _bethe_system(xxx), (-1.5, 1.5)
    yield "vacuum-2d-linear", _vacuum_system(spec, "rational"), (0.0, 1.0)


@pytest.mark.parametrize("name, system, box", list(_filter_cases()),
                         ids=[c[0] for c in _filter_cases()])
def test_start_filter_keeps_exactly_the_draws_clear_by_sin(monkeypatch, name, system, box):
    # real and complex draws alike; the filter reads the Newton kernel, the
    # witness np.sin (or the argument) of the row arguments
    monkeypatch.setattr(solve, "POLE_TOL", 0.02)  # so that a tenth to a quarter are rejected
    system = _LogSystem(*system, 0.0, math.inf)
    assert system.table.kind == name.rsplit("-", 1)[1]
    rng = np.random.default_rng(5)
    n = system.table.n_unknowns
    handed = []

    def draw(count):
        out = []
        while len(out) < count:
            u = rng.uniform(*box, size=n) + 1j * rng.normal(0.0, 0.2, size=n) * (len(handed) % 2)
            if abs(_min_factors(system, u[None])[0] / solve.POLE_TOL - 1.0) > 1e-12:
                handed.append(u)
                out.append(u)
        return np.array(out)

    cfg = SolveConfig(n_starts=200, seed=0)
    starts = solve._starts(system, cfg, draw)
    handed = np.array(handed)
    clear = handed[_min_factors(system, handed) > solve.POLE_TOL]
    assert len(clear) >= cfg.n_starts and len(clear) < len(handed)
    assert np.array_equal(starts, clear[: cfg.n_starts])
    assert np.any(starts.imag) and not np.all(starts.imag)


def test_solves_never_evaluate_points_outside_the_domain(monkeypatch):
    # outside the box complex sin overflows; such points are masked, never evaluated
    outside = []
    evaluate = _LogSystem.evaluate

    def counting(self, u, scratch):
        outside.append(int(np.sum(~np.all(np.abs(u.imag) <= self.radius, axis=-1))))
        return evaluate(self, u, scratch)

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
            assert abs(vals[i] - vals[j]) > solve.DEDUP_TOL


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
    assert report.notes["cause"] == "1 starts: self_conjugate 1"


# ---------------------------------------------------------------------------
# the fold, the sign-group key, stacked acceptance and the fate ledger
# ---------------------------------------------------------------------------


def test_fold_repro_returns_each_root_once():
    # u = 1.8e-17 and u = 0.9999999999999755 are one root across the 0 = 1 fold
    chain = ChainSpec("closed-xxz", 4, 1, 0.3, (0.5,) * 4, (-0.35,) * 4)
    for seed in range(1, 9):
        assert len(solve_bethe(chain, SolveConfig(seed=seed))) == 4


def _near(points):
    """Values at the given points, or within 1e-12 of them."""
    return st.builds(lambda x, eps: x + eps, st.sampled_from(points), st.floats(-1e-12, 1e-12))


_rounding = st.floats(-1e-12, 1e-12)
_root_part = st.one_of(st.floats(-1.5, 1.5), _near([0.0, 1.0, -1.0, 0.5]))


def _root_key(chain, u):
    """The solver's key of the roots u: reflections on open chains, period 1 on trig ones."""
    signs = solve._sign_changes("B" if chain.is_open else "A", len(u))
    period = 1.0 if chain.is_trig else None
    return tuple(solve._canonical(np.array([u], dtype=complex), signs, period)[0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["closed-xxz", "open-xxz", "closed-xxx", "open-xxx"]),
       roots=st.lists(st.tuples(_root_part, st.floats(-0.6, 0.6)), min_size=1, max_size=3),
       data=st.data())
def test_root_sets_across_the_fold_deduplicate(kind, roots, data):
    chain = ChainSpec(kind, 2, len(roots), 0.3, (0.5,) * 2, (0.0, 0.0),
                      **({"xi_plus": 0.2, "xi_minus": -0.1} if kind.startswith("open") else {}))
    u = [complex(re, im) for re, im in roots]
    key = _root_key(chain, u)
    # distinct roots, each off the self-conjugate points
    assume(all(abs(z.imag) > 1e-6 for z in key))
    assume(all(abs(a.real - b.real) > 1e-6 for a, b in zip(key, key[1:])))
    # the same roots as another start converges to them: permuted, moved by a
    # period or reflected, and off by rounding, which can cross the fold
    moved = []
    for z in data.draw(st.permutations(u)):
        if chain.is_trig:
            z += data.draw(st.sampled_from([-1, 0, 1]))
        if chain.is_open and data.draw(st.booleans()):
            z = -z
        moved.append(z + complex(data.draw(_rounding), data.draw(_rounding)))
    assert solve._distinct([key, _root_key(chain, moved)], solve.DEDUP_TOL) == [0]


def _per_root_key(chain, u):
    """The root key root by root: each root folded into [0, 1) on trig chains,
    on open chains replaced by its folded reflection when that rounds less,
    and the roots sorted by their rounded (re, im)."""
    def fold(z):
        if not chain.is_trig:
            return z
        x = z.real - math.floor(z.real)
        return complex(x - 1.0 if round(x, 9) == 1.0 else x, z.imag)

    def rounded(z):
        return round(z.real, 9), round(z.imag, 9)

    reduced = [fold(z) for z in u]
    if chain.is_open:
        reduced = [min(z, fold(-z), key=rounded) for z in reduced]
    return sorted(reduced, key=rounded)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["closed-xxz", "open-xxz", "closed-xxx", "open-xxx"]),
       roots=st.lists(st.tuples(_root_part, st.one_of(st.just(0.0), st.floats(-0.6, 0.6))),
                      min_size=1, max_size=4))
def test_sign_group_root_key_equals_the_per_root_key(kind, roots):
    chain = ChainSpec(kind, 2, len(roots), 0.3, (0.5,) * 2, (0.0, 0.0),
                      **({"xi_plus": 0.2, "xi_minus": -0.1} if kind.startswith("open") else {}))
    u = [complex(re, im) for re, im in roots]
    got = [(round(z.real, 9), round(z.imag, 9)) for z in _root_key(chain, u)]
    assert got == [(round(z.real, 9), round(z.imag, 9)) for z in _per_root_key(chain, u)]


_sigma_part = st.one_of(st.floats(-2.0 * math.pi, 2.0 * math.pi),
                        _near([0.0, math.pi, -math.pi, math.pi / 2]))


def _orbit_canonical_sigma(family, sigma, fold):
    """The key over the whole Weyl orbit, image by image: least Python
    round(., 9) of the sorted (folded) image, then the exact image."""
    def key(image):
        if fold:
            image = [x - math.pi * math.floor(x / math.pi) for x in image]
            image = [x - math.pi if round(x, 9) == round(math.pi, 9) else x for x in image]
        cand = tuple(sorted(image))
        return tuple(round(x, 9) for x in cand), cand

    return min(map(key, weyl_images(family, len(sigma), tuple(sigma)).images))[1]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from("ABCD"), fold=st.booleans(), data=st.data())
def test_sign_group_key_equals_the_weyl_orbit_key(family, fold, data):
    n = data.draw(st.integers(1, 4))
    # ties: coordinates repeated, negated or shifted by pi
    pool = data.draw(st.lists(_sigma_part, min_size=1, max_size=n))
    sigma = [data.draw(st.sampled_from([x, -x, x + math.pi, x - math.pi]))
             for x in data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))]
    got = solve._canonical(np.array([sigma]), solve._sign_changes(family, n),
                           math.pi if fold else None)[0]
    ref = _orbit_canonical_sigma(family, sigma, fold)
    # bitwise, but for the sign of a zero, which no comparison sees
    assert [(x + 0.0).hex() for x in got] == [(x + 0.0).hex() for x in ref]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from("ABCD"), sigma=st.lists(_sigma_part, min_size=1, max_size=4),
       data=st.data())
def test_vacua_across_the_fold_deduplicate(family, sigma, data):
    folded = [x - math.pi * math.floor(x / math.pi) for x in sigma]
    # distinct coordinates, up to the Weyl group and the period
    assume(all(min(d % math.pi, -d % math.pi) > 1e-6
               for i, a in enumerate(folded) for b in folded[i + 1:] for d in (a - b, a + b)))
    moved = [x + math.pi * data.draw(st.sampled_from([-1, 0, 1])) + data.draw(_rounding)
             for x in sigma]
    moved = list(data.draw(st.permutations(moved)))
    if family in "BC":
        moved = [x * data.draw(st.sampled_from([1, -1])) for x in moved]
    signs = solve._sign_changes(family, len(sigma))
    keys = solve._canonical(np.array([sigma, moved]), signs, math.pi)
    assert solve._distinct(keys, solve.DEDUP_TOL) == [0]


def _vacuum_misses_one_by_one(spec, regime, points):
    misses = []
    for sigma in points:
        try:
            lhs = _vacuum_lhs_values(spec, sigma, regime)
            misses.append(max(abs(v - 1.0) for v in lhs) > CFG.tol)
        except SingularPointError:
            misses.append(True)
    return misses


@pytest.mark.parametrize("regime", ["3d", "2d"])
def test_stacked_vacuum_acceptance_classifies_as_one_by_one(regime):
    m_adj = 0.3
    spec = GaugeTheorySpec("B", 2, 2, (-0.31, 0.52), m_adj)
    found = [np.asarray(s) for s in solve_vacuum(spec, BRANCH_PLUS, CFG, rational=regime == "2d")]
    assert found
    points = found + [s + 1e-6 for s in found] + [np.array([0.4, 1.3])]
    if regime == "3d":
        # B's cos row vanishes at sigma = pi/2 - m_adj: singular per equation
        points.append(np.array([math.pi / 2 - m_adj + 1e-7, 1.1]))
        with pytest.raises(SingularPointError):
            _vacuum_lhs_values(spec, points[-1], regime)
    stack = np.array(points)
    misses = deviation(*_vacuum_lhs_stack(spec, regime, stack), 1.0) > CFG.tol
    assert list(misses) == _vacuum_misses_one_by_one(spec, regime, points)
    assert not misses[: len(found)].any() and misses[len(found):].all()


@pytest.mark.parametrize("chain", [CLOSED_XXZ, OPEN_XXZ], ids=["closed", "open"])
def test_stacked_bethe_acceptance_classifies_as_one_by_one(chain):
    found = [r.values for r in solve_bethe(chain, CFG)]
    theta = chain.inhomogeneities[0]
    # off by 1e-6, and on the denominator zero u = theta of site 0
    points = found + [tuple(u + 1e-6 for u in r) for r in found] + [(theta,)]
    with pytest.raises(SingularPointError):
        bethe_residuals(chain, BetheRoots(points[-1]))
    one_by_one = []
    for r in points:
        try:
            one_by_one.append(bool(np.max(bethe_residuals(chain, BetheRoots(r))) > CFG.tol))
        except SingularPointError:
            one_by_one.append(True)
    table, params = _bethe_system(chain)
    stack = np.concatenate((np.array(points), np.tile(params, (len(points), 1))), axis=1)
    misses = deviation(*table.products(stack), 1.0) > CFG.tol
    assert list(misses) == one_by_one
    assert not misses[: len(found)].any() and misses[len(found):].all()


def _assert_ledger_adds_up(res, n_starts):
    fates = res.diagnostics["fates"]
    assert list(fates) == list(solve.FATES)
    assert sum(fates.values()) == n_starts
    assert res.diagnostics["n_starts"] == n_starts - fates["no_start"]
    assert fates["accepted"] == len(res)
    newton = ("bad_start", "step_exhausted", "max_iter", "singular_jacobian")
    after = res.diagnostics["n_converged"] + sum(fates[f] for f in newton) + fates["no_start"]
    assert after + fates["complex_vacuum"] == n_starts


def test_fate_ledgers_add_up_to_the_starts():
    spec = GaugeTheorySpec("B", 2, 2, (0.31, 0.52), 0.23)
    for res in (solve_bethe(CLOSED_XXZ, CFG), solve_bethe(OPEN_XXZ, CFG),
                solve_vacuum(spec, BRANCH_PLUS, CFG), solve_vacuum(spec, BRANCH_MINUS, CFG),
                solve_vacuum(spec, BRANCH_PLUS, CFG, rational=True)):
        _assert_ledger_adds_up(res, CFG.n_starts)
        assert res.diagnostics["fates"]["duplicate"] > 0


def test_trivial_solves_account_for_every_start():
    # nothing to solve: every start stands at the one solution, or misses the branch
    for chain in (ChainSpec("closed-xxx", 2, 0, 0.37, (0.5,) * 2, (0.0, 0.0)),
                  ChainSpec("open-xxz", 2, 0, 0.29, (0.5,) * 2, (0.04, -0.06),
                            xi_plus=0.23, xi_minus=-0.41)):
        res = solve_bethe(chain, CFG)
        _assert_ledger_adds_up(res, CFG.n_starts)
        assert res.diagnostics["fates"]["duplicate"] == CFG.n_starts - 1
    spec = GaugeTheorySpec("D", 1, 0, (), 0.2)
    for branch in (BRANCH_PLUS, BRANCH_MINUS):
        res = solve_vacuum(spec, branch, CFG)
        _assert_ledger_adds_up(res, CFG.n_starts)
        assert res.diagnostics["n_converged"] == res.diagnostics["n_starts"] == CFG.n_starts
    assert res.diagnostics["fates"]["residual"] == CFG.n_starts


def test_skipped_starts_are_counted_and_not_reported_as_drawn(monkeypatch):
    monkeypatch.setattr(solve, "POLE_TOL", 2.0)  # |sin| of a real start never exceeds 1
    res = solve_vacuum(GaugeTheorySpec("C", 1, 2, (0.26, 0.41), 0.17), BRANCH_PLUS,
                       SolveConfig(n_starts=3, seed=0))
    assert len(res) == 0
    assert res.diagnostics["n_starts"] == 0
    assert res.diagnostics["fates"]["no_start"] == 3
    _assert_ledger_adds_up(res, 3)


def test_newton_names_the_fate_of_each_start():
    system = _quadratic_system()
    # converged; off the domain at every step length; a singular Jacobian; on a pole
    stack = np.array([[1.3 + 0j], [1e-3 + 0j], [0j], [1.0 + 0j]])
    _, codes = _newton(system, stack, CFG)
    assert [solve._NEWTON_FATES[k] for k in codes] == [
        None, "step_exhausted", "singular_jacobian", "bad_start"]
    assert solve._ledger(6, codes) == {**dict.fromkeys(solve.FATES, 0), "no_start": 2,
                                     "step_exhausted": 1, "singular_jacobian": 1,
                                     "bad_start": 1}


def test_cross_check_names_the_filter_that_emptied_it():
    # D rank 1 has no roots: every chain solution has 2u integral
    preset = preset_by_id("D-3d")
    spec = GaugeTheorySpec("D", 1, 2, (0.9, 1.2), 0.6)
    report = cross_check(spec, preset, CFG)
    assert not report.passed
    fates = report.notes["fates"]
    assert fates["self_conjugate"] == report.notes["n_converged"] > 0
    assert report.notes["cause"] == "%d starts: self_conjugate %d" % (CFG.n_starts, CFG.n_starts)


@pytest.mark.parametrize("chain", [CLOSED_XXZ, OPEN_XXZ], ids=["closed", "open"])
def test_solve_keeps_the_residual_that_accepted_each_set(chain):
    res = solve_bethe(chain, CFG)
    assert res.solutions and len(res.residuals) == len(res)
    # bitwise: a row evaluates alike in the solve's stack and in this one
    table, params = _bethe_system(chain)
    u = np.array([r.values for r in res])
    values, _ = table.products(np.concatenate((u, np.tile(params, (len(u), 1))), axis=1))
    assert res.residuals == np.max(np.abs(values - 1.0), axis=1).tolist()
    assert max(res.residuals) <= CFG.tol
    no_magnons = ChainSpec("closed-xxx", 2, 0, 0.37, (0.5,) * 2, (0.0, 0.0))
    assert solve_bethe(no_magnons, CFG).residuals == [0.0]


@pytest.mark.parametrize("regime", ["3d", "2d"])
def test_solve_vacuum_keeps_the_residual_that_accepted_each_solution(regime):
    spec = GaugeTheorySpec("B", 2, 2, (-0.31, 0.52), 0.3)
    res = solve_vacuum(spec, BRANCH_PLUS, CFG, rational=regime == "2d")
    assert res.solutions and len(res.residuals) == len(res)
    # bitwise: a row evaluates alike in the solve's stack and in this one
    stacked = deviation(*_vacuum_lhs_stack(spec, regime, np.array(res.solutions)), 1.0)
    assert res.residuals == stacked.tolist()
    assert max(res.residuals) <= CFG.tol
    free = GaugeTheorySpec("A", 1, 0, (), 0.3, masses_anti=())
    assert solve_vacuum(free, BRANCH_PLUS, CFG).residuals == [0.0]


def _mapped_residual_one_by_one(spec, preset):
    chain = map_gauge_to_chain(preset, spec)
    worst = 0.0
    for roots in solve_bethe(chain, CFG):
        sigma = np.array(roots.values) * preset.scale
        try:
            lhs = _vacuum_lhs_values(spec, sigma, preset.regime)
            worst = max(worst, max(abs(v - preset.branch.sign) for v in lhs))
        except SingularPointError:
            worst = math.inf
    return worst


@pytest.mark.parametrize("preset_id, spec", [
    ("A-3d", GaugeTheorySpec("A", 2, 2, (0.55, 0.91), 0.48, masses_anti=(0.62, 0.83))),
    ("B-3d-P1", GaugeTheorySpec("B", 1, 2, (0.61, 0.94), 0.52)),
    ("C-3d-P1", GaugeTheorySpec("C", 1, 2, (0.61, 0.94), 0.52)),
    ("B-2d", GaugeTheorySpec("B", 1, 2, (0.21, 0.34), 0.17)),
])
def test_cross_check_scores_as_one_by_one(preset_id, spec):
    preset = preset_by_id(preset_id)
    report = cross_check(spec, preset, CFG)
    reference = _mapped_residual_one_by_one(spec, preset)
    assert report.notes["n_root_sets"] >= 1 and math.isfinite(reference)
    assert abs(report.max_residual - reference) <= 1e-14


def _distinct_one_at_a_time(keys, tol):
    """The deduplication rule as a loop: a key is kept when its max-abs
    distance to every earlier kept key is at least tol."""
    kept = []
    for k in range(len(keys)):
        if all(np.max(np.abs(keys[j] - keys[k]), initial=0.0) >= tol for j in kept):
            kept.append(k)
    return kept


@pytest.mark.parametrize("n", [0, 1, 3])
def test_distinct_keeps_the_keys_of_the_one_at_a_time_rule(n):
    # exact copies and copies moved by up to about 1e-6, so that closeness is
    # not transitive and the order of the keys decides; one key is NaN
    rng = np.random.default_rng(n)
    base = rng.normal(size=(12, n)) + 1j * rng.normal(size=(12, n))
    keys = (base[rng.integers(0, 12, size=80)]
            + 3e-7 * rng.normal(size=(80, n)) * rng.integers(0, 3, size=(80, 1)))
    keys[40] = np.nan
    assert solve._distinct(keys, solve.DEDUP_TOL) == _distinct_one_at_a_time(keys, solve.DEDUP_TOL)
