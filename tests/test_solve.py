"""Root finding for Bethe equations and vacuum equations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bethegauge.bridge import preset_by_id
from bethegauge.chain import (
    BetheRoots,
    ChainSpec,
    _bethe_stack,
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["closed-xxz", "open-xxz", "closed-xxx", "open-xxx"]),
       roots=st.lists(st.tuples(_root_part, st.floats(-0.6, 0.6)), min_size=1, max_size=3),
       data=st.data())
def test_root_sets_across_the_fold_deduplicate(kind, roots, data):
    chain = ChainSpec(kind, 2, len(roots), 0.3, (0.5,) * 2, (0.0, 0.0),
                      **({"xi_plus": 0.2, "xi_minus": -0.1} if kind.startswith("open") else {}))
    u = [complex(re, im) for re, im in roots]
    key = solve._canonical_roots(chain, u)
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
    assert solve._distinct([key, solve._canonical_roots(chain, moved)], CFG.dedup_tol) == [0]


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
    got = solve._canonical_sigma(family, sigma, fold=fold)
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
    key = solve._canonical_sigma(family, sigma)
    assert solve._distinct([key, solve._canonical_sigma(family, moved)], CFG.dedup_tol) == [0]


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
    misses = solve._misses(*_vacuum_lhs_stack(spec, regime, stack), 1.0, CFG.tol)
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
    misses = solve._misses(*_bethe_stack([chain] * len(points), np.array(points)), 1.0, CFG.tol)
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
    run = _newton(system, stack, CFG)
    assert [solve._NEWTON_FATES[k] for k in run.fates] == [
        None, "step_exhausted", "singular_jacobian", "bad_start"]
    # a tenth of each Newton step cannot converge in ten iterations
    slow = _newton(system, np.array([[4.0 + 0j]]), SolveConfig(damping=0.1, max_iter=10))
    assert slow == [None] and solve._NEWTON_FATES[slow.fates[0]] == "max_iter"
    assert solve._ledger(6, run) == {**dict.fromkeys(solve.FATES, 0), "no_start": 2,
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
    values, _ = _bethe_stack([chain] * len(res), np.array([r.values for r in res]))
    assert res.residuals == np.max(np.abs(values - 1.0), axis=1).tolist()
    assert max(res.residuals) <= CFG.tol
    no_magnons = ChainSpec("closed-xxx", 2, 0, 0.37, (0.5,) * 2, (0.0, 0.0))
    assert solve_bethe(no_magnons, CFG).residuals == [0.0]
