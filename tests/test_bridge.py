"""Dictionary presets, parameter maps and identity certification."""

import ast
import dataclasses
import inspect
import math
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethegauge.bridge import (
    M_ADJ_BOX,
    MASS_BOX,
    OUTCOMES,
    SIGMA_BOX,
    DictionaryPreset,
    FixedSite,
    XiExpr,
    _dictionary,
    _drawn_gauge,
    _verify_draws,
    all_presets,
    calibrate_preset,
    duality_compare,
    map_chain_to_gauge,
    map_gauge_to_chain,
    preset_by_id,
    presets,
    verify_identity,
)
from bethegauge import bridge, cli
from bethegauge import chain as chain_module
from bethegauge.chain import BetheRoots, _bethe_system, bethe_lhs, validate_roots
from bethegauge.chain import ChainSpec, _bethe_rows, _root_clashes
from bethegauge.gauge import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    REGIME_FORM,
    GaugeTheorySpec,
    _root_data,
    _vacuum_lhs_stack,
    _vacuum_lhs_values,
    _vacuum_stack,
    _vacuum_system,
    vacuum_lhs,
    vacuum_lhs_squared,
)
from bethegauge.specfun import SingularPointError
from test_rows import rounding_bound

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# catalog structure
# ---------------------------------------------------------------------------


def test_catalog_counts():
    cat = all_presets()
    assert len(cat) == 13
    by = {}
    for p in cat:
        by.setdefault((p.family, p.regime), []).append(p.id)
    assert len(by[("A", "3d")]) == 1
    assert len(by[("B", "3d")]) == 5
    assert len(by[("C", "3d")]) == 2
    assert len(by[("D", "3d")]) == 1
    assert len(by[("B", "2d")]) == 1
    assert len(by[("C", "2d")]) == 2
    assert len(by[("D", "2d")]) == 1
    assert ("A", "2d") not in by
    assert presets("A", "2d") == []


def test_preset_lookup():
    p = preset_by_id("B-3d-P1")
    assert p.family == "B" and p.chain_kind == "open-xxz"
    assert len(p.fixed_sites) == 2
    with pytest.raises(ValueError):
        preset_by_id("B-3d-P9")
    with pytest.raises(ValueError):
        presets("E8", "3d")
    with pytest.raises(ValueError):
        presets("F4", "2d")
    with pytest.raises(ValueError):
        presets("B", "4d")


def test_branch_assignments():
    # exactly one cataloged dictionary lands on the -1 branch
    minus = [p.id for p in all_presets() if p.branch.sign == -1]
    assert minus == ["B-3d-P5"]


def test_xi_expressions():
    assert XiExpr(Fraction(0), HALF).value(0.3) == pytest.approx(0.15)
    assert XiExpr(HALF, -HALF).value(0.3) == pytest.approx(0.35)
    assert XiExpr(Fraction(0), HALF).label() == "1/2*eta"
    assert preset_by_id("B-3d-P1").xi_plus.label() == "-1/2*eta+1/2"
    dinf = preset_by_id("D-3d")
    assert dinf.xi_plus.label() == "+i*inf"
    assert dinf.xi_minus.label() == "-i*inf"
    assert dinf.xi_plus.value(0.3) == complex(0, math.inf)
    assert dinf.xi_minus.value(0.3) == complex(0, -math.inf)


def test_fixed_site_contract():
    assert FixedSite(HALF).spin == Fraction(-1, 2)
    with pytest.raises(ValueError):
        FixedSite(Fraction(1, 4))


def test_preset_validation():
    with pytest.raises(ValueError):
        DictionaryPreset("x", "B", "4d", None, None, (), BRANCH_PLUS)
    with pytest.raises(ValueError):
        DictionaryPreset("x", "B", "3d", None, None, (FixedSite(HALF),), BRANCH_PLUS)


def test_preset_states_the_boundary_rule_of_its_chain_kind():
    xi = XiExpr(Fraction(0), HALF)
    with pytest.raises(ValueError, match="open-chain presets need both xi_plus and xi_minus"):
        DictionaryPreset("x", "B", "3d", xi, None, (), BRANCH_PLUS)
    with pytest.raises(ValueError, match="closed-chain presets take no boundary parameters"):
        DictionaryPreset("x", "A", "3d", None, xi, (), BRANCH_PLUS)
    assert [p.id for p in all_presets() if p.xi_plus and p.xi_plus.infinite] == ["D-3d"]


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------


def test_open_map_site_counts():
    p = preset_by_id("B-3d-P3")
    spec = GaugeTheorySpec("B", 2, 4, (0.3, 0.7, 0.45, 0.6), 0.5)
    chain = map_gauge_to_chain(p, spec)
    assert chain.n_sites == 2 + 4  # nf/2 free + fixed tail
    assert chain.n_magnons == 2
    # the fixed tail pins spin -1/2 with the preset's theta pattern
    assert chain.spins[2:] == (-0.5,) * 4
    assert chain.inhomogeneities[2:] == (0.0, 0.0, 0.5, 0.5)


def test_closed_map_site_counts():
    p = preset_by_id("A-3d")
    spec = GaugeTheorySpec("A", 2, 3, (0.3, 0.7, 0.5), 0.5, masses_anti=(0.45, 0.6, 0.35))
    chain = map_gauge_to_chain(p, spec)
    assert chain.n_sites == 3
    assert chain.n_magnons == 2
    assert not chain.is_open


def test_round_trip_open():
    p = preset_by_id("B-3d-P2")
    spec = GaugeTheorySpec("B", 2, 4, (0.31, 0.72, 0.44, 0.63), 0.52)
    chain = map_gauge_to_chain(p, spec)
    back = map_chain_to_gauge(p, chain)
    assert back.family == "B" and back.rank == 2
    assert max(abs(a - b) for a, b in zip(back.masses, sorted(spec.masses))) < 1e-12
    assert abs(back.m_adj - spec.m_adj) < 1e-12


def test_round_trip_closed_keeps_both_lists():
    p = preset_by_id("A-3d")
    spec = GaugeTheorySpec("A", 2, 2, (0.3, 0.7), 0.5, masses_anti=(0.45, 0.6))
    chain = map_gauge_to_chain(p, spec)
    back = map_chain_to_gauge(p, chain)
    assert max(abs(a - b) for a, b in zip(back.masses, spec.masses)) < 1e-12
    assert max(abs(a - b) for a, b in zip(back.masses_anti, spec.masses_anti)) < 1e-12


def test_mass_order_is_immaterial():
    p = preset_by_id("C-3d-P1")
    a = GaugeTheorySpec("C", 2, 4, (0.31, 0.72, 0.44, 0.63), 0.52)
    b = GaugeTheorySpec("C", 2, 4, (0.72, 0.31, 0.63, 0.44), 0.52)
    assert map_gauge_to_chain(p, a) == map_gauge_to_chain(p, b)


def test_map_rejections():
    p = preset_by_id("B-3d-P1")
    with pytest.raises(ValueError):
        map_gauge_to_chain(p, GaugeTheorySpec("C", 2, 2, (0.3, 0.7), 0.5))
    with pytest.raises(ValueError):
        # open dictionaries pair the masses two by two
        map_gauge_to_chain(p, GaugeTheorySpec("B", 2, 1, (0.3,), 0.5))
    with pytest.raises(ValueError):
        map_gauge_to_chain(
            p, GaugeTheorySpec("B", 2, 2, (0.3, 0.7), 0.5, realization="I")
        )
    # D-3d maps to its exact boundary
    chain = map_gauge_to_chain(preset_by_id("D-3d"), GaugeTheorySpec("D", 2, 2, (0.3, 0.7), 0.5))
    assert (chain.xi_plus, chain.xi_minus) == (complex(0, math.inf), complex(0, -math.inf))


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset", all_presets(), ids=lambda p: p.id)
def test_preset_identities(preset):
    report = verify_identity(preset, dims=(2, 2), samples=50, tol=1e-10, seed=11)
    assert report.passed, "%s residual %g" % (preset.id, report.max_residual)


@pytest.mark.parametrize("seed", [0, 2, 5, 9])
@pytest.mark.parametrize("nf", [2, 4])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_d3d_passes_the_default_gate_at_its_exact_boundary(rank, nf, seed):
    # rank 3, N_f = 2, seed 2 is the worst recorded draw set, at 7.2e-11
    report = verify_identity(preset_by_id("D-3d"), dims=(rank, nf), seed=seed)
    assert report.tol == 1e-10
    assert report.passed, "rank %d N_f %d seed %d: %g" % (rank, nf, seed, report.max_residual)
    assert list(report.notes) == ["draws"]


def test_dropping_the_boundary_rows_is_exact():
    # at xi = +-20i the two boundary ratios multiply to 1 up to a relative
    # e^(-40 pi), so the rows the limit drops move no equation beyond rounding
    preset, rng = preset_by_id("D-3d"), np.random.default_rng(15)
    for rank in (1, 2, 3):
        for nf in (2, 4):
            spec = GaugeTheorySpec("D", rank, nf, tuple(math.pi * rng.uniform(0.07, 0.43, nf)),
                                   math.pi * rng.uniform(0.09, 0.34))
            chain = map_gauge_to_chain(preset, spec)
            far = dataclasses.replace(chain, xi_plus=20j, xi_minus=-20j)
            assert _bethe_system(chain)[0].n_rows == _bethe_system(far)[0].n_rows - 4 * rank
            roots = BetheRoots(rng.uniform(0.05, 0.95, rank) + 1j * rng.uniform(-0.2, 0.2, rank))
            for i in range(rank):
                ref = bethe_lhs(far, roots, i)
                assert abs(bethe_lhs(chain, roots, i) - ref) <= 1e-13 * abs(ref)


def test_forced_branch_flip_fails():
    p = preset_by_id("B-3d-P5")
    ok = verify_identity(p, dims=(2, 2), samples=10, seed=3)
    assert ok.passed and ok.branch_used == -1
    flipped = verify_identity(p, dims=(2, 2), samples=10, seed=3, branch=BRANCH_PLUS)
    assert not flipped.passed
    assert flipped.max_residual >= 0.1
    assert flipped.branch_used == +1


def test_report_dict_uses_pass_key():
    report = verify_identity(preset_by_id("C-3d-P1"), dims=(1, 2), samples=5, seed=1)
    d = report.to_dict()
    assert "pass" in d and "passed" not in d
    assert d["preset_id"] == "C-3d-P1"


# ---------------------------------------------------------------------------
# calibration and duality
# ---------------------------------------------------------------------------


def _convention(preset):
    return preset.xi_plus, preset.xi_minus, preset.fixed_sites, preset.branch


@pytest.mark.parametrize("family, regime", sorted({(p.family, p.regime) for p in all_presets()}))
def test_full_grid_calibration_lands_in_the_catalogue(family, regime):
    best = calibrate_preset(family, regime, samples=15, seed=2)
    assert (best.family, best.regime) == (family, regime)
    assert _convention(best) in [_convention(p) for p in presets(family, regime)]
    if (family, regime) == ("B", "3d"):
        assert [f.theta for f in best.fixed_sites] == [Fraction(0), Fraction(0)]
        assert best.branch.sign == +1
    if (family, regime) == ("C", "3d"):
        assert not best.fixed_sites


@pytest.mark.parametrize("family, regime", sorted({(p.family, p.regime) for p in all_presets()}))
def test_calibration_takes_the_first_passing_trial(family, regime):
    # passing trials differ only by rounding, so the grid's first passing
    # trial wins, and that is the first catalogue preset at every seed
    first = _convention(presets(family, regime)[0])
    for seed in range(8):
        assert _convention(calibrate_preset(family, regime, samples=15, seed=seed)) == first


def test_duality_compare():
    masses = (0.31, 0.52)
    spec_i = GaugeTheorySpec("C", 2, 2, masses, 0.41, realization="I")
    spec_ii = GaugeTheorySpec("C", 2, 2, masses, 0.41)
    report = duality_compare(spec_i, spec_ii, samples=20, seed=4)
    assert report.passed
    assert report.max_residual <= 1e-10
    assert report.preset_id == "duality-C-2"


def test_duality_preconditions():
    masses = (0.31, 0.52)
    spec_i = GaugeTheorySpec("B", 2, 2, masses, 0.41, realization="I")
    spec_ii = GaugeTheorySpec("B", 2, 2, masses, 0.41)
    with pytest.raises(ValueError):
        duality_compare(spec_ii, spec_i)  # wrong order
    with pytest.raises(ValueError):
        duality_compare(spec_i, GaugeTheorySpec("C", 2, 2, masses, 0.41))
    with pytest.raises(ValueError):
        duality_compare(spec_i, GaugeTheorySpec("B", 2, 2, (0.31, 0.53), 0.41))
    with pytest.raises(ValueError):
        duality_compare(spec_i, GaugeTheorySpec("B", 2, 2, masses, 0.42))
    unequal = GaugeTheorySpec(
        "B", 2, 2, masses, 0.41, realization="I", masses_anti=(0.32, 0.51)
    )
    with pytest.raises(ValueError):
        duality_compare(unequal, spec_ii)


# ---------------------------------------------------------------------------
# batched sampling against the one-draw-at-a-time loop
# ---------------------------------------------------------------------------


def _reference_draws(preset, dims, samples, seed):
    """The sampler one draw at a time, as rng.uniform calls: per draw the point
    (m_adj, masses, [masses_anti], sigma), its outcome, the spec, sigma and the
    vacuum and Bethe values it reached.  Stops at the samples-th
    acceptance or after 60 * samples draws."""
    rank, nf = dims
    rng = np.random.default_rng(seed)
    scale = preset.scale
    out, accepted = [], 0
    while accepted < samples and len(out) < 60 * samples:
        eta = rng.uniform(0.09, 0.34)
        masses = tuple(scale * rng.uniform(0.07, 0.43, size=nf))
        anti = tuple(scale * rng.uniform(0.07, 0.43, size=nf)) if preset.family == "A" else None
        spec = GaugeTheorySpec(preset.family, rank, nf, masses, scale * eta, masses_anti=anti)
        sigma = scale * rng.uniform(0.05, 0.95, size=spec.dim)
        rec = {"point": [spec.m_adj, *masses, *(anti or ()), *sigma], "spec": spec,
               "sigma": sigma, "vac": None, "bethe": None}
        out.append(rec)
        try:
            rec["vac"] = _vacuum_lhs_values(spec, sigma, preset.regime)
        except SingularPointError:
            rec["outcome"] = "singular"
            continue
        if any(not (1e-2 < abs(v) < 1e2) for v in rec["vac"]):
            rec["outcome"] = "magnitude_window"
            continue
        mapped = map_gauge_to_chain(preset, spec)
        try:
            roots = BetheRoots(sigma / preset.scale)
            validate_roots(mapped, roots)
        except ValueError:
            rec["outcome"] = "invalid_roots"
            continue
        try:
            rec["bethe"] = [bethe_lhs(mapped, roots, i) for i in range(spec.dim)]
        except SingularPointError:
            rec["outcome"] = "singular"
            continue
        rec["outcome"] = "accepted"
        accepted += 1
    return out


def _batched_draws(preset, dims, samples, seed):
    """The batched run: every outcome, the accepted points, their vacuum and
    Bethe values, and the ledger."""
    outcome, points, (vac, bethe), ledger = _verify_draws(preset, dims, samples, seed)
    return outcome, points, vac, bethe, ledger


def _accepted(ref):
    return [r for r in ref if r["outcome"] == "accepted"]


def _ledger(outcomes):
    counts = {"attempted": len(outcomes)}
    counts.update((name, list(outcomes).count(name)) for name in OUTCOMES)
    return counts


def _close_bound(table, x):
    """1e-12 relative, beyond what one rounding of each argument can move a product."""
    return 1e-12 + rounding_bound(table, x)


def _assert_close(values, reference, table, x):
    """Equal to within :func:`_close_bound` of the reference."""
    reference = np.asarray(reference)
    assert np.all(np.abs(values - reference) <= _close_bound(table, x) * np.abs(reference))


def _vacuum_table_at(preset, r):
    table, params = _vacuum_system(r["spec"], "rational" if preset.regime == "2d" else "root")
    return table, np.concatenate((r["sigma"], params))


def _bethe_table_at(preset, r):
    table, params = _bethe_system(map_gauge_to_chain(preset, r["spec"]))
    return table, np.concatenate((r["sigma"] / preset.scale, params))


@pytest.mark.parametrize("preset", all_presets(), ids=lambda p: p.id)
def test_batched_draws_replay_the_one_at_a_time_loop(preset):
    dims, samples = (2, 4), 25
    ref = _reference_draws(preset, dims, samples, seed=17)
    outcome, points, vac, bethe, ledger = _batched_draws(preset, dims, samples, seed=17)
    assert [OUTCOMES[k] for k in outcome] == [r["outcome"] for r in ref]
    assert ledger == _ledger([r["outcome"] for r in ref])
    assert ledger["accepted"] == samples
    accepted = _accepted(ref)
    assert np.array_equal(points, np.array([r["point"] for r in accepted]))  # bitwise
    for k, r in enumerate(accepted):
        _assert_close(vac[k], r["vac"], *_vacuum_table_at(preset, r))
        _assert_close(bethe[k], r["bethe"], *_bethe_table_at(preset, r))


@pytest.mark.parametrize("preset_id, rank, seed, samples, outcome", [
    ("D-2d", 3, 6, 100, "invalid_roots"),  # two sigma components 4.8e-9 apart
    ("A-3d", 2, 5, 140, "singular"),
])
def test_rejected_draws_match_the_reference(preset_id, rank, seed, samples, outcome):
    preset = preset_by_id(preset_id)
    ref = _reference_draws(preset, (rank, 4), samples, seed)
    outcomes, points, _, _, ledger = _batched_draws(preset, (rank, 4), samples, seed)
    assert [OUTCOMES[k] for k in outcomes] == [r["outcome"] for r in ref]
    assert np.array_equal(points, np.array([r["point"] for r in _accepted(ref)]))
    assert ledger == _ledger([r["outcome"] for r in ref])
    assert ledger[outcome] == 1


def test_sampling_cap_raises_as_the_loop_did():
    preset, samples = preset_by_id("B-2d"), 4
    ref = _reference_draws(preset, (3, 4), samples, seed=2)
    counts = _ledger([r["outcome"] for r in ref])
    assert counts["attempted"] == 60 * samples and counts["accepted"] < samples
    with pytest.raises(RuntimeError, match="sampling kept hitting singular configurations") as err:
        verify_identity(preset, dims=(3, 4), samples=samples, seed=2)
    assert str(err.value).endswith("(draws: %s)" % ", ".join(
        "%s %d" % (name, counts[name]) for name in ("attempted",) + OUTCOMES))


@pytest.mark.parametrize("preset_id", ["A-3d", "D-3d", "C-2d-P1"])
def test_fewer_samples_give_a_prefix_of_the_ledger(preset_id):
    preset = preset_by_id(preset_id)
    outcome, *_ = _batched_draws(preset, (2, 4), 40, seed=8)
    for n in (1, 7, 40):
        stop = int(np.flatnonzero(outcome == OUTCOMES.index("accepted"))[n - 1]) + 1
        report = verify_identity(preset, dims=(2, 4), samples=n, tol=1.0, seed=8)
        assert report.notes["draws"] == _ledger([OUTCOMES[k] for k in outcome[:stop]])


def test_one_reduction_grades_every_report():
    # the first worst entry, with its point; none at a zero worst; inf when empty
    asked = []

    def point(k):
        asked.append(k)
        return {"k": k}

    rep = bridge._worst_report("x", np.array([1e-12, 3e-11, 3e-11]), 5, 1e-10, -1, {"n": 1}, point)
    assert (rep.samples, rep.max_residual, rep.worst_point, rep.passed) == (3, 3e-11, {"k": 1}, True)
    assert (rep.seed, rep.branch_used, rep.notes) == (5, -1, {"n": 1})
    assert bridge._worst_report("x", np.zeros(2), 0, 1e-10, 1, {}, point).worst_point is None
    empty = bridge._worst_report("x", np.empty(0), 0, 1e-10, 1, {}, point)
    assert (empty.samples, empty.max_residual, empty.worst_point, empty.passed) == (
        0, math.inf, None, False)
    assert asked == [1]


@pytest.mark.parametrize("preset_id", ["A-3d", "B-3d-P5", "D-3d"])
def test_worst_point_replays_the_worst_draw(preset_id):
    preset = preset_by_id(preset_id)
    report = verify_identity(preset, dims=(2, 4), samples=30, tol=1e-6, seed=4)
    _, points, vac, bethe, _ = _batched_draws(preset, (2, 4), 30, seed=4)
    w = report.worst_point
    drawn = [w["m_adj"], *w["masses"], *w.get("masses_anti", ()), *w["sigma"]]
    k = [i for i, p in enumerate(points.tolist()) if p == drawn]  # among the accepted draws
    assert len(k) == 1
    assert ("masses_anti" in w) == (preset.family == "A")
    assert np.max(np.abs(vac[k[0]] - preset.branch.sign * bethe[k[0]])) == report.max_residual


@pytest.mark.parametrize("branch", [BRANCH_PLUS, BRANCH_MINUS], ids=["plus", "minus"])
@pytest.mark.parametrize("preset_id", ["D-3d", "C-2d-P1"])
def test_report_residuals_reduce_the_accepted_reference_draws(preset_id, branch):
    # both presets match on the + branch; on the - branch each residual is about
    # 2|vac|, so the residuals of different draws and components differ by far
    # more than the rounding bound
    preset = preset_by_id(preset_id)
    report = verify_identity(preset, dims=(3, 4), samples=20, tol=1.0, seed=9, branch=branch)
    res, bound = [], []  # per accepted reference draw
    for r in _accepted(_reference_draws(preset, (3, 4), 20, seed=9)):
        vac, bethe = np.array(r["vac"]), np.array(r["bethe"])  # (dim,) each
        slack = (_close_bound(*_vacuum_table_at(preset, r)) * np.abs(vac)
                 + _close_bound(*_bethe_table_at(preset, r)) * np.abs(bethe))
        res.append(np.abs(vac - branch.sign * bethe).max())
        bound.append(slack.max())
    assert len(res) == 20
    assert abs(report.max_residual - max(res)) <= max(bound)
    assert list(report.notes) == ["draws"]


@pytest.mark.parametrize("samples", [0, -3])
def test_samplers_refuse_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        verify_identity(preset_by_id("C-3d-P1"), dims=(2, 4), samples=samples)
    spec_i = GaugeTheorySpec("C", 2, 2, (0.31, 0.52), 0.41, realization="I")
    with pytest.raises(ValueError, match="samples"):
        duality_compare(spec_i, GaugeTheorySpec("C", 2, 2, (0.31, 0.52), 0.41), samples=samples)


def _reference_duality(gauge_i, gauge_ii, samples, seed):
    """duality_compare one draw at a time: the outcome of every draw and the worst residual."""
    rng = np.random.default_rng(seed)
    outcomes, worst = [], 0.0
    while outcomes.count("accepted") < samples and len(outcomes) < 60 * samples:
        sigma = math.pi * rng.uniform(0.05, 0.95, size=gauge_i.dim)
        try:
            vals_i = [vacuum_lhs_squared(gauge_i, sigma, j) for j in range(gauge_i.dim)]
            vals_ii = [vacuum_lhs_squared(gauge_ii, sigma, j) for j in range(gauge_i.dim)]
        except SingularPointError:
            outcomes.append("singular")
            continue
        if any(not (1e-2 < abs(v) < 1e2) for v in vals_ii):
            outcomes.append("magnitude_window")
            continue
        outcomes.append("accepted")
        worst = max(worst, max(abs(a - b) for a, b in zip(vals_i, vals_ii)))
    return outcomes, worst


@pytest.mark.parametrize("family, rank", [("B", 2), ("B", 3), ("C", 3)])
def test_duality_ledger_matches_the_reference(family, rank):
    rng = np.random.default_rng([rank, ord(family)])
    masses = tuple(math.pi * rng.uniform(0.07, 0.43, size=4))
    pair = [GaugeTheorySpec(family, rank, 4, masses, 0.8, realization=r) for r in ("I", "II")]
    outcomes, worst = _reference_duality(*pair, samples=30, seed=5)
    report = duality_compare(*pair, samples=30, seed=5)
    counts = _ledger(outcomes)
    del counts["invalid_roots"]
    assert report.notes["draws"] == counts
    assert report.max_residual <= 1e-10 and worst <= 1e-10


@pytest.mark.parametrize("preset_id", ["B-3d-P1", "C-2d-P1", "D-3d"])
def test_bethe_singular_draws_match_the_reference(monkeypatch, preset_id):
    # a Bethe guard raised to 0.1 rejects some draws that pass the vacuum side
    monkeypatch.setattr(chain_module, "DENOM_TOL", 0.1)
    chain_module._bethe_table.cache_clear()
    try:
        preset = preset_by_id(preset_id)
        ref = _reference_draws(preset, (2, 4), 20, seed=3)
        outcome, points, _, _, ledger = _batched_draws(preset, (2, 4), 20, seed=3)
    finally:
        chain_module._bethe_table.cache_clear()
    assert [OUTCOMES[k] for k in outcome] == [r["outcome"] for r in ref]
    assert ledger == _ledger([r["outcome"] for r in ref])
    assert np.array_equal(points, np.array([r["point"] for r in _accepted(ref)]))
    assert sum(r["outcome"] == "singular" and r["vac"] is not None for r in ref) > 0


# ---------------------------------------------------------------------------
# the dictionary as stacked columns
# ---------------------------------------------------------------------------


def test_unpaired_a_masses_are_refused():
    spec = GaugeTheorySpec("A", 2, 2, (0.1, 0.2), 0.5, masses_anti=(0.15,))
    with pytest.raises(ValueError, match="N_f = N_f'"):
        vacuum_lhs(spec, (0.4, 0.9), 0)
    with pytest.raises(ValueError, match="N_f = N_f'"):
        map_gauge_to_chain(preset_by_id("A-3d"), spec)
    with pytest.raises(ValueError, match="N_f = N_f'"):
        _dictionary(preset_by_id("A-3d"), np.array([[0.5, 0.1, 0.2, 0.15]] * 3), 2)


def _one_site_at_a_time(preset, spec):
    """The Bethe parameters of ``spec`` from the dictionary's formulas in Python
    floats, one free site at a time: (eta, eta*s, theta, [xi_+, xi_-]), the
    boundary columns only for a finite boundary."""
    scale = preset.scale
    eta = spec.m_adj / scale
    if preset.family == "A":
        pairs = [(mp, m) for m, mp in zip(spec.masses, spec.masses_anti)]
    else:
        ordered = sorted(spec.masses)
        pairs = list(zip(ordered[::2], ordered[1::2]))
    spins = [-(m + mp) / (2.0 * scale * eta) for m, mp in pairs]
    thetas = [eta / 2.0 + (m - mp) / (2.0 * scale) for m, mp in pairs]
    spins += [float(site.spin) for site in preset.fixed_sites]
    thetas += [float(site.theta) for site in preset.fixed_sites]
    params = [eta] + [eta * s for s in spins] + thetas
    if preset.is_open and not preset.xi_plus.infinite:
        params += [preset.xi_plus.value(eta), preset.xi_minus.value(eta)]
    return np.array(params, dtype=complex)


@pytest.mark.parametrize("preset", all_presets(), ids=lambda p: p.id)
def test_stacked_columns_are_the_one_chain_map_bitwise(preset):
    rng = np.random.default_rng(list(map(ord, preset.id)))
    for rank in (1, 2, 3):
        for nf in ((1, 2, 3) if preset.family == "A" else (2, 4, 6)):
            n_params = 1 + nf * (2 if preset.family == "A" else 1)
            params = preset.scale * np.column_stack(
                (rng.uniform(0.09, 0.34, 6), rng.uniform(0.07, 0.43, (6, n_params - 1))))
            cols = _dictionary(preset, params, nf)
            stacked_table, stacked = _bethe_rows(preset.chain_kind, rank, *cols)
            assert stacked.shape[0] == 6
            for k, row in enumerate(params):
                spec = GaugeTheorySpec(preset.family, rank, nf, row[1:nf + 1], row[0],
                                       masses_anti=row[nf + 1:] if preset.family == "A" else None)
                table, one = _bethe_system(map_gauge_to_chain(preset, spec))
                assert table is stacked_table
                assert stacked[k].tobytes() == one.tobytes()
                assert one.tobytes() == _one_site_at_a_time(preset, spec).tobytes()


def _classify(values, is_open):
    """What BetheRoots and validate_roots make of one root set: None or the message."""
    chain = ChainSpec("open-xxx" if is_open else "closed-xxx", 1, len(values), 0.3, (0.5,), (0.0,),
                      *((0.1, 0.2) if is_open else ()))
    try:
        validate_roots(chain, BetheRoots(values))
    except ValueError as err:
        return str(err)
    return None


def test_root_mask_classifies_as_the_root_checks():
    rng = np.random.default_rng(3)
    sets = [tuple(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)) for _ in range(40)]
    sets += [(0.3, 0.7, 0.3 + 0.99e-8), (0.3, 0.7, 0.3 + 1.01e-8), (0.4, -0.4 + 0.5e-8j, 0.9),
             (0.4, -0.4 + 1.5e-8j, 0.9), (0.2 + 0.1j, 0.5, -0.2 - 0.1j), (0.2, 0.2, -0.2),
             (0.5, -0.1, 0.1), (0.0, 0.6, 0.0)]
    u = np.array(sets)
    for is_open in (False, True):
        expected = [_classify(s, is_open) for s in sets]
        mask = _root_clashes(u, is_open).any(axis=1)
        assert mask.tolist() == [e is not None for e in expected]
        assert 0 < sum(mask) < len(sets)
    assert _classify((0.2, 0.2, -0.2), True) == "Bethe roots 0 and 1 coincide"
    assert _classify((0.5, -0.1, 0.1), True) == (
        "roots 1 and 2 are reflection-degenerate (u_i + u_j = 0)")
    assert _classify((0.5, -0.1, 0.1), False) is None


def test_root_mask_rejects_the_coincident_and_reflected_draws():
    # D-2d rank 3, seed 6 draws two sigma components 4.8e-9 apart
    preset = preset_by_id("D-2d")
    ref = _reference_draws(preset, (3, 4), 100, seed=6)
    outcome, *_ = _verify_draws(preset, (3, 4), 100, 6)
    assert [OUTCOMES[k] for k in outcome] == [r["outcome"] for r in ref]
    (invalid,) = [r for r in ref if r["outcome"] == "invalid_roots"]
    u = invalid["sigma"] / preset.scale
    assert _root_clashes(u[None], True).any()
    with pytest.raises(ValueError, match="coincide"):
        BetheRoots(u)
    # a reflection pair, u_1 = -u_0, is invalid on an open preset only
    open_preset = preset_by_id("B-3d-P1")
    reflected = np.array([[0.3, -0.3, 0.55]])
    assert _root_clashes(reflected, open_preset.is_open).any()
    assert not _root_clashes(reflected, preset_by_id("A-3d").is_open).any()
    spec = GaugeTheorySpec("B", 3, 4, (0.31, 0.72, 0.44, 0.63), 0.52)
    with pytest.raises(ValueError, match="reflection-degenerate"):
        validate_roots(map_gauge_to_chain(open_preset, spec), BetheRoots(reflected[0]))


def test_verify_chunks_build_no_per_draw_objects():
    source = textwrap.dedent(inspect.getsource(_verify_draws))
    tree = ast.parse(source)
    stages = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    screen, settle = stages.pop("screen"), stages.pop("settle")
    assert list(stages) == ["_verify_draws"]

    def called(node):
        return {c.func.id if isinstance(c.func, ast.Name) else c.func.attr
                for c in ast.walk(node) if isinstance(c, ast.Call)
                and isinstance(c.func, (ast.Name, ast.Attribute))}

    per_object = {"ChainSpec", "BetheRoots", "GaugeTheorySpec", "map_gauge_to_chain",
                  "validate_roots", "_bethe_stack"}
    assert not called(tree) & per_object
    bethe_pass = {"_dictionary", "_root_clashes", "products"}
    for stage in (screen, settle):
        assert not called(stage) & (per_object | {"_drawn_gauge"})
        assert not any(isinstance(n, (ast.For, ast.While, ast.comprehension))
                       for n in ast.walk(stage))
    assert bethe_pass <= called(settle)
    assert not called(screen) & bethe_pass
    assert "_vacuum_lhs_stack" in called(screen) - called(settle)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(preset=st.sampled_from(all_presets()), rank=st.integers(1, 3), pairs=st.integers(1, 3),
       data=st.data())
def test_gauge_chain_gauge_round_trips(preset, rank, pairs, data):
    unit = st.floats(0.07, 0.43)
    nf = pairs if preset.family == "A" else 2 * pairs
    masses = tuple(preset.scale * data.draw(unit) for _ in range(nf))
    anti = None
    if preset.family == "A":
        anti = tuple(preset.scale * data.draw(unit) for _ in range(nf))
    spec = GaugeTheorySpec(preset.family, rank, nf, masses,
                           preset.scale * data.draw(st.floats(0.09, 0.34)), masses_anti=anti)
    back = map_chain_to_gauge(preset, map_gauge_to_chain(preset, spec))
    assert (back.family, back.rank, back.n_fund) == (spec.family, spec.rank, spec.n_fund)

    def close(got, want):
        return all(abs(a - b) <= 1e-14 * abs(b) for a, b in zip(got, want, strict=True))

    assert close((back.m_adj,), (spec.m_adj,))
    if preset.family == "A":
        assert close(back.masses, spec.masses) and close(back.masses_anti, spec.masses_anti)
    else:
        assert close(back.masses, sorted(spec.masses))


# ---------------------------------------------------------------------------
# the chunk size is a unit of work, never part of a report
# ---------------------------------------------------------------------------


#: 1 and 7 split the draws into many short chunks; 10**6 scores the whole cap as one
CHUNKS = (1, 7, 64, 256, 10**6)


def _under_each_chunk(monkeypatch, run):
    """run() once per chunk size: its result, or the message of its RuntimeError."""
    out = []
    for chunk in CHUNKS:
        monkeypatch.setattr(bridge, "_CHUNK", chunk)
        try:
            out.append(run())
        except RuntimeError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("preset_id, rank, seed", [
    ("B-3d-P1", 2, 3),
    ("C-2d-P1", 3, 0),
    ("D-3d", 2, 0),  # the limit boundary
    ("A-3d", 2, 0),
])
def test_verify_report_does_not_depend_on_the_chunk_size(monkeypatch, preset_id, rank, seed):
    preset = preset_by_id(preset_id)
    reports = _under_each_chunk(
        monkeypatch, lambda: verify_identity(preset, (rank, 4), samples=3, seed=seed).to_dict())
    assert reports[0]["notes"]["draws"]["accepted"] == 3
    assert all(r == reports[0] for r in reports[1:])


@pytest.mark.parametrize("family, rank", [("B", 3), ("C", 2)])
def test_duality_report_does_not_depend_on_the_chunk_size(monkeypatch, family, rank):
    masses = (0.41, 1.07, 0.66, 0.93)
    pair = [GaugeTheorySpec(family, rank, 4, masses, 0.8, realization=r) for r in ("I", "II")]
    reports = _under_each_chunk(monkeypatch,
                                lambda: duality_compare(*pair, samples=4, seed=2).to_dict())
    assert reports[0]["notes"]["draws"]["accepted"] == 4
    assert all(r == reports[0] for r in reports[1:])


def test_exhausted_sampling_does_not_depend_on_the_chunk_size(monkeypatch):
    preset = preset_by_id("B-2d")
    messages = _under_each_chunk(
        monkeypatch, lambda: verify_identity(preset, (3, 4), samples=3, seed=0))
    assert messages[0].startswith("sampling kept hitting singular configurations")
    assert "attempted 180," in messages[0]
    assert all(m == messages[0] for m in messages[1:])


# ---------------------------------------------------------------------------
# two stages: one side screens each chunk, the other settles the draws it
# keeps, a batch at a time.  verify screens by the vacuum side and settles on
# the Bethe side; duality-compare screens by realization II and settles on
# realization I
# ---------------------------------------------------------------------------


def _verify_box(preset, rank):
    """The shape of a verify draw at (rank, N_f 4), and the box it is drawn
    from in units of the scale, as (low, high) per column."""
    shape, _ = _drawn_gauge(preset, (rank, 4), np.zeros(1 + 2 * 4 + rank))
    n_params = len(shape.params)
    return shape, np.array([M_ADJ_BOX] + [MASS_BOX] * (n_params - 1) + [SIGMA_BOX] * shape.dim).T


def _per_chunk_draws(preset, dims, samples, seed):
    """The sampler in one stage, from the pieces of :func:`_verify_draws`: each
    256-draw chunk is screened, and its kept draws mapped across the dictionary
    and scored on the Bethe side, before the next is drawn.  Returns every
    counted outcome, the accepted points, vacuum and Bethe values, and the
    ledger, whether or not the cap left the run short."""
    rng = np.random.default_rng(seed)
    shape, (lo, hi) = _verify_box(preset, dims[0])
    n_params = len(shape.params)
    accepted, singular, invalid = (OUTCOMES.index(name)
                                   for name in ("accepted", "singular", "invalid_roots"))
    cap, drawn, need = 60 * samples, 0, samples
    counted, kept = [], []
    while need and drawn < cap:
        points = preset.scale * (lo + (hi - lo) * rng.random((min(256, cap - drawn), len(lo))))
        params, sigma = points[:, :n_params], points[:, n_params:]
        vac, hit = _vacuum_lhs_stack(shape, preset.regime, sigma, params)
        outcome = bridge._outcomes(hit, vac)
        bethe = np.full(sigma.shape, np.nan, dtype=complex)
        screened = np.flatnonzero(outcome == accepted)
        u = sigma[screened] / preset.scale
        ok = ~_root_clashes(u, preset.is_open).any(axis=1)
        outcome[screened[~ok]] = invalid
        reached = screened[ok]
        if len(reached):
            cols = _dictionary(preset, params[reached], shape.n_fund)
            table, chain = _bethe_rows(preset.chain_kind, shape.dim, *cols)
            bethe[reached], hit = table.products(np.concatenate((u[ok], chain), axis=1))
            outcome[reached[hit]] = singular
        first = np.flatnonzero(outcome == accepted)[:need]
        k = int(first[-1]) + 1 if len(first) == need else len(points)
        need, drawn = need - len(first), drawn + k
        counted.append(outcome[:k])
        kept.append((points[first], vac[first], bethe[first]))
    outcome = np.concatenate(counted)
    points, vac, bethe = (np.concatenate(parts) for parts in zip(*kept))
    return outcome, points, vac, bethe, _ledger([OUTCOMES[k] for k in outcome])


@pytest.mark.parametrize("preset_id, rank, samples, seed", [
    ("D-2d", 3, 200, 6),  # one invalid draw: the first batch settles short
    ("B-2d", 3, 200, 5),  # the cap: 87 accepted in 12,000 draws
    ("C-2d-P1", 3, 1, 0),
    ("A-3d", 2, 1, 3),
    ("B-2d", 3, 1, 0),  # no draw passes the window: the one batch is empty
    ("C-2d-P1", 3, 200, 0),  # 7,029 draws, 28 chunks
    ("C-2d-P1", 3, 300, 0),  # two batches, of 256 and 44
])
def test_two_stages_replay_the_per_chunk_scorer(preset_id, rank, samples, seed):
    preset = preset_by_id(preset_id)
    outcome, points, vac, bethe, ledger = _per_chunk_draws(preset, (rank, 4), samples, seed)
    if ledger["accepted"] < samples:
        with pytest.raises(RuntimeError) as err:
            _verify_draws(preset, (rank, 4), samples, seed)
        assert str(err.value).endswith(
            "(draws: %s)" % ", ".join("%s %d" % kv for kv in ledger.items()))
        return
    got = _batched_draws(preset, (rank, 4), samples, seed)
    assert got[-1] == ledger
    assert np.array_equal(got[0], outcome)
    for mine, theirs in zip(got[1:4], (points, vac, bethe)):
        assert mine.tobytes() == theirs.tobytes()


def test_the_edge_cases_of_the_two_stages_are_reached():
    # what test_two_stages_replay_the_per_chunk_scorer's cases are there for
    demoted = _per_chunk_draws(preset_by_id("D-2d"), (3, 4), 200, 6)[-1]
    assert demoted["invalid_roots"] == 1  # and the Bethe pass then runs twice (below)
    assert _per_chunk_draws(preset_by_id("B-2d"), (3, 4), 200, 5)[-1]["attempted"] == 12000
    empty = _per_chunk_draws(preset_by_id("B-2d"), (3, 4), 1, 0)[-1]
    assert empty["attempted"] == empty["magnitude_window"] == 60


@pytest.mark.parametrize("argv, passes", [
    (["--preset", "C-2d-P1", "--rank", "3", "--nf", "4"], [200]),
    (["--preset", "D-2d", "--rank", "3", "--nf", "4", "--seed", "6"], [199, 1]),
    (["--preset", "B-2d", "--rank", "3", "--samples", "1"], []),
    (["--preset", "C-2d-P1", "--rank", "3", "--nf", "4", "--samples", "300"], [256, 44]),
])
def test_a_report_maps_its_draws_across_the_dictionary_once(monkeypatch, capsys, argv, passes):
    calls = []

    def counted(preset, params, n_fund):
        calls.append(len(params))
        return _dictionary(preset, params, n_fund)

    monkeypatch.setattr(bridge, "_dictionary", counted)
    cli.run(["verify"] + argv + ["--json", "--no-timestamp"])
    capsys.readouterr()
    assert calls == passes


@pytest.mark.parametrize("family, rank, seed, screened", [
    ("B", 3, 11, 6),  # 1,493 draws for 50 accepted
    ("C", 2, 0, 1),
])
def test_duality_evaluates_realization_i_on_the_settled_draws_only(
        monkeypatch, capsys, family, rank, seed, screened):
    calls = {"I": [], "II": []}

    def counted(spec, form, sigma, params=None):
        calls[spec.realization].append(len(sigma))
        return _vacuum_stack(spec, form, sigma, params)

    monkeypatch.setattr(bridge, "_vacuum_stack", counted)
    cli.run(["duality-compare", "--family", family, "--rank", str(rank), "--seed", str(seed),
             "--json", "--no-timestamp"])
    capsys.readouterr()
    assert calls == {"I": [50], "II": [256] * screened}


def _near_walls(spec, rng):
    """Points inside the singular guard, 1e-7 off a matter wall sigma_j = m_i
    and off the wall alpha.sigma = m_adj of the family's shortest root, on
    either side, each in a random point of the sampling box."""
    roots = [alpha for alpha, _, _ in _root_data(spec.family, spec.rank)]
    shortest = min(roots, key=lambda alpha: (np.dot(alpha, alpha), alpha))
    j = int(np.flatnonzero(shortest)[0])
    points = []
    for offset in (-1e-7, 1e-7):
        for i, mass in enumerate(spec.masses):
            sigma = math.pi * rng.uniform(*SIGMA_BOX, spec.rank)
            sigma[i % spec.rank] = mass + offset
            points.append(sigma)
        sigma = math.pi * rng.uniform(*SIGMA_BOX, spec.rank)
        rest = np.dot(shortest, sigma) - shortest[j] * sigma[j]
        sigma[j] = (spec.m_adj + offset - rest) / shortest[j]
        points.append(sigma)
    return np.array(points)


@pytest.mark.parametrize("family, rank", [(f, r) for f in "BC" for r in (1, 2, 3)])
def test_both_realizations_flag_the_same_points_singular(family, rank):
    # at equal masses realization I's full rows are realization II's split in
    # two, so the screen by realization II alone keeps duality-compare's ledger
    rng = np.random.default_rng([rank, ord(family)])
    spec_i, spec_ii = cli._realization_pair(family, rank, 4, rng)
    walls = _near_walls(spec_ii, rng)
    sigma = np.concatenate((walls, math.pi * rng.uniform(*SIGMA_BOX, (256, rank))))
    _, singular_i = _vacuum_stack(spec_i, "full", sigma)
    _, singular_ii = _vacuum_stack(spec_ii, "full", sigma)
    assert np.array_equal(singular_i, singular_ii)
    assert singular_ii[:len(walls)].all() and not singular_ii[len(walls):].any()


#: the stack heights a chunk or batch of either sampler takes, among others
HEIGHTS = (1, 2, 4, 7, 30, 44, 50, 64, 199, 200, 256)


def _assert_alike_at_every_height(table, x):
    alone = [table.products(x[k:k + 1]) for k in range(len(x))]
    values = np.concatenate([v for v, _ in alone])
    singular = np.concatenate([s for _, s in alone])
    for height in HEIGHTS:
        for shift in (0, height // 2 + 1):
            order = np.resize(np.roll(np.arange(len(x)), -shift), -(-len(x) // height) * height)
            for stack in order.reshape(-1, height):
                got, hit = table.products(x[stack])
                assert got.tobytes() == values[stack].tobytes()
                assert np.array_equal(hit, singular[stack])


@pytest.mark.parametrize("rank", (2, 3))
@pytest.mark.parametrize("preset", all_presets(), ids=lambda p: p.id)
def test_a_verify_draw_evaluates_alike_alone_and_at_every_height(preset, rank):
    # what the stacked products give a point is tested here, for the tables
    # verify ships: nothing in RowTable.arguments, one matrix product, makes
    # a point's bits independent of the other points of its stack
    shape, (lo, hi) = _verify_box(preset, rank)
    points = preset.scale * (lo + (hi - lo) * np.random.default_rng(rank).random((256, len(lo))))
    params, sigma = points[:, :len(shape.params)], points[:, len(shape.params):]
    vacuum, _ = _vacuum_system(shape, REGIME_FORM[preset.regime])
    _assert_alike_at_every_height(vacuum, np.concatenate((sigma, params), axis=1))
    bethe, chain = _bethe_rows(preset.chain_kind, rank, *_dictionary(preset, params, 4))
    _assert_alike_at_every_height(bethe, np.concatenate((sigma / preset.scale, chain), axis=1))


@pytest.mark.parametrize("family, rank", [(f, r) for f in "BC" for r in (1, 2, 3)])
def test_a_duality_draw_evaluates_alike_alone_and_at_every_height(family, rank):
    pair = cli._realization_pair(family, rank, 4, np.random.default_rng(rank))
    sigma = math.pi * np.random.default_rng(7).uniform(*SIGMA_BOX, (256, rank))
    for spec in pair:
        table, own = _vacuum_system(spec, "full")
        _assert_alike_at_every_height(
            table, np.concatenate((sigma, np.broadcast_to(own, (256, len(own)))), axis=1))
