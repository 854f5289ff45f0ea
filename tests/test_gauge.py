"""Vacuum products, superpotential gradients and their cross-checks."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bethegauge import lie_roots
from bethegauge.gauge import (
    REGIME_SCALE,
    GaugeTheorySpec,
    VacuumBranch,
    _vacuum_lhs_values,
    superpotential_grad,
    superpotential_value,
    vacuum_from_gradient,
    vacuum_lhs,
    vacuum_lhs_2d,
    vacuum_lhs_squared,
)
from bethegauge.specfun import SingularPointError, dilog

# fixed generic points, checked to sit away from every singular hyperplane
SPECS = {
    "A": GaugeTheorySpec("A", 2, 3, (0.21, 0.34, 0.18), 0.23),
    "B": GaugeTheorySpec("B", 2, 2, (0.21, 0.34), 0.19),
    "C": GaugeTheorySpec("C", 3, 2, (0.26, 0.41), 0.17),
    "D": GaugeTheorySpec("D", 3, 2, (0.22, 0.37), 0.21),
    "F4": GaugeTheorySpec("F4", 4, 2, (0.24, 0.39), 0.16),
    "E8": GaugeTheorySpec("E8", 8, 1, (0.27,), 0.14),
}
SIGMAS = {
    "A": (0.37, 0.82),
    "B": (0.41, 0.87),
    "C": (0.39, 0.71, 1.13),
    "D": (0.43, 0.79, 1.21),
    "F4": (0.47, 0.83, 1.19, 1.51),
    "E8": (1.6058, 0.2331, 0.5942, 2.3823, 1.853, 0.9445, 0.1406, 1.1382),
}


def _fd_grad(spec, sigma, h=1e-6):
    out = []
    for j in range(spec.dim):
        up = list(sigma)
        dn = list(sigma)
        up[j] += h
        dn[j] -= h
        out.append(
            (superpotential_value(spec, up) - superpotential_value(spec, dn)) / (2 * h)
        )
    return np.asarray(out)


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "F4", "E8"])
def test_gradient_matches_finite_differences(family):
    spec = SPECS[family]
    gap = np.abs(superpotential_grad(spec, SIGMAS[family]) - _fd_grad(spec, SIGMAS[family]))
    assert gap.max() < 1e-6


def test_gradient_matches_finite_differences_realization_i():
    spec = GaugeTheorySpec("B", 2, 2, (0.21, 0.34), 0.19, realization="I")
    gap = np.abs(superpotential_grad(spec, SIGMAS["B"]) - _fd_grad(spec, SIGMAS["B"]))
    assert gap.max() < 1e-6


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "F4"])
def test_gradient_route_equals_full_products(family):
    # exponentiating the gradient must reproduce the closed doubled-argument
    # products exactly; this ties the superpotential to the vacuum equations.
    # Magnitudes swing widely, compare relatively
    spec = SPECS[family]
    sig = SIGMAS[family]
    route = vacuum_from_gradient(spec, sig)
    for j in range(spec.dim):
        full = vacuum_lhs_squared(spec, sig, j)
        assert abs(route[j] - full) < 1e-10 * abs(full)


def test_gradient_route_e8_matches_generated_product():
    # the E8 weights enter once, so the gradient exponential lands on the
    # power-one product; magnitudes swing widely, compare relatively
    spec = SPECS["E8"]
    sig = SIGMAS["E8"]
    route = vacuum_from_gradient(spec, sig)
    for j in range(8):
        lhs = vacuum_lhs(spec, sig, j)
        assert abs(route[j] - lhs) / abs(lhs) < 1e-10


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "F4", "E8"])
def test_rows_are_the_exponentiated_gradient_at_seeded_points(family):
    # realization II: exp(i dW/dsigma) is the full product, for E8 the root
    # form (its odd exponents leave no square root), and the root form
    # squares to the full one
    rng = np.random.default_rng(["A", "B", "C", "D", "F4", "E8"].index(family))
    ranks = (1, 2, 3, 4) if family in "ABCD" else (int(family[1]),)
    for rank in ranks:
        for n_fund in (0, 2, 4):
            for _ in range(3):
                spec = GaugeTheorySpec(family, rank, n_fund,
                                       tuple(math.pi * rng.uniform(0.07, 0.43, size=n_fund)),
                                       math.pi * rng.uniform(0.09, 0.34))
                sigma = math.pi * rng.uniform(0.05, 0.95, size=rank)
                route = vacuum_from_gradient(spec, sigma)
                for j in range(rank):
                    root, full = vacuum_lhs(spec, sigma, j), vacuum_lhs_squared(spec, sigma, j)
                    want = root if family == "E8" else full
                    assert abs(route[j] - want) <= 1e-10 * abs(want)
                    assert abs(root ** 2 - full) <= 1e-12 * abs(full)


@pytest.mark.parametrize("family", ["A", "B", "C", "D", "F4", "E8"])
def test_square_root_consistency(family):
    spec = SPECS[family]
    sig = SIGMAS[family]
    for j in range(spec.dim):
        full = vacuum_lhs_squared(spec, sig, j)
        rel = abs(vacuum_lhs(spec, sig, j) ** 2 - full) / max(abs(full), 1.0)
        assert rel < 1e-12


def test_branch_sign_validation():
    with pytest.raises(ValueError):
        VacuumBranch(0)


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_realizations_agree_on_full_products_at_equal_masses(family):
    spec_ii = SPECS[family]
    spec_i = GaugeTheorySpec(
        family, spec_ii.rank, spec_ii.n_fund, spec_ii.masses, spec_ii.m_adj, realization="I"
    )
    sig = SIGMAS[family]
    for j in range(spec_ii.dim):
        gap = abs(vacuum_lhs_squared(spec_i, sig, j) - vacuum_lhs_squared(spec_ii, sig, j))
        assert gap < 1e-12


def test_realization_values_differ():
    # the two weight normalizations are genuinely different superpotentials
    sig = (0.37, 0.82)
    w_i = superpotential_value(GaugeTheorySpec("A", 2, 2, (0.21, 0.34), 0.23, realization="I"), sig)
    w_ii = superpotential_value(GaugeTheorySpec("A", 2, 2, (0.21, 0.34), 0.23), sig)
    assert abs(w_i - w_ii) > 0.1


def test_paired_square_root_exact_only_at_equal_masses():
    sig = SIGMAS["B"]
    unequal = GaugeTheorySpec(
        "B", 2, 2, (0.21, 0.34), 0.19, realization="I", masses_anti=(0.29, 0.12)
    )
    gap = max(
        abs(vacuum_lhs(unequal, sig, j) ** 2 - vacuum_lhs_squared(unequal, sig, j))
        for j in range(2)
    )
    assert gap > 1e-4

    # the A products pair the two lists term by term, so they stay exact
    spec_a = GaugeTheorySpec("A", 2, 3, (0.21, 0.34, 0.18), 0.23, masses_anti=(0.25, 0.31, 0.15))
    sig_a = SIGMAS["A"]
    for j in range(2):
        assert abs(vacuum_lhs(spec_a, sig_a, j) ** 2 - vacuum_lhs_squared(spec_a, sig_a, j)) < 1e-12


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_rational_limit_slope(family):
    # shrinking every argument by eps must approach the rational products
    # at second order: sin x = x (1 - x^2/6 + ...)
    spec = GaugeTheorySpec(family, 2, 2, (0.21, 0.34), 0.19)
    sig = (0.41, 0.87)
    eps = (0.1, 0.05, 0.025, 0.0125)
    gaps = []
    for e in eps:
        spece = GaugeTheorySpec(family, 2, 2, (0.21 * e, 0.34 * e), 0.19 * e)
        sige = tuple(e * s for s in sig)
        gaps.append(
            max(abs(vacuum_lhs(spece, sige, j) - vacuum_lhs_2d(spec, sig, j)) for j in range(2))
        )
    slope = np.polyfit(np.log(eps), np.log(gaps), 1)[0]
    assert abs(slope - 2.0) < 0.2


@pytest.mark.parametrize("family", ["A", "B"])
def test_rational_limit_scale_invariant(family):
    spec = GaugeTheorySpec(family, 2, 2, (0.21, 0.34), 0.19)
    half = GaugeTheorySpec(family, 2, 2, (0.105, 0.17), 0.095)
    sig = (0.41, 0.87)
    for j in range(2):
        a = vacuum_lhs_2d(spec, sig, j)
        b = vacuum_lhs_2d(half, (0.205, 0.435), j)
        assert abs(a - b) < 1e-12


def test_singular_points_are_rejected():
    spec = SPECS["A"]
    with pytest.raises(SingularPointError):
        vacuum_lhs(spec, (0.21, 0.82), 0)  # sigma_0 hits the first mass
    with pytest.raises(SingularPointError):
        vacuum_lhs_2d(spec, (0.21, 0.82), 0)
    spec_b = SPECS["B"]
    with pytest.raises(SingularPointError):
        vacuum_lhs(spec_b, (0.19, 0.87), 0)  # sigma_0 hits the adjoint mass


def test_rational_limit_rejects_exceptional_families():
    with pytest.raises(ValueError):
        vacuum_lhs_2d(SPECS["F4"], SIGMAS["F4"], 0)
    with pytest.raises(ValueError):
        vacuum_lhs_2d(SPECS["E8"], SIGMAS["E8"], 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(family="G", rank=2, n_fund=0, masses=(), m_adj=0.1),
        dict(family="E8", rank=7, n_fund=0, masses=(), m_adj=0.1),
        dict(family="F4", rank=3, n_fund=0, masses=(), m_adj=0.1),
        dict(family="A", rank=0, n_fund=0, masses=(), m_adj=0.1),
        dict(family="B", rank=2, n_fund=2, masses=(0.1,), m_adj=0.1),
        dict(family="B", rank=2, n_fund=1, masses=(0.1,), m_adj=0.1, realization="III"),
        dict(family="E8", rank=8, n_fund=1, masses=(0.1,), m_adj=0.1, realization="I"),
        dict(family="F4", rank=4, n_fund=1, masses=(0.1,), m_adj=0.1, realization="I"),
        dict(family="B", rank=2, n_fund=1, masses=(0.1,), m_adj=0.1, masses_anti=(0.2,)),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        GaugeTheorySpec(**kwargs)


def test_anti_fundamental_defaults():
    # A and realization I mirror the fundamental list; II elsewhere has none
    assert GaugeTheorySpec("A", 2, 2, (0.1, 0.2), 0.1).masses_anti == (0.1, 0.2)
    assert GaugeTheorySpec("B", 2, 2, (0.1, 0.2), 0.1, realization="I").masses_anti == (0.1, 0.2)
    assert GaugeTheorySpec("B", 2, 2, (0.1, 0.2), 0.1).masses_anti is None


def test_equation_count_and_index_bounds():
    assert SPECS["A"].dim == 2
    assert SPECS["E8"].dim == 8
    with pytest.raises(ValueError):
        vacuum_lhs(SPECS["A"], SIGMAS["A"], 2)
    with pytest.raises(ValueError):
        vacuum_lhs_squared(SPECS["A"], SIGMAS["A"], -1)
    with pytest.raises(ValueError):
        superpotential_grad(SPECS["A"], (0.37,))


def test_a_family_forms_refuse_unpaired_masses():
    # every form pairs each fundamental with one anti-fundamental mass
    spec = GaugeTheorySpec("A", 2, 2, (0.1, 0.2), 0.3, masses_anti=(0.15,))
    for lhs in (vacuum_lhs, vacuum_lhs_squared, vacuum_lhs_2d):
        with pytest.raises(ValueError, match="N_f = N_f'"):
            lhs(spec, (0.4, 0.9), 0)


@pytest.mark.parametrize("regime", ["3d", "2d"])
@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_regime_values_are_the_per_equation_products(family, regime):
    scale = REGIME_SCALE[regime]
    lhs = {"3d": vacuum_lhs, "2d": vacuum_lhs_2d}[regime]
    rng = np.random.default_rng(["ABCD".index(family), regime == "2d"])
    for rank in (1, 2, 3):
        spec = GaugeTheorySpec(family, rank, 2, tuple(scale * rng.uniform(0.07, 0.43, size=2)),
                               scale * rng.uniform(0.09, 0.34))
        sigma = scale * rng.uniform(0.05, 0.95, size=rank)
        assert _vacuum_lhs_values(spec, sigma, regime) == [
            lhs(spec, sigma, j) for j in range(rank)]
        if rank > 1:  # sigma_0 - sigma_1 = m_adj zeroes an adjoint factor of equation 0
            sigma[0] = sigma[1] + spec.m_adj
            with pytest.raises(SingularPointError):
                lhs(spec, sigma, 0)
            with pytest.raises(SingularPointError):
                _vacuum_lhs_values(spec, sigma, regime)


# ---------------------------------------------------------------------------
# the term table against the closed per-kind formulas
# ---------------------------------------------------------------------------


def _reference_superpotential(spec, sigma):
    """W and its gradient, summed one term at a time, kind by kind.

    Realization II: -Li2(e^{ict}) + (ct)^2/4 per root (t = alpha.sigma), the
    adjoint Li2(e^{-ix}) - x^2/4 with x = c (t + m_adj), and Li2(e^{-2iy}) - y^2
    per matter weight (y = s sigma_j + m).  Realization I: c/2 [-Li2(e^{2it})
    + t^2], c/2 [Li2(e^{-2iy}) - y^2] with y = t + m_adj, and 1/2 [Li2(e^{-2iy})
    - y^2] per matter weight, anti-fundamentals on the opposite signs.
    """
    sig = np.asarray(sigma, dtype=complex)
    total, grad = 0j, np.zeros(len(sig), dtype=complex)
    half = spec.realization == "I"
    for alpha in lie_roots.generate_roots(*lie_roots.root_family(spec.family, spec.rank)):
        c = float(lie_roots.weight_factor(alpha))
        al = np.array([float(a) for a in alpha])
        t = al @ sig
        if half:
            y = t + spec.m_adj
            total += 0.5 * c * (-dilog(cmath.exp(2j * t)) + t * t + dilog(cmath.exp(-2j * y)) - y * y)
            grad += c * al * (1j * cmath.log(1 - cmath.exp(2j * t)) + t
                              + 1j * cmath.log(1 - cmath.exp(-2j * y)) - y)
        else:
            x = c * (t + spec.m_adj)
            total += -dilog(cmath.exp(1j * c * t)) + (c * t) ** 2 / 4 + dilog(cmath.exp(-1j * x)) - x * x / 4
            grad += c * al * (1j * cmath.log(1 - cmath.exp(1j * c * t)) + c * t / 2
                              + 1j * cmath.log(1 - cmath.exp(-1j * x)) - x / 2)
    axes = (1,) if spec.family == "A" else (1, -1)
    weights = [(s, m) for s in axes for m in spec.masses]
    weights += [(-s, m) for s in axes for m in spec.masses_anti or ()]
    h = 0.5 if half else 1.0
    for s, m in weights:
        for j in range(len(sig)):
            y = s * sig[j] + m
            total += h * (dilog(cmath.exp(-2j * y)) - y * y)
            grad[j] += h * s * (2j * cmath.log(1 - cmath.exp(-2j * y)) - 2 * y)
    return total, grad


def _realization_i(spec, **kw):
    return GaugeTheorySpec(spec.family, spec.rank, spec.n_fund, spec.masses, spec.m_adj,
                           realization="I", **kw)


_TABLE_CASES = [(SPECS[f], SIGMAS[f]) for f in SPECS] + [
    (_realization_i(SPECS[f]), SIGMAS[f]) for f in "ABCD"] + [
    (GaugeTheorySpec("A", 2, 3, (0.21, 0.34, 0.18), 0.23, masses_anti=(0.25, 0.31)), SIGMAS["A"]),
    (_realization_i(SPECS["B"], masses_anti=(0.29, 0.12, 0.4)), SIGMAS["B"]),
    (GaugeTheorySpec("C", 3, 2, (0.26, 0.41), 0.17), (0.39 + 0.1j, 0.71, 1.13 - 0.2j)),
]


@pytest.mark.parametrize("spec, sigma", _TABLE_CASES,
                         ids=["%s-%s-%d" % (s.family, s.realization, k)
                              for k, (s, _) in enumerate(_TABLE_CASES)])
def test_term_table_matches_the_per_kind_formulas(spec, sigma):
    w_ref, grad_ref = _reference_superpotential(spec, sigma)
    assert abs(superpotential_value(spec, sigma) - w_ref) <= 1e-12 * abs(w_ref)
    gap = np.abs(superpotential_grad(spec, sigma) - grad_ref)
    assert np.all(gap <= 1e-12 * np.abs(grad_ref).max())


def test_gradient_pole_raises_without_numpy_warnings():
    # sigma_0 = -m_1 puts the first fundamental term on e^{-iz} = 1 exactly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            superpotential_grad(SPECS["A"], (-0.21, 0.82))
        with pytest.raises(ValueError):  # sigma_0 = sigma_1: the gauge terms' pole
            superpotential_grad(SPECS["B"], (0.41, 0.41))


def _signed_permutation(sigma, image):
    """(pi, s) with image_i = s_i sigma_pi(i), for sigma of distinct positive entries."""
    perm = [int(np.argmin(np.abs(np.abs(x) - np.asarray(sigma)))) for x in image]
    return perm, np.sign(image)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from("ABCD"), realization=st.sampled_from(["I", "II"]),
       rank=st.integers(1, 3), nf=st.integers(1, 2), data=st.data())
def test_superpotential_is_weyl_invariant(family, realization, rank, nf, data):
    unit = st.floats(0.05, 1.0)
    spec = GaugeTheorySpec(family, rank, nf, tuple(data.draw(unit) for _ in range(nf)),
                           data.draw(unit), realization=realization)
    sigma = [data.draw(st.floats(0.1, 3.0)) for _ in range(rank)]
    assume(all(abs(a - b) > 1e-3 for k, a in enumerate(sigma) for b in sigma[:k]))
    try:
        w, grad = superpotential_value(spec, sigma), superpotential_grad(spec, sigma)
    except SingularPointError:  # drawn onto a pole, e.g. sigma_j = m
        assume(False)
    for image in lie_roots.weyl_images(family, rank, sigma).images:
        perm, signs = _signed_permutation(sigma, image)
        assert abs(superpotential_value(spec, image) - w) <= 1e-10 * max(1.0, abs(w))
        gap = np.abs(superpotential_grad(spec, image) - signs * grad[perm])
        assert np.all(gap <= 1e-10 * max(1.0, np.abs(grad).max()))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from("ABCD"), regime=st.sampled_from(["3d", "2d"]),
       rank=st.integers(1, 4), nf=st.integers(1, 2), data=st.data())
def test_vacuum_equations_are_weyl_covariant(family, regime, rank, nf, data):
    # equation j at a Weyl image with sigma'_j = s sigma_p is equation p at sigma,
    # inverted for s < 0
    unit = st.floats(0.05, 1.0)
    spec = GaugeTheorySpec(family, rank, nf, tuple(data.draw(unit) for _ in range(nf)),
                           data.draw(unit))
    sigma = [data.draw(st.floats(0.1, 3.0)) for _ in range(rank)]
    assume(all(abs(a - b) > 1e-3 for k, a in enumerate(sigma) for b in sigma[:k]))
    try:
        at_sigma = np.array(_vacuum_lhs_values(spec, sigma, regime))
    except SingularPointError:
        assume(False)
    for image in lie_roots.weyl_images(family, rank, sigma).images:
        perm, signs = _signed_permutation(sigma, image)
        assert np.array_equal(np.abs(image), np.asarray(sigma)[perm])
        try:
            at_image = np.array(_vacuum_lhs_values(spec, image, regime))
        except SingularPointError:
            continue
        want = at_sigma[perm] ** signs
        assert np.all(np.abs(at_image - want) <= 1e-10 * np.abs(want))
