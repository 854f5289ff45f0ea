"""Bethe equations, transfer-matrix oracle and eigenvector certification."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bethegauge import chain as chain_module
from bethegauge.chain import (
    KINDS,
    PROBE_U,
    BetheRoots,
    ChainSpec,
    bethe_lhs,
    bethe_residuals,
    bethe_vector,
    certify_roots,
    commutator_residual,
    double_row_monodromy,
    k_matrix,
    monodromy,
    open_transfer_expansion,
    r_matrix,
    reflection_residual,
    rtt_residual,
    transfer_matrix,
    validate_roots,
    yang_baxter_residual,
    _apply_monodromy,
    _apply_transfer,
)
from bethegauge.solve import SolveConfig, solve_bethe
from bethegauge.specfun import BracketContext, SingularPointError, bracket

CLOSED_XXZ = ChainSpec("closed-xxz", 3, 1, 0.317, (0.5,) * 3, (0.03, -0.07, 0.11))
OPEN_XXZ = ChainSpec(
    "open-xxz", 2, 1, 0.289, (0.5,) * 2, (0.04, -0.06), xi_plus=0.23, xi_minus=-0.41
)
OPEN_XXX = ChainSpec(
    "open-xxx", 2, 1, 0.37, (0.5,) * 2, (0.05, -0.08), xi_plus=0.31, xi_minus=-0.22
)
#: the U_q(sl_2)-invariant boundary, the exact limit xi = (+i inf, -i inf)
LIMIT = (complex(0, math.inf), complex(0, -math.inf))


def _limit_chain(sites, magnons, xi=LIMIT):
    """An open XXZ chain at one eta, with alternating inhomogeneities."""
    thetas = tuple(0.03 * (-1) ** a * (a + 1) for a in range(sites))
    return ChainSpec("open-xxz", sites, magnons, 0.27, (0.5,) * sites, thetas, *xi)


# regression roots, found by the solver and certified against the dense oracle
CLOSED_XXZ_ROOTS = (
    0.3646017624694252,
    0.8649491187652875 + 0.08432783059645961j,
    0.8649491187652875 - 0.08432783059645961j,
)
OPEN_XXZ_ROOT = 0.5 - 0.3229164223161368j


# ---------------------------------------------------------------------------
# algebraic identities of the R- and K-matrices
# ---------------------------------------------------------------------------


def test_yang_baxter_identity():
    ctx = BracketContext(0.317)
    assert yang_baxter_residual(0.23 + 0.11j, -0.41 + 0.07j, ctx) < 1e-12
    assert yang_baxter_residual(0.52, 0.18, ctx) < 1e-12


def test_reflection_identity():
    ctx = BracketContext(0.317)
    assert reflection_residual(0.23 + 0.11j, -0.41 + 0.07j, 0.19, ctx) < 1e-12
    assert reflection_residual(0.37, -0.22, -0.41, ctx) < 1e-12


def test_r_matrix_structure():
    ctx = BracketContext(0.25)
    r = r_matrix(0.0, ctx)
    # at u = 0 the R-matrix is [eta] times the permutation operator
    perm = np.eye(4)[[0, 2, 1, 3]]
    assert np.max(np.abs(r - perm)) < 1e-12
    k = k_matrix(0.31, 0.12, ctx)
    assert k[0, 1] == 0 and k[1, 0] == 0


@pytest.mark.parametrize(
    "chain",
    [
        CLOSED_XXZ,
        ChainSpec("closed-xxx", 3, 1, 0.317, (0.5,) * 3, (0.03, -0.07, 0.11)),
    ],
)
def test_rtt_relation(chain):
    assert rtt_residual(chain, 0.23 + 0.11j, -0.41 + 0.07j) < 1e-12


@pytest.mark.parametrize("chain", [CLOSED_XXZ, OPEN_XXZ, OPEN_XXX, _limit_chain(4, 1)])
def test_transfer_matrices_commute(chain):
    assert commutator_residual(chain, 0.23 + 0.11j, -0.41 + 0.07j) < 1e-10


@pytest.mark.parametrize("chain", [OPEN_XXZ, OPEN_XXX, _limit_chain(3, 1)])
def test_open_transfer_two_evaluation_paths_agree(chain):
    # the traced K_+(u + eta/2) and the A/D-tilde expansion must coincide
    for u in (0.1731, 0.29 + 0.13j, -0.37 + 0.05j):
        a = transfer_matrix(chain, u)
        b = open_transfer_expansion(chain, u)
        assert np.max(np.abs(a - b)) < 1e-12


def test_open_expansion_rejects_closed_and_singular():
    with pytest.raises(ValueError):
        open_transfer_expansion(CLOSED_XXZ, 0.3)
    with pytest.raises(SingularPointError):
        open_transfer_expansion(OPEN_XXZ, 0.0)  # [2u] = 0
    with pytest.raises(ValueError):
        double_row_monodromy(CLOSED_XXZ, 0.3)


# ---------------------------------------------------------------------------
# Bethe equations and roots
# ---------------------------------------------------------------------------


def test_closed_xxx_exact_root():
    # L = 2, M = 1, homogeneous: the site product ((u + eta)/u)^2 equals one
    # exactly at u = -eta/2
    chain = ChainSpec("closed-xxx", 2, 1, 0.37, (0.5,) * 2, (0.0, 0.0))
    roots = BetheRoots((-0.185,))
    assert bethe_lhs(chain, roots, 0) == 1.0 + 0j
    cert = certify_roots(chain, roots)
    assert cert.residual < 1e-12


def test_closed_xxz_regression_roots():
    for u in CLOSED_XXZ_ROOTS:
        assert bethe_residuals(CLOSED_XXZ, BetheRoots((u,))).max() < 1e-10


def test_closed_xxz_certificate():
    cert = certify_roots(CLOSED_XXZ, BetheRoots((CLOSED_XXZ_ROOTS[0],)))
    assert cert.residual < 1e-10
    assert not cert.degenerate


@pytest.mark.parametrize("chain, root", [(CLOSED_XXZ, u) for u in CLOSED_XXZ_ROOTS]
                         + [(OPEN_XXZ, OPEN_XXZ_ROOT)])
@pytest.mark.parametrize("half", (0.5, -0.5))
def test_roots_shifted_by_half_eta_fail_certification(chain, root, half):
    # the roots enter B(u) unshifted: moving them by +-eta/2 must break the
    # eigenvector, so the convention is pinned by the frozen roots themselves
    assert certify_roots(chain, BetheRoots((root,))).residual < 1e-10
    assert certify_roots(chain, BetheRoots((root + half * chain.eta,))).residual > 1e-3


def test_open_xxz_regression_root_and_certificate():
    roots = BetheRoots((OPEN_XXZ_ROOT,))
    assert bethe_residuals(OPEN_XXZ, roots).max() < 1e-10
    cert = certify_roots(OPEN_XXZ, roots)
    assert cert.residual < 1e-10


def test_open_bethe_lhs_reflection_symmetry():
    # u -> -u maps the open equations into themselves
    a = bethe_lhs(OPEN_XXZ, BetheRoots((OPEN_XXZ_ROOT,)), 0)
    b = bethe_lhs(OPEN_XXZ, BetheRoots((-OPEN_XXZ_ROOT,)), 0)
    assert abs(a - b) < 1e-10


def test_non_root_fails():
    assert bethe_residuals(CLOSED_XXZ, BetheRoots((0.2,))).max() > 1e-2
    cert = certify_roots(CLOSED_XXZ, BetheRoots((0.2,)))
    assert cert.residual > 1e-3


def test_degeneration_to_rational_is_second_order():
    # scale eta, theta and the root by eps: the trig equations approach the
    # rational ones at rate eps^2
    base_eta, base_u, base_th = 0.37, 0.155, (0.05, -0.08)
    xxx = ChainSpec("closed-xxx", 2, 1, base_eta, (0.5,) * 2, base_th)
    target = bethe_lhs(xxx, BetheRoots((base_u,)), 0)
    eps = (0.1, 0.05, 0.025, 0.0125)
    gaps = []
    for e in eps:
        zch = ChainSpec(
            "closed-xxz", 2, 1, base_eta * e, (0.5,) * 2, tuple(t * e for t in base_th)
        )
        gaps.append(abs(bethe_lhs(zch, BetheRoots((base_u * e,)), 0) - target))
    slope = np.polyfit(np.log(eps), np.log(gaps), 1)[0]
    assert abs(slope - 2.0) < 0.2


# ---------------------------------------------------------------------------
# validation and guards
# ---------------------------------------------------------------------------


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec("twisted", 2, 1, 0.3, (0.5, 0.5), (0.0, 0.0))
    with pytest.raises(ValueError):
        ChainSpec("closed-xxz", 0, 1, 0.3, (), ())
    with pytest.raises(ValueError):
        ChainSpec("closed-xxz", 2, -1, 0.3, (0.5, 0.5), (0.0, 0.0))
    with pytest.raises(ValueError):
        ChainSpec("closed-xxz", 2, 1, 0.3, (0.5,), (0.0, 0.0))
    with pytest.raises(ValueError):
        ChainSpec("open-xxz", 2, 1, 0.3, (0.5, 0.5), (0.0, 0.0))  # no xi
    with pytest.raises(ValueError):
        ChainSpec("closed-xxz", 2, 1, 0.3, (0.5, 0.5), (0.0, 0.0), xi_plus=0.1)
    with pytest.raises(ValueError):
        # integer eta makes every trig bracket ratio ill-defined
        ChainSpec("closed-xxz", 2, 1, 1.0, (0.5, 0.5), (0.0, 0.0))
    # rational kinds accept integer eta
    ChainSpec("closed-xxx", 2, 1, 1.0, (0.5, 0.5), (0.0, 0.0))


def test_coincident_and_reflected_roots_rejected():
    with pytest.raises(ValueError):
        BetheRoots((0.3, 0.3))
    chain = ChainSpec(
        "open-xxz", 2, 2, 0.289, (0.5,) * 2, (0.04, -0.06), xi_plus=0.23, xi_minus=-0.41
    )
    with pytest.raises(ValueError):
        validate_roots(chain, BetheRoots((0.3, -0.3)))
    with pytest.raises(ValueError):
        validate_roots(chain, BetheRoots((0.3,)))  # wrong number


def test_singular_site_factor():
    # u + eta/2 - eta s - th = 0 makes a closed site denominator vanish
    chain = ChainSpec("closed-xxx", 2, 1, 0.4, (0.5,) * 2, (0.0, 0.0))
    with pytest.raises(SingularPointError):
        bethe_lhs(chain, BetheRoots((0.0,)), 0)


def test_oracle_guards():
    big = ChainSpec("closed-xxx", 9, 1, 0.3, (0.5,) * 9, (0.0,) * 9)
    with pytest.raises(ValueError):
        monodromy(big, 0.1)
    higher = ChainSpec("closed-xxx", 2, 1, 0.3, (1.0, 1.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        transfer_matrix(higher, 0.1)


def test_root_index_bounds():
    with pytest.raises(ValueError):
        bethe_lhs(CLOSED_XXZ, BetheRoots((0.3646017624694252,)), 1)


# ---------------------------------------------------------------------------
# the grown monodromies against the lifted-product construction
# ---------------------------------------------------------------------------


def _op_mul(x, y):
    return [[x[i][0] @ y[0][j] + x[i][1] @ y[1][j] for j in range(2)] for i in range(2)]


def _weight(chain):
    ctx = BracketContext(chain.eta)
    return (lambda x: bracket(x, ctx)) if chain.is_trig else complex


def _r4(w, x, eta, c_scale=1.0):
    """The six-vertex R(x) of weight w as <i k|R|j l>: auxiliary i, j, site k, l."""
    a, b, c = w(x + eta), w(x), c_scale * w(eta)
    return np.array([[a, 0, 0, 0], [0, b, c, 0], [0, c, b, 0], [0, 0, 0, a]],
                    dtype=complex).reshape(2, 2, 2, 2)


def _lifted_monodromy(chain, u, bad_site=None):
    """R_0L(u - th_L) ... R_01(u - th_1), each site's R-matrix lifted to
    2^L x 2^L by kron and the lifts multiplied in order.  At ``bad_site`` the
    c weight is doubled, a defect that no change of basis on the site undoes
    (flipping its sign is conjugation by sigma^z on the site)."""
    w = _weight(chain)
    L, eta = chain.n_sites, chain.eta
    eye, zero = np.eye(2**L, dtype=complex), np.zeros((2**L, 2**L), dtype=complex)
    acc = [[eye, zero], [zero, eye]]
    for a in reversed(range(L)):
        r = _r4(w, u - chain.inhomogeneities[a], eta, 2.0 if a == bad_site else 1.0)
        site = [[np.kron(np.eye(2**a), np.kron(r[i, :, j, :], np.eye(2 ** (L - 1 - a))))
                 for j in range(2)] for i in range(2)]
        acc = _op_mul(acc, site)
    return acc


def _lifted_double_row(chain, u):
    """T(u) K_-(u - eta/2) sigma_y T^t(-u) sigma_y from two lifted monodromies."""
    w = _weight(chain)
    t_pos, t_neg = _lifted_monodromy(chain, u), _lifted_monodromy(chain, -u)
    k = (w(u - chain.eta / 2 + chain.xi_minus), -w(u - chain.eta / 2 - chain.xi_minus))
    tk = [[t_pos[i][j] * k[j] for j in range(2)] for i in range(2)]
    t_hat = [[t_neg[1][1], -t_neg[0][1]], [-t_neg[1][0], t_neg[0][0]]]
    return _op_mul(tk, t_hat)


def _relative_gap(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sites", range(1, 7))
def test_grown_monodromies_match_lifted_products(kind, sites):
    rng = np.random.default_rng([KINDS.index(kind), sites])
    m = min(2, sites)  # B^2 = 0 on one site
    xi = rng.uniform(-0.4, 0.4, size=2) + 0.1j if kind.startswith("open") else (None, None)
    chain = ChainSpec(kind, sites, m, rng.uniform(0.1, 0.4), (0.5,) * sites,
                      tuple(rng.uniform(-0.2, 0.2, size=sites)),
                      xi_plus=xi[0], xi_minus=xi[1])
    u = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
    assert _relative_gap(monodromy(chain, u), _lifted_monodromy(chain, u)) <= 1e-12
    lifted = _lifted_monodromy
    if chain.is_open:
        assert _relative_gap(double_row_monodromy(chain, u), _lifted_double_row(chain, u)) <= 1e-12
        lifted = _lifted_double_row
    roots = BetheRoots(rng.uniform(0.1, 0.9, size=m) + 1j * rng.uniform(-0.3, 0.3, size=m))
    ref = np.eye(2**sites, dtype=complex)[0]
    for ui in roots.values:
        ref = lifted(chain, ui + 0.5 * chain.eta)[0][1] @ ref
    shifted = BetheRoots(tuple(ui + 0.5 * chain.eta for ui in roots.values))
    assert _relative_gap(bethe_vector(chain, shifted), ref) <= 1e-12


def _drawn_chain(rng, kind, sites, magnons):
    xi = rng.uniform(-0.4, 0.4, size=2) + 0.1j if kind.startswith("open") else (None, None)
    return ChainSpec(kind, sites, magnons, rng.uniform(0.1, 0.4), (0.5,) * sites,
                     tuple(rng.uniform(-0.2, 0.2, size=sites)), xi_plus=xi[0], xi_minus=xi[1])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sites", [7, 8])
def test_grown_monodromies_match_lifted_products_at_the_timed_lengths(kind, sites):
    # the lengths the oracle benchmark times, one trig and one rational kind of each shape
    rng = np.random.default_rng([KINDS.index(kind), sites, 1])
    chain = _drawn_chain(rng, kind, sites, 1)
    u = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.3))
    assert _relative_gap(monodromy(chain, u), _lifted_monodromy(chain, u)) <= 1e-12
    if chain.is_open:
        assert _relative_gap(double_row_monodromy(chain, u), _lifted_double_row(chain, u)) <= 1e-12


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sites", range(1, 9))
def test_traced_last_site_equals_the_full_trace(kind, sites):
    # transfer_matrix writes only the diagonal auxiliary blocks of its last
    # site; with every product's operand order kept it equals the full trace exactly
    rng = np.random.default_rng([KINDS.index(kind), sites, 3])
    chain = _drawn_chain(rng, kind, sites, 1)
    u = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
    if chain.is_open:
        w, x = _weight(chain), u + chain.eta / 2
        kp = np.array([w(x + chain.xi_plus), -w(x - chain.xi_plus)])
        um = double_row_monodromy(chain, u)
        full = kp[0] * um[0][0] + kp[1] * um[1][1]
    else:
        t = monodromy(chain, u)
        full = t[0][0] + t[1][1]
    assert np.array_equal(transfer_matrix(chain, u), full)


def _kron_rtt_residual(chain, t_of, u, v):
    """The RTT defect of ``t_of`` with dense 4 * 2^L matrices: R12(u - v) (x) 1
    and T(u), T(v) embedded in the first and second auxiliary space by kron."""
    n, w = 2**chain.n_sites, _weight(chain)
    unit = np.eye(2)

    def embed(t, first):
        return sum(np.kron(np.kron(unit[:, [i]] @ unit[[j]], unit) if first else
                           np.kron(unit, unit[:, [i]] @ unit[[j]]), t[i][j])
                   for i in range(2) for j in range(2))

    t1u, t2v = embed(t_of(chain, u), True), embed(t_of(chain, v), False)
    r12 = np.kron(_r4(w, u - v, chain.eta).reshape(4, 4), np.eye(n))
    return float(np.max(np.abs(r12 @ t1u @ t2v - t2v @ t1u @ r12)))


@pytest.mark.parametrize("kind", ["closed-xxz", "closed-xxx"])
@pytest.mark.parametrize("sites", [1, 3, 5])
def test_blockwise_rtt_matches_the_kron_form(kind, sites, monkeypatch):
    rng = np.random.default_rng([KINDS.index(kind), sites, 2])
    chain = _drawn_chain(rng, kind, sites, 1)
    u, v = 0.23 + 0.11j, -0.41 + 0.07j
    # the size of the products compared: rational weights make it small at L = 5
    scale = (np.max(np.abs(monodromy(chain, u))) * np.max(np.abs(monodromy(chain, v)))
             * abs(_weight(chain)(u - v + chain.eta)))
    blockwise, kron = rtt_residual(chain, u, v), _kron_rtt_residual(chain, monodromy, u, v)
    assert blockwise < 1e-12 * scale and kron < 1e-12 * scale

    def broken(chain, x):
        return np.array(_lifted_monodromy(chain, x, bad_site=sites // 2))

    monkeypatch.setattr(chain_module, "monodromy", broken)
    blockwise, kron = rtt_residual(chain, u, v), _kron_rtt_residual(chain, broken, u, v)
    assert blockwise > 1e-2 * scale and kron > 1e-2 * scale
    assert blockwise == pytest.approx(kron, rel=1e-10)


# ---------------------------------------------------------------------------
# the matrix-free rows against the dense oracle
# ---------------------------------------------------------------------------


@settings(max_examples=48, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), sites=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       u_re=st.floats(-0.9, 0.9), u_im=st.floats(-0.3, 0.3))
def test_matrix_free_rows_match_the_dense_oracle(kind, sites, seed, u_re, u_im):
    rng = np.random.default_rng(seed)
    chain = _drawn_chain(rng, kind, sites, 1)
    u = complex(u_re, u_im)
    v = rng.normal(size=2**sites) + 1j * rng.normal(size=2**sites)
    dense = double_row_monodromy(chain, u) if chain.is_open else monodromy(chain, u)
    states = np.zeros((1, 2, v.size), dtype=complex)
    states[0, 1] = v  # e_1 (x) v: auxiliary entry 0 of the result is B(u) v
    assert _relative_gap(_apply_monodromy(chain, u, states)[0, 0], dense[0][1] @ v) <= 1e-12
    assert _relative_gap(_apply_transfer(chain, u, v), transfer_matrix(chain, u) @ v) <= 1e-12


def _dense_certificate(chain, roots):
    """certify_roots through the dense oracle: each B(u) the (0, 1) block of a
    grown monodromy and t(PROBE_U) a dense matrix.  Returns (residual,
    eigenvalue)."""
    vec = np.eye(2**chain.n_sites, dtype=complex)[0]
    grown = double_row_monodromy if chain.is_open else monodromy
    for ui in roots.values:
        vec = grown(chain, ui)[0][1] @ vec
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        return float("inf"), 0j
    tv = transfer_matrix(chain, PROBE_U) @ vec
    lam = complex(np.vdot(vec, tv) / np.vdot(vec, vec))
    return float(np.linalg.norm(tv - lam * vec) / (norm * (1.0 + abs(lam)))), lam


def _assert_same_certificate(chain, roots):
    res, lam = _dense_certificate(chain, roots)
    cert = certify_roots(chain, roots)
    assert (cert.residual < 1e-8) == (res < 1e-8)
    assert abs(cert.eigenvalue - lam) <= 1e-10 * abs(lam)


@pytest.mark.parametrize("chain, roots", [
    (CLOSED_XXZ, (CLOSED_XXZ_ROOTS[0],)),
    (CLOSED_XXZ, (CLOSED_XXZ_ROOTS[1],)),
    (CLOSED_XXZ, (CLOSED_XXZ_ROOTS[2],)),
    (CLOSED_XXZ, (0.2,)),  # not a root: fails on both paths
    (OPEN_XXZ, (OPEN_XXZ_ROOT,)),
    (ChainSpec("closed-xxx", 2, 1, 0.37, (0.5,) * 2, (0.0, 0.0)), (-0.185,)),
])
def test_frozen_certificates_match_the_dense_path(chain, roots):
    _assert_same_certificate(chain, BetheRoots(roots))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sites", range(5, 9))
def test_solver_certificates_match_the_dense_path(kind, sites):
    rng = np.random.default_rng([KINDS.index(kind), sites, 10])
    magnons = 2 if kind.endswith("xxz") and sites <= 6 else 1
    chain = _drawn_chain(rng, kind, sites, magnons)
    found = solve_bethe(chain, SolveConfig(n_starts=64, seed=sites))
    assert len(found) >= 1
    for roots in found:
        _assert_same_certificate(chain, roots)


@pytest.mark.parametrize("kind, sites", [("closed-xxz", 12), ("open-xxz", 10)])
def test_matrix_free_certificates_beyond_the_dense_cap(kind, sites):
    chain = _drawn_chain(np.random.default_rng(sites), kind, sites, 1)
    with pytest.raises(ValueError):
        transfer_matrix(chain, 0.1)  # the dense oracle stays at L <= 8
    found = solve_bethe(chain, SolveConfig(n_starts=8, seed=0))
    assert len(found) >= 1
    for roots in found:
        assert certify_roots(chain, roots).residual < 1e-8
    too_long = ChainSpec("closed-xxx", 15, 1, 0.3, (0.5,) * 15, (0.0,) * 15)
    with pytest.raises(ValueError):
        bethe_vector(too_long, BetheRoots((0.1,)))


def test_commutator_rejects_a_transfer_matrix_that_mixes_sectors(monkeypatch):
    dense = transfer_matrix(CLOSED_XXZ, 0.3)
    assert commutator_residual(CLOSED_XXZ, 0.3, 0.3) == 0.0
    mixed = dense.copy()
    mixed[0, 1] = 1e-3  # the all-up state reaches a one-magnon state
    monkeypatch.setattr(chain_module, "transfer_matrix", lambda chain, u: mixed)
    with pytest.raises(ValueError):
        commutator_residual(CLOSED_XXZ, 0.3, 0.6)


# ---------------------------------------------------------------------------
# the boundary at its limit xi = (+i inf, -i inf)
# ---------------------------------------------------------------------------


def test_a_non_finite_boundary_is_only_the_xxz_limit_pair():
    for xi in (LIMIT, LIMIT[::-1], (complex("infj"), complex("-infj"))):
        _limit_chain(2, 1, xi)
    refused = [(LIMIT[0], 0.2), (0.2, LIMIT[1]), (complex("nan"), 0.2), (LIMIT[0], LIMIT[0]),
               (complex(1, math.inf), LIMIT[1]), (complex(math.inf, 0), complex(-math.inf, 0))]
    for xi in refused:
        with pytest.raises(ValueError, match="non-finite boundary"):
            _limit_chain(2, 1, xi)
    with pytest.raises(ValueError, match="non-finite boundary"):
        ChainSpec("open-xxx", 2, 1, 0.27, (0.5,) * 2, (0.0, 0.0), *LIMIT)


#: the limit's Bethe states are its U_q(sl_2) highest-weight vectors, which
#: need M <= L/2; past that, the root sets the solver finds give vanishing
#: or uncertified states
LIMIT_SHAPES = [(sites, m) for sites in range(3, 7) for m in range(1, 4) if 2 * m <= sites]


@pytest.mark.parametrize("sites, magnons", LIMIT_SHAPES)
def test_limit_root_sets_certify_and_fail_at_a_finite_boundary(sites, magnons):
    chain, finite = _limit_chain(sites, magnons), _limit_chain(sites, magnons, (0.3, -0.2))
    found = solve_bethe(chain, SolveConfig(n_starts=48, seed=sites + magnons))
    assert len(found) >= 1
    for roots in found:
        assert certify_roots(chain, roots).residual <= 1e-8
        _assert_same_certificate(chain, roots)
        assert certify_roots(finite, roots).residual > 1e-4


def _scalar_gap(t, ref):
    """The relative gap of ref to its nearest multiple c t."""
    return _relative_gap(np.vdot(t, ref) / np.vdot(t, t) * t, ref)


@pytest.mark.parametrize("sites", [3, 5])
def test_limit_transfer_matrix_is_the_far_boundary_one_up_to_a_scalar(sites):
    # at xi = +-20i each boundary weight is its limit times a scalar, to a
    # relative e^(-40 pi); this pins the sign of the limit, which the Bethe
    # equations leave open: the reversed pair solves them too
    u = 0.31 + 0.05j
    far = transfer_matrix(_limit_chain(sites, 1, (20j, -20j)), u)
    assert _scalar_gap(transfer_matrix(_limit_chain(sites, 1), u), far) <= 1e-14
    assert _scalar_gap(transfer_matrix(_limit_chain(sites, 1, LIMIT[::-1]), u), far) > 0.1


# ---------------------------------------------------------------------------
# symmetries of the Bethe equations
# ---------------------------------------------------------------------------


def _drawn_chain_and_roots(data, kinds):
    kind = data.draw(st.sampled_from(kinds))
    sites, magnons = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    unit = st.floats(-0.4, 0.4)
    xi = (data.draw(unit), data.draw(unit)) if kind.startswith("open") else (None, None)
    chain = ChainSpec(kind, sites, magnons, data.draw(st.floats(0.1, 0.4)),
                      tuple(data.draw(st.sampled_from([0.5, 1.0, 1.5])) for _ in range(sites)),
                      tuple(data.draw(unit) for _ in range(sites)),
                      xi_plus=xi[0], xi_minus=xi[1])
    roots = [complex(data.draw(st.floats(-0.9, 0.9)), data.draw(st.floats(-0.3, 0.3)))
             for _ in range(magnons)]
    return chain, roots, data.draw(st.integers(0, magnons - 1))


def _all_lhs(chain, roots):
    """Every Bethe equation at the roots; rejects the draw where one is
    singular, the roots are degenerate or a value is far from 1 (where
    rounding of the factor arguments is no longer a small relative error)."""
    try:
        values = np.array([bethe_lhs(chain, BetheRoots(roots), i) for i in range(len(roots))])
    except ValueError:
        assume(False)
    assume(np.all((1e-3 < np.abs(values)) & (np.abs(values) < 1e3)))
    return values


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_negating_an_open_root_inverts_its_equation_only(data):
    chain, roots, k = _drawn_chain_and_roots(data, ("open-xxz", "open-xxx"))
    before = _all_lhs(chain, roots)
    roots[k] = -roots[k]
    after = _all_lhs(chain, roots)
    expected = before.copy()
    expected[k] = 1.0 / before[k]
    assert np.all(np.abs(after - expected) <= 1e-10 * np.abs(expected))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_trig_equations_are_periodic_in_each_root(data):
    chain, roots, k = _drawn_chain_and_roots(data, ("closed-xxz", "open-xxz"))
    before = _all_lhs(chain, roots)
    roots[k] += 1.0
    after = _all_lhs(chain, roots)
    assert np.all(np.abs(after - before) <= 1e-10 * np.abs(before))
