"""The row tables: solver log residual and Jacobian against the product forms,
and the import rules that keep the independent witnesses independent."""

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethegauge.chain import (
    DENOM_TOL,
    BetheRoots,
    ChainSpec,
    _bethe_stack,
    _bethe_system,
    _bethe_table,
    bethe_lhs,
)
from bethegauge.gauge import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    GaugeTheorySpec,
    _root_data,
    _vacuum_stack,
    _vacuum_system,
    _vacuum_table,
    vacuum_lhs,
    vacuum_lhs_2d,
)
from bethegauge.solve import POLE_TOL, _LogSystem
from bethegauge.specfun import SingularPointError

SRC = Path(__file__).resolve().parents[1] / "src" / "bethegauge"
POINTS = 6
FD_STEP = 1e-6


def _anywhere(u):
    return True


def _fd_jacobian(system, u):
    cols = []
    for k in range(len(u)):
        step = np.zeros(len(u), dtype=complex)
        step[k] = FD_STEP
        cols.append((system.residual(u + step) - system.residual(u - step)) / (2 * FD_STEP))
    return np.array(cols).T


def _check_agreement(system, target, u, products):
    """exp(residual + target) is the product form; the Jacobian matches FD."""
    res = system.residual(u)
    for r, p in zip(res, products):
        assert abs(cmath.exp(r + target) - p) <= 1e-10 * abs(p)
    if np.max(np.abs(res.imag)) < math.pi - 0.1:  # away from the 2 pi fold
        jac = system.jacobian(u)
        fd = _fd_jacobian(system, u)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))


def _admissible(system, u, products):
    return (system.min_factor(u) > POLE_TOL
            and all(1e-3 < abs(p) < 1e3 for p in products))


@pytest.mark.parametrize("branch", [BRANCH_PLUS, BRANCH_MINUS], ids=["plus", "minus"])
@pytest.mark.parametrize("realization", ["I", "II"])
@pytest.mark.parametrize("regime", ["3d", "2d"])
@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_vacuum_log_residual_matches_products(family, regime, realization, branch):
    rng = np.random.default_rng(["ABCD".index(family), regime == "2d", realization == "I"])
    scale = math.pi if regime == "3d" else 1.0
    lhs = vacuum_lhs if regime == "3d" else vacuum_lhs_2d
    target = 0.0 if branch.sign == +1 else math.pi * 1j
    checked = 0
    for _ in range(200):
        rank, nf = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        masses = tuple(scale * rng.uniform(0.07, 0.43, size=nf))
        anti = tuple(scale * rng.uniform(0.07, 0.43, size=nf))
        spec = GaugeTheorySpec(
            family, rank, nf, masses, scale * rng.uniform(0.09, 0.34),
            realization=realization,
            masses_anti=anti if family == "A" or realization == "I" else None,
        )
        sigma = scale * rng.uniform(0.05, 0.95, size=rank) + 1j * rng.normal(0.0, 0.05, size=rank)
        system = _LogSystem(*_vacuum_system(spec, "rational" if regime == "2d" else "root"),
                            target, _anywhere)
        products = [lhs(spec, sigma, j, branch) for j in range(rank)]
        if not _admissible(system, sigma, products):
            continue
        _check_agreement(system, target, sigma, products)
        checked += 1
        if checked == POINTS:
            return
    pytest.fail("only %d admissible points" % checked)


@pytest.mark.parametrize("kind", ["closed-xxz", "open-xxz", "closed-xxx", "open-xxx"])
def test_bethe_log_residual_matches_products(kind):
    rng = np.random.default_rng(["closed-xxz", "open-xxz", "closed-xxx", "open-xxx"].index(kind))
    checked = 0
    for _ in range(200):
        sites, magnons = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        xi = rng.uniform(-0.4, 0.4, size=2) if kind.startswith("open") else (None, None)
        chain = ChainSpec(kind, sites, magnons, rng.uniform(0.1, 0.4),
                          tuple(rng.choice([0.5, 1.0, -0.5, 1.5], size=sites)),
                          tuple(rng.uniform(-0.2, 0.2, size=sites)),
                          xi_plus=xi[0], xi_minus=xi[1])
        lo, hi = (0.05, 0.95) if chain.is_trig else (-1.0, 1.0)
        u = rng.uniform(lo, hi, size=magnons) + 1j * rng.normal(0.0, 0.2, size=magnons)
        system = _LogSystem(*_bethe_system(chain), 0.0, _anywhere)
        try:
            roots = BetheRoots(u)
            products = [bethe_lhs(chain, roots, i) for i in range(magnons)]
        except ValueError:  # coincident, reflection-degenerate or singular
            continue
        if not _admissible(system, u, products):
            continue
        _check_agreement(system, 0.0, u, products)
        checked += 1
        if checked == POINTS:
            return
    pytest.fail("only %d admissible points" % checked)


def test_e8_rows_are_generated_from_root_data():
    spec = GaugeTheorySpec("E8", 8, 2, (0.27, 0.31), 0.14)
    table, _ = _vacuum_system(spec, "root")
    for j in range(8):
        coupled = sum(1 for _, _, exps in _root_data("E8", 8) if exps[j])
        assert table.equations[j].n_rows == 2 * coupled + 2 * spec.n_fund


# ---------------------------------------------------------------------------
# stacked products: the guard of product as a mask
# ---------------------------------------------------------------------------


def rounding_bound(table, x):
    """Per equation, the relative change of its product when every argument at
    the point x moves by a few roundings of its terms: sum_r |power_r f'/f|
    * 8 eps * sum_c |c_rc x_c|, plus 8 eps per factor."""
    a, f = table.factors(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # a factor at 0 makes the bound inf
        slope = 1 / a if table.kind == "linear" else np.cos(a) / f
    terms = np.abs(table.coeffs) @ np.abs(x)
    per_row = 8 * np.finfo(float).eps * np.abs(table.power) * (np.abs(slope) * terms + 1)
    return np.array([per_row[rows].sum() for rows in table.rows_of])


def _one_at_a_time(table, stack):
    """Per point, the per-equation products, or None where one of them raises."""
    out = []
    for x in stack:
        try:
            out.append([eq.product(x) for eq in table.equations])
        except SingularPointError:
            out.append(None)
    return out


def _assert_stack_matches_products(table, stack):
    values, singular = table.products(stack)
    assert values.shape == (len(stack), len(table.equations)) and singular.shape == (len(stack),)
    for x, vals, hit, ref in zip(stack, values, singular, _one_at_a_time(table, stack)):
        assert hit == (ref is None)
        if ref is not None:
            bound = rounding_bound(table, x)
            with np.errstate(invalid="ignore"):
                close = np.abs(vals - ref) <= bound * np.abs(ref)
            assert np.all(close | (vals == ref)), (vals, ref, bound)
    return singular


def test_stacked_mask_fires_on_b_cos_row():
    # cos(sigma + m_adj) of B's root form vanishes at sigma = pi/2 - m_adj
    spec = GaugeTheorySpec("B", 2, 2, (0.3, 0.7), 0.4)
    sigma = np.array([[math.pi / 2 - 0.4 + 1e-7, 1.1],
                      [math.pi / 2 - 0.4 + 1.5e-6, 1.1],  # |cos| < 2 tol, yet tol away
                      [0.9, 1.7]])
    table, params = _vacuum_system(spec, "root")
    stack = np.concatenate((sigma, np.tile(params, (3, 1))), axis=1)
    assert list(_assert_stack_matches_products(table, stack)) == [True, False, False]
    assert list(_vacuum_stack(spec, "root", sigma)[1]) == [True, False, False]
    assert not _vacuum_stack(spec, "rational", sigma)[1].any()  # no cos row there
    with pytest.raises(SingularPointError):
        vacuum_lhs(spec, sigma[0], 0)


@pytest.mark.parametrize("kind", ["closed-xxx", "closed-xxz"])
def test_stacked_mask_fires_on_small_bethe_denominator(kind):
    # one site of spin 1/2 at theta 0: the denominator factor is [u]
    chain = ChainSpec(kind, 1, 1, 0.3, (0.5,), (0.0,))
    unit = math.pi if kind.endswith("xxz") else 1.0
    u = np.array([[0.5 * DENOM_TOL / unit], [2.0 * DENOM_TOL / unit], [0.27]], dtype=complex)
    table, params = _bethe_system(chain)
    stack = np.concatenate((u, np.tile(params, (3, 1))), axis=1)
    assert list(_assert_stack_matches_products(table, stack)) == [True, False, False]
    assert list(_bethe_stack([chain] * 3, u)[1]) == [True, False, False]
    with pytest.raises(SingularPointError):
        bethe_lhs(chain, BetheRoots(u[0]), 0)


_coordinate = st.floats(-1.5, 1.5, allow_nan=False)


@st.composite
def _table_and_stack(draw):
    """A random vacuum or Bethe table and a small stack of points in its columns."""
    if draw(st.booleans()):
        family = draw(st.sampled_from("ABCD"))
        realization = draw(st.sampled_from(["I", "II"]))
        n_f = draw(st.integers(1, 3))
        n_anti = n_f if family == "A" or realization == "I" else 0
        table = _vacuum_table(family, draw(st.integers(1, 3)), n_f, n_anti,
                              realization, draw(st.sampled_from(["root", "full", "rational"])))
    else:
        kind = draw(st.sampled_from(["closed-xxz", "open-xxz", "closed-xxx", "open-xxx"]))
        table = _bethe_table(kind, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    cols = table.coeffs.shape[1] - 1
    size = draw(st.integers(1, 4))
    re = draw(st.lists(st.lists(_coordinate, min_size=cols, max_size=cols),
                       min_size=size, max_size=size))
    im = draw(st.lists(st.lists(st.floats(-0.3, 0.3), min_size=cols, max_size=cols),
                       min_size=size, max_size=size))
    stack = np.array(re) + 1j * np.array(im)
    return table, np.concatenate((stack, np.ones((size, 1))), axis=1)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_table_and_stack())
def test_stacked_products_equal_product_row_by_row(case):
    _assert_stack_matches_products(*case)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_table_and_stack())
def test_a_row_evaluates_alike_alone_and_in_a_stack(case):
    # so that how a sampler groups its draws never shows in a report
    table, stack = case
    values, singular = table.products(stack)
    for k in range(len(stack)):
        values1, singular1 = table.products(stack[k:k + 1])
        assert np.array_equal(values1[0], values[k], equal_nan=True)
        assert singular1[0] == singular[k]


# ---------------------------------------------------------------------------
# import graph: the independent witnesses never read the row tables
# ---------------------------------------------------------------------------


def _tree(module):
    return ast.parse((SRC / (module + ".py")).read_text())


def _package_imports(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bethegauge."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("bethegauge."))
    return out


def _names(node):
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _table_machinery(tree):
    """Functions of a module that reach the row tables, plus the rows module's names."""
    rows_names = {n.name for n in _tree("rows").body
                  if isinstance(n, (ast.ClassDef, ast.FunctionDef))} | {"Row", "rows"}
    fns = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached = set(rows_names)
    while True:
        more = {name for name, fn in fns.items() if _names(fn) & reached} - reached
        if not more:
            return fns, reached
        reached |= more


def _closure(fns, start):
    seen, todo = set(), list(start)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(n for n in _names(fns[name]) if n in fns)
    return seen


@pytest.mark.parametrize("module, forbidden", [
    ("gauge", {"chain", "bridge", "solve"}),
    ("chain", {"gauge", "bridge", "solve"}),
    ("rows", {"gauge", "chain", "bridge", "solve"}),
])
def test_each_side_builds_its_rows_from_its_own_data(module, forbidden):
    assert not _package_imports(_tree(module)) & forbidden


@pytest.mark.parametrize("module, witnesses, table_fn", [
    ("gauge", ("superpotential_value", "superpotential_grad", "vacuum_from_gradient"),
     "_vacuum_table"),
    ("chain", ("monodromy", "transfer_matrix", "bethe_vector", "certify_roots"),
     "_bethe_table"),
])
def test_witnesses_never_reach_the_row_tables(module, witnesses, table_fn):
    fns, machinery = _table_machinery(_tree(module))
    assert table_fn in machinery  # the scan does see the tables
    reach = _closure(fns, witnesses)
    assert not reach & machinery, sorted(reach & machinery)


def test_only_gauge_chooses_the_vacuum_form_by_regime():
    # gauge._vacuum_lhs_values is the one switch between the trigonometric and
    # rational products; the degeneration battery compares the two on purpose
    allowed = {("cli", "_battery_degeneration")}
    both = {"vacuum_lhs", "vacuum_lhs_2d"}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "gauge":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.If, ast.IfExp, ast.Dict))
                    and both <= _names(node)
                    and (path.stem, getattr(node, "name", None)) not in allowed):
                pytest.fail("%s line %d picks a vacuum form" % (path.name, node.lineno))


def test_superpotential_consumers_never_branch_on_term_kind():
    # the term table states each kind and realization once; its readers only index it
    words = {"realization", "kind", "gauge", "adjoint", "fund", "I", "II"}
    fns = {n.name: n for n in _tree("gauge").body if isinstance(n, ast.FunctionDef)}
    for name in ("superpotential_value", "superpotential_grad", "one_loop_asymptotic_check"):
        for node in ast.walk(fns[name]):
            if isinstance(node, (ast.If, ast.IfExp, ast.Dict)):
                named = _names(node) | {n.value for n in ast.walk(node)
                                        if isinstance(n, ast.Constant) and isinstance(n.value, str)}
                assert not named & words, "%s line %d branches on %s" % (
                    name, node.lineno, sorted(named & words))


def _log_sum_reference(table, f):
    """sum_r power_r log f_r per equation, with numpy's complex log."""
    return (table.power.real * np.log(f)) @ table.by_eq.T


@pytest.mark.parametrize("table", [_bethe_table("open-xxz", 3, 2),
                                   _vacuum_table("B", 3, 2, 0, "II", "root")],
                         ids=["open-xxz", "B3"])
def test_log_sum_is_the_principal_complex_log(table):
    rng = np.random.default_rng(3)
    f = rng.normal(size=(40, table.n_rows)) + 1j * rng.normal(size=(40, table.n_rows))
    # the negative real axis, from above (+0.0) and from below (-0.0)
    f[0] = f[1] = -rng.uniform(0.5, 2.0, table.n_rows)
    f[1].imag = -0.0
    f[2] = 1.0000001e-14 * np.exp(1j * rng.uniform(-math.pi, math.pi, table.n_rows))
    f[3] = -1.0000001e-14
    f[3, 1::2].imag = -0.0
    assert np.all(np.signbit(f[1].imag)) and not np.any(np.signbit(f[0].imag))
    assert np.all(np.signbit(f[3, 1::2].imag))
    f[4] = rng.normal(size=table.n_rows) * 1e8 + 1j * rng.normal(size=table.n_rows)
    ref = _log_sum_reference(table, f)
    scale = np.abs(table.power.real * np.log(f)) @ table.by_eq.T
    for got in (table.log_sum(f), table.log_sum(f, np.abs(f))):
        gap = got - ref
        gap.imag -= 2.0 * math.pi * np.rint(gap.imag / (2.0 * math.pi))
        assert np.all(np.abs(gap) <= 1e-13 * scale)
