"""The row tables: solver log residual and Jacobian against the product forms,
and the import rules that keep the independent witnesses independent."""

import ast
import cmath
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethegauge.chain import (
    DENOM_TOL,
    BetheRoots,
    ChainSpec,
    _bethe_rows,
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
from bethegauge.rows import LogScratch, RowTable
from bethegauge.solve import _LogSystem
from bethegauge.specfun import SingularPointError

SRC = Path(__file__).resolve().parents[1] / "src" / "bethegauge"
POINTS = 6
FD_STEP = 1e-6
#: an admissible test point keeps every factor's |f| above this
MIN_FACTOR = 1e-3


def _residual(system, u):
    """The folded log residual and row ratios f'/f at the point u, a one-point stack."""
    scratch = LogScratch(system.table, 1)
    ok, res = system.evaluate(u[None], scratch)
    assert list(ok) == [0]
    return res[0], system.table.log_ratios(scratch, ok)


def _fd_jacobian(system, u):
    cols = []
    for k in range(len(u)):
        step = np.zeros(len(u), dtype=complex)
        step[k] = FD_STEP
        cols.append((_residual(system, u + step)[0] - _residual(system, u - step)[0])
                    / (2 * FD_STEP))
    return np.array(cols).T


def _check_agreement(system, target, u, products):
    """exp(residual + target) is the product form; the Jacobian matches FD."""
    res, ratios = _residual(system, u)
    for r, p in zip(res, products):
        assert abs(cmath.exp(r + target) - p) <= 1e-10 * abs(p)
    if np.max(np.abs(res.imag)) < math.pi - 0.1:  # away from the 2 pi fold
        jac = system.table.log_jacobian(ratios)[0]
        fd = _fd_jacobian(system, u)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * max(1.0, np.max(np.abs(jac)))


def _min_factor(system, u):
    """The smallest |f| at the point u, from np.sin of the row arguments."""
    (a,) = system.table.arguments(system._points(u[None]))
    return np.abs(a if system.table.kind == "linear" else np.sin(a)).min()


def _admissible(system, u, products):
    return _min_factor(system, u) > MIN_FACTOR and all(1e-3 < abs(p) < 1e3 for p in products)


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
                            branch.sign, math.inf)
        products = [lhs(spec, sigma, j) for j in range(rank)]
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
        system = _LogSystem(*_bethe_system(chain), 1.0, math.inf)
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


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 3),
                                          ("F4", 4), ("E8", 8)])
def test_vacuum_rows_are_generated_from_root_data(family, rank):
    # one ratio, two rows, per +-alpha pair of the roots coupled to sigma_j
    # and per +-e_j pair of matter weights, in every form
    n_anti = 2 if family == "A" else 0
    forms = ("root", "full", "rational") if family in "ABCD" else ("root", "full")
    for form in forms:
        table = _vacuum_table(family, rank, 2, n_anti, "II", form)
        for j in range(rank):
            coupled = sum(1 for _, _, exps in _root_data(family, rank) if exps[j])
            assert table.offsets[j + 1] - table.offsets[j] == coupled + 2 * 2
    if family == "E8":
        assert table.offsets[1] == 160


# ---------------------------------------------------------------------------
# a table is its ratios: row pairs, one row range per equation, no constant column
# ---------------------------------------------------------------------------


def _table_shapes():
    """(table, n_params) for every table _table_and_stack draws, and for the
    wider shapes other tests build: vacuum ranks to 4 with up to 4
    fundamentals, Bethe chains to L = 6, M = 4, the open XXZ limit
    boundary (no boundary columns) among them."""
    for family in "ABCD":
        for rank in range(1, 5):
            for n_f in range(5):
                for realization in ("I", "II"):
                    n_anti = n_f if family == "A" or realization == "I" else 0
                    for form in ("root", "full", "rational"):
                        yield (_vacuum_table(family, rank, n_f, n_anti, realization, form),
                               1 + n_f + n_anti)
    for family in ("E8", "F4"):
        for n_f in range(3):
            for form in ("root", "full"):
                yield _vacuum_table(family, int(family[1]), n_f, 0, "II", form), 1 + n_f
    for kind, boundaries in (("closed-xxz", (False,)), ("closed-xxx", (False,)),
                             ("open-xxz", (True, False)), ("open-xxx", (True,))):
        for sites in range(1, 7):
            for magnons in range(1, 5):
                for boundary in boundaries:
                    yield (_bethe_table(kind, sites, magnons, boundary),
                           1 + 2 * sites + 2 * boundary)


def test_every_table_is_its_ratios_row_pair_by_row_pair():
    for table, n_params in _table_shapes():
        rows, eqs = table.n_rows, table.n_eq
        assert table.coeffs.shape == (rows, table.n_unknowns + n_params)  # no constant column
        # ratio k is rows 2k (numerator, power p > 0) and 2k + 1 (denominator, -p)
        assert rows % 2 == 0 and np.all(table.power.real[::2] > 0)
        assert np.array_equal(table.power[1::2], -table.power[::2])
        # offsets partition the rows, and no equation splits a pair
        offsets = table.offsets
        assert len(offsets) == eqs + 1 and offsets[0] == 0 and offsets[-1] == rows
        assert np.all(np.diff(offsets) >= 0) and np.all(offsets % 2 == 0)
        for j in range(eqs):
            assert np.array_equal(np.flatnonzero(table.by_eq[j]),
                                  np.arange(offsets[j], offsets[j + 1]))
        # "denominator" guards exactly the ratio denominators
        if table.guard == "denominator":
            assert np.array_equal(table.guarded, np.arange(1, rows, 2))


def test_a_table_takes_ratios_and_an_equation_without_rows_is_one():
    ratios = [(0, 2, {0: 1.0}, {1: 1.0}), (2, 1, {0: 1.0, 1: -1.0}, {0: 1.0, 1: 1.0})]
    table = RowTable("linear", 3, 1, 1, ratios, "denominator", 1e-12)
    assert np.array_equal(table.coeffs, [[1, 0], [0, 1], [1, -1], [1, 1]])
    assert np.array_equal(table.power, [2, -2, 1, -1])
    assert list(table.offsets) == [0, 2, 2, 4]
    x = np.array([[0.5, 2.0], [3.0, 0.25]], dtype=complex)  # unknown u || parameter p
    values, singular = table.products(x)
    want = [[(u / p) ** 2, 1.0, (u - p) / (u + p)] for u, p in x]
    assert not singular.any() and np.allclose(values, want, rtol=1e-15, atol=0)
    assert [table.product(x[0], j) for j in range(3)] == pytest.approx(want[0], rel=1e-15)
    with pytest.raises(ValueError, match="equation by equation"):
        RowTable("linear", 3, 1, 1, ratios[::-1], "denominator", 1e-12)
    with pytest.raises(ValueError, match="equation by equation"):
        RowTable("linear", 2, 1, 1, ratios, "denominator", 1e-12)  # equation 2 of 2


def test_every_table_stores_real_data_and_a_complex_ratio_is_refused():
    for table, _ in _table_shapes():
        assert table.coeffs.dtype == np.float64 and table.power.dtype == np.float64
    with pytest.raises(TypeError):
        RowTable("linear", 1, 1, 1, [(0, 1, {0: 1.0, 1: 0.5j}, {0: 1.0})], "denominator", 1e-12)
    with pytest.raises(TypeError):
        RowTable("linear", 1, 1, 1, [(0, 1j, {0: 1.0}, {1: 1.0})], "denominator", 1e-12)


def _vacuum_specs():
    for family in "ABCD":
        for realization in ("I", "II"):
            masses_anti = (0.15, 0.25) if family == "A" or realization == "I" else None
            yield GaugeTheorySpec(family, 2, 2, (0.3, 0.7), 0.4, realization=realization,
                                  masses_anti=masses_anti)
    yield GaugeTheorySpec("E8", 8, 1, (0.3,), 0.4)
    yield GaugeTheorySpec("F4", 4, 2, (0.3, 0.7), 0.4)


def _chains():
    for kind in ("closed-xxz", "closed-xxx", "open-xxz", "open-xxx"):
        xi = (0.2, -0.1) if kind.startswith("open") else (None, None)
        yield ChainSpec(kind, 3, 2, 0.3, (0.5, 1.0, 0.5), (0.01, -0.02, 0.03), *xi)
    yield ChainSpec("open-xxz", 3, 2, 0.3, (0.5,) * 3, (0.0,) * 3,
                    complex(0, math.inf), complex(0, -math.inf))


def test_every_point_a_builder_makes_has_the_width_of_its_table(monkeypatch):
    widths = []
    products = RowTable.products

    def spy(table, x):
        widths.append((x.shape[-1], table.coeffs.shape[1]))
        return products(table, x)

    monkeypatch.setattr(RowTable, "products", spy)
    sigma = np.full((3, 8), 0.37)
    for spec in _vacuum_specs():
        forms = ("root", "full") + (("rational",) if spec.family in "ABCD" else ())
        for form in forms:
            table, params = _vacuum_system(spec, form)
            assert np.array_equal(params, spec.params)  # the parameters, and nothing after them
            assert spec.dim + len(params) == table.coeffs.shape[1]
            _vacuum_stack(spec, form, sigma[:, :spec.dim])
    for chain in _chains():
        table, params = _bethe_system(chain)
        xi = (chain.xi_plus, chain.xi_minus) if chain.is_open else None
        own = ([chain.eta] + [chain.eta * s for s in chain.spins] + list(chain.inhomogeneities)
               + (list(xi) if xi is not None and np.isfinite(xi).all() else []))
        assert np.array_equal(params, own)
        assert chain.n_magnons + len(params) == table.coeffs.shape[1]
        stacked_table, stacked = _bethe_rows(
            chain.kind, chain.n_magnons, np.full(4, chain.eta), np.tile(chain.spins, (4, 1)),
            np.tile(chain.inhomogeneities, (4, 1)), None if xi is None else np.tile(xi, (4, 1)))
        assert stacked_table is table and stacked.shape == (4, len(params))
    assert len(widths) == 28 and all(got == want for got, want in widths)


# ---------------------------------------------------------------------------
# stacked products: the guard of product as a mask
# ---------------------------------------------------------------------------


def rounding_bound(table, x):
    """Per equation, the relative change of its product when every argument at
    the point x moves by a few roundings of its terms: sum_r |power_r f'/f|
    * 8 eps * sum_c |c_rc x_c|, plus 8 eps per factor."""
    (a,) = table.arguments(x[None])
    f = a if table.kind == "linear" else np.sin(a)
    with np.errstate(divide="ignore", invalid="ignore"):  # a factor at 0 makes the bound inf
        slope = 1 / a if table.kind == "linear" else np.cos(a) / f
    terms = np.abs(table.coeffs) @ np.abs(x)
    per_row = 8 * np.finfo(float).eps * np.abs(table.power) * (np.abs(slope) * terms + 1)
    return np.array([per_row[rows].sum() for rows in _equation_rows(table)])


def _equation_rows(table):
    """Each equation's rows, as the slice offsets[j]:offsets[j+1]."""
    return [slice(lo, hi) for lo, hi in zip(table.offsets[:-1], table.offsets[1:])]


def _one_at_a_time(table, stack):
    """Per point, the per-equation products, or None where one of them raises."""
    out = []
    for x in stack:
        try:
            out.append([table.product(x, j) for j in range(table.n_eq)])
        except SingularPointError:
            out.append(None)
    return out


def _assert_stack_matches_products(table, stack):
    values, singular = table.products(stack)
    assert values.shape == (len(stack), table.n_eq) and singular.shape == (len(stack),)
    for x, vals, hit, ref in zip(stack, values, singular, _one_at_a_time(table, stack)):
        assert hit == (ref is None)
        if ref is not None:
            bound = rounding_bound(table, x)
            with np.errstate(invalid="ignore"):
                close = np.abs(vals - ref) <= bound * np.abs(ref)
            assert np.all(close | (vals == ref)), (vals, ref, bound)
    return singular


def test_stacked_mask_fires_on_b_short_root_row():
    # sin(2 (sigma_0 + m_adj)), the denominator of B's short root e_0, vanishes
    # at sigma_0 = pi/2 - m_adj; its argument is twice sigma_0's distance from there
    spec = GaugeTheorySpec("B", 2, 2, (0.3, 0.7), 0.4)
    sigma = np.array([[math.pi / 2 - 0.4 + 1e-7, 1.1],
                      [math.pi / 2 - 0.4 + 0.75e-6, 1.1],  # |sin| < 2 tol, yet tol away
                      [math.pi / 2 - 0.4 + 1.5e-6, 1.1],
                      [0.9, 1.7]])
    table, params = _vacuum_system(spec, "root")
    stack = np.concatenate((sigma, np.tile(params, (4, 1))), axis=1)
    assert list(_assert_stack_matches_products(table, stack)) == [True, False, False, False]
    assert list(_vacuum_stack(spec, "root", sigma)[1]) == [True, False, False, False]
    assert not _vacuum_stack(spec, "rational", sigma)[1].any()  # 2 (sigma_0 + m_adj) is not 0
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
    with pytest.raises(SingularPointError):
        bethe_lhs(chain, BetheRoots(u[0]), 0)


_coordinate = st.floats(-1.5, 1.5, allow_nan=False)


@st.composite
def _table_and_stack(draw, points=("complex", "real", "mixed")):
    """A random vacuum or Bethe table and a small stack of points in its columns.

    ``points`` are the kinds of stack to draw from: every point complex,
    every point real (so every row argument is real), or each point either.
    """
    side = draw(st.sampled_from(["classical", "exceptional", "chain"]))
    if side == "classical":
        family = draw(st.sampled_from("ABCD"))
        realization = draw(st.sampled_from(["I", "II"]))
        n_f = draw(st.integers(1, 3))
        n_anti = n_f if family == "A" or realization == "I" else 0
        table = _vacuum_table(family, draw(st.integers(1, 3)), n_f, n_anti,
                              realization, draw(st.sampled_from(["root", "full", "rational"])))
    elif side == "exceptional":
        family = draw(st.sampled_from(["E8", "F4"]))
        table = _vacuum_table(family, int(family[1]), draw(st.integers(1, 2)), 0, "II",
                              draw(st.sampled_from(["root", "full"])))
    else:
        kind = draw(st.sampled_from(["closed-xxz", "open-xxz", "closed-xxx", "open-xxx"]))
        table = _bethe_table(kind, draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                             kind.startswith("open"))
    cols = table.coeffs.shape[1]
    size = draw(st.integers(1, 4))
    re = draw(st.lists(st.lists(_coordinate, min_size=cols, max_size=cols),
                       min_size=size, max_size=size))
    im = np.array(draw(st.lists(st.lists(st.floats(-0.3, 0.3), min_size=cols, max_size=cols),
                                min_size=size, max_size=size)))
    reality = draw(st.sampled_from(points))
    if reality != "complex":
        real = draw(st.lists(st.booleans(), min_size=size, max_size=size)) \
            if reality == "mixed" else [True] * size
        im[np.array(real)] = 0.0
    return table, np.array(re) + 1j * im


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


def _complex_reference(table, stack):
    """Values and singular mask of a stack in complex arithmetic throughout:
    complex sin, then f ** power, then each equation's row product."""
    a = table.arguments(stack)
    f = a if table.kind == "linear" else np.sin(a)
    with np.errstate(all="ignore"):
        fp = f ** table.power
        values = np.stack([fp[:, rows].prod(axis=1) for rows in _equation_rows(table)], axis=1)
    return values, table._singular(a, f, table.guarded).any(axis=1)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_table_and_stack(points=("real",)))
def test_real_points_agree_with_complex_arithmetic(case):
    table, stack = case
    values, singular = table.products(stack)
    reference, reference_singular = _complex_reference(table, stack)
    assert np.array_equal(singular, reference_singular)
    for x, vals, ref, hit in zip(stack, values, reference, singular):
        if not hit:
            bound = rounding_bound(table, x)
            assert np.all((np.abs(vals - ref) <= bound * np.abs(ref)) | (vals == ref)), \
                (vals, ref, bound)


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
                  if isinstance(n, (ast.ClassDef, ast.FunctionDef))} | {"Ratio", "rows"}
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
    for name in ("superpotential_value", "superpotential_grad"):
        for node in ast.walk(fns[name]):
            if isinstance(node, (ast.If, ast.IfExp, ast.Dict)):
                named = _names(node) | {n.value for n in ast.walk(node)
                                        if isinstance(n, ast.Constant) and isinstance(n.value, str)}
                assert not named & words, "%s line %d branches on %s" % (
                    name, node.lineno, sorted(named & words))


def _log_sum_reference(table, f):
    """sum_r power_r log f_r per equation, with numpy's complex log."""
    return (table.power.real * np.log(f)) @ table.by_eq.T


@pytest.mark.parametrize("table", [_bethe_table("open-xxz", 3, 2, True),
                                   _vacuum_table("B", 3, 2, 0, "II", "root"),
                                   _bethe_table("open-xxx", 3, 2, True)],
                         ids=["open-xxz", "B3", "open-xxx"])
def test_log_sum_is_the_principal_complex_log(table):
    # the kernel's log sums and f'/f against numpy's complex sin, log and cos
    rng = np.random.default_rng(3)
    shape = (40, table.n_rows)
    trig = table.kind != "linear"
    if trig:
        a = rng.uniform(0.0, 2.0 * math.pi, shape) + 1j * rng.normal(size=shape)
    else:
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # the negative real axis, from above (+0.0) and from below (-0.0)
    a[0] = a[1] = rng.uniform(1.1 * math.pi, 1.9 * math.pi, table.n_rows) if trig \
        else -rng.uniform(0.5, 2.0, table.n_rows)
    a[1].imag = -0.0
    # |f| just above 1e-14, on either side of 0; |f| near 1e8; |f| just below 1e-14
    a[2] = 1.0000001e-14 * np.exp(1j * rng.uniform(-math.pi, math.pi, table.n_rows))
    a[3] = -1.0000001e-14
    a[3, 1::2].imag = -0.0
    a[4] = (rng.uniform(0.0, 2.0 * math.pi, table.n_rows) + 19.1j) if trig \
        else rng.normal(size=table.n_rows) * 1e8 + 1j * rng.normal(size=table.n_rows)
    a[5] = 0.9999999e-14
    # |Im a| = 400: sinh^2 would overflow, |f| does not
    a[6] = rng.uniform(0.0, 2.0 * math.pi, table.n_rows) + 400j * rng.choice([-1, 1], table.n_rows)
    if trig:  # where the half-angle forms of sin x and cos x are weakest
        near_pi = math.pi + rng.choice([-1, 1], (2, table.n_rows)) \
            * rng.uniform(1e-13, 1e-12, (2, table.n_rows))  # tan(x/2) >= 1e12
        a[7] = near_pi[0] + 1j * rng.normal(size=table.n_rows)
        a[8] = near_pi[1]  # real: |f| ~ 1e-12 rests on sin x alone
        a[9] = 0.5 * math.pi + rng.uniform(-1e-6, 1e-6, table.n_rows) \
            + 1j * rng.normal(size=table.n_rows)  # cos x ~ 0
        a[10] = rng.choice([-1, 1], table.n_rows) * rng.uniform(39.0, 41.0, table.n_rows) \
            + 1j * rng.normal(size=table.n_rows)
    f = np.sin(a) if trig else a
    assert np.all(np.abs(f[2:5]) > 1e-14) and np.all(np.abs(f[5]) < 1e-14)
    assert np.all(np.abs(f[7:11]) > 1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scratch = LogScratch(table, len(a))
        clear, got = table.log_terms(a, scratch)
        ratios = table.log_ratios(scratch, slice(None))
    assert list(clear) == [k for k in range(len(a)) if k != 5]
    f = f[clear]
    ref = _log_sum_reference(table, f)
    scale = np.abs(table.power.real * np.log(f)) @ table.by_eq.T
    gap = got - ref
    gap.imag -= 2.0 * math.pi * np.rint(gap.imag / (2.0 * math.pi))
    assert np.all(np.abs(gap) <= 1e-13 * scale)
    slope = np.cos(a[clear]) / f if trig else 1.0 / f
    assert np.all(np.abs(ratios - slope) <= 1e-13 * np.abs(slope))
