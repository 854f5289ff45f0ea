"""Effective superpotentials on Lie-algebra root data and their vacuum equations.

The superpotential of a theory with adjoint and fundamental matter is a sum
over roots and weights of terms a * [Li2(e^{-iz}) - z^2/4], z affine in sigma
and the masses; :func:`_term_table` states them once per shape (family,
rank, N_f, N_f', realization), and the value and the gradient read it.
The vacuum equations are exp(i dW/dsigma_j) = 1.  Exponentiating one
component of the gradient collapses each +-alpha pair of roots, and each
+-e_j pair of matter weights, into one sine ratio.  Those closed products
are the authoritative vacuum equations; :func:`_vacuum_table` generates
their rows from the same root data as the terms of W, one loop for every
family, as one row table per shape and form, and every product form
(square-rooted, full, rational) and the solver's log residual evaluate that
table.  The gradient route never touches the row table and stays an
independent cross-check.

Two realizations of the weight normalization are supported, ``II`` (the
default) and ``I``; they differ in where the per-root weight factor sits.
Realization I carries an explicit anti-fundamental mass list, and its closed
vacuum products split the matter factor into fundamental and
anti-fundamental halves; with equal mass lists the squared equations
coincide with realization II.

Branch choice (whether a product is pinned to +1 or -1) is metadata on the
equation contract and never modifies the left-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import lie_roots
from .rows import RowTable
from .specfun import SingularPointError, dilog

#: the families with realization I, a rational limit, a solver and a dictionary
CLASSICAL = ("A", "B", "C", "D")
FAMILIES = CLASSICAL + ("E8", "F4")

#: minimum distance of any sine argument to the singular set pi*Z
SINGULAR_TOL = 1e-6

#: unit of sigma and of the masses in each regime: the trigonometric ("3d")
#: products have period pi, the rational ("2d") limit has no period
REGIME_SCALE = {"3d": math.pi, "2d": 1.0}
#: the vacuum form each regime evaluates (see :func:`_vacuum_table`)
REGIME_FORM = {"3d": "root", "2d": "rational"}


@dataclass(frozen=True)
class VacuumBranch:
    """Sign of the right-hand side in the square-rooted vacuum equation."""

    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("branch sign must be +1 or -1")


BRANCH_PLUS = VacuumBranch(1)
BRANCH_MINUS = VacuumBranch(-1)


@dataclass(frozen=True)
class GaugeTheorySpec:
    """Family, rank and matter content of one effective gauge theory."""

    family: str
    rank: int
    n_fund: int
    masses: Tuple[float, ...]
    m_adj: float
    realization: str = "II"
    masses_anti: Tuple[float, ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError("family must be one of %s" % (FAMILIES,))
        lie_roots.root_family(self.family, self.rank)  # refuses a rank E8 or F4 contradicts
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.realization not in ("I", "II"):
            raise ValueError("realization must be 'I' or 'II'")
        if self.family not in CLASSICAL and self.realization == "I":
            raise ValueError("realization I is only defined for the classical families")
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        if len(self.masses) != self.n_fund:
            raise ValueError("expected %d fundamental masses" % self.n_fund)
        if self.masses_anti is None:
            if self.family == "A" or self.realization == "I":
                object.__setattr__(self, "masses_anti", self.masses)
        else:
            object.__setattr__(
                self, "masses_anti", tuple(float(m) for m in self.masses_anti)
            )
            if self.family != "A" and self.realization == "II":
                raise ValueError(
                    "anti-fundamental masses only enter the A family or realization I")

    @property
    def dim(self) -> int:
        return self.rank

    @property
    def params(self) -> Tuple[float, ...]:  # m_adj || masses || masses_anti
        return (self.m_adj,) + self.masses + (self.masses_anti or ())

    @property
    def table_key(self) -> Tuple[str, int, int, int, str]:  # family, rank, N_f, N_f', realization
        return self.family, self.rank, self.n_fund, len(self.masses_anti or ()), self.realization


@lru_cache(maxsize=None)
def _root_data(family: str, rank: int):
    """Per-root (coordinates, weight factor, integer gradient exponents)."""
    data = []
    for alpha in lie_roots.generate_roots(*lie_roots.root_family(family, rank)):
        c = lie_roots.weight_factor(alpha)
        exps = tuple(c * a for a in alpha)
        if any(e.denominator != 1 for e in exps):
            raise AssertionError("non-integer gradient exponent for root %r" % (alpha,))
        data.append(
            (
                tuple(float(a) for a in alpha),
                float(c),
                tuple(int(e) for e in exps),
            )
        )
    return tuple(data)


def _check_sigma(spec: GaugeTheorySpec, sigma: Sequence[float]) -> np.ndarray:
    sig = np.asarray(sigma, dtype=complex)
    if sig.shape != (spec.dim,):
        raise ValueError("sigma must have %d components" % spec.dim)
    return sig


# ---------------------------------------------------------------------------
# superpotential value and gradient: one term table per shape
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _term_table(family: str, rank: int, n_f: int, n_anti: int,
                realization: str) -> Tuple[np.ndarray, np.ndarray]:
    """Every term of W as a weight a_t and a row V_t of one matrix V.

    W = sum_t a_t [Li2(e^{-i z_t}) - z_t^2/4] with z = V x, where x is
    sigma || (m_adj, masses, masses_anti).  A root alpha with weight factor c
    gives a gauge term (a, z) = (-w, -k alpha.sigma) and an adjoint term
    (w, k (alpha.sigma + m_adj)); a fundamental mass m on the weight s e_j
    gives (h, 2 (s sigma_j + m)), an anti-fundamental mass m' gives
    (h, 2 (-s sigma_j + m')).  Realization II puts c into the argument,
    (k, w, h) = (c, 1, 1); realization I keeps it as a coefficient,
    (k, w, h) = (2, c/2, 1/2).  A couples the weights e_j only, every other
    family +-e_j.
    """
    width = rank + 1 + n_f + n_anti
    half = realization == "I"
    terms = []
    for alpha, c, _ in _root_data(family, rank):
        k, w = (2.0, 0.5 * c) if half else (c, 1.0)
        gauge = np.zeros(width)
        gauge[:rank] = alpha
        adjoint = gauge.copy()
        adjoint[rank] = 1.0
        terms += [(-w, -k * gauge), (w, k * adjoint)]
    h = 0.5 if half else 1.0
    for s in (1.0,) if family == "A" else (1.0, -1.0):
        for j in range(rank):
            for col in range(rank + 1, width):
                matter = np.zeros(width)
                matter[j] = s if col <= rank + n_f else -s
                matter[col] = 1.0
                terms.append((h, 2.0 * matter))
    a = np.array([t[0] for t in terms])  # no terms: A1 or D1 without matter, W = 0
    v = np.array([t[1] for t in terms]).reshape(len(terms), width)
    a.flags.writeable = v.flags.writeable = False
    return a, v


def _term_arguments(spec: GaugeTheorySpec,
                    sigma: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The term table of ``spec``'s shape and every term's argument z = V x at sigma."""
    a, v = _term_table(*spec.table_key)
    return a, v, v @ np.concatenate((_check_sigma(spec, sigma), spec.params))


def superpotential_value(spec: GaugeTheorySpec, sigma: Sequence[float]) -> complex:
    """W at sigma: sum_t a_t [Li2(e^{-i z_t}) - z_t^2/4]."""
    a, _, z = _term_arguments(spec, sigma)
    return complex(a @ (dilog(np.exp(-1j * z)) - 0.25 * z * z))


def superpotential_grad(spec: GaugeTheorySpec, sigma: Sequence[float]) -> np.ndarray:
    """Analytic gradient dW/dsigma = V_sigma^T [a (i log(1 - e^{-iz}) - z/2)]."""
    a, v, z = _term_arguments(spec, sigma)
    gap = 1.0 - np.exp(-1j * z)
    if not gap.all():
        raise SingularPointError("a superpotential term sits on its pole e^(-iz) = 1")
    return v[:, :spec.dim].T @ (a * (1j * np.log(gap) - 0.5 * z))


def vacuum_from_gradient(spec: GaugeTheorySpec, sigma: Sequence[float]) -> np.ndarray:
    """exp(i*dW/dsigma_j) for every j: the gradient route to the products."""
    return np.exp(1j * superpotential_grad(spec, sigma))


# ---------------------------------------------------------------------------
# vacuum equations: one row table per shape
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _vacuum_table(family: str, rank: int, n_f: int, n_anti: int, realization: str,
                  form: str) -> RowTable:
    """The ratios of every vacuum equation of one shape, as one row table.

    ``form`` is "root" (the square-rooted products), "full" (the
    unsquare-rooted ones) or "rational" (the two-dimensional limit: the
    root rows with linear factors).  Equation j is exp(i dW/dsigma_j)
    collapsed pair by pair: each root alpha with gradient exponent
    e = c alpha_j > 0 gives one ratio sin(c (alpha.sigma - m_adj) / 2) /
    sin(c (alpha.sigma + m_adj) / 2), the +-alpha pair, at power e / h in
    the root form and 2e / h in the full one.  h = 2 where every exponent of
    the family is even, so that the full form is exp(i dW/dsigma_j) and the
    root form its square root; E8's half-integer roots give odd exponents,
    h = 1, and its root form is exp(i dW/dsigma_j) itself.  The matter rows
    come first: A's weights e_j, realization II's +-e_j; realization I's
    split into fundamental and anti-fundamental halves, so its full form is
    not the square of its (paired) root form.  Columns are
    sigma || (m_adj, masses, masses_anti).
    """
    if form == "rational" and family not in CLASSICAL:
        raise ValueError("the rational limit is implemented for the classical families")
    if family == "A" and n_f != n_anti:
        raise ValueError("A-family vacuum product needs N_f = N_f'")
    if realization == "I" and family != "A" and form != "full" and n_f != n_anti:
        raise ValueError("paired square-rooted form needs N_f = N_f'")
    roots = _root_data(family, rank)
    h = 2 if all(e % 2 == 0 for _, _, exps in roots for e in exps) else 1
    adj, fund, anti = rank, rank + 1, rank + 1 + n_f
    p = 2 if form == "full" else 1
    ratios: List = []  # (equation, power, numerator, denominator)
    for j in range(rank):
        if family == "A":
            for i in range(n_f):
                ratios.append((j, p, {j: 1, anti + i: -1}, {j: 1, fund + i: 1}))
        elif realization == "II":  # the weights +-e_j, exponent 2
            for i in range(n_f):
                ratios.append((j, 2 * p // h, {j: 1, fund + i: -1}, {j: -1, fund + i: -1}))
        elif form == "full":
            for col in range(fund, fund + n_f + n_anti):
                ratios.append((j, 1, {j: 1, col: -1}, {j: -1, col: -1}))
        else:  # paired square root, exact only on the equal-mass locus
            for i in range(n_f):
                ratios.append((j, 1, {j: 1, anti + i: -1}, {j: -1, fund + i: -1}))
        for alpha, c, exps in roots:
            if exps[j] > 0:
                arg = {k: 0.5 * c * a for k, a in enumerate(alpha) if a}
                ratios.append((j, p * exps[j] // h,
                               {**arg, adj: -0.5 * c}, {**arg, adj: 0.5 * c}))
    kind = "linear" if form == "rational" else "sin"
    return RowTable(kind, rank, rank, 1 + n_f + n_anti, ratios, "zero_set", SINGULAR_TOL)


def _vacuum_system(spec: GaugeTheorySpec, form: str) -> Tuple[RowTable, np.ndarray]:
    """The vacuum row table of ``spec`` and its parameter vector."""
    return _vacuum_table(*spec.table_key, form), np.array(spec.params, dtype=complex)


def _vacuum_value(spec: GaugeTheorySpec, sigma: Sequence[float], j: int, form: str) -> complex:
    sig = _check_sigma(spec, sigma)
    if not 0 <= j < spec.dim:
        raise ValueError("equation index %d out of range" % j)
    table, params = _vacuum_system(spec, form)
    return table.product(np.concatenate((sig, params)), j)


def vacuum_lhs(
    spec: GaugeTheorySpec,
    sigma: Sequence[float],
    j: int,
) -> complex:
    """Left-hand side of the j-th vacuum equation (contract: equals the branch sign).

    The root form of :func:`_vacuum_table`: in realization II, the square
    root of exp(i dW/dsigma_j) for every family but E8, whose odd gradient
    exponents leave no square root; there it is exp(i dW/dsigma_j) itself.
    """
    return _vacuum_value(spec, sigma, j, "root")


def vacuum_lhs_squared(spec: GaugeTheorySpec, sigma: Sequence[float], j: int) -> complex:
    """The full (unsquare-rooted) vacuum product: the square of :func:`vacuum_lhs`.

    In realization II it equals exp(i dW/dsigma_j) for every family but E8,
    whose full form is that exponential squared.  Realization I splits the
    matter rows into fundamental and anti-fundamental halves, so the square
    holds there only at equal mass lists.
    """
    return _vacuum_value(spec, sigma, j, "full")


def vacuum_lhs_2d(
    spec: GaugeTheorySpec,
    sigma: Sequence[float],
    j: int,
) -> complex:
    """Rational vacuum product of the two-dimensional limit (sin x -> x)."""
    return _vacuum_value(spec, sigma, j, "rational")


def _vacuum_lhs_values(spec: GaugeTheorySpec, sigma: Sequence[float],
                       regime: str) -> List[complex]:
    """Every vacuum equation's left-hand side at sigma in ``regime``.

    Each regime evaluates its :data:`REGIME_FORM`: the root form
    :func:`vacuum_lhs` in "3d", the rational :func:`vacuum_lhs_2d` in "2d".
    Calling the public evaluators per equation keeps each call visible to
    wrappers installed on them.
    """
    lhs = {"root": vacuum_lhs, "rational": vacuum_lhs_2d}[REGIME_FORM[regime]]
    return [lhs(spec, sigma, j) for j in range(spec.dim)]


def _vacuum_stack(spec: GaugeTheorySpec, form: str, sigma: np.ndarray,
                  params: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Every vacuum equation of ``spec``'s shape in ``form`` at a stack of points.

    ``sigma`` is (S, dim); ``params`` (S, 1 + N_f + N_f') holds each point's
    m_adj || masses || masses_anti, and defaults to ``spec``'s own.  Returns
    the values (S, dim) and the singular mask (S,) of
    :meth:`RowTable.products`: a point is singular exactly where the
    per-equation products raise :class:`SingularPointError`.
    """
    table, own = _vacuum_system(spec, form)
    if params is None:
        params = np.broadcast_to(own, (len(sigma), len(own)))
    return table.products(np.concatenate((sigma, params), axis=1))


def _vacuum_lhs_stack(spec: GaugeTheorySpec, regime: str, sigma: np.ndarray,
                      params: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_vacuum_lhs_values` at a stack of points, as :func:`_vacuum_stack` gives it."""
    return _vacuum_stack(spec, REGIME_FORM[regime], sigma, params)
