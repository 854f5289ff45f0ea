"""Effective superpotentials on Lie-algebra root data and their vacuum equations.

The superpotential of a theory with adjoint and fundamental matter is a sum
over roots and weights of terms a * [Li2(e^{-iz}) - z^2/4], z affine in sigma
and the masses; :func:`_term_table` states them once per shape (family,
rank, N_f, N_f', realization), and the value and the gradient read it.
Exponentiating one component of the gradient collapses, pair by pair, into
a product of sine ratios.  Those closed products are the
authoritative vacuum equations; they are stated once, as one row table per
shape and form built by :func:`_vacuum_table`, and every product form
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

FAMILIES = ("A", "B", "C", "D", "E8", "F4")

#: minimum distance of any sine argument to the singular set pi*Z
SINGULAR_TOL = 1e-6

#: unit of sigma and of the masses in each regime: the trigonometric ("3d")
#: products have period pi, the rational ("2d") limit has no period
REGIME_SCALE = {"3d": math.pi, "2d": 1.0}


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
        if self.family in ("E8", "F4") and self.realization == "I":
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
        return 8 if self.family == "E8" else self.rank


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
    n = 8 if family == "E8" else rank
    width = n + 1 + n_f + n_anti
    half = realization == "I"
    terms = []
    for alpha, c, _ in _root_data(family, rank):
        k, w = (2.0, 0.5 * c) if half else (c, 1.0)
        gauge = np.zeros(width)
        gauge[:n] = alpha
        adjoint = gauge.copy()
        adjoint[n] = 1.0
        terms += [(-w, -k * gauge), (w, k * adjoint)]
    h = 0.5 if half else 1.0
    for s in (1.0,) if family == "A" else (1.0, -1.0):
        for j in range(n):
            for col in range(n + 1, width):
                matter = np.zeros(width)
                matter[j] = s if col <= n + n_f else -s
                matter[col] = 1.0
                terms.append((h, 2.0 * matter))
    a, v = (np.array(t) for t in zip(*terms))
    a.flags.writeable = v.flags.writeable = False
    return a, v


def _term_arguments(spec: GaugeTheorySpec,
                    sigma: Sequence[float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The term table of ``spec``'s shape and every term's argument z = V x at sigma."""
    sig = _check_sigma(spec, sigma)
    anti = spec.masses_anti or ()
    a, v = _term_table(spec.family, spec.rank, spec.n_fund, len(anti), spec.realization)
    return a, v, v @ np.concatenate((sig, (spec.m_adj,) + spec.masses + anti))


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
    """Rows of every vacuum equation of one shape.

    ``form`` is "root" (the square-rooted products), "full" (the
    unsquare-rooted ones) or "rational" (the two-dimensional limit: the
    root rows with linear factors and the trig-only cos rows dropped).  The
    full form doubles every root power except where it is not the square of
    the square root: B's prefactor sin(2x) and realization I's matter rows,
    which split into fundamental and anti-fundamental halves.  Columns are
    sigma || (m_adj, masses, masses_anti) || 1.
    """
    if form == "rational" and family in ("E8", "F4"):
        raise ValueError("the rational limit is implemented for the classical families")
    if family == "A" and n_f != n_anti:
        raise ValueError("A-family vacuum product needs N_f = N_f'")
    if realization == "I" and family != "A" and form != "full" and n_f != n_anti:
        raise ValueError("paired square-rooted form needs N_f = N_f'")
    n = 8 if family == "E8" else rank
    adj, fund, anti = n, n + 1, n + 1 + n_f
    p = 2 if form == "full" else 1
    rows: List = []

    def ratio(j, power, num, den, shift=0.0):
        rows.append((j, power, num, shift))
        rows.append((j, -power, den, shift))

    for j in range(n):
        if family == "E8":
            # the pairwise-collapsed gradient exponential; the constants
            # (-2i)^(-e) (2i)^(-e) = 4^(-e) multiply to 1, since the roots
            # come in +- pairs and the exponents e sum to zero
            for alpha, c, exps in _root_data(family, rank):
                e = exps[j] * p
                if e:
                    arg = {k: 0.5 * c * a for k, a in enumerate(alpha) if a}
                    rows.append((j, -e, arg, 0.0))
                    rows.append((j, -e, {**arg, adj: 0.5 * c}, 0.0))
            for i in range(n_f):  # weights +-e_j, argument doubled
                ratio(j, 2 * p, {j: 1, fund + i: -1}, {j: -1, fund + i: -1})
            continue
        if family == "A":
            for i in range(n_f):
                ratio(j, p, {j: 1, anti + i: -1}, {j: 1, fund + i: 1})
            for k in range(n):
                if k != j:
                    ratio(j, p, {j: 1, k: -1, adj: -1}, {j: 1, k: -1, adj: 1})
            continue
        # prod over k != j and both signs of sin(s_j +- s_k - m)/sin(-s_j +- s_k - m)
        for k in range(n):
            if k != j:
                for sgn in (1, -1):
                    ratio(j, p, {j: 1, k: sgn, adj: -1}, {j: -1, k: sgn, adj: -1})
        if realization == "II":
            for i in range(n_f):
                ratio(j, p, {j: 1, fund + i: -1}, {j: -1, fund + i: -1})
        elif form == "full":
            for col in range(fund, fund + n_f + n_anti):
                ratio(j, 1, {j: 1, col: -1}, {j: -1, col: -1})
        else:  # paired square root, exact only on the equal-mass locus
            for i in range(n_f):
                ratio(j, 1, {j: 1, anti + i: -1}, {j: -1, fund + i: -1})
        if family == "B":
            if form == "full":
                ratio(j, 4, {j: 2, adj: -2}, {j: 2, adj: 2})
            else:
                ratio(j, 2, {j: 1, adj: -1}, {j: 1, adj: 1})
                if form == "root":  # cos x = sin(x + pi/2)
                    ratio(j, 2, {j: 1, adj: -1}, {j: 1, adj: 1}, math.pi / 2.0)
        elif family == "C":
            ratio(j, p, {j: 1, adj: -0.5}, {j: 1, adj: 0.5})
        elif family == "F4":
            ratio(j, 2 * p, {j: 1, adj: -1}, {j: 1, adj: 1})
            for sgn in (1, -1):
                half_sum = {k: sgn for k in range(4) if k != j}
                ratio(j, p, {**half_sum, j: 1, adj: -1}, {**half_sum, j: -1, adj: -1})
    kind = "linear" if form == "rational" else "sin"
    return RowTable(kind, n, n, 1 + n_f + n_anti, rows, "zero_set", SINGULAR_TOL)


def _vacuum_system(spec: GaugeTheorySpec, form: str) -> Tuple[RowTable, np.ndarray]:
    """The vacuum row table of ``spec`` and its parameter vector."""
    anti = spec.masses_anti or ()
    table = _vacuum_table(spec.family, spec.rank, spec.n_fund, len(anti),
                          spec.realization, form)
    return table, np.array((spec.m_adj,) + spec.masses + anti + (1.0,), dtype=complex)


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

    The classical families and F4 use the square-rooted closed products; E8
    uses the full product generated from the superpotential gradient.
    """
    return _vacuum_value(spec, sigma, j, "root")


def vacuum_lhs_squared(spec: GaugeTheorySpec, sigma: Sequence[float], j: int) -> complex:
    """The full (unsquare-rooted) vacuum product, evaluated independently.

    For the classical families this is the doubled-argument form whose
    square root gives :func:`vacuum_lhs`; it also equals the exponentiated
    gradient of the realization II superpotential.
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

    The trigonometric regime "3d" evaluates :func:`vacuum_lhs`, the rational
    regime "2d" :func:`vacuum_lhs_2d`.  Calling the public evaluators per
    equation keeps each call visible to wrappers installed on them.
    """
    lhs = {"3d": vacuum_lhs, "2d": vacuum_lhs_2d}[regime]
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
        params = np.broadcast_to(own[:-1], (len(sigma), len(own) - 1))
    return table.products(np.concatenate((sigma, params, np.ones((len(sigma), 1))), axis=1))


def _vacuum_lhs_stack(spec: GaugeTheorySpec, regime: str, sigma: np.ndarray,
                      params: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_vacuum_lhs_values` at a stack of points, as :func:`_vacuum_stack` gives it."""
    return _vacuum_stack(spec, {"3d": "root", "2d": "rational"}[regime], sigma, params)
