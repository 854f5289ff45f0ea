"""Effective superpotentials on Lie-algebra root data and their vacuum equations.

The superpotential of a theory with adjoint and fundamental matter is a sum
of dilogarithms and quadratic terms over roots and weights.  Exponentiating
one component of its gradient collapses, pair by pair, into a product of
sine ratios.  Those closed products are the authoritative vacuum equations;
they are stated once, as one row table per shape (family, rank, N_f, N_f',
realization, form) built by :func:`_vacuum_table`, and every product form
(square-rooted, full, rational) and the solver's log residual evaluate that
table.  The gradient route never touches the table and stays an independent
cross-check.

Two realizations of the weight normalization are supported:

* ``II`` puts the per-root factor 4/|alpha|^2 into the exponents (doubled
  arguments); fundamentals are doubled.  This is the default.
* ``I`` keeps the factor as a multiplicity-style coefficient and carries an
  explicit anti-fundamental mass list.  Its closed vacuum products split
  the matter factor into fundamental and anti-fundamental halves; with
  equal mass lists the squared equations coincide with realization II.

Branch choice (whether a product is pinned to +1 or -1) is metadata on the
equation contract and never modifies the left-hand side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import lie_roots
from .rows import RowTable
from .specfun import SingularPointError, dilog, dilog_qpoch_link

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
    beta2: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError("family must be one of %s" % (FAMILIES,))
        if self.family == "E8" and self.rank != 8:
            raise ValueError("E8 has rank 8")
        if self.family == "F4" and self.rank != 4:
            raise ValueError("F4 has rank 4")
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
                    "anti-fundamental masses only enter the A family or realization I"
                )
        if self.beta2 <= 0:
            raise ValueError("beta2 must be positive")

    @property
    def dim(self) -> int:
        return 8 if self.family == "E8" else self.rank


def equation_count(spec: GaugeTheorySpec) -> int:
    """Number of vacuum equations: one per Cartan direction."""
    return spec.dim


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


def _fund_weight_axes(spec: GaugeTheorySpec) -> Tuple[int, ...]:
    # signs of the fundamental weight set on each axis: A couples e_j only,
    # every other family couples +-e_j
    return (1,) if spec.family == "A" else (1, -1)


def _check_sigma(spec: GaugeTheorySpec, sigma: Sequence[float]) -> np.ndarray:
    sig = np.asarray(sigma, dtype=complex)
    if sig.shape != (spec.dim,):
        raise ValueError("sigma must have %d components" % spec.dim)
    return sig


# ---------------------------------------------------------------------------
# superpotential value and gradient
# ---------------------------------------------------------------------------


def _terms_realization_ii(spec: GaugeTheorySpec, sig: np.ndarray):
    """Yield (dilog argument exponent, quadratic linear form, kind) triples.

    Each term of beta2*W is  s * [ Li2(e^{i*coef*form}) - (coef*form)^2/4 ]
    with s = -1 for gauge terms (coef = +c) and s = +1 for matter terms
    (coef = -c for adjoint, -2 for fundamentals).
    """
    m_adj = spec.m_adj
    for alpha, c, _ in _root_data(spec.family, spec.rank):
        t = sum(a * s for a, s in zip(alpha, sig))
        yield ("gauge", c, t, alpha)
        yield ("adjoint", c, t + m_adj, alpha)
    for axis_sign in _fund_weight_axes(spec):
        for j in range(spec.dim):
            w = [0.0] * spec.dim
            w[j] = axis_sign
            for m in spec.masses:
                yield ("fund", 2.0, axis_sign * sig[j] + m, tuple(w))
    if spec.family == "A":
        for j in range(spec.dim):
            w = [0.0] * spec.dim
            w[j] = -1.0
            for m in spec.masses_anti:
                yield ("fund", 2.0, -sig[j] + m, tuple(w))


def _terms_realization_i(spec: GaugeTheorySpec, sig: np.ndarray):
    """Like the above, with the weight factor as a coefficient.

    Terms of beta2*W; matter arguments are doubled but keep coefficient 1,
    gauge and adjoint carry the multiplicity c; the overall prefactor 1/2 is
    applied by the callers.
    """
    m_adj = spec.m_adj
    for alpha, c, _ in _root_data(spec.family, spec.rank):
        t = sum(a * s for a, s in zip(alpha, sig))
        yield ("gauge", c, t, alpha)
        yield ("adjoint", c, t + m_adj, alpha)
    for axis_sign in _fund_weight_axes(spec):
        for j in range(spec.dim):
            w = [0.0] * spec.dim
            w[j] = axis_sign
            for m in spec.masses:
                yield ("fund", 1.0, axis_sign * sig[j] + m, tuple(w))
            for m in spec.masses_anti:
                yield ("fund", 1.0, -axis_sign * sig[j] + m, tuple(-x for x in w))


def superpotential_value(spec: GaugeTheorySpec, sigma: Sequence[float]) -> complex:
    """W evaluated at sigma (the combination beta2*W divided by beta2)."""
    sig = _check_sigma(spec, sigma)
    total = 0j
    if spec.realization == "II":
        for kind, c, x, _ in _terms_realization_ii(spec, sig):
            if kind == "gauge":
                total += -dilog(cmath.exp(1j * c * x)) + (c * x) ** 2 / 4.0
            elif kind == "adjoint":
                total += dilog(cmath.exp(-1j * c * x)) - (c * x) ** 2 / 4.0
            else:
                total += dilog(cmath.exp(-2j * x)) - x * x
    else:
        for kind, c, x, _ in _terms_realization_i(spec, sig):
            if kind == "gauge":
                total += 0.5 * c * (-dilog(cmath.exp(2j * x)) + x * x)
            elif kind == "adjoint":
                total += 0.5 * c * (dilog(cmath.exp(-2j * x)) - x * x)
            else:
                total += 0.5 * (dilog(cmath.exp(-2j * x)) - x * x)
    return total / spec.beta2


def superpotential_grad(spec: GaugeTheorySpec, sigma: Sequence[float]) -> np.ndarray:
    """Analytic gradient dW/dsigma_j, assembled from -log(1-e^..) pieces."""
    sig = _check_sigma(spec, sigma)
    grad = np.zeros(spec.dim, dtype=complex)
    if spec.realization == "II":
        for kind, c, x, w in _terms_realization_ii(spec, sig):
            if kind == "gauge":
                d = 1j * c * cmath.log(1.0 - cmath.exp(1j * c * x)) + c * c * x / 2.0
            elif kind == "adjoint":
                d = 1j * c * cmath.log(1.0 - cmath.exp(-1j * c * x)) - c * c * x / 2.0
            else:
                d = 2j * cmath.log(1.0 - cmath.exp(-2j * x)) - 2.0 * x
            for j, wj in enumerate(w):
                if wj != 0.0:
                    grad[j] += wj * d
    else:
        for kind, c, x, w in _terms_realization_i(spec, sig):
            if kind == "gauge":
                d = 0.5 * c * (2j * cmath.log(1.0 - cmath.exp(2j * x)) + 2.0 * x)
            elif kind == "adjoint":
                d = 0.5 * c * (2j * cmath.log(1.0 - cmath.exp(-2j * x)) - 2.0 * x)
            else:
                d = 0.5 * (2j * cmath.log(1.0 - cmath.exp(-2j * x)) - 2.0 * x)
            for j, wj in enumerate(w):
                if wj != 0.0:
                    grad[j] += wj * d
    return grad / spec.beta2


def vacuum_from_gradient(spec: GaugeTheorySpec, sigma: Sequence[float]) -> np.ndarray:
    """exp(beta2*i*dW/dsigma_j) for every j: the gradient route to the products."""
    grad = superpotential_grad(spec, sigma)
    return np.exp(1j * spec.beta2 * grad)


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
    return table.equations[j].product(np.concatenate((sig, params)))


def vacuum_lhs(
    spec: GaugeTheorySpec,
    sigma: Sequence[float],
    j: int,
    branch: VacuumBranch = BRANCH_PLUS,
) -> complex:
    """Left-hand side of the j-th vacuum equation (contract: equals branch.sign).

    The classical families and F4 use the square-rooted closed products; E8
    uses the full product generated from the superpotential gradient.  The
    branch never enters the value.
    """
    del branch  # contract metadata only
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
    branch: VacuumBranch = BRANCH_PLUS,
) -> complex:
    """Rational vacuum product of the two-dimensional limit (sin x -> x)."""
    del branch
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


# ---------------------------------------------------------------------------
# one-loop asymptotics
# ---------------------------------------------------------------------------


@dataclass
class OneLoopReport:
    beta2s: Tuple[float, ...]
    max_rel_errors: Tuple[float, ...]
    rate: float
    n_terms: int = 0

    @property
    def decreasing(self) -> bool:
        pairs = zip(self.max_rel_errors, self.max_rel_errors[1:])
        return all(b <= a for a, b in pairs)


def one_loop_asymptotic_check(
    spec: GaugeTheorySpec,
    sigma: Sequence[float],
    beta2s: Sequence[float],
    tol: float = 1e-12,
) -> OneLoopReport:
    """Check each dilogarithm of the superpotential against its product form.

    Every dilog argument z appearing in beta2*W at sigma is compared with
    -2*beta2*log prod_k (1 - z e^(-2 beta2 k)); the report carries the worst
    relative error per beta2 and the fitted log-log convergence rate.
    """
    sig = _check_sigma(spec, sigma)
    if spec.realization == "II":
        terms = list(_terms_realization_ii(spec, sig))
    else:
        terms = list(_terms_realization_i(spec, sig))
    args: List[complex] = []
    for kind, c, x, _ in terms:
        if spec.realization == "II":
            z = cmath.exp(1j * c * x) if kind == "gauge" else (
                cmath.exp(-1j * c * x) if kind == "adjoint" else cmath.exp(-2j * x)
            )
        else:
            z = cmath.exp(2j * x) if kind == "gauge" else cmath.exp(-2j * x)
        if abs(1.0 - z) < SINGULAR_TOL:
            raise SingularPointError("dilog argument %r too close to 1" % (z,))
        args.append(z)

    betas = tuple(float(b) for b in beta2s)
    if any(b <= 0 for b in betas):
        raise ValueError("beta2 values must be positive")
    maxima = []
    for b2 in betas:
        worst = 0.0
        for z in args:
            _, _, rel = dilog_qpoch_link(z, b2, tol)
            worst = max(worst, rel)
        maxima.append(worst)

    rate = float("nan")
    usable = [(b, e) for b, e in zip(betas, maxima) if e > 0]
    if len(usable) >= 2:
        xs = np.log([b for b, _ in usable])
        ys = np.log([e for _, e in usable])
        rate = float(np.polyfit(xs, ys, 1)[0])
    return OneLoopReport(
        beta2s=betas,
        max_rel_errors=tuple(maxima),
        rate=rate,
        n_terms=len(args),
    )
