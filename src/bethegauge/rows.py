"""Equation systems as row tables, and the one evaluator both sides share.

Every vacuum equation and every Bethe equation is a product of factors

    prod_r f(c_r . (x || p) + shift_r) ** power_r

over the rows r of that equation: x are the unknowns (Coulomb parameters
sigma or Bethe roots u), p the parameters (masses, m_adj, eta, spins,
inhomogeneities, boundary parameters), c_r a rational coefficient vector
and f one of sin, sin(pi .) or the identity (the rational limit).  ``gauge``
builds the vacuum rows from root data and ``chain`` the Bethe rows from
chain data; a table depends only on the shape of its system, never on the
values of the parameters.

The product forms, the solver's log residual, its Jacobian
C^T diag(power f'/f) and its start filter all evaluate the rows through
:meth:`RowTable.factors`.  :meth:`RowTable.product` takes one point;
:meth:`RowTable.products` takes a stack of points, one per sampled draw, and
marks the singular ones with the same guard; the solver passes a stack of
points, one per Newton start, and gets the log sums and Jacobians of the
whole stack from real matrix products.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .specfun import SingularPointError

#: one row: (equation index, power, {column: coefficient}, shift)
Row = Tuple[int, int, Dict[int, float], float]


class RowTable:
    """The rows of one equation system; one factor kind per table.

    A point is x = unknowns || parameters || 1: the last column carries the
    shifts.  sin(pi .) rows store pi * c, so every trig table evaluates sin.
    The singular guard belongs to the side that built the table:
    ``"zero_set"`` rejects any argument within ``guard_tol`` of the zero set
    of f (sin: pi*Z in the complex plane, linear: 0); ``"denominator"``
    rejects any factor of negative power with |f| < ``guard_tol``.
    """

    def __init__(self, kind: str, n_eq: int, n_unknowns: int, n_params: int,
                 rows: Iterable[Row], guard: str, guard_tol: float) -> None:
        rows = list(rows)
        self.kind, self.n_unknowns = kind, n_unknowns
        self.guard, self.guard_tol = guard, guard_tol
        self.scale = math.pi if kind == "sin_pi" else 1.0
        self.coeffs = np.zeros((len(rows), n_unknowns + n_params + 1), dtype=complex)
        for k, (_, _, coeffs, shift) in enumerate(rows):
            for col, c in coeffs.items():
                self.coeffs[k, col] = c
            self.coeffs[k, -1] = shift
        self.coeffs *= self.scale
        self.power = np.array([r[1] for r in rows], dtype=complex)
        if np.any(self.coeffs.imag) or np.any(self.power.imag):
            raise ValueError("row coefficients, shifts and powers must be real")
        eq = np.array([r[0] for r in rows], dtype=int)
        self.by_eq = (eq == np.arange(n_eq)[:, None]).astype(float)
        self.rows_of = tuple(np.flatnonzero(e) for e in self.by_eq)
        self.guarded = np.flatnonzero(self.power.real < 0) if guard == "denominator" else slice(None)
        self.equations = (self,) if n_eq == 1 else tuple(
            RowTable(kind, 1, n_unknowns, n_params,
                     [(0,) + r[1:] for r in rows if r[0] == j], guard, guard_tol)
            for j in range(n_eq)
        )

    @property
    def n_rows(self) -> int:
        return len(self.power)

    # The real matrices of stacked evaluation, each as kron(m, identity(2)): a
    # complex stack times a real matrix is then one real product over the
    # interleaved (re, im) view.  Each is built on first use.

    @cached_property
    def _columns(self) -> np.ndarray:
        """C^T (cols, R): the arguments of a stack."""
        return np.kron(self.coeffs.real.T, np.eye(2))

    @cached_property
    def _sums(self) -> np.ndarray:
        """by_eq^T (R, n_eq): the solver's per-equation log sums."""
        return np.kron(self.by_eq.T, np.eye(2))

    @cached_property
    def _jacobian(self) -> np.ndarray:
        """(R, n_eq * n): the solver's Jacobian rows."""
        jac = self.by_eq.T[:, :, None] * self.coeffs.real[:, None, : self.n_unknowns]
        return np.kron(jac.reshape(self.n_rows, len(self.by_eq) * self.n_unknowns), np.eye(2))

    def factors(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Arguments and factor values at the point x, or (S, R) at a stack x (S, cols)."""
        if x.ndim == 1:
            a = self.coeffs.dot(x)
        else:
            # real product of real coefficients: complex ones over many rows slow later complex sin
            a = _real_product(x, self._columns)
        return a, (a if self.kind == "linear" else np.sin(a))

    def _singular(self, a: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The guard: which guarded factors of a point (or of each point of a stack) are singular."""
        a, mag = a[..., self.guarded], np.abs(f[..., self.guarded])
        if self.guard == "denominator" or self.kind == "linear":
            return mag < self.guard_tol
        hit = mag < 2.0 * self.guard_tol  # within tol of pi*Z forces |sin| < 2 tol
        if hit.any():
            r = a.real / math.pi
            hit &= np.hypot(np.abs(r - np.rint(r)) * math.pi, a.imag) < self.guard_tol
        return hit

    def product(self, x: np.ndarray) -> complex:
        """The guarded product over every row; meant for one-equation tables."""
        a, f = self.factors(x)
        hit = self._singular(a, f)
        if hit.any():
            raise SingularPointError("singular factor at argument %r (%s guard, tol %g)"
                                     % (complex(a[self.guarded][hit][0]) / self.scale,
                                        self.guard, self.guard_tol))
        return complex(math.prod((f ** self.power).tolist()))

    def products(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every equation's product at a stack x (S, cols), guarded as :meth:`product`.

        Returns the values (S, n_eq) and the singular mask (S,): a point is
        singular exactly where :meth:`product` raises for one of its
        equations.  The values of a singular point are unspecified.  A point's
        values do not depend on the other points of its stack: a one-point
        stack is evaluated as two copies of the point, since numpy takes a
        single row through other kernels (BLAS matrix-vector for the
        arguments, a scalar loop for the products) that round differently.
        """
        if len(x) == 1:
            values, singular = self.products(np.concatenate((x, x)))
            return values[:1], singular[:1]
        a, f = self.factors(x)
        with np.errstate(all="ignore"):  # a factor at a zero, masked as singular
            fp = f ** self.power
            values = np.stack([fp[:, rows].prod(axis=1) for rows in self.rows_of], axis=1)
        return values, self._singular(a, f).any(axis=1)

    def log_sum(self, f: np.ndarray, mag: Optional[np.ndarray] = None) -> np.ndarray:
        """Per equation, sum_r power_r log f_r on the principal branch: (S, R) -> (S, n_eq).

        The log is taken as log|f| + i arg f, from ``mag`` = |f| when the
        caller has it: real log and arctan2 cost a fraction of complex log.
        """
        logs = np.empty(f.shape, dtype=complex)
        logs.real = np.log(np.abs(f) if mag is None else mag)
        logs.imag = np.angle(f)
        logs *= self.power.real
        return _real_product(logs, self._sums)

    def log_jacobian(self, a: np.ndarray) -> np.ndarray:
        """d log_sum / d unknowns, C^T diag(power f'/f) per equation: (S, R) -> (S, n_eq, n)."""
        g = self.power.real / (a if self.kind == "linear" else np.tan(a))
        return _real_product(g, self._jacobian).reshape(len(a), len(self.by_eq), self.n_unknowns)


def _real_product(z: np.ndarray, doubled: np.ndarray) -> np.ndarray:
    """z @ m for a complex stack z (S, k) and a real m, given doubled = kron(m, identity(2))."""
    return (np.ascontiguousarray(z, dtype=complex).view(float) @ doubled).view(complex)
