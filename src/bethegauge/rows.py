"""Equation systems as row tables, and the one evaluator both sides share.

Every vacuum equation and every Bethe equation is a product of ratios

    prod_k (f(n_k . x) / f(d_k . x)) ** power_k

over the ratios k of that equation: x = unknowns || parameters is a point,
the unknowns being Coulomb parameters sigma or Bethe roots u and the
parameters masses, m_adj, eta, spins, inhomogeneities or boundary
parameters; n_k and d_k are rational coefficient vectors and f one of sin,
sin(pi .) or the identity (the rational limit).  A table stores ratio k as
two rows, 2k its numerator at +power_k and 2k + 1 its denominator at
-power_k, and equation j's rows are the one range offsets[j]:offsets[j+1].
``gauge`` builds the vacuum ratios from root data and ``chain`` the Bethe
ratios from chain data; a table depends only on the shape of its system,
never on the values of the parameters.

:meth:`RowTable.product` evaluates one equation's rows at one point, for
the public per-equation evaluators.  Everything else works on stacks of
points, whose row arguments are one real matrix product
(:meth:`RowTable.arguments`).  :meth:`RowTable.products` takes one point
per sampled draw, evaluates its sines and marks the singular points with
the same guard, and :func:`deviation` reads a point's residual from what it
returns.  The solver passes one point per start, to its start filter and
to its Newton steps, and gets the pole mask, the log sums and the
Jacobians C^T diag(power f'/f) of the whole stack from one real-arithmetic
kernel (:meth:`RowTable.log_terms`) and real matrix products, never from
complex sin, log or tan: with a = x + iy, a sin row has

    |f|^2 = sin^2 x + sinh^2 y,   arg f = atan2(cos x sinh y, sin x cosh y),
    f'/f = (sin x cos x - i sinh y cosh y) / |f|^2,

and a linear row |a|^2, arg a and f'/f = 1/a = conj(a) / |a|^2.  The
kernel takes the sin forms divided through by cosh^2 y, so that it
overflows no sooner than complex sin does, and sin x and cos x from the
half angle, t = tan(x/2):

    sin x = 2t / (1 + t^2),   cos x = (1 - t^2) / (1 + t^2),

since numpy takes float64 tan through a SIMD loop but sin and cos through
scalar libm (about 7x slower each).  These forms are accurate to a few
units in the last place relative to sin x, and to about 1e-16 absolute in
cos x (near cos x = 0 that is not relative: rounding t near 1 loses it).
tan(x/2) stays below about 1e19 at every double x, so t^2 never overflows.

The kernel allocates nothing of the size of its stack: every intermediate
goes into the views, the first S rows, of the arrays of one
:class:`LogScratch`.  The solver owns one for its start filter and one per
Newton run, each sized to the widest stack it scores, and drops each when
that step returns.  A new set of arrays per call cost a page fault per 4 KiB
touched, over and over, since the allocator gave the freed pages back to
the system; keeping the scratch on the cached tables instead would hold
megabytes per table for the life of the process.  The ratios f'/f are read
from the scratch (:meth:`RowTable.log_ratios`) only at the points Newton
takes, after its step test, and like the log sums they come back as new
arrays.

A point of a stack whose row arguments are all real takes real arithmetic
in :meth:`RowTable.products`: real sin (or the argument), and integer
powers by binary powering and one reciprocal for a negative power, the
operations numpy's complex sin and power make on a zero imaginary part.
Both arithmetics then take each equation's product by one ordered
reduction over its rows, so the values equal the complex path's wherever
real and complex sin agree.  The choice is made point by point, never per
stack, so that a point's values never depend on the other points of its
stack.
:meth:`RowTable.product` keeps complex sin, power and product at every
point: it is the reference the stacked path is tested against.

:meth:`RowTable.products` gives a point the same bits at any stack height
and position, but the stacked Jacobian product need not: at one point of
the B3 rational vacuum table, its rows differed in their last bits at 139
of 147 stack heights and positions.  So a Newton start's last bits depend
on which other starts are alive with it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .specfun import SingularPointError

#: one ratio: (equation index, power, {column: numerator coefficient},
#: {column: denominator coefficient})
Ratio = Tuple[int, int, Dict[int, float], Dict[int, float]]


class RowTable:
    """The rows of one equation system; one factor kind per table.

    Built from the system's ratios, each stored as two rows: the numerator
    at +power, then the denominator at -power.  A point is x = unknowns ||
    parameters, and equation j's rows are offsets[j]:offsets[j+1].
    sin(pi .) rows store pi * c, so every trig table evaluates sin.  The
    singular guard belongs to the side that built the table: ``"zero_set"``
    rejects any argument within ``guard_tol`` of the zero set of f (sin:
    pi*Z in the complex plane, linear: 0); ``"denominator"`` rejects any
    factor of negative power with |f| < ``guard_tol``.
    """

    def __init__(self, kind: str, n_eq: int, n_unknowns: int, n_params: int,
                 ratios: Iterable[Ratio], guard: str, guard_tol: float) -> None:
        ratios = list(ratios)
        self.kind, self.n_unknowns = kind, n_unknowns
        self.guard, self.guard_tol = guard, guard_tol
        self.scale = math.pi if kind == "sin_pi" else 1.0
        self.coeffs = np.zeros((2 * len(ratios), n_unknowns + n_params), dtype=complex)
        for k, (_, _, num, den) in enumerate(ratios):
            for row, coeffs in ((2 * k, num), (2 * k + 1, den)):
                for col, c in coeffs.items():
                    self.coeffs[row, col] = c
        self.coeffs *= self.scale
        self.power = np.array([sign * r[1] for r in ratios for sign in (1, -1)], dtype=complex)
        if np.any(self.coeffs.imag) or np.any(self.power.imag):
            raise ValueError("ratio coefficients and powers must be real")
        n = self.power.real  # numpy's complex power multiplies out integers below 100
        if np.any((n != np.rint(n)) | (n == 0) | (np.abs(n) >= 100)):
            raise ValueError("powers must be non-zero integers below 100 in magnitude")
        eq = np.array([r[0] for r in ratios], dtype=int)
        if np.any(np.diff(eq) < 0) or np.any((eq < 0) | (eq >= n_eq)):
            raise ValueError("ratios must come equation by equation, each of one of the "
                             "%d equations" % n_eq)
        self.offsets = 2 * np.searchsorted(eq, np.arange(n_eq + 1))
        self.by_eq = np.repeat(np.eye(n_eq), np.diff(self.offsets), axis=1)
        self.guarded = self._guarded(self.power)
        # for the real path: the rows raised to each |power| > 1 and the inverted rows;
        # for the reduction: the equations that have rows
        self._raised = tuple((k, np.flatnonzero(np.abs(n) == k))
                             for k in sorted({int(abs(p)) for p in n}) if k > 1)
        self._inverted = np.flatnonzero(n < 0)
        self._filled = np.flatnonzero(np.diff(self.offsets))

    @property
    def n_rows(self) -> int:
        return len(self.power)

    @property
    def n_eq(self) -> int:
        return len(self.offsets) - 1

    def _guarded(self, power: np.ndarray):
        """The rows of ``power`` the guard reads: those of negative power, or all."""
        return np.flatnonzero(power.real < 0) if self.guard == "denominator" else slice(None)

    # The real matrices of stacked evaluation, each as kron(m, identity(2)) (the
    # log sums halve the real part): a complex stack times a real matrix is
    # then one real product over the interleaved (re, im) view.  Each is built
    # on first use.

    @cached_property
    def _columns(self) -> np.ndarray:
        """C^T (cols, R): the arguments of a stack."""
        return np.kron(self.coeffs.real.T, np.eye(2))

    @cached_property
    def _sums(self) -> np.ndarray:
        """diag(power) by_eq^T (R, n_eq): the solver's per-equation log sums,
        taken from (log |f|^2, arg f), hence the 1/2 on the real part."""
        return np.kron(self.power.real[:, None] * self.by_eq.T, np.diag([0.5, 1.0]))

    @cached_property
    def _jacobian(self) -> np.ndarray:
        """(R, n_eq * n): the solver's Jacobian rows, power times C^T per equation."""
        jac = (self.power.real[:, None] * self.by_eq.T)[:, :, None] \
            * self.coeffs.real[:, None, : self.n_unknowns]
        return np.kron(jac.reshape(self.n_rows, self.n_eq * self.n_unknowns), np.eye(2))

    def arguments(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The row arguments (S, R) at a stack x (S, cols), into ``out`` if given."""
        # real product of real coefficients: complex ones over many rows slow later complex sin
        return _real_product(x, self._columns, out)

    def _parts(self, x: np.ndarray) -> list:
        """The points of a stack x (S, cols) by arithmetic: (at, args) per kind
        present, at the points' indices (or all of them, as a slice) and args
        their row arguments, real where every argument of a point is real."""
        a = self.arguments(x)
        if not np.any(x.imag) and np.isfinite(x).all():  # then every argument is real
            real = np.ones(len(x), dtype=bool)
        else:
            real = ~a.imag.any(axis=1)
        if real.all():
            return [(slice(None), np.ascontiguousarray(a.real))]
        if not real.any():
            return [(slice(None), a)]
        return [(at, args[at]) for at, args in ((np.flatnonzero(real), a.real),
                                                (np.flatnonzero(~real), a))]

    def _singular(self, a: np.ndarray, f: np.ndarray, guarded) -> np.ndarray:
        """The guard: which of the ``guarded`` factors of a point, or of a stack, are singular."""
        a, mag = a[..., guarded], np.abs(f[..., guarded])
        if self.guard == "denominator" or self.kind == "linear":
            return mag < self.guard_tol
        hit = mag < 2.0 * self.guard_tol  # within tol of pi*Z forces |sin| < 2 tol
        if hit.any():
            r = a.real / math.pi
            hit &= np.hypot(np.abs(r - np.rint(r)) * math.pi, a.imag) < self.guard_tol
        return hit

    def product(self, x: np.ndarray, j: int) -> complex:
        """Equation j's guarded product, over its rows in order, at the point x."""
        rows = slice(self.offsets[j], self.offsets[j + 1])
        a, power = self.coeffs[rows].dot(x), self.power[rows]
        f = a if self.kind == "linear" else np.sin(a)
        guarded = self._guarded(power)
        hit = self._singular(a, f, guarded)
        if hit.any():
            raise SingularPointError("singular factor at argument %r (%s guard, tol %g)"
                                     % (complex(a[guarded][hit][0]) / self.scale,
                                        self.guard, self.guard_tol))
        return complex(math.prod((f ** power).tolist()))

    def products(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every equation's product at a stack x (S, cols), guarded as :meth:`product`.

        Returns the values (S, n_eq) and the singular mask (S,): a point is
        singular exactly where :meth:`product` raises for one of its
        equations.  The values of a singular point are unspecified.  The
        points whose arguments are all real are evaluated together in real
        arithmetic, the others together in complex arithmetic.  A point's
        values do not depend on the other points of its stack: a one-point
        stack is evaluated as two copies of the point, since numpy takes a
        single row's arguments through another kernel (BLAS matrix-vector)
        that rounds differently.
        """
        if len(x) == 1:
            values, singular = self.products(np.concatenate((x, x)))
            return values[:1], singular[:1]
        parts = self._parts(x)
        if len(parts) == 1:
            return self._stack_products(parts[0][1])
        values = np.empty((len(x), self.n_eq), dtype=complex)
        singular = np.empty(len(x), dtype=bool)
        for at, args in parts:
            values[at], singular[at] = self._stack_products(args)
        return values, singular

    def _stack_products(self, a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`products` from the row arguments a (S, R), in a's own arithmetic.

        Complex factors are raised as f ** power.  Real ones take the
        operations numpy's complex power makes on a zero imaginary part: it
        raises to an integer power below 100 by binary powering and one
        reciprocal for a negative power.  Then one ordered reduction
        multiplies each equation's rows, in row order, in either arithmetic.
        """
        f = a if self.kind == "linear" else np.sin(a)
        with np.errstate(all="ignore"):  # a factor at a zero, masked as singular
            if np.iscomplexobj(f):
                fp = f ** self.power
            else:
                fp = f.copy()
                for k, rows in self._raised:
                    fp[:, rows] = _integer_power(f[:, rows], k)
                fp[:, self._inverted] = 1.0 / fp[:, self._inverted]
            values = np.ones((len(f), self.n_eq), dtype=complex)  # 1 where an equation has no rows
            if len(self._filled):
                values[:, self._filled] = np.multiply.reduceat(
                    fp, self.offsets[self._filled], axis=1)
        return values, self._singular(a, f, self.guarded).any(axis=1)

    def log_terms(self, a: np.ndarray, floor: float,
                  scratch: "LogScratch") -> Tuple[np.ndarray, np.ndarray]:
        """The solver's kernel over a stack of row arguments a (S, R).

        Returns the indices of the points whose every |f|^2 is at least
        ``floor`` (nan is not), and at those points the log sums
        sum_r power_r log f_r per equation, on the principal branch
        (S', n_eq).  On a sin table, sin x and cos x come from t = tan(x/2)
        as 2t / (1 + t^2) and (1 - t^2) / (1 + t^2).

        Every intermediate of the size of the stack goes into the caller's
        ``scratch`` (a may be its ``logs``: it is read before they are
        written), which holds it until the next call: :meth:`log_ratios`
        reads the ratios f'/f from there, only at the points asked for.  The
        solver keeps one scratch per Newton run, so that a run allocates,
        and faults in, its pages once.
        """
        s = len(a)
        num, cx, sech2, num_im, den, part, tmp, ch = scratch.real[:, :s]
        logs, mask = scratch.logs[:s], scratch.mask[:s]
        if self.kind == "linear":  # f = a: |a|^2, arg a, f'/f = conj(a) / |a|^2
            re, im = num, num_im
            np.copyto(re, a.real)  # contiguous, for numpy's SIMD loops
            np.copyto(im, a.imag)
            np.multiply(re, re, out=den)
            den += np.multiply(im, im, out=tmp)
            np.greater_equal(den, floor, out=mask)
        else:  # the sin forms over cosh^2 y: sinh^2 y would overflow from |y| ~ 355 on
            t, y, sx, th = part, tmp, num, num_im
            np.copyto(y, a.imag)  # contiguous, for numpy's SIMD loops
            # sin x and cos x from one SIMD tan of the half angle (module docstring)
            np.tan(np.multiply(a.real, 0.5, out=t), out=t)
            np.multiply(t, 2.0, out=sx)
            np.subtract(1.0, np.multiply(t, t, out=ch), out=cx)
            ch += 1.0
            sx /= ch
            cx /= ch
            np.tanh(y, out=th)
            np.cosh(y, out=ch)
            np.square(np.divide(1.0, ch, out=sech2), out=sech2)
            re, im = sx, np.multiply(cx, th, out=t)
            np.multiply(sx, sx, out=den)
            den *= sech2
            den += np.multiply(th, th, out=y)
            np.greater_equal(den, np.multiply(floor, sech2, out=y), out=mask)
        with np.errstate(divide="ignore"):  # at a pole: screened out below
            np.log(den, out=logs.real)
        if self.kind != "linear":  # log |f|^2 = log den + 2 log cosh y
            logs.real += np.multiply(2.0, np.log(ch, out=ch), out=ch)
        np.arctan2(im, re, out=logs.imag)
        clear = scratch.clear = mask.all(axis=1).nonzero()[0]
        if len(clear) < s:
            logs = _take_rows(logs, clear, scratch.gathered[: len(clear)])
        return clear, _real_product(logs, self._sums)

    def log_ratios(self, scratch: "LogScratch", at) -> np.ndarray:
        """The ratios f'/f per row (k, R), as a new array, at the points
        ``at`` (positions among the clear points it returned) of the stack
        :meth:`log_terms` last took with ``scratch``: f'/f = (num - i num_im)
        / den, where num is sin x cos x / cosh^2 y and num_im tanh y on a sin
        table, x and y on a linear one."""
        rows = scratch.clear[at]
        k = len(rows)
        num, cx, sech2, num_im, den, inv, part, tmp = scratch.real  # the last three are free
        inv, part, tmp = inv[:k], part[:k], tmp[:k]
        np.divide(1.0, _take_rows(den, rows, inv), out=inv)
        _take_rows(num, rows, part)
        if self.kind != "linear":  # sin x cos x / cosh^2 y, multiplied in that order
            part *= _take_rows(cx, rows, tmp)
            part *= _take_rows(sech2, rows, tmp)
        ratios = np.empty((k, self.n_rows), dtype=complex)
        np.multiply(part, inv, out=ratios.real)
        np.multiply(_take_rows(num_im, rows, part), inv, out=ratios.imag)
        np.negative(ratios.imag, out=ratios.imag)  # num_im * -inv
        return ratios

    def log_jacobian(self, ratios: np.ndarray) -> np.ndarray:
        """d log sums / d unknowns, C^T diag(power f'/f) per equation, from the
        ratios f'/f of :meth:`log_terms`: (S, R) -> (S, n_eq, n)."""
        return _real_product(ratios, self._jacobian).reshape(
            len(ratios), self.n_eq, self.n_unknowns)


class LogScratch:
    """The work arrays of :meth:`RowTable.log_terms` for stacks of up to
    ``n_points`` points of one table (or of tables of its shape): the
    points, eight real (n_points, R) slabs, the logs (which first hold the
    row arguments), the clear mask, and the clear points of the last stack.
    A stack of S points works in the first S rows of each, so it touches
    only the pages it uses.  The solver makes one for its start filter and
    one per Newton run (see ``solve._starts`` and ``solve._newton``) and
    drops each when that step returns."""

    def __init__(self, table: RowTable, n_points: int) -> None:
        shape, cols = (n_points, table.n_rows), table.coeffs.shape[1]
        cells = n_points * table.n_rows
        # one block, so that a solve frees what the next one can reuse whole
        block = np.empty(10 * cells + 2 * n_points * cols + -(-cells // 8))
        self.real = block[: 8 * cells].reshape((8,) + shape)
        self.logs = block[8 * cells: 10 * cells].view(complex).reshape(shape)
        rest = block[10 * cells:]
        self.points = rest[: 2 * n_points * cols].view(complex).reshape(n_points, cols)
        self.mask = rest[2 * n_points * cols:].view(bool)[:cells].reshape(shape)
        # the logs of the clear points are gathered into two slabs free by then
        self.gathered = self.real[5:7].reshape(-1).view(complex).reshape(shape)
        self.clear = np.zeros(0, dtype=int)


def deviation(values: np.ndarray, singular: np.ndarray, target) -> np.ndarray:
    """Per point of a stack, the largest |value - target| over its equations,
    from the (values (S, n_eq), singular (S,)) of :meth:`RowTable.products`;
    inf where the point is singular."""
    worst = np.full(len(values), np.inf)
    worst[~singular] = np.max(np.abs(values[~singular] - target), axis=1, initial=0.0)
    return worst


def _integer_power(f: np.ndarray, n: int) -> np.ndarray:
    """f ** n for an integer n >= 1, by numpy's binary powering of complex numbers."""
    out = None
    while True:
        if n & 1:
            out = f if out is None else out * f
        n >>= 1
        if not n:
            return out
        f = f * f


def _real_product(z: np.ndarray, doubled: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """z @ m for a complex stack z (S, k) and a real m, given doubled = kron(m,
    identity(2)); into the complex array ``out`` if given."""
    z = np.ascontiguousarray(z, dtype=complex).view(float)
    return np.matmul(z, doubled, out=None if out is None else out.view(float)).view(complex)


def _take_rows(a: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a[rows] into out; the rows must be in range (mode "raise" would copy through a buffer)."""
    return a.take(rows, axis=0, out=out, mode="clip")
