"""Special functions: principal-branch dilogarithm, trigonometric bracket,
truncated q-Pochhammer products, and the asymptotic link between the two.

:func:`dilog` is elementwise.  Each point falls in one of four regions,
picked by mask, and each region sums a fixed number of series terms
(Zagier, "The Dilogarithm Function", 2007, for the identities):

* |z|^2 <= 1/4: the power series sum z^k / k^2;
* Re z <= 1/2 and |z| <= 1: the Bernoulli series in u = -log(1 - z);
* Re z > 1/2 and |1 - z| <= 1: reflection z -> 1 - z, the series in u = -log z;
* everywhere else: inversion z -> 1/z, the series in u = -log(1 - 1/z).

In the last three |u| stays below 1.1, against the Bernoulli series' radius
2*pi.  Absolute accuracy is well below 1e-12 for |z| <= 10.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import NamedTuple, Tuple

import numpy as np

PI2_6 = math.pi * math.pi / 6.0
#: step of the central difference in :func:`dilog_grad_check`
GRAD_CHECK_STEP = 1e-5
#: tail bound of the truncated product in :func:`dilog_qpoch_link`
QPOCH_LINK_TOL = 1e-12


def _bernoulli_numbers(n: int):
    # u/(e^u - 1) generating-function convention, so B_1 = -1/2
    bern = [Q(0)] * (n + 1)
    bern[0] = Q(1)
    for m in range(1, n + 1):
        acc = Q(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * bern[k]
        bern[m] = -acc / (m + 1)
    return bern


#: 1/k^2 for k = 1..50: at |z| <= 1/2 the tail is below 1e-17 of the first term
_POWER_COEFFS = 1.0 / np.arange(1, 51) ** 2

#: B_2k / (2k+1)! for k = 1..20, the odd powers of Li2 = u - u^2/4 + sum_k
#: B_2k u^(2k+1) / (2k+1)!; at |u| <= 1.1 the tail is below 1e-30
_LOG_COEFFS = np.array(
    [float(b / math.factorial(n + 1)) for n, b in enumerate(_bernoulli_numbers(40))][2::2]
)


def _power_sum(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k-1] x^k over the running powers of x, for every point at once."""
    return coeffs @ np.cumprod(np.broadcast_to(x, (len(coeffs), len(x))), axis=0)


def _log_series(u: np.ndarray) -> np.ndarray:
    return u - 0.25 * u * u + u * _power_sum(_LOG_COEFFS, u * u)


def _reflection(z: np.ndarray) -> np.ndarray:
    # Li2(z) = pi^2/6 - log z log(1-z) - Li2(1-z)
    lz = np.log(z)
    return PI2_6 - lz * np.log(1.0 - z) - _log_series(-lz)


def _inversion(z: np.ndarray) -> np.ndarray:
    # Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
    lz = np.log(-z)
    return -_log_series(-np.log(1.0 - 1.0 / z)) - PI2_6 - 0.5 * lz * lz


def dilog(z):
    """Principal-branch Li2 with the cut along [1, oo), elementwise.

    An array gives a complex array of its shape, a scalar a complex.  Real
    arguments greater than 1 are rejected; z = 1 gives pi^2/6.
    """
    arr = np.asarray(z, dtype=complex)
    x = arr.reshape(-1)
    re, im = x.real, x.imag
    on_cut = (im == 0.0) & (re > 1.0)
    if on_cut.any():
        raise ValueError("dilog: %r lies on the branch cut [1, oo)" % (complex(x[on_cut][0]),))
    norm2 = re * re + im * im
    power = norm2 <= 0.25
    disk = ~power & (re <= 0.5) & (norm2 <= 1.0)
    reflection = ~power & (re > 0.5) & (norm2 <= 2.0 * re) & (x != 1.0)
    inversion = ~(power | disk | reflection) & (x != 1.0)
    out = np.full(x.shape, PI2_6, dtype=complex)  # z = 1 lies in no region
    for mask, region in ((power, lambda w: _power_sum(_POWER_COEFFS, w)),
                         (disk, lambda w: _log_series(-np.log(1.0 - w))),
                         (reflection, _reflection), (inversion, _inversion)):
        if mask.any():
            out[mask] = region(x[mask])
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def dilog_factorization_residual(z: complex, r: int) -> float:
    """|Li2(z^r) - r * sum_j Li2(w^j z)| over the r-th roots of unity w^j."""
    if r < 2:
        raise ValueError("factorization order must be at least 2")
    z = complex(z)
    rotated = np.exp(2j * np.pi * np.arange(r) / r) * z
    values = dilog(np.concatenate(([z ** r], rotated)))
    return abs(values[0] - r * values[1:].sum())


def dilog_exp_derivative(x: complex) -> complex:
    """Analytic d/dx Li2(e^x) = -log(1 - e^x), principal branch."""
    w = cmath.exp(x)
    if w == 1.0:
        raise ValueError("derivative singular at e^x = 1")
    return -cmath.log(1.0 - w)


def dilog_grad_check(x: complex) -> Tuple[complex, complex]:
    """Return (analytic, central finite difference) for d/dx Li2(e^x)."""
    h = GRAD_CHECK_STEP
    analytic = dilog_exp_derivative(x)
    lo, hi = dilog(np.exp([x - h, x + h]))
    fd = (hi - lo) / (2.0 * h)
    return analytic, fd


class SingularPointError(ValueError):
    """Raised when an evaluation point sits on (or too close to) a pole/zero."""


@dataclass(frozen=True)
class BracketContext:
    """Crossing parameter for the trigonometric bracket [x] = sin(pi x)/sin(pi eta)."""

    eta: float

    def __post_init__(self) -> None:
        if abs(cmath.sin(cmath.pi * complex(self.eta))) < 1e-14:
            raise ValueError("crossing parameter eta must not be an integer")


def bracket(x: complex, ctx: BracketContext) -> complex:
    """Trigonometric weight sin(pi x)/sin(pi eta); periodic in x with period 2."""
    den = cmath.sin(cmath.pi * complex(ctx.eta))
    return cmath.sin(cmath.pi * complex(x)) / den


class QPochResult(NamedTuple):
    value: complex
    tail_bound: float


def qpoch(z: complex, q: complex, terms: int) -> QPochResult:
    """Truncated product prod_{k<terms} (1 - z q^k) with its tail bound.

    The bound |z| |q|^terms / (1 - |q|) controls the dropped log-tail when
    |q| < 1; it is +inf otherwise.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    z = complex(z)
    q = complex(q)
    aq = abs(q)
    if aq >= 1.0:
        raise ValueError("the infinite product needs |q| < 1")
    value = 1.0 + 0j
    zq = z
    for _ in range(terms):
        value *= 1.0 - zq
        zq *= q
    bound = abs(z) * aq**terms / (1.0 - aq)
    return QPochResult(value=value, tail_bound=bound)


def qpoch_terms_for(z: complex, q: complex, tol: float) -> int:
    """Smallest truncation order whose tail bound is below tol."""
    az, aq = abs(complex(z)), abs(complex(q))
    if aq >= 1.0:
        raise ValueError("tail bound requires |q| < 1")
    if az == 0.0 or tol <= 0.0:
        return 1
    target = tol * (1.0 - aq) / az
    if target >= 1.0:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(aq)))


def dilog_qpoch_link(z: complex, beta2: float) -> Tuple[complex, complex, float]:
    """Compare -2*beta2*log prod(1 - z e^(-2 beta2 k)) against Li2(z).

    Returns (product_side, dilog_side, relative_error).  The agreement is
    O(beta2), the one-loop scaling that specfun-selftest checks.  z = 0
    gives (0, 0, 0).
    """
    z = complex(z)
    if z == 0:
        return 0j, 0j, 0.0
    q = math.exp(-2.0 * beta2)
    w = z * q ** np.arange(qpoch_terms_for(z, q, QPOCH_LINK_TOL))
    # log(1 - w) by parts: numpy's complex log is slow, and log1p keeps the
    # many small late terms accurate
    log_abs = 0.5 * np.log1p(w.real * (w.real - 2.0) + w.imag**2)
    lhs = -2.0 * beta2 * complex(np.sum(log_abs), np.sum(np.angle(1.0 - w)))
    rhs = dilog(z)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return lhs, rhs, rel
