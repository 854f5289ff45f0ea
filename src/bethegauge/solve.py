"""Multi-start Newton solvers for Bethe and vacuum equation systems.

Both systems are products of sine (or linear) factors equated to +-1, so the
solver works on the summed principal-branch logarithms of the same row
tables the product forms evaluate (``chain._bethe_table``,
``gauge._vacuum_table``): each row contributes power * log f(c.x + shift),
giving an exact cotangent Jacobian C^T diag(power f'/f).  Each log is taken
as log|f| + i arg f, from the |f| that the pole guard computes anyway.  The
log residual is folded back by multiples of 2*pi*i, which removes the
winding ambiguity of the product form; acceptance of a candidate always goes
through the guarded product-form evaluators, never the solver's own residual.

A solve first draws all its starts, scoring the draws against the pole
filter a stack at a time, then steps them together: one masked, damped
Newton iteration over the stack, in which each start keeps its own step
length, iteration count and fate.  The converged starts are then checked
by one stacked product-form evaluation and deduplicated in start order.
``diagnostics["fates"]`` counts what became of every start (see FATES).

Deduplication quotients by the exact symmetries of each system: magnon
permutations, periodicity u -> u + 1 for trig chains, u_i -> -u_i for open
chains, and the Weyl group plus sigma -> sigma + pi on the vacuum side.
A sorted key cannot see permutations, so the vacuum key runs over the sign
changes of the Weyl group only: none for A, all 2^n for B and C, the even
ones for D.  The periods are quotiented at the fold: a value is reduced into
[0, period), and one that rounds to the period at 9 digits is taken to the
low end, so that both sides of the fold 0 = period give the same key; a
representative can so lie up to 5e-10 below 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .chain import BetheRoots, ChainSpec, _bethe_stack, _bethe_system, validate_roots
from .gauge import (REGIME_SCALE, GaugeTheorySpec, VacuumBranch, _vacuum_lhs_stack,
                    _vacuum_lhs_values, _vacuum_system)
from .rows import RowTable
from .specfun import SingularPointError

#: starts are resampled while any product factor is smaller than this
POLE_TOL = 1e-3
#: open-chain roots with 2u integral are reflection-degenerate, never eigenvectors
SELF_CONJUGATE_TOL = 1e-6

_TWO_PI = 2.0 * math.pi

#: What became of a start, in the order a start meets them.  Before Newton:
#: no clear draw in 100 (no_start), outside the domain or on a pole at the
#: start (bad_start).  In Newton: no step length cut the residual
#: (step_exhausted), max_iter steps left it unconverged, a singular Jacobian.
#: After Newton: a complex vacuum, an open-chain root with 2u integral
#: (self_conjugate), an invalid root set (coincident or reflection-degenerate
#: roots), a product-form residual above tol or a singular product (residual),
#: a duplicate of an earlier solution, accepted.
FATES = ("no_start", "bad_start", "step_exhausted", "max_iter", "singular_jacobian",
         "complex_vacuum", "self_conjugate", "invalid", "residual", "duplicate", "accepted")


@dataclass(frozen=True)
class SolveConfig:
    n_starts: int = 64
    tol: float = 1e-10
    max_iter: int = 40
    damping: float = 1.0
    seed: int = 0
    dedup_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.n_starts <= 0:
            raise ValueError("n_starts must be positive")
        if self.max_iter < 10:
            raise ValueError("max_iter must be at least 10")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if not self.tol < self.dedup_tol:
            raise ValueError("tol must be smaller than dedup_tol")


@dataclass
class SolveResult:
    """List-like container of solutions plus run diagnostics.

    ``residuals`` holds, per solution of :func:`solve_bethe`, the largest
    |value - 1| over its equations, as the stacked product-form check that
    accepted it read it.  :func:`solve_vacuum` leaves it empty.
    """

    solutions: List
    diagnostics: Dict[str, object] = field(default_factory=dict)
    residuals: List[float] = field(default_factory=list)

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)

    def __getitem__(self, k):
        return self.solutions[k]


class _PoleHit(Exception):
    pass


#: the fates a start can meet in :func:`_newton`, by code; code 0 is converged
_NEWTON_FATES = (None, "bad_start", "step_exhausted", "max_iter", "singular_jacobian")
_CONVERGED, _BAD_START, _EXHAUSTED, _MAX_ITER, _SINGULAR = range(len(_NEWTON_FATES))


class _NewtonRun(list):
    """What :func:`_newton` returns: per start, the converged point or None.
    ``fates`` holds, per start, its code in _NEWTON_FATES."""

    fates: np.ndarray


def fates_summary(fates: Dict[str, int]) -> str:
    """A fate ledger in one line: the starts, then each fate met with its count."""
    met = ", ".join("%s %d" % (fate, count) for fate, count in fates.items() if count)
    return "%d starts" % sum(fates.values()) + (": " + met if met else "")


def _ledger(n_starts: int, run: Sequence = ()) -> Dict[str, int]:
    """The fate counts of a solve asked for ``n_starts`` starts, of which the
    ones in ``run`` got a clear draw, with Newton's failures counted in (a
    run without ``fates`` counts none)."""
    fates = dict.fromkeys(FATES, 0)
    fates["no_start"] = n_starts - len(run)
    for code in getattr(run, "fates", ()):
        if code != _CONVERGED:
            fates[_NEWTON_FATES[code]] += 1
    return fates


# ---------------------------------------------------------------------------
# log-residual core
# ---------------------------------------------------------------------------


def _fold(z: np.ndarray) -> np.ndarray:
    """z with its imaginary part folded into [-pi, pi], in place."""
    z.imag -= _TWO_PI * np.rint(z.imag / _TWO_PI)
    return z


class _LogSystem:
    """Equations sum_r power_r log f(arg_r) = target (mod 2 pi i) over one row table."""

    def __init__(self, table: RowTable, params: np.ndarray, target: complex, domain) -> None:
        self.table = table
        self.params = params
        self.target = target
        # products tend to 1 at infinity, so cap the search box; domain maps a
        # stack of points (S, n) to a mask (S,), or to one bool for all of them
        self.domain = domain

    def min_factor(self, u: np.ndarray):
        """The smallest |f| at the point u, or per point (S,) of a stack u (S, n)."""
        if u.ndim == 1:
            return min(np.abs(self.table.factors(np.concatenate((u, self.params)))[1]).tolist())
        return np.abs(self.table.factors(self._points(u))[1]).min(axis=1)

    def _points(self, u: np.ndarray) -> np.ndarray:
        """The table's points (S, cols) of the unknowns u (S, n)."""
        x = np.empty((len(u), u.shape[1] + len(self.params)), dtype=complex)
        x[:, : u.shape[1]] = u
        x[:, u.shape[1]:] = self.params
        return x

    def _clear(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The points of the stack u with every |f| >= 1e-14: indices, arguments,
        factors and |factors|."""
        a, f = self.table.factors(self._points(u))
        mag = np.abs(f)
        clear = (mag.min(axis=1, initial=np.inf) >= 1e-14).nonzero()[0]  # also rejects nan
        if len(clear) == len(u):
            return clear, a, f, mag
        return clear, a[clear], f[clear], mag[clear]

    def evaluate(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Over a stack u (S, n): the indices of the points inside the domain and
        clear of poles, and at those points the folded residual and the row
        arguments it was computed from.  Points outside the domain are never
        evaluated."""
        inside = self.domain(u)
        inside = inside.nonzero()[0] if np.ndim(inside) else np.arange(len(u) if inside else 0)
        if len(inside) < len(u):
            u = u[inside]
        clear, a, f, mag = self._clear(u)
        return inside[clear], _fold(self.table.log_sum(f, mag) - self.target), a

    def residual(self, u: np.ndarray) -> np.ndarray:
        ok, res, _ = self.evaluate(u[None])
        if not ok.size:
            raise _PoleHit()
        return res[0]

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        clear, a, _, _ = self._clear(u[None])
        if not clear.size:
            raise _PoleHit()
        return self.table.log_jacobian(a)[0]


def _newton_steps(jac: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve jac[k] @ step[k] = rhs[k]; also the mask of the k whose jac is not singular."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], np.ones(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:  # one singular matrix fails the whole stack
        steps, solved = np.zeros_like(rhs), np.ones(len(rhs), dtype=bool)
        for k in range(len(rhs)):
            try:
                steps[k] = np.linalg.solve(jac[k], rhs[k])
            except np.linalg.LinAlgError:
                solved[k] = False
        return steps, solved


def _newton(system: _LogSystem, u0: np.ndarray, cfg: SolveConfig):
    """Damped Newton from every start of the stack u0 (S, n) at once.

    Each start keeps its own step length: a trial point is accepted when it
    cuts the residual norm by a quarter of the step length, or below 1e-12,
    and the step is halved otherwise, down to 1/256.  A start fails when it
    lies outside the domain or on a pole, when no step length gives an
    accepted trial point, when its Jacobian is singular, or when max_iter
    steps leave it unconverged.
    Returns the converged point or None per start, as a list whose ``fates``
    name each failure (see :class:`_NewtonRun`); one start (n,) is a stack
    of one and gives one result.
    """
    if u0.ndim == 1:
        return _newton(system, u0[None], cfg)[0]
    out = _NewtonRun([None] * len(u0))
    out.fates = np.full(len(u0), _BAD_START)
    u = u0.astype(complex)
    # the live starts: their index, iterate, residual, row arguments and norm
    idx, res, args = system.evaluate(u)
    u = u[idx]
    norm = np.abs(res).max(axis=1, initial=0.0)
    iters, lam, step = np.zeros(len(idx), dtype=int), np.zeros(len(idx)), np.zeros_like(u)
    moved = np.ones(len(idx), dtype=bool)  # at a new iterate
    while True:
        done = moved & (norm < 1e-12)
        for k in done.nonzero()[0]:
            out[idx[k]] = u[k]
        # a new step at each new iterate, from the arguments its residual used
        out_of_iters = moved & ~done & (iters >= cfg.max_iter)
        new = (moved & ~done & ~out_of_iters).nonzero()[0]
        keep = ~moved
        if new.size:
            step[new], solved = _newton_steps(system.table.log_jacobian(args[new]), -res[new])
            lam[new] = cfg.damping
            iters[new] += 1
            keep[new[solved]] = True
        exhausted = keep & ~(lam > 1.0 / 256.0)
        keep &= ~exhausted
        if not keep.all():
            # the fate of each start that leaves: converged, or why it failed
            fate = np.where(done, _CONVERGED, np.where(out_of_iters, _MAX_ITER, np.where(
                exhausted, _EXHAUSTED, _SINGULAR)))
            out.fates[idx[~keep]] = fate[~keep]
            idx, u, res, args, norm, iters, lam, step = (
                a[keep] for a in (idx, u, res, args, norm, iters, lam, step))
        if not idx.size:
            return out
        trial = u + lam[:, None] * step
        ok, res_try, args_try = system.evaluate(trial)
        norm_try = np.abs(res_try).max(axis=1, initial=0.0)
        better = (norm_try < norm[ok] * (1.0 - 0.25 * lam[ok])) | (norm_try < 1e-12)
        hit = ok[better]
        u[hit], res[hit], args[hit], norm[hit] = (
            trial[hit], res_try[better], args_try[better], norm_try[better])
        moved = np.zeros(len(idx), dtype=bool)
        moved[hit] = True
        lam[~moved] *= 0.5


def _starts(system: _LogSystem, cfg: SolveConfig, draw) -> np.ndarray:
    """cfg.n_starts start points (k, n), each drawn again, up to 100 times,
    while some factor is within POLE_TOL of a pole; a start without a clear
    draw is skipped.

    The draws come in order, as one start at a time would take them, but
    are scored a stack at a time: one draw per start still to fill, and
    the draws left over when the last start is filled are dropped.
    """
    starts: List[np.ndarray] = []
    left, misses = cfg.n_starts, 0
    while left:
        cand = np.array([draw() for _ in range(left)], dtype=complex).reshape(left, -1)
        for point, clear in zip(cand, (system.min_factor(cand) > POLE_TOL).tolist()):
            if clear:
                starts.append(point)
            misses = 0 if clear else misses + 1
            if clear or misses == 100:
                left, misses = left - 1, 0
                if not left:
                    break
    return np.array(starts, dtype=complex).reshape(-1, system.table.n_unknowns)


def _low_end(x: float, period: float) -> float:
    """x in [0, period], taken to x - period when it rounds to the period at
    9 digits, so that values on both sides of the fold 0 = period key alike."""
    return x - period if round(x, 9) == round(period, 9) else x


def _distinct(keys: Sequence[Tuple], tol: float) -> List[int]:
    """The indices of the keys farther than tol (max-abs) from every earlier kept key."""
    arr = np.array(keys)
    kept: List[int] = []
    for k in range(len(arr)):
        if not kept or np.max(np.abs(arr[kept] - arr[k]), axis=1).min() >= tol:
            kept.append(k)
    return kept


def _worst(values: np.ndarray, singular: np.ndarray, target: float) -> np.ndarray:
    """Per point of a stack, the largest |value - target| over its equations
    (values (S, n_eq)); inf where the point is singular."""
    worst = np.full(len(values), np.inf)
    worst[~singular] = np.max(np.abs(values[~singular] - target), axis=1)
    return worst


def _misses(values: np.ndarray, singular: np.ndarray, target: float, tol: float) -> np.ndarray:
    """The stacked product-form check: the points that are singular or whose
    equations (values (S, n_eq)) miss the target by more than tol."""
    return _worst(values, singular, target) > tol


# ---------------------------------------------------------------------------
# Bethe roots
# ---------------------------------------------------------------------------


def _canonical_roots(chain: ChainSpec, values: Sequence[complex]) -> Tuple[complex, ...]:
    def fold(u: complex) -> complex:
        if chain.is_trig:
            return complex(_low_end(u.real - math.floor(u.real), 1.0), u.imag)
        return u

    def reduce_one(u: complex) -> complex:
        u = fold(u)
        if chain.is_open:
            v = fold(-u)
            if (round(v.real, 9), round(v.imag, 9)) < (round(u.real, 9), round(u.imag, 9)):
                u = v
        return u

    reduced = [reduce_one(complex(u)) for u in values]
    reduced.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return tuple(reduced)


def solve_bethe(chain: ChainSpec, cfg: SolveConfig) -> SolveResult:
    """All distinct Bethe root sets found from cfg.n_starts seeded starts."""
    m = chain.n_magnons
    if m == 0:
        return SolveResult([BetheRoots(())], {"n_converged": 1, "n_starts": 0,
                                              "fates": _ledger(0)}, [0.0])
    radius = (
        2.0
        + chain.n_sites * abs(chain.eta) * max(1.0, max(abs(s) for s in chain.spins))
        + max(abs(complex(t)) for t in chain.inhomogeneities)
    )
    if chain.is_trig:
        domain = lambda u: np.all(np.abs(u.imag) <= radius, axis=-1)  # noqa: E731
    else:
        domain = lambda u: np.all(np.abs(u) <= radius, axis=-1)  # noqa: E731
    system = _LogSystem(*_bethe_system(chain), 0.0, domain)
    rng = np.random.default_rng(cfg.seed)
    half = 0.5 * radius

    def draw() -> np.ndarray:
        if chain.is_trig:
            re = rng.uniform(0.02, 0.98, size=m)
        else:
            re = rng.uniform(-half, half, size=m)
        return re + 1j * rng.normal(0.0, 0.2, size=m)

    starts = _starts(system, cfg, draw)
    run = _newton(system, starts, cfg)
    fates = _ledger(cfg.n_starts, run)
    sets: List[BetheRoots] = []
    for u in run:
        if u is None:
            continue
        vals = _canonical_roots(chain, list(u))
        if chain.is_open and any(
            abs(2.0 * v.real - round(2.0 * v.real)) < SELF_CONJUGATE_TOL
            and abs(v.imag) < SELF_CONJUGATE_TOL
            for v in vals
        ):
            fates["self_conjugate"] += 1
            continue
        try:
            roots = BetheRoots(vals)
            validate_roots(chain, roots)
        except ValueError:
            fates["invalid"] += 1
            continue
        sets.append(roots)
    worst = np.zeros(0)
    if sets:
        worst = _worst(*_bethe_stack([chain] * len(sets), np.array([r.values for r in sets])), 1.0)
        miss = worst > cfg.tol
        fates["residual"] = int(miss.sum())
        sets, worst = [r for r, bad in zip(sets, miss.tolist()) if not bad], worst[~miss]
    kept = _distinct([r.values for r in sets], cfg.dedup_tol)
    fates["duplicate"], fates["accepted"] = len(sets) - len(kept), len(kept)
    return SolveResult([sets[k] for k in kept], {"n_converged": sum(u is not None for u in run),
                                                 "n_starts": len(starts), "fates": fates},
                       worst[kept].tolist())


# ---------------------------------------------------------------------------
# vacuum solutions
# ---------------------------------------------------------------------------


_SIGMA_PERIOD = math.pi


@lru_cache(maxsize=None)
def _sign_changes(family: str, n: int) -> np.ndarray:
    """The sign changes in the Weyl group of ``family`` on n coordinates, one
    per row: none for A, all 2^n for B and C, the even ones for D."""
    if family == "A":
        return np.ones((1, n))
    signs = np.array(list(product((1.0, -1.0), repeat=n)))
    return signs[(signs < 0).sum(axis=1) % 2 == 0] if family == "D" else signs


def _canonical_sigma(family: str, sigma: Sequence[float], fold: bool = True) -> Tuple[float, ...]:
    """The least key over the Weyl images of sigma: Python round(., 9) of the
    sorted (folded) image, then the exact image, which is returned.  Sorting
    erases the permutations, so the images run over the sign changes only."""
    images = _sign_changes(family, len(sigma)) * np.asarray(sigma, dtype=float)
    if fold:
        images = images - _SIGMA_PERIOD * np.floor(images / _SIGMA_PERIOD)
        for k in np.flatnonzero(images > _SIGMA_PERIOD - 1e-9):  # only these round to pi
            images.flat[k] = _low_end(float(images.flat[k]), _SIGMA_PERIOD)
    images.sort(axis=1)
    return min((tuple(round(x, 9) for x in row), tuple(row)) for row in images.tolist())[1]


def solve_vacuum(spec: GaugeTheorySpec, branch: VacuumBranch, cfg: SolveConfig,
                 rational: bool = False) -> SolveResult:
    """Real vacuum solutions on the given branch, deduplicated by Weyl images."""
    if spec.family not in ("A", "B", "C", "D"):
        raise ValueError("the analytic solver covers the classical families")
    n = spec.dim
    table, params = _vacuum_system(spec, "rational" if rational else "root")
    if not table.n_rows:
        # no interactions at all: every point is a vacuum on the + branch
        diag = {"underdetermined": True, "n_starts": 0, "fates": _ledger(0)}
        if branch.sign == +1:
            return SolveResult([np.zeros(n)], diag)
        return SolveResult([], diag)
    target = 0.0 if branch.sign == +1 else math.pi * 1j
    extent = max([abs(spec.m_adj)] + [abs(m) for m in spec.masses]
                 + [abs(m) for m in (spec.masses_anti or ())])
    radius = 2.0 + math.pi + spec.dim * extent
    if rational:
        domain = lambda u: np.all(np.abs(u) <= 10.0 * radius, axis=-1)  # noqa: E731
    else:
        domain = lambda u: np.all(np.abs(u.imag) <= radius, axis=-1)  # noqa: E731
    system = _LogSystem(table, params, target, domain)
    regime = "2d" if rational else "3d"
    rng = np.random.default_rng(cfg.seed)
    span = REGIME_SCALE[regime]
    starts = _starts(system, cfg, lambda: span * rng.uniform(0.02, 0.98, size=n))
    run = _newton(system, starts, cfg)
    fates = _ledger(cfg.n_starts, run)
    real = [sol.real for sol in run if sol is not None and np.max(np.abs(sol.imag)) <= 1e-9]
    fates["complex_vacuum"] = sum(sol is not None for sol in run) - len(real)
    keys: List[Tuple[float, ...]] = []
    if real:
        sigma = np.array(real)
        miss = _misses(*_vacuum_lhs_stack(spec, regime, sigma), branch.sign, cfg.tol)
        fates["residual"] = int(miss.sum())
        keys = [_canonical_sigma(spec.family, sig, fold=not rational) for sig in sigma[~miss]]
    found = [np.array(keys[k]) for k in _distinct(keys, cfg.dedup_tol)]
    fates["duplicate"], fates["accepted"] = len(keys) - len(found), len(found)
    return SolveResult(found, {"n_converged": len(real), "n_starts": len(starts),
                               "fates": fates})


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


def cross_check(spec: GaugeTheorySpec, preset, cfg: SolveConfig,
                map_tol: float = 1e-6):
    """Solve the chain side, transport roots back, grade the vacuum residual."""
    from .bridge import VerificationReport, map_gauge_to_chain

    cutoff = 20.0
    chain, pm = map_gauge_to_chain(preset, spec, cutoff=cutoff)
    sols = solve_bethe(chain, cfg)
    branch = preset.branch
    if not sols.solutions:
        return VerificationReport(
            preset_id=preset.id, samples=0, seed=cfg.seed, tol=map_tol,
            max_residual=math.inf, worst_point=None, passed=False,
            branch_used=branch.sign,
            notes={"diagnostics": "no Bethe root sets converged",
                   "cause": fates_summary(sols.diagnostics["fates"]), **sols.diagnostics},
        )
    max_residual = 0.0
    worst = None
    for roots in sols:
        sigma = np.array(pm.u_to_sigma(roots.values))
        try:
            res = max(abs(v - branch.sign)
                      for v in _vacuum_lhs_values(spec, sigma, preset.regime))
        except SingularPointError:
            res = math.inf
        if res > max_residual:
            max_residual = res
            worst = {"u": [repr(v) for v in roots.values]}
    return VerificationReport(
        preset_id=preset.id, samples=len(sols), seed=cfg.seed, tol=map_tol,
        max_residual=max_residual, worst_point=worst,
        passed=max_residual <= map_tol, branch_used=branch.sign,
        notes={"n_root_sets": len(sols), **sols.diagnostics},
    )
