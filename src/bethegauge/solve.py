"""Multi-start Newton solvers for Bethe and vacuum equation systems.

Both systems are products of sine (or linear) factors equated to +-1, so the
solver works on the summed principal-branch logarithms of the same row
tables the product forms evaluate (``chain._bethe_table``,
``gauge._vacuum_table``): each row contributes power * log f(c.x + shift),
giving an exact cotangent Jacobian C^T diag(power f'/f).  The log residual
is folded back by multiples of 2*pi*i, which removes the winding ambiguity
of the product form; acceptance of a candidate always goes through the
guarded product-form evaluators, never the solver's own residual.

A solve first draws all its starts, then steps them together: one masked,
damped Newton iteration over the stack, in which each start keeps its own
step length, iteration count and fate.  The converged starts are then
checked and deduplicated in start order.

Deduplication quotients by the exact symmetries of each system: magnon
permutations, periodicity u -> u + 1 for trig chains, u_i -> -u_i for open
chains, and the Weyl group plus sigma -> sigma + pi on the vacuum side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chain import BetheRoots, ChainSpec, _bethe_system, bethe_residuals, validate_roots
from .gauge import REGIME_SCALE, GaugeTheorySpec, VacuumBranch, _vacuum_lhs_values, _vacuum_system
from .lie_roots import weyl_images
from .rows import RowTable
from .specfun import SingularPointError

#: starts are resampled while any product factor is smaller than this
POLE_TOL = 1e-3
#: open-chain roots with 2u integral are reflection-degenerate, never eigenvectors
SELF_CONJUGATE_TOL = 1e-6

_TWO_PI = 2.0 * math.pi


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
    """List-like container of solutions plus run diagnostics."""

    solutions: List
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)

    def __getitem__(self, k):
        return self.solutions[k]


class _PoleHit(Exception):
    pass


# ---------------------------------------------------------------------------
# log-residual core
# ---------------------------------------------------------------------------


def _fold(z: np.ndarray) -> np.ndarray:
    return z.real + 1j * (z.imag - _TWO_PI * np.rint(z.imag / _TWO_PI))


class _LogSystem:
    """Equations sum_r power_r log f(arg_r) = target (mod 2 pi i) over one row table."""

    def __init__(self, table: RowTable, params: np.ndarray, target: complex, domain) -> None:
        self.table = table
        self.params = params
        self.target = target
        # products tend to 1 at infinity, so cap the search box; domain maps a
        # stack of points (S, n) to a mask (S,), or to one bool for all of them
        self.domain = domain

    def min_factor(self, u: np.ndarray) -> float:
        return min(np.abs(self.table.factors(np.concatenate((u, self.params)))[1]).tolist())

    def _clear(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The points of the stack u with every |f| >= 1e-14: indices, arguments, factors."""
        params = np.broadcast_to(self.params, (len(u), len(self.params)))
        a, f = self.table.factors(np.concatenate((u, params), axis=1))
        clear = np.flatnonzero(np.all(np.abs(f) >= 1e-14, axis=1))  # also rejects nan
        return clear, a[clear], f[clear]

    def evaluate(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Over a stack u (S, n): the indices of the points inside the domain and
        clear of poles, and at those points the folded residual and the row
        arguments it was computed from.  Points outside the domain are never
        evaluated."""
        inside = np.flatnonzero(np.broadcast_to(self.domain(u), len(u)))
        clear, a, f = self._clear(u[inside])
        return inside[clear], _fold(self.table.log_sum(f) - self.target), a

    def residual(self, u: np.ndarray) -> np.ndarray:
        ok, res, _ = self.evaluate(u[None])
        if not ok.size:
            raise _PoleHit()
        return res[0]

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        clear, a, _ = self._clear(u[None])
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
    Returns the converged point or None per start; one start (n,) is a stack
    of one and gives one result.
    """
    if u0.ndim == 1:
        return _newton(system, u0[None], cfg)[0]
    out: List[Optional[np.ndarray]] = [None] * len(u0)
    u = u0.astype(complex)
    # the live starts: their index, iterate, residual, row arguments and norm
    idx, res, args = system.evaluate(u)
    u = u[idx]
    norm = np.max(np.abs(res), axis=1)
    iters, lam, step = np.zeros(len(idx), dtype=int), np.zeros(len(idx)), np.zeros_like(u)
    moved = np.ones(len(idx), dtype=bool)  # at a new iterate
    while True:
        done = moved & (norm < 1e-12)
        for k in np.flatnonzero(done):
            out[idx[k]] = u[k]
        # a new step at each new iterate, from the arguments its residual used
        new = np.flatnonzero(moved & ~done & (iters < cfg.max_iter))
        step[new], solved = _newton_steps(system.table.log_jacobian(args[new]), -res[new])
        lam[new] = cfg.damping
        iters[new] += 1
        keep = ~moved
        keep[new[solved]] = True
        keep &= lam > 1.0 / 256.0
        idx, u, res, args, norm, iters, lam, step = (
            a[keep] for a in (idx, u, res, args, norm, iters, lam, step))
        if not idx.size:
            return out
        trial = u + lam[:, None] * step
        ok, res_try, args_try = system.evaluate(trial)
        norm_try = np.max(np.abs(res_try), axis=1)
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
    draw is skipped."""
    starts = []
    for _ in range(cfg.n_starts):
        for _ in range(100):
            cand = np.asarray(draw(), dtype=complex)
            if system.min_factor(cand) > POLE_TOL:
                starts.append(cand)
                break
    return np.array(starts, dtype=complex).reshape(-1, system.table.n_unknowns)


# ---------------------------------------------------------------------------
# Bethe roots
# ---------------------------------------------------------------------------


def _canonical_roots(chain: ChainSpec, values: Sequence[complex]) -> Tuple[complex, ...]:
    def reduce_one(u: complex) -> complex:
        if chain.is_trig:
            u = complex(u.real - math.floor(u.real), u.imag)
        if chain.is_open:
            v = complex((-u).real - math.floor((-u).real), -u.imag) if chain.is_trig else -u
            if (round(v.real, 9), round(v.imag, 9)) < (round(u.real, 9), round(u.imag, 9)):
                u = v
        return u

    reduced = [reduce_one(u) for u in values]
    reduced.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return tuple(reduced)


def solve_bethe(chain: ChainSpec, cfg: SolveConfig) -> SolveResult:
    """All distinct Bethe root sets found from cfg.n_starts seeded starts."""
    m = chain.n_magnons
    if m == 0:
        return SolveResult([BetheRoots(())], {"n_converged": 1, "n_starts": 0})
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

    found: List[BetheRoots] = []
    canon: List[Tuple[complex, ...]] = []
    n_converged = 0
    for u in _newton(system, _starts(system, cfg, draw), cfg):
        if u is None:
            continue
        n_converged += 1
        vals = _canonical_roots(chain, list(u))
        if chain.is_open and any(
            abs(2.0 * v.real - round(2.0 * v.real)) < SELF_CONJUGATE_TOL
            and abs(v.imag) < SELF_CONJUGATE_TOL
            for v in vals
        ):
            continue
        try:
            roots = BetheRoots(vals)
            validate_roots(chain, roots)
            if np.max(bethe_residuals(chain, roots)) > cfg.tol:
                continue
        except (ValueError, SingularPointError):
            continue
        if any(
            max(abs(a - b) for a, b in zip(vals, prev)) < cfg.dedup_tol
            for prev in canon
        ):
            continue
        canon.append(vals)
        found.append(roots)
    return SolveResult(found, {"n_converged": n_converged, "n_starts": cfg.n_starts})


# ---------------------------------------------------------------------------
# vacuum solutions
# ---------------------------------------------------------------------------


_SIGMA_PERIOD = math.pi


def _canonical_sigma(family: str, sigma: Sequence[float], fold: bool = True) -> Tuple[float, ...]:
    def key(image):
        if fold:
            image = tuple(x - _SIGMA_PERIOD * math.floor(x / _SIGMA_PERIOD) for x in image)
        cand = tuple(sorted(image))
        return tuple(round(x, 9) for x in cand), cand

    return min(map(key, weyl_images(family, len(sigma), tuple(sigma)).images))[1]


def solve_vacuum(spec: GaugeTheorySpec, branch: VacuumBranch, cfg: SolveConfig,
                 rational: bool = False) -> SolveResult:
    """Real vacuum solutions on the given branch, deduplicated by Weyl images."""
    if spec.family not in ("A", "B", "C", "D"):
        raise ValueError("the analytic solver covers the classical families")
    n = spec.dim
    table, params = _vacuum_system(spec, "rational" if rational else "root")
    if not table.n_rows:
        # no interactions at all: every point is a vacuum on the + branch
        diag = {"underdetermined": True, "n_starts": 0}
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
    found: List[np.ndarray] = []
    canon: List[Tuple[float, ...]] = []
    n_converged = 0
    starts = _starts(system, cfg, lambda: span * rng.uniform(0.02, 0.98, size=n))
    for sol in _newton(system, starts, cfg):
        if sol is None or np.max(np.abs(sol.imag)) > 1e-9:
            continue
        n_converged += 1
        sig = sol.real
        try:
            worst = max(abs(v - branch.sign) for v in _vacuum_lhs_values(spec, sig, regime))
        except SingularPointError:
            continue
        if worst > cfg.tol:
            continue
        key = _canonical_sigma(spec.family, sig, fold=not rational)
        if any(
            max(abs(a - b) for a, b in zip(key, prev)) < cfg.dedup_tol for prev in canon
        ):
            continue
        canon.append(key)
        found.append(np.array(key))
    return SolveResult(found, {"n_converged": n_converged, "n_starts": cfg.n_starts})


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
            notes={"diagnostics": "no Bethe root sets converged", **sols.diagnostics},
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
