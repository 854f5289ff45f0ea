"""Multi-start Newton solvers for Bethe and vacuum equation systems.

Both systems are products of sine (or linear) factors equated to +-1, so the
solver works on the summed principal-branch logarithms of the same row
tables the product forms evaluate (``chain._bethe_table``,
``gauge._vacuum_table``): each row contributes power * log f(c.x), x the
unknowns || parameters, giving an exact cotangent Jacobian C^T diag(power
f'/f).  The start filter's pole mask |f|^2 >= POLE_TOL^2, and Newton's
logs, ratios f'/f and pole screen |f|^2 >= 1e-28, come from the table's
real-arithmetic kernel (:meth:`RowTable.log_terms`), which works in one
:class:`~bethegauge.rows.LogScratch` for the filter and one per Newton run
and gives the ratios only at the trial points the starts take.  The log
residual is folded back by multiples of 2*pi*i, which removes the winding
ambiguity of the product form; acceptance of a candidate always goes
through the guarded product-form evaluators, never the solver's own
residual.

Both solvers are one solve (:func:`_solve`) and differ only in their row
table and parameters, target, radius, start draw and screen.  A solve
first draws all its starts, scoring the draws against the pole filter a
stack at a time, then steps them together, one damped Newton iteration per
tick: every live start solves its Jacobian, its full step is scored in one
stack, and the backtracking ladder of the starts that fail it in one more
(see :func:`_newton`).  The screen drops complex vacua, or self-conjugate
and invalid root sets, and takes the rest to their canonical keys; the keys
are checked by one stacked product-form evaluation of the system's own
table and deduplicated in start order, and each solution keeps the residual
that check read.  A system without rows (no magnons, or a vacuum without
interactions) runs the same steps with every start at 0.
``diagnostics["fates"]`` counts what became of every start (see FATES).

Deduplication quotients by the exact symmetries of each system, through one
key (:func:`_canonical`): magnon permutations, periodicity u -> u + 1 for
trig chains, u_i -> -u_i for open chains, and the Weyl group plus
sigma -> sigma + pi on the vacuum side.  A sorted key cannot see
permutations, so the key runs over sign changes only: none for closed
chains and A, all 2^n for open chains, B and C, the even ones for D.  The
periods are quotiented at the fold: a value is reduced into [0, period),
and one that rounds to the period at 9 digits is taken to the low end, so
that both sides of the fold 0 = period give the same key; a representative
can so lie up to 5e-10 below 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bridge import DictionaryPreset, VerificationReport, map_gauge_to_chain
from .chain import BetheRoots, ChainSpec, _bethe_system, _root_clashes
from .gauge import (CLASSICAL, REGIME_FORM, REGIME_SCALE, GaugeTheorySpec, VacuumBranch,
                    _vacuum_lhs_stack, _vacuum_system)
from .rows import LogScratch, RowTable, deviation

#: starts are resampled while any product factor is smaller than this
POLE_TOL = 1e-3
#: open-chain roots with 2u integral are reflection-degenerate, never eigenvectors
SELF_CONJUGATE_TOL = 1e-6
#: accepted keys closer than this (max-abs) to an earlier one are duplicates;
#: a solve's tol must be smaller
DEDUP_TOL = 1e-6
#: the fewest Newton iterations a solve may be given (SolveConfig.max_iter)
MIN_ITER = 10
#: a cross-check passes when every transported root set meets the vacuum
#: equations to this residual
MAP_TOL = 1e-6
#: Newton's step lengths: the full step, then its halvings down to 1/128 (see _newton)
_STAGES = (np.array([1.0]), 0.5 ** np.arange(1.0, 8.0))

_TWO_PI = 2.0 * math.pi

#: What became of a start, in the order a start meets them.  Before Newton:
#: no clear draw in 100 (no_start), outside the radius or on a pole at the
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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_starts <= 0:
            raise ValueError("n_starts must be positive")
        if self.max_iter < MIN_ITER:
            raise ValueError("max_iter must be at least %d" % MIN_ITER)
        if not self.tol < DEDUP_TOL:
            raise ValueError("tol must be smaller than DEDUP_TOL = %g" % DEDUP_TOL)


@dataclass
class SolveResult:
    """List-like container of solutions plus run diagnostics.

    ``residuals`` holds, per solution, the largest |value - target| over its
    equations (target 1 for Bethe roots, the branch sign for a vacuum), as
    the stacked product-form check that accepted it read it.
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


#: the fates a start can meet in :func:`_newton`, by code; code 0 is converged
_NEWTON_FATES = (None, "bad_start", "step_exhausted", "max_iter", "singular_jacobian")
_CONVERGED, _BAD_START, _EXHAUSTED, _MAX_ITER, _SINGULAR = range(len(_NEWTON_FATES))


def fates_summary(fates: Dict[str, int]) -> str:
    """A fate ledger in one line: the starts, then each fate met with its count."""
    met = ", ".join("%s %d" % (fate, count) for fate, count in fates.items() if count)
    return "%d starts" % sum(fates.values()) + (": " + met if met else "")


def _ledger(n_starts: int, codes: np.ndarray) -> Dict[str, int]:
    """The fate counts of a solve asked for ``n_starts`` starts, of which the
    ones Newton ended with ``codes`` (see :func:`_newton`) got a clear draw."""
    fates = dict.fromkeys(FATES, 0)
    fates["no_start"] = n_starts - len(codes)
    counts = np.bincount(codes, minlength=len(_NEWTON_FATES)).tolist()
    fates.update(zip(_NEWTON_FATES[1:], counts[1:]))
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

    def __init__(self, table: RowTable, params: np.ndarray, target: complex,
                 radius: float) -> None:
        self.table = table
        self.params = params
        self.target = target
        # products tend to 1 at infinity, so cap the search box: |Im u| <= radius
        # on sin tables, |u| <= radius on linear ones
        self.radius = radius

    def _points(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The table's points (S, cols) of the unknowns u (S, n), into ``out`` if given."""
        x = np.empty((len(u), u.shape[1] + len(self.params)), dtype=complex) if out is None else out
        x[:, : u.shape[1]] = u
        x[:, u.shape[1]:] = self.params
        return x

    def evaluate(self, u: np.ndarray, scratch: LogScratch) -> Tuple[np.ndarray, np.ndarray]:
        """Over a stack u (S, n): the indices of the points inside the radius and
        with every |f| >= 1e-14, and at those points the folded residual.
        Points outside the radius are never evaluated.  The kernel works in
        ``scratch``, where ``self.table.log_ratios(scratch, at)`` then reads
        the row ratios f'/f of the Jacobian at the at-th returned points."""
        size = np.abs(u if self.table.kind == "linear" else u.imag)
        inside = (size <= self.radius).all(axis=1).nonzero()[0]
        if len(inside) < len(u):
            u = u[inside]
        x = self._points(u, scratch.points[: len(u)])
        a = self.table.arguments(x, scratch.logs[: len(u)])  # read before the logs are written
        clear, sums = self.table.log_terms(a, 1e-28, scratch)  # |f|^2 >= (1e-14)^2
        return inside[clear], _fold(sums - self.target)


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


def _first_passes(system: _LogSystem, scratch: LogScratch, u: np.ndarray, step: np.ndarray,
                  norm: np.ndarray, lams: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Score every step length of ``lams`` from every start of the stack u at
    once, and take each start's first one that passes.

    Returns the starts that passed (their positions in u), and at their trial
    points the points, residuals, ratios and residual norms; the ratios are
    read only at those points."""
    k = len(lams)
    trial = (u[:, None, :] + lams[:, None] * step[:, None, :]).reshape(len(u) * k, -1)
    ok, res = system.evaluate(trial, scratch)
    norm_try = np.abs(res).max(axis=1, initial=0.0)
    start = ok // k
    passed = ((norm_try < norm[start] * (1.0 - 0.25 * lams[ok % k]))
              | (norm_try < 1e-12)).nonzero()[0]
    # ok ascends, so each start's passing trials are adjacent, largest step length first
    first = np.ones(len(passed), dtype=bool)
    np.not_equal(start[passed[1:]], start[passed[:-1]], out=first[1:])
    first = passed[first]
    return (start[first], trial[ok[first]], res[first],
            system.table.log_ratios(scratch, first), norm_try[first])


def _newton(system: _LogSystem, u0: np.ndarray,
            cfg: SolveConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Damped Newton from every start of the stack u0 (S, n) at once, one
    iteration per tick.

    In each iteration a start takes the first step length of the ladder
    1, 1/2, ..., 1/128 (:data:`_STAGES`) whose trial point cuts the
    residual norm by a quarter of the step length, or below 1e-12.
    The full step of every live start is scored as one stack, and the rest
    of the ladder of the starts it fails as one more.  A start fails when it
    lies outside the radius or on a pole (bad_start), when its Jacobian is
    singular, when no step length of the ladder passes (step_exhausted), or
    when max_iter steps leave it unconverged.
    Returns, per start, where it ended (S, n) and its code (S,) in
    _NEWTON_FATES; only a converged start's point is meaningful.

    Every stack is scored in one scratch, sized to the widest, a ladder
    for every start, and dropped on return.
    """
    scratch = LogScratch(system.table, len(u0) * len(_STAGES[1]))
    points, codes = u0.astype(complex), np.full(len(u0), _BAD_START)
    # the live starts: their index, iterate, residual, Jacobian ratios and norm
    idx, res = system.evaluate(points, scratch)
    ratios = system.table.log_ratios(scratch, slice(None))
    u = points[idx]
    norm = np.abs(res).max(axis=1, initial=0.0)
    for it in range(cfg.max_iter + 1):
        done = norm < 1e-12
        codes[idx[done]] = _CONVERGED
        points[idx[done]] = u[done]
        live = (~done).nonzero()[0]
        if it == cfg.max_iter or not live.size:
            codes[idx[live]] = _MAX_ITER
            break
        step, solved = _newton_steps(system.table.log_jacobian(ratios[live]), -res[live])
        codes[idx[live[~solved]]] = _SINGULAR
        live, step = live[solved], step[solved]
        moves = []
        for lams in _STAGES:
            if not live.size:
                break
            at, *moved = _first_passes(system, scratch, u[live], step, norm[live], lams)
            moves.append((idx[live[at]], *moved))
            left = np.ones(len(live), dtype=bool)
            left[at] = False
            live, step = live[left], step[left]
        codes[idx[live]] = _EXHAUSTED
        if not moves:
            break
        idx, u, res, ratios, norm = (np.concatenate(parts) for parts in zip(*moves))
    return points, codes


def _starts(system: _LogSystem, cfg: SolveConfig, draw) -> np.ndarray:
    """cfg.n_starts start points (k, n), each drawn again, up to 100 times,
    while some factor has |f| < POLE_TOL; a start without a clear draw is
    skipped.

    ``draw(count)`` returns ``count`` draws (count, n) in one call, in the
    order one start at a time would take them.  They are scored a stack at a
    time, by the pole mask of the Newton kernel in a scratch of its own: one
    draw per start still to fill, and the draws left over when the last
    start is filled are dropped.
    """
    table, scratch = system.table, LogScratch(system.table, cfg.n_starts)
    starts: List[np.ndarray] = []
    left, misses = cfg.n_starts, 0
    while left:
        cand = np.asarray(draw(left), dtype=complex).reshape(left, -1)
        a = table.arguments(system._points(cand, scratch.points[:left]), scratch.logs[:left])
        kept = np.zeros(left, dtype=bool)
        kept[table.log_terms(a, POLE_TOL ** 2, scratch)[0]] = True  # every |f|^2 >= POLE_TOL^2
        for point, clear in zip(cand, kept.tolist()):
            if clear:
                starts.append(point)
            misses = 0 if clear else misses + 1
            if clear or misses == 100:
                left, misses = left - 1, 0
                if not left:
                    break
    return np.array(starts, dtype=complex).reshape(-1, system.table.n_unknowns)


@lru_cache(maxsize=None)
def _sign_changes(family: str, n: int) -> np.ndarray:
    """The sign changes in the Weyl group of ``family`` on n coordinates, one
    per row: none for A, all 2^n for B and C, the even ones for D."""
    if family == "A":
        return np.ones((1, n))
    signs = np.array(list(product((1.0, -1.0), repeat=n)))
    return signs[(signs < 0).sum(axis=1) % 2 == 0] if family == "D" else signs


def _canonical(values: np.ndarray, signs: np.ndarray, period: Optional[float]) -> np.ndarray:
    """The canonical key of each point of a stack (S, n).

    The images of a point are its sign changes ``signs`` (K, n), each
    reflected, then folded into [0, period) (the real parts, for complex
    points; no fold without a period).  Each image is sorted by its
    elements' (rounded re, rounded im, re, im), rounding being Python
    round(., 9), and the least image by its rounded parts, then by its exact
    ones, is the key.  Sorting erases permutations, so a group of
    permutations and sign changes needs only its sign changes here.
    """
    (s, n), k = values.shape, len(signs)
    images = signs * values[:, None, :]  # (S, K, n)
    if period is not None:
        re = images.real
        re -= period * np.floor(re / period)
        # one that rounds to the period at 9 digits goes to the low end, so
        # that values on both sides of the fold 0 = period key alike
        near = re > period - 1e-9  # only these can round to the period
        if near.any():
            top = round(period, 9)
            re[near] = [x - period if round(x, 9) == top else x for x in re[near].tolist()]
    parts = np.stack([images.real, images.imag] if np.iscomplexobj(images) else [images], axis=-1)
    rounded = np.reshape([round(x, 9) for x in parts.ravel().tolist()], parts.shape)
    keys = np.concatenate((rounded, parts), axis=-1)  # per element: rounded parts, exact parts
    order = np.lexsort(np.moveaxis(keys[..., ::-1], -1, 0), axis=-1)
    keys = np.take_along_axis(keys, order[..., None], axis=2)
    c = parts.shape[-1]
    rows = keys.reshape(s, k, n, 2, c).swapaxes(2, 3).reshape(s * k, 2 * n * c)  # rounded, exact
    # per point, its least image: rows ordered by point, then by key, stably
    least = np.lexsort(np.vstack((rows.T[::-1], np.repeat(np.arange(s), k))))[::k]
    return np.take_along_axis(images, order, axis=2).reshape(s * k, n)[least]


def _distinct(keys: Sequence, tol: float) -> List[int]:
    """The indices of the keys farther than tol (max-abs) from every earlier kept key.

    Each kept key's row of the pairwise distances marks the keys it covers,
    those not at least tol away (a NaN distance covers), so a key is kept
    when no earlier kept key covers it: one distance row per kept key.
    """
    arr = np.array(keys)
    covered = np.zeros(len(arr), dtype=bool)
    kept: List[int] = []
    for k in range(len(arr)):
        if not covered[k]:
            kept.append(k)
            covered |= ~(np.max(np.abs(arr - arr[k]), axis=1, initial=0.0) >= tol)
    return kept


def _solve(system: _LogSystem, cfg: SolveConfig, draw, screen, sign: float) -> SolveResult:
    """The one solve behind both solvers: draw the starts, step them by Newton,
    screen the converged points and accept their keys.

    ``screen`` takes the converged points as a stack (S, n), counts in the
    fates the ones it drops and returns the canonical keys of the rest.  The
    keys are checked by one stacked product-form evaluation: a key whose
    residual, its largest |value - sign|, is above cfg.tol or that is
    singular is dropped, and the rest are deduplicated in start order.  A
    system without rows has nothing to solve: each start stands at 0, a
    solution exactly when the empty products 1 are the sign.
    """
    if system.table.n_rows:
        points, codes = _newton(system, _starts(system, cfg, draw), cfg)
    else:
        points = np.zeros((cfg.n_starts, system.table.n_unknowns), dtype=complex)
        codes = np.full(cfg.n_starts, _CONVERGED)
    fates = _ledger(cfg.n_starts, codes)
    converged = points[codes == _CONVERGED]
    keys = screen(converged, fates)
    worst = deviation(*system.table.products(system._points(keys)), sign)
    hit = np.flatnonzero(worst <= cfg.tol)
    kept = hit[_distinct(keys[hit], DEDUP_TOL)]
    fates["residual"], fates["duplicate"], fates["accepted"] = (
        len(keys) - len(hit), len(hit) - len(kept), len(kept))
    return SolveResult(list(keys[kept]), {"n_converged": len(converged) - fates["complex_vacuum"],
                                          "n_starts": len(codes), "fates": fates},
                       worst[kept].tolist())


# ---------------------------------------------------------------------------
# the two solvers
# ---------------------------------------------------------------------------


def solve_bethe(chain: ChainSpec, cfg: SolveConfig) -> SolveResult:
    """All distinct Bethe root sets found from cfg.n_starts seeded starts,
    keyed up to permutations, the period of trig chains and, on open chains,
    the reflections u_i -> -u_i."""
    m = chain.n_magnons
    radius = (
        2.0
        + chain.n_sites * abs(chain.eta) * max(1.0, max(abs(s) for s in chain.spins))
        + max(abs(complex(t)) for t in chain.inhomogeneities)
    )
    rng = np.random.default_rng(cfg.seed)
    half = 0.5 * radius
    signs = _sign_changes("B" if chain.is_open else "A", m)

    def draw(count: int) -> np.ndarray:
        # per start, its real parts and then its imaginary ones: that interleaving is the stream
        points = np.empty((count, m), dtype=complex)
        low, high = (0.02, 0.98) if chain.is_trig else (-half, half)
        for point in points:
            point[:] = rng.uniform(low, high, size=m) + 1j * rng.normal(0.0, 0.2, size=m)
        return points

    def screen(u: np.ndarray, fates: Dict[str, int]) -> np.ndarray:
        keys = _canonical(u, signs, 1.0 if chain.is_trig else None)
        if chain.is_open:
            twice = 2.0 * keys.real
            conj = ((np.abs(twice - np.rint(twice)) < SELF_CONJUGATE_TOL)
                    & (np.abs(keys.imag) < SELF_CONJUGATE_TOL)).any(axis=1)
            fates["self_conjugate"] = int(conj.sum())
            keys = keys[~conj]
        invalid = _root_clashes(keys, chain.is_open).any(axis=1)
        fates["invalid"] = int(invalid.sum())
        return keys[~invalid]

    result = _solve(_LogSystem(*_bethe_system(chain), 0.0, radius), cfg, draw, screen, 1.0)
    result.solutions = [BetheRoots(u) for u in result.solutions]
    return result


def solve_vacuum(spec: GaugeTheorySpec, branch: VacuumBranch, cfg: SolveConfig,
                 rational: bool = False) -> SolveResult:
    """Real vacuum solutions on the given branch, keyed up to the Weyl group
    and, in 3d, the period sigma -> sigma + pi."""
    if spec.family not in CLASSICAL:
        raise ValueError("the analytic solver covers the classical families")
    n, regime = spec.dim, "2d" if rational else "3d"
    table, params = _vacuum_system(spec, REGIME_FORM[regime])
    radius = 2.0 + math.pi + spec.dim * max(abs(p) for p in spec.params)
    system = _LogSystem(table, params, 0.0 if branch.sign == +1 else math.pi * 1j,
                        10.0 * radius if rational else radius)
    rng = np.random.default_rng(cfg.seed)
    span = REGIME_SCALE[regime]
    signs = _sign_changes(spec.family, n)

    def screen(u: np.ndarray, fates: Dict[str, int]) -> np.ndarray:
        real = np.abs(u.imag).max(axis=1, initial=0.0) <= 1e-9
        fates["complex_vacuum"] = len(u) - int(real.sum())
        return _canonical(u[real].real, signs, None if rational else math.pi)

    result = _solve(system, cfg, lambda count: span * rng.uniform(0.02, 0.98, size=(count, n)),
                    screen, branch.sign)
    if not table.n_rows:  # no interactions at all: every point is a vacuum on the + branch
        result.diagnostics["underdetermined"] = True
    return result


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


def cross_check(spec: GaugeTheorySpec, preset: DictionaryPreset,
                cfg: SolveConfig) -> VerificationReport:
    """Solve the chain side, transport roots back (sigma = scale * u), grade the
    vacuum residual against MAP_TOL."""
    sols = solve_bethe(map_gauge_to_chain(preset, spec), cfg)
    if sols.solutions:
        sigma = np.array([r.values for r in sols]) * preset.scale
        res = deviation(*_vacuum_lhs_stack(spec, preset.regime, sigma), preset.branch.sign)
        k = int(np.argmax(res))  # the first worst set; a singular one reads inf
        max_residual, worst = float(res[k]), {"u": [repr(v) for v in sols[k].values]}
        notes = {"n_root_sets": len(sols), **sols.diagnostics}
    else:
        max_residual, worst = math.inf, None
        notes = {"cause": fates_summary(sols.diagnostics["fates"]), **sols.diagnostics}
    return VerificationReport(
        preset_id=preset.id, samples=len(sols), seed=cfg.seed, tol=MAP_TOL,
        max_residual=max_residual, worst_point=worst,
        branch_used=preset.branch.sign, notes=notes,
    )
