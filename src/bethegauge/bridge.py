"""Dictionaries between vacuum equations and Bethe equations, with certification.

Each preset fixes one correspondence: a gauge family and regime (trig or
rational), the chain kind, boundary parameters as expressions in the
crossing parameter eta, a list of fixed spectator sites with spin -1/2, and
the vacuum branch the chain product reproduces.  The core maps are

    sigma = scale * u,   m_adj = scale * eta   (scale: pi trig, 1 rational)

with each fundamental mass pair (m, m') absorbed into one free site via

    s_a     = -(m + m') / (2 * scale * eta)
    theta_a = eta/2 + (m - m') / (2 * scale).

The dictionary is stated once, as stacked columns: :func:`_dictionary` maps
a stack of gauge points to eta, the site spins and inhomogeneities and
xi_+-, and :func:`map_gauge_to_chain` builds its chain from row 0.
Verification draws random admissible points a chunk at a time, maps each
chunk's kept draws across at once, and reports the worst
|vacuum_lhs - branch * bethe_lhs| as one reduction over the accepted draws.
A chunk is a unit of work only: the draws, the ledger and the report are
the same whatever the chunk size, so its one constant is set by cost alone.
An infinite boundary parameter is the exact limit xi = +-i inf, with no
cutoff: D-3d's pair (+i inf, -i inf) is the U_q(sl_2)-invariant boundary,
whose two boundary ratios tend to -e^(-+2 pi i u) and cancel, so its Bethe
equations have no boundary factor (``chain`` states this once).  The
equal-sign pair would leave the phase e^(-+4 pi i u), and the chain
refuses it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .chain import ChainSpec, _bethe_rows, _root_clashes
from .gauge import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    CLASSICAL,
    FAMILIES,
    REGIME_SCALE,
    GaugeTheorySpec,
    VacuumBranch,
    _vacuum_lhs_stack,
    _vacuum_stack,
)

#: the box a random theory and vacuum point are drawn from, in units of the
#: scale: m_adj, each (anti-)fundamental mass, each component of sigma
M_ADJ_BOX, MASS_BOX, SIGMA_BOX = (0.09, 0.34), (0.07, 0.43), (0.05, 0.95)


@dataclass(frozen=True)
class XiExpr:
    """Boundary parameter as const + eta_coeff * eta, or an imaginary limit."""

    const: Fraction = Fraction(0)
    eta_coeff: Fraction = Fraction(0)
    infinite: int = 0  # 0 finite, +-1 for the limit +-i inf

    def value(self, eta: float) -> complex:
        if self.infinite:
            return complex(0.0, self.infinite * math.inf)
        return float(self.const) + float(self.eta_coeff) * eta

    def label(self) -> str:
        if self.infinite:
            return "+i*inf" if self.infinite > 0 else "-i*inf"
        parts = []
        if self.eta_coeff:
            c = self.eta_coeff
            if c == 1:
                parts.append("eta")
            elif c == -1:
                parts.append("-eta")
            else:
                parts.append("%s*eta" % c)
        if self.const or not parts:
            s = str(self.const)
            parts.append(s if not parts or s.startswith("-") else "+" + s)
        return "".join(parts)


_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class FixedSite:
    """Spectator site: spin pinned to -1/2, theta offset 0 or 1/2."""

    theta: Fraction

    spin = Fraction(-1, 2)

    def __post_init__(self) -> None:
        if self.theta not in (Fraction(0), _HALF):
            raise ValueError("fixed-site theta must be 0 or 1/2")


@dataclass(frozen=True)
class DictionaryPreset:
    id: str
    family: str
    regime: str  # "3d" | "2d"
    xi_plus: Optional[XiExpr]
    xi_minus: Optional[XiExpr]
    fixed_sites: Tuple[FixedSite, ...]
    branch: VacuumBranch

    def __post_init__(self) -> None:
        if self.regime not in REGIME_SCALE:
            raise ValueError("regime must be 3d or 2d")
        if len(self.fixed_sites) not in (0, 2, 3, 4):
            raise ValueError("fixed-site count must be in {0, 2, 3, 4}")
        boundary = (self.xi_plus, self.xi_minus)
        if self.is_open and None in boundary:
            raise ValueError("open-chain presets need both xi_plus and xi_minus")
        if not self.is_open and boundary != (None, None):
            raise ValueError("closed-chain presets take no boundary parameters")

    @property
    def scale(self) -> float:
        return REGIME_SCALE[self.regime]

    @property
    def chain_kind(self) -> str:
        """Closed for family A and open otherwise; XXZ in 3d, XXX in 2d."""
        return "%s-%s" % ("closed" if self.family == "A" else "open",
                          "xxz" if self.regime == "3d" else "xxx")

    @property
    def is_open(self) -> bool:
        return self.family != "A"


def _xi(const=0, coeff=0, infinite=0) -> XiExpr:
    return XiExpr(Fraction(const), Fraction(coeff), infinite)


def _fixed(*thetas) -> Tuple[FixedSite, ...]:
    return tuple(FixedSite(Fraction(t)) for t in thetas)


def _build_catalog() -> Tuple[DictionaryPreset, ...]:
    return (
        DictionaryPreset("A-3d", "A", "3d", None, None, (), BRANCH_PLUS),
        DictionaryPreset("B-3d-P1", "B", "3d", _xi(_HALF, -_HALF), _xi(_HALF, -_HALF),
                         _fixed(0, 0), BRANCH_PLUS),
        DictionaryPreset("B-3d-P2", "B", "3d", _xi(0, -_HALF), _xi(0, -_HALF),
                         _fixed(_HALF, _HALF), BRANCH_PLUS),
        DictionaryPreset("B-3d-P3", "B", "3d", _xi(0, _HALF), _xi(0, _HALF),
                         _fixed(0, 0, _HALF, _HALF), BRANCH_PLUS),
        DictionaryPreset("B-3d-P4", "B", "3d", _xi(0, -_HALF), _xi(0, _HALF),
                         _fixed(0, _HALF, _HALF), BRANCH_PLUS),
        DictionaryPreset("B-3d-P5", "B", "3d", _xi(_HALF, -_HALF), _xi(0, _HALF),
                         _fixed(_HALF, 0, 0), BRANCH_MINUS),
        DictionaryPreset("C-3d-P1", "C", "3d", _xi(0, _HALF), _xi(0, 0), (), BRANCH_PLUS),
        DictionaryPreset("C-3d-P2", "C", "3d", _xi(0, 0), _xi(0, _HALF), (), BRANCH_PLUS),
        DictionaryPreset("D-3d", "D", "3d", _xi(infinite=+1), _xi(infinite=-1), (), BRANCH_PLUS),
        DictionaryPreset("B-2d", "B", "2d", _xi(0, -_HALF), _xi(0, -_HALF), (), BRANCH_PLUS),
        DictionaryPreset("C-2d-P1", "C", "2d", _xi(0, _HALF), _xi(0, 0), (), BRANCH_PLUS),
        DictionaryPreset("C-2d-P2", "C", "2d", _xi(0, 0), _xi(0, _HALF), (), BRANCH_PLUS),
        DictionaryPreset("D-2d", "D", "2d", _xi(0, _HALF), _xi(0, _HALF), (), BRANCH_PLUS),
    )


_CATALOG = _build_catalog()


def presets(family: str, regime: str) -> List[DictionaryPreset]:
    """All presets for one family and regime."""
    if family in FAMILIES and family not in CLASSICAL:
        raise ValueError("no boundary dictionary is defined for the exceptional families")
    if family not in CLASSICAL:
        raise ValueError("family must be one of %s" % ", ".join(CLASSICAL))
    if regime not in REGIME_SCALE:
        raise ValueError("regime must be 3d or 2d")
    return [p for p in _CATALOG if p.family == family and p.regime == regime]


def preset_by_id(preset_id: str) -> DictionaryPreset:
    for p in _CATALOG:
        if p.id == preset_id:
            return p
    raise ValueError("unknown preset %r" % preset_id)


def all_presets() -> Tuple[DictionaryPreset, ...]:
    return _CATALOG


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------


def _site_from_pair(m, mp, eta, scale):
    spin = -(m + mp) / (2.0 * scale * eta)
    theta = eta / 2.0 + (m - mp) / (2.0 * scale)
    return spin, theta


def _pair_to_masses(spin, theta, eta, scale):
    m = -scale * (eta / 2.0 + eta * spin - theta)
    mp = scale * (eta / 2.0 - eta * spin - theta)
    return m, mp


class _Columns(NamedTuple):
    """The chain data of a stack of S gauge points, as columns."""

    eta: np.ndarray  # (S,)
    spins: np.ndarray  # (S, L)
    thetas: np.ndarray  # (S, L)
    xi: Optional[np.ndarray]  # (S, 2): xi_+, xi_-; open chains only


def _dictionary(preset: DictionaryPreset, params: np.ndarray, n_fund: int) -> _Columns:
    """The dictionary, stated once: the chain data of a stack of gauge points.

    ``params`` (S, 1 + N_f + N_f') holds each point's m_adj || masses ||
    masses_anti, the columns a verify draw leads with.  Open presets sort
    each point's masses and pair them (0, 1), (2, 3), ... into free sites,
    then append the fixed tail; family A pairs mass j with anti-fundamental
    mass j, in the opposite order.  Raises ValueError where no chain of the
    preset's kind exists.
    """
    scale = preset.scale
    eta = params[:, 0] / scale
    masses, anti = params[:, 1:1 + n_fund], params[:, 1 + n_fund:]
    if preset.family == "A":
        if anti.shape[1] != n_fund:
            raise ValueError("the A-family dictionary pairs every mass: needs N_f = N_f'")
        # closed site ratios carry the antifundamental mass in the numerator,
        # so the pair enters in the opposite order from the open convention
        first, second = anti, masses
    else:
        if n_fund % 2 != 0:
            raise ValueError("open-chain dictionaries need an even number of fundamentals")
        pairs = np.sort(masses, axis=1).reshape(len(params), n_fund // 2, 2)
        first, second = pairs[..., 0], pairs[..., 1]
    n_free = first.shape[1]
    if n_free + len(preset.fixed_sites) == 0:
        raise ValueError("need at least one site: no masses and no fixed sites")
    spins, thetas = np.empty((2, len(params), n_free + len(preset.fixed_sites)))
    spins[:, :n_free], thetas[:, :n_free] = _site_from_pair(first, second, eta[:, None], scale)
    spins[:, n_free:] = [float(site.spin) for site in preset.fixed_sites]
    thetas[:, n_free:] = [float(site.theta) for site in preset.fixed_sites]
    if preset.chain_kind.endswith("xxz") and np.any(np.abs(np.sin(np.pi * eta)) < 1e-14):
        raise ValueError("crossing parameter eta must not be an integer")  # as BracketContext
    xi = None
    if preset.is_open:
        xi = np.empty((len(params), 2), dtype=complex)
        for side, expr in enumerate((preset.xi_plus, preset.xi_minus)):
            xi[:, side] = expr.value(eta)
    return _Columns(eta, spins, thetas, xi)


def map_gauge_to_chain(preset: DictionaryPreset, gauge: GaugeTheorySpec) -> ChainSpec:
    """Translate a gauge theory into the preset's spin chain: row 0 of :func:`_dictionary`.

    The chain's roots are sigma / ``preset.scale``.
    """
    if gauge.family != preset.family:
        raise ValueError("preset %s does not apply to family %s" % (preset.id, gauge.family))
    if gauge.family != "A" and gauge.realization != "II":
        raise ValueError("the dictionary is stated for realization II products")
    cols = _dictionary(preset, np.array([gauge.params], dtype=float), gauge.n_fund)
    xi = (None, None) if cols.xi is None else cols.xi[0].tolist()
    return ChainSpec(preset.chain_kind, cols.spins.shape[1], gauge.dim, float(cols.eta[0]),
                     tuple(cols.spins[0].tolist()), tuple(cols.thetas[0].tolist()), *xi)


def map_chain_to_gauge(preset: DictionaryPreset, chain: ChainSpec) -> GaugeTheorySpec:
    """Invert the dictionary: recover the gauge data from a mapped chain."""
    n_free = chain.n_sites - len(preset.fixed_sites)
    if n_free < 0:
        raise ValueError("chain has fewer sites than the preset's fixed tail")
    m_adj = preset.scale * chain.eta
    spins, thetas = np.array(chain.spins[:n_free]), np.array(chain.inhomogeneities[:n_free])
    m, mp = _pair_to_masses(spins, thetas, chain.eta, preset.scale)
    if preset.family == "A":  # the closed pair enters reversed, as in :func:`_dictionary`
        return GaugeTheorySpec("A", chain.n_magnons, n_free, tuple(mp.tolist()), m_adj,
                               masses_anti=tuple(m.tolist()))
    flat = np.sort(np.concatenate((m, mp)))
    return GaugeTheorySpec(preset.family, chain.n_magnons, len(flat), tuple(flat.tolist()), m_adj)


# ---------------------------------------------------------------------------
# identity certification
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    preset_id: str
    samples: int
    seed: int
    tol: float
    max_residual: float
    worst_point: Optional[Dict[str, object]]
    branch_used: int
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def to_dict(self) -> Dict[str, object]:
        return {**dataclasses.asdict(self), "pass": self.passed}


#: draws scored together in one stacked evaluation.  Each chunk pays one fixed
#: stack of calls (vacuum products, window, dictionary, root mask, Bethe
#: parameters and products), which at 64 draws cost more than the draws.  On a
#: 2-core x86 host with one BLAS thread, the 36 CLI tasks of a benchmark
#: certify round at seed 11 take 0.19-0.22 s at 256 against 0.36-0.43 s at 64
#: (0.17-0.20 s at 384, 0.21-0.25 s at 512; medians of two runs of 9 and 21
#: rounds), and the largest tracemalloc peak of a verify task, C-3d-P2 rank 3
#: at seed 11, is 0.55 MB (0.35 MB at 64, 0.80 MB at 384).  384 saves under a
#: tenth for a peak 45% higher, so the chunk stays at 256.  Reports do not
#: depend on it.
_CHUNK = 256
#: a run gives up once this many draws per requested sample leave it short
_DRAWS_PER_SAMPLE = 60
#: a draw is kept only when every vacuum product lies strictly inside this
#: magnitude window, so that the absolute tolerance is meaningful
_WINDOW = (1e-2, 1e2)
#: what becomes of a draw, in the order it is checked; notes["draws"] counts each
OUTCOMES = ("accepted", "singular", "magnitude_window", "invalid_roots")
_ACCEPTED, _SINGULAR, _OUTSIDE, _INVALID = range(len(OUTCOMES))


def _outcomes(singular: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per draw of a chunk: singular, outside the magnitude window, or accepted so far."""
    mag = np.abs(values)
    inside = np.all((_WINDOW[0] < mag) & (mag < _WINDOW[1]), axis=1)
    return np.where(singular, _SINGULAR, np.where(inside, _ACCEPTED, _OUTSIDE))


def _sample(rng: np.random.Generator, bounds: Sequence[Tuple[float, float]], scale: float,
            samples: int, score, outcomes: Sequence[str] = OUTCOMES):
    """Draw and score points chunk by chunk until ``samples`` are accepted.

    A draw is one row: column c is scale * uniform(bounds[c]).  A chunk of
    rows comes from one ``rng.random`` call, which gives bitwise the values
    of the same draws made one ``rng.uniform`` call at a time.
    ``score(points)`` returns every row's outcome (an index into
    :data:`OUTCOMES`) followed by per-row arrays.  Returns the outcome of
    every draw up to the ``samples``-th acceptance, the accepted draws'
    points and arrays in draw order, and the ledger: the ``attempted``
    count, then one count per name of ``outcomes``.  Raises RuntimeError
    once the first 60 * ``samples`` draws leave fewer than ``samples``
    accepted.

    What it returns does not depend on :data:`_CHUNK`: the draws are one
    stream however it is split, the score of a row does not depend on the
    other rows of its chunk, the unscored tail of the last chunk is
    neither kept nor counted, and the cap bounds draws, not chunks.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    lo, hi = np.array(bounds, dtype=float).T
    cap, drawn, need = _DRAWS_PER_SAMPLE * samples, 0, samples
    counted, kept = [], []  # per chunk: the counted outcomes; the accepted rows
    while need and drawn < cap:
        points = scale * (lo + (hi - lo) * rng.random((min(_CHUNK, cap - drawn), len(lo))))
        outcome, *arrays = score(points)
        ok = np.flatnonzero(outcome == _ACCEPTED)[:need]
        k = int(ok[-1]) + 1 if len(ok) == need else len(points)
        need, drawn = need - len(ok), drawn + k
        counted.append(outcome[:k])
        kept.append([points[ok]] + [a[ok] for a in arrays])
    outcome = np.concatenate(counted)
    ledger = {"attempted": len(outcome),
              **dict(zip(outcomes, np.bincount(outcome, minlength=len(outcomes)).tolist()))}
    if need:
        raise RuntimeError("sampling kept hitting singular configurations or leaving the "
                           "magnitude window (draws: %s)"
                           % ", ".join("%s %d" % kv for kv in ledger.items()))
    points, *arrays = (np.concatenate(parts) for parts in zip(*kept))
    return outcome, points, arrays, ledger


def _drawn_gauge(preset: DictionaryPreset, dims: Tuple[int, int],
                 point: np.ndarray) -> Tuple[GaugeTheorySpec, np.ndarray]:
    """The theory and sigma of one verify point: m_adj, the masses, for family A
    the anti-fundamental masses, then sigma."""
    rank, nf = dims
    spec = GaugeTheorySpec(
        family=preset.family, rank=rank, n_fund=nf, masses=point[1:nf + 1], m_adj=point[0],
        masses_anti=point[nf + 1:2 * nf + 1] if preset.family == "A" else None)
    return spec, point[len(point) - spec.dim:]


def _verify_draws(preset: DictionaryPreset, dims: Tuple[int, int], samples: int, seed: int):
    """The draws of :func:`verify_identity`, scored a chunk at a time.

    A draw is eta, the masses, for family A the anti-fundamental masses,
    then sigma, in units of the preset's scale, so its point reads as
    :func:`_drawn_gauge` reads it.  A draw is singular when a vacuum or a
    Bethe product would raise :class:`SingularPointError`; it must keep
    every vacuum product inside the window and map to valid Bethe roots.
    The draws the vacuum side keeps are mapped together by
    :func:`_dictionary` and scored by one stacked product of the rows
    :func:`_bethe_rows` states for their chains.  Returns what
    :func:`_sample` returns, with the accepted draws' vacuum values and
    Bethe values, each (samples, dim).
    """
    shape, _ = _drawn_gauge(preset, dims, np.zeros(1 + 2 * dims[1] + dims[0]))  # never evaluated
    n_params = len(shape.params)
    bounds = [M_ADJ_BOX] + [MASS_BOX] * (n_params - 1) + [SIGMA_BOX] * shape.dim

    def score(points):
        params, sigma = points[:, :n_params], points[:, n_params:]
        vac, singular = _vacuum_lhs_stack(shape, preset.regime, sigma, params)
        outcome = _outcomes(singular, vac)
        bethe = np.full((len(points), shape.dim), np.nan, dtype=complex)
        kept = np.flatnonzero(outcome == _ACCEPTED)
        u = sigma[kept] / preset.scale
        cols = _dictionary(preset, params[kept], shape.n_fund)
        ok = ~_root_clashes(u, preset.is_open).any(axis=1)  # else coincident or reflected
        outcome[kept[~ok]] = _INVALID
        reached = kept[ok]
        if len(reached):
            table, chain = _bethe_rows(preset.chain_kind, shape.dim, *cols)
            values, hit = table.products(np.concatenate((u, chain), axis=1)[ok])
            bethe[reached] = values
            outcome[reached[hit]] = _SINGULAR
        return outcome, vac, bethe

    return _sample(np.random.default_rng(seed), bounds, preset.scale, samples, score)


def verify_identity(
    preset: DictionaryPreset,
    dims: Tuple[int, int],
    samples: int = 200,
    tol: float = 1e-10,
    seed: int = 0,
    branch: Optional[VacuumBranch] = None,
) -> VerificationReport:
    """Sample the correspondence and report the worst matched residual,
    max |vacuum_lhs - branch * bethe_lhs| over the accepted draws.

    Every preset's Bethe side is its chain's own row table, D-3d's at its
    exact boundary xi = (+i inf, -i inf), so no preset is extrapolated.
    ``notes["draws"]`` counts the draws made and what became of each.
    """
    branch = preset.branch if branch is None else branch
    _, points, (vac, bethe), ledger = _verify_draws(preset, dims, samples, seed)
    res = np.abs(vac - branch.sign * bethe).max(axis=1)
    k = int(res.argmax())  # the first worst draw
    worst: Optional[Dict[str, object]] = None
    if res[k] > 0:
        spec, sigma = _drawn_gauge(preset, dims, points[k])
        worst = {"sigma": sigma.tolist(), "masses": list(spec.masses),
                 "m_adj": float(spec.m_adj)}
        if preset.family == "A":  # the drawn anti-fundamental masses replay the point
            worst["masses_anti"] = list(spec.masses_anti)
    return VerificationReport(
        preset_id=preset.id,
        samples=samples,
        seed=seed,
        tol=tol,
        max_residual=float(res[k]),
        worst_point=worst,
        branch_used=branch.sign,
        notes={"draws": ledger},
    )


def calibrate_preset(
    family: str,
    regime: str,
    samples: int = 50,
    seed: int = 0,
) -> DictionaryPreset:
    """Grid-scan fixed-site counts, theta patterns and branches; keep the best.

    The grid takes every boundary pair of the family's presets in the
    regime, 0, 2, 3 or 4 fixed sites (none on a closed chain) with every
    theta pattern, and both branches; each trial is verified at rank 2 with
    4 fundamentals.  The first trial in grid order whose verification passes
    wins; the least worst residual decides only when none passes, since the
    residuals of passing trials differ only by rounding.  The ambiguity this
    resolves: different sections tie the site count to N_f in incompatible
    ways for the C and D families, so the residual gets the final word.
    Deterministic for a fixed seed.
    """
    return _calibrate(family, regime, samples, seed)[0]


def _calibrate(family: str, regime: str, samples: int, seed: int
               ) -> Tuple[DictionaryPreset, VerificationReport, Dict[str, object]]:
    """:func:`calibrate_preset`'s grid scan: the chosen trial, its report and
    the grid's ledger, the trials run and the trials whose verification
    raised, counted by exception type."""
    base = presets(family, regime)
    if not base:
        raise ValueError("no preset to calibrate from for family %s in regime %s"
                         % (family, regime))
    best: Optional[Tuple[DictionaryPreset, VerificationReport]] = None
    refused: Dict[str, int] = {}
    trials = 0
    for xi_p, xi_m in dict.fromkeys((p.xi_plus, p.xi_minus) for p in base):
        for count in (0, 2, 3, 4):
            if count and not base[0].is_open:
                continue
            for pattern in combinations_with_replacement((Fraction(0), _HALF), count):
                for br in (BRANCH_PLUS, BRANCH_MINUS):
                    trial = DictionaryPreset("%s-%s-cal" % (family, regime), family, regime,
                                             xi_p, xi_m, tuple(FixedSite(t) for t in pattern), br)
                    trials += 1
                    try:
                        rep = verify_identity(trial, (2, 4), samples, seed=seed)
                    except (ValueError, RuntimeError) as exc:
                        name = type(exc).__name__
                        refused[name] = refused.get(name, 0) + 1
                        continue
                    if best is None or (not best[1].passed  # the first passing trial wins
                                        and rep.max_residual < best[1].max_residual):
                        best = (trial, rep)
    if best is None:
        raise RuntimeError("calibration grid produced no evaluable configuration")
    return best + ({"trials": trials, "refused": refused},)


def duality_compare(
    gauge_i: GaugeTheorySpec,
    gauge_ii: GaugeTheorySpec,
    samples: int = 50,
    seed: int = 0,
    tol: float = 1e-10,
) -> VerificationReport:
    """Certify that both realizations square to the same vacuum equations."""
    if gauge_i.realization != "I" or gauge_ii.realization != "II":
        raise ValueError("expected (realization I, realization II) in that order")
    if (gauge_i.family, gauge_i.rank) != (gauge_ii.family, gauge_ii.rank):
        raise ValueError("realizations must share family and rank")
    if gauge_i.masses != gauge_ii.masses or gauge_i.masses != gauge_i.masses_anti:
        raise ValueError("comparison requires equal fundamental mass lists (m = m')")
    if abs(gauge_i.m_adj - gauge_ii.m_adj) > 0:
        raise ValueError("adjoint masses differ")

    def score(sigma):
        vals_i, singular_i = _vacuum_stack(gauge_i, "full", sigma)
        vals_ii, singular_ii = _vacuum_stack(gauge_ii, "full", sigma)
        return _outcomes(singular_i | singular_ii, vals_ii), vals_i, vals_ii

    _, sigma, (vals_i, vals_ii), ledger = _sample(
        np.random.default_rng(seed), [SIGMA_BOX] * gauge_i.dim, math.pi, samples, score,
        OUTCOMES[:_INVALID])  # no roots to check
    res = np.abs(vals_i - vals_ii).max(axis=1)
    k = int(res.argmax())  # the first worst draw
    return VerificationReport(
        preset_id="duality-%s-%d" % (gauge_i.family, gauge_i.rank),
        samples=samples,
        seed=seed,
        tol=tol,
        max_residual=float(res[k]),
        worst_point={"sigma": sigma[k].tolist()} if res[k] > 0 else None,
        branch_used=+1,
        notes={"realizations": ["I", "II"], "draws": ledger},
    )
