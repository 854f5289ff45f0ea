"""Command line front end: evaluation, certification and solving.

One binary with subcommands; every subcommand supports --json (versioned
schema) and most support --csv where the payload is tabular.  Reports are
reproducible: the same argv and seed give byte-identical JSON once
timestamps are disabled with --no-timestamp.  The BGL_SEED environment
variable overrides the default seed of any subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bridge import (
    DictionaryPreset,
    all_presets,
    calibrate_preset,
    duality_compare,
    map_gauge_to_chain,
    preset_by_id,
    verify_identity,
)
from .chain import (
    BetheRoots,
    ChainSpec,
    bethe_lhs,
    bethe_residuals,
    certify_roots,
    commutator_residual,
    reflection_residual,
    rtt_residual,
    yang_baxter_residual,
)
from .gauge import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    GaugeTheorySpec,
    superpotential_grad,
    superpotential_value,
    vacuum_from_gradient,
    vacuum_lhs,
    vacuum_lhs_2d,
    vacuum_lhs_squared,
)
from .lie_roots import build_root_system, expected_root_count
from .solve import SolveConfig, cross_check, solve_bethe, solve_vacuum
from .specfun import (
    BracketContext,
    dilog,
    dilog_factorization_residual,
    dilog_grad_check,
    dilog_qpoch_link,
)

SCHEMA_VERSION = "1"


@dataclasses.dataclass
class RunConfig:
    subcommand: str
    seed: int
    output: str  # human | json | csv
    no_timestamp: bool
    out: Optional[str]
    flags: Dict[str, object]


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    v = int(text)
    if v <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _nonneg_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return v


def _positive_float(text: str) -> float:
    v = float(text)
    if not 0.0 < v < math.inf:
        raise argparse.ArgumentTypeError("must be a positive finite real")
    return v


def _csv_floats(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of reals")


def _csv_complex(text: str) -> Tuple[complex, ...]:
    try:
        return tuple(complex(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")


def _branch_arg(text: str):
    if text in ("+", "+1", "plus"):
        return BRANCH_PLUS
    if text in ("-", "-1", "minus"):
        return BRANCH_MINUS
    raise argparse.ArgumentTypeError("branch must be + or -")


def _default_seed() -> int:
    try:
        return int(os.environ.get("BGL_SEED", "0"))
    except ValueError:
        return 0


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.complexfloating, complex)):
        z = complex(x)
        return {"re": z.real, "im": z.imag}
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return x


def _emit(cfg: RunConfig, payload: Dict[str, object], human: Sequence[str],
          csv_rows: Optional[List[List[object]]] = None) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.subcommand,
        "seed": cfg.seed,
    }
    if not cfg.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    doc.update(_jsonable(payload))
    if cfg.output == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif cfg.output == "csv":
        if csv_rows is None:
            raise SystemExit("this subcommand has no tabular form; use --json")
        buf = io.StringIO()
        for row in csv_rows:
            buf.write(",".join(str(c) for c in row) + "\n")
        text = buf.getvalue()
    else:
        text = "\n".join(human) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _root_family(family: str, rank: int) -> Tuple[str, int]:
    if family in ("E6", "E7", "E8"):
        return "E", int(family[1])
    if family == "F4":
        return "F", 4
    return family, rank


def _cmd_roots(cfg: RunConfig) -> int:
    family, rank = _root_family(cfg.flags["family"], cfg.flags["rank"])
    rs = build_root_system(family, rank)
    lengths: Dict[str, int] = {}
    for w in rs.weight_factors():
        key = str(w)
        lengths[key] = lengths.get(key, 0) + 1
    payload = {
        "family": cfg.flags["family"],
        "rank": rank,
        "count": len(rs.roots),
        "expected": expected_root_count(family, rank),
        "weight_factor_histogram": lengths,
    }
    human = ["family %s rank %d: %d roots (expected %d)"
             % (cfg.flags["family"], rank, len(rs.roots), payload["expected"])]
    rows: List[List[object]] = [["index"] + ["x%d" % i for i in range(len(rs.roots[0]))]]
    for idx, root in enumerate(rs.roots):
        rows.append([idx] + [str(c) for c in root])
    _emit(cfg, payload, human, rows)
    return 0 if len(rs.roots) == payload["expected"] else 1


def _specfun_checks(seed: int) -> List[Dict[str, object]]:
    """The special-function checks of specfun-selftest and criterion 7."""
    checks: List[Dict[str, object]] = []

    def add(name: str, value: float, bound: float) -> None:
        checks.append({"name": name, "value": value, "bound": bound,
                       "pass": value <= bound})

    add("dilog_at_one", abs(dilog(1.0) - math.pi ** 2 / 6.0), 1e-12)
    add("dilog_at_minus_one", abs(dilog(-1.0) + math.pi ** 2 / 12.0), 1e-12)
    ana, fd = dilog_grad_check(0.2 + 0.3j, 1e-5)
    add("derivative_fd_gap", abs(ana - fd), 1e-8)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for r in (2, 3, 4):
        for _ in range(20):
            x = complex(rng.uniform(-2.5, math.log(0.9)), rng.uniform(-3.0, 3.0))
            worst = max(worst, dilog_factorization_residual(np.exp(x), r))
    add("factorization_r234", worst, 1e-10)
    rels = []
    for beta2 in (1e-1, 1e-2, 1e-3):
        _, _, rel = dilog_qpoch_link(np.exp(0.4j), beta2)
        rels.append(rel)
    add("qpoch_link_at_1e-3", rels[-1], 5e-3)
    checks.append({"name": "qpoch_link_monotone",
                   "value": rels, "bound": "decreasing",
                   "pass": rels[0] > rels[1] > rels[2]})
    return checks


def _cmd_specfun_selftest(cfg: RunConfig) -> int:
    checks = _specfun_checks(cfg.seed)
    ok = all(c["pass"] for c in checks)
    human = ["%-24s %s" % (c["name"], "PASS" if c["pass"] else "FAIL") for c in checks]
    human.append("specfun selftest: %s" % ("PASS" if ok else "FAIL"))
    _emit(cfg, {"checks": checks, "pass": ok}, human)
    return 0 if ok else 1


def _gauge_from_flags(cfg: RunConfig, rng: np.random.Generator,
                      scale: float) -> GaugeTheorySpec:
    f = cfg.flags
    family = f["family"]
    rank = f["rank"]
    nf = f.get("nf", 2)
    masses = f.get("masses")
    if masses is None:
        masses = tuple(scale * rng.uniform(0.07, 0.43, size=nf))
    if len(masses) != nf:
        raise SystemExit("got %d masses for --nf %d" % (len(masses), nf))
    m_adj = f.get("m_adj")
    if m_adj is None:
        m_adj = scale * rng.uniform(0.09, 0.34)
    kwargs = {}
    if family == "A":
        anti = f.get("masses_anti")
        if anti is None:
            anti = tuple(scale * rng.uniform(0.07, 0.43, size=nf))
        kwargs["masses_anti"] = anti
    return GaugeTheorySpec(
        family=family, rank=rank, n_fund=nf, masses=tuple(masses),
        m_adj=m_adj, realization=f.get("realization", "II"), **kwargs,
    )


def _cmd_vacuum(cfg: RunConfig) -> int:
    f = cfg.flags
    regime = f.get("regime", "3d")
    scale = math.pi if regime == "3d" else 1.0
    rng = np.random.default_rng(cfg.seed)
    spec = _gauge_from_flags(cfg, rng, scale)
    sigma = f.get("sigma")
    if sigma is None:
        sigma = scale * rng.uniform(0.05, 0.95, size=spec.dim)
    sigma = np.asarray(sigma, dtype=float)
    branch = f.get("branch", BRANCH_PLUS)
    lhs_fn = vacuum_lhs if regime == "3d" else vacuum_lhs_2d
    values = [lhs_fn(spec, sigma, j, branch) for j in range(spec.dim)]
    residuals = [abs(v - branch.sign) for v in values]
    payload = {
        "family": spec.family, "rank": spec.rank, "regime": regime,
        "branch": branch.sign,
        "sigma": list(sigma), "masses": list(spec.masses), "m_adj": spec.m_adj,
        "lhs": values, "residuals": residuals,
    }
    human = ["vacuum %s rank %d (%s, branch %+d)"
             % (spec.family, spec.rank, regime, branch.sign)]
    for j, (v, r) in enumerate(zip(values, residuals)):
        human.append("  j=%d  LHS=%s  |LHS-branch|=%.3e" % (j, v, r))
    _emit(cfg, payload, human)
    return 0


def _chain_from_flags(cfg: RunConfig) -> ChainSpec:
    f = cfg.flags
    spins = f.get("spins")
    thetas = f.get("thetas")
    sites = f.get("sites") or (len(spins) if spins else None)
    if sites is None:
        raise SystemExit("need --sites or an explicit --spins list")
    if spins is None:
        spins = (0.5,) * sites
    if thetas is None:
        thetas = (0.0,) * sites
    return ChainSpec(
        kind=f["kind"], n_sites=sites, n_magnons=f["magnons"], eta=f["eta"],
        spins=tuple(spins), inhomogeneities=tuple(thetas),
        xi_plus=f.get("xi_plus"), xi_minus=f.get("xi_minus"),
    )


def _cmd_bethe(cfg: RunConfig) -> int:
    chain = _chain_from_flags(cfg)
    roots = BetheRoots(cfg.flags["u"])
    res = bethe_residuals(chain, roots)
    payload = {
        "kind": chain.kind, "sites": chain.n_sites, "magnons": chain.n_magnons,
        "u": list(roots.values), "residuals": list(res),
    }
    human = ["bethe %s L=%d M=%d" % (chain.kind, chain.n_sites, chain.n_magnons)]
    for i, r in enumerate(res):
        human.append("  i=%d  |LHS-1|=%.3e" % (i, r))
    _emit(cfg, payload, human)
    return 0


def _cmd_chain_oracle(cfg: RunConfig) -> int:
    f = cfg.flags
    rng = np.random.default_rng(cfg.seed)
    eta = f.get("eta") or rng.uniform(0.2, 0.4)
    sites = f.get("sites", 3)
    kind = f.get("kind", "closed-xxz")
    xi_p = xi_m = None
    if kind.startswith("open"):
        xi_p, xi_m = rng.uniform(-0.4, 0.4, size=2)
    chain = ChainSpec(
        kind=kind, n_sites=sites, n_magnons=f.get("magnons", 1), eta=eta,
        spins=(0.5,) * sites,
        inhomogeneities=tuple(rng.uniform(-0.1, 0.1, size=sites)),
        xi_plus=xi_p, xi_minus=xi_m,
    )
    u, v = rng.uniform(0.1, 0.9, size=2)
    checks: List[Dict[str, object]] = []
    if chain.is_trig:
        ctx = BracketContext(eta)
        ybe = yang_baxter_residual(u, v, ctx)
        checks.append({"name": "yang_baxter", "value": ybe, "bound": 1e-12,
                       "pass": ybe <= 1e-12})
        if chain.is_open:
            refl = reflection_residual(u, v, xi_p, ctx)
            checks.append({"name": "reflection", "value": refl, "bound": 1e-12,
                           "pass": refl <= 1e-12})
    rtt = rtt_residual(chain, u, v)
    checks.append({"name": "rtt_exchange", "value": rtt, "bound": 1e-12,
                   "pass": rtt <= 1e-12})
    comm = commutator_residual(chain, u, v)
    checks.append({"name": "transfer_commutator", "value": comm, "bound": 1e-10,
                   "pass": comm <= 1e-10})
    ok = all(c["pass"] for c in checks)
    payload = {"kind": kind, "sites": sites, "eta": eta, "checks": checks, "pass": ok}
    human = ["%-20s %.3e  %s" % (c["name"], c["value"], "PASS" if c["pass"] else "FAIL")
             for c in checks]
    human.append("chain oracle: %s" % ("PASS" if ok else "FAIL"))
    _emit(cfg, payload, human)
    return 0 if ok else 1


def _cmd_verify(cfg: RunConfig) -> int:
    f = cfg.flags
    preset = preset_by_id(f["preset"])
    rep = verify_identity(
        preset,
        dims=(f["rank"], f["nf"]),
        samples=f["samples"],
        tol=f["tol"],
        seed=cfg.seed,
        branch=f.get("branch"),
    )
    payload = rep.to_dict()
    human = [
        "preset %s: max residual %.3e over %d samples (tol %.1e, branch %+d) -> %s"
        % (rep.preset_id, rep.max_residual, rep.samples, rep.tol,
           rep.branch_used, "PASS" if rep.passed else "FAIL")
    ]
    rows = [["preset", "samples", "seed", "branch", "max_residual", "pass"],
            [rep.preset_id, rep.samples, rep.seed, rep.branch_used,
             rep.max_residual, rep.passed]]
    _emit(cfg, payload, human, rows)
    return 0 if rep.passed else 1


def _cmd_calibrate(cfg: RunConfig) -> int:
    f = cfg.flags
    chosen = calibrate_preset(
        f["family"], f["regime"], samples=f["samples"], seed=cfg.seed,
    )
    rep = verify_identity(chosen, dims=(2, 4), samples=f["samples"], seed=cfg.seed)
    payload = {
        "family": f["family"],
        "regime": f["regime"],
        "chosen": {
            "xi_plus": chosen.xi_plus.label() if chosen.xi_plus else None,
            "xi_minus": chosen.xi_minus.label() if chosen.xi_minus else None,
            "fixed_sites": [str(s.theta) for s in chosen.fixed_sites],
            "branch": chosen.branch.sign,
        },
        "report": rep.to_dict(),
    }
    human = [
        "calibrated %s %s: %d fixed site(s) theta=[%s], branch %+d, xi=(%s, %s)"
        % (f["family"], f["regime"], len(chosen.fixed_sites),
           ", ".join(str(s.theta) for s in chosen.fixed_sites),
           chosen.branch.sign,
           chosen.xi_plus.label() if chosen.xi_plus else "-",
           chosen.xi_minus.label() if chosen.xi_minus else "-"),
        "max residual %.3e over %d samples" % (rep.max_residual, rep.samples),
    ]
    _emit(cfg, payload, human)
    return 0 if rep.passed else 1


def _cmd_duality_compare(cfg: RunConfig) -> int:
    f = cfg.flags
    rng = np.random.default_rng(cfg.seed)
    nf = f.get("nf", 4)
    masses = tuple(math.pi * rng.uniform(0.07, 0.43, size=nf))
    m_adj = math.pi * rng.uniform(0.09, 0.34)
    g1 = GaugeTheorySpec(family=f["family"], rank=f["rank"], n_fund=nf,
                         masses=masses, m_adj=m_adj, realization="I")
    g2 = GaugeTheorySpec(family=f["family"], rank=f["rank"], n_fund=nf,
                         masses=masses, m_adj=m_adj, realization="II")
    rep = duality_compare(g1, g2, samples=f["samples"], seed=cfg.seed, tol=f["tol"])
    payload = rep.to_dict()
    human = ["%s: squared products differ by at most %.3e over %d points -> %s"
             % (rep.preset_id, rep.max_residual, rep.samples,
                "PASS" if rep.passed else "FAIL")]
    _emit(cfg, payload, human)
    return 0 if rep.passed else 1


def _solve_cfg(cfg: RunConfig) -> SolveConfig:
    f = cfg.flags
    return SolveConfig(
        n_starts=f.get("starts", 64), tol=f.get("tol", 1e-10),
        max_iter=f.get("max_iter", 40), damping=f.get("damping", 1.0),
        seed=cfg.seed, dedup_tol=f.get("dedup_tol", 1e-6),
    )


def _cmd_solve_bethe(cfg: RunConfig) -> int:
    chain = _chain_from_flags(cfg)
    result = solve_bethe(chain, _solve_cfg(cfg))
    sets = []
    human = ["solve-bethe %s L=%d M=%d: %d root set(s)"
             % (chain.kind, chain.n_sites, chain.n_magnons, len(result))]
    for roots in result:
        res = bethe_residuals(chain, roots) if roots.values else np.zeros(0)
        worst = float(np.max(res)) if res.size else 0.0
        sets.append({"u": list(roots.values), "max_residual": worst})
        human.append("  u=%s  max|LHS-1|=%.3e"
                     % (["%.12g%+.12gj" % (z.real, z.imag) for z in roots.values], worst))
    payload = {"kind": chain.kind, "sites": chain.n_sites,
               "magnons": chain.n_magnons, "root_sets": sets,
               "diagnostics": result.diagnostics}
    _emit(cfg, payload, human)
    return 0


def _cmd_solve_vacuum(cfg: RunConfig) -> int:
    f = cfg.flags
    regime = f.get("regime", "3d")
    scale = math.pi if regime == "3d" else 1.0
    rng = np.random.default_rng(cfg.seed)
    spec = _gauge_from_flags(cfg, rng, scale)
    branch = f.get("branch", BRANCH_PLUS)
    result = solve_vacuum(spec, branch, _solve_cfg(cfg), rational=regime == "2d")
    lhs_fn = vacuum_lhs if regime == "3d" else vacuum_lhs_2d
    sols = []
    human = ["solve-vacuum %s rank %d branch %+d: %d solution(s)"
             % (spec.family, spec.rank, branch.sign, len(result))]
    for sig in result:
        worst = max(abs(lhs_fn(spec, sig, j, branch) - branch.sign)
                    for j in range(spec.dim))
        sols.append({"sigma": list(sig), "max_residual": worst})
        human.append("  sigma=%s  max|LHS-branch|=%.3e"
                     % (["%.12g" % s for s in sig], worst))
    payload = {"family": spec.family, "rank": spec.rank, "branch": branch.sign,
               "masses": list(spec.masses), "m_adj": spec.m_adj,
               "solutions": sols, "diagnostics": result.diagnostics}
    _emit(cfg, payload, human)
    return 0


def _cmd_cross_check(cfg: RunConfig) -> int:
    f = cfg.flags
    preset = preset_by_id(f["preset"])
    rng = np.random.default_rng(cfg.seed)
    scale = preset.scale
    nf = f.get("nf", 2)
    cfg.flags.setdefault("family", preset.family)
    spec = _gauge_from_flags(cfg, rng, scale)
    if spec.family != preset.family:
        raise SystemExit("preset %s is for family %s" % (preset.id, preset.family))
    rep = cross_check(spec, preset, _solve_cfg(cfg))
    payload = rep.to_dict()
    human = ["cross-check %s rank %d nf %d: %d root set(s), mapped residual %.3e -> %s"
             % (preset.id, spec.rank, nf, rep.samples, rep.max_residual,
                "PASS" if rep.passed else "FAIL")]
    _emit(cfg, payload, human)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# report-all: the full certification battery
# ---------------------------------------------------------------------------


def _battery_root_counts() -> Dict[str, object]:
    expectations = [("E8", 8, 240), ("E7", 7, 126), ("E6", 6, 72), ("F4", 4, 48)]
    for n in range(1, 7):
        expectations.append(("A", n, n * (n - 1)))
        expectations.append(("B", n, 2 * n * n))
        expectations.append(("C", n, 2 * n * n))
        expectations.append(("D", n, 2 * n * (n - 1)))
    rows = []
    ok = True
    for family, rank, want in expectations:
        fam, rk = _root_family(family, rank)
        got = len(build_root_system(fam, rk).roots)
        rows.append({"family": family, "rank": rank, "count": got, "expected": want})
        ok = ok and got == want
    return {"name": "root_counts", "pass": ok, "detail": rows}


def _battery_gradient(seed: int) -> Dict[str, object]:
    from .specfun import SingularPointError

    rng = np.random.default_rng(seed)
    worst_prod = 0.0
    worst_fd = 0.0
    for family in ("A", "B", "C", "D"):
        for rank in (1, 2, 3):
            spec = GaugeTheorySpec(
                family=family, rank=rank, n_fund=2,
                masses=tuple(rng.uniform(0.3, 1.2, size=2)),
                m_adj=rng.uniform(0.4, 0.9),
            )
            done = 0
            attempts = 0
            while done < 20 and attempts < 2000:
                attempts += 1
                sigma = rng.uniform(0.15, math.pi - 0.15, size=spec.dim)
                # absolute tolerances are only meaningful away from poles
                try:
                    refs = [vacuum_lhs_squared(spec, sigma, j)
                            for j in range(spec.dim)]
                    if any(not 1e-3 < abs(r) < 1e3 for r in refs):
                        continue
                    lhs = vacuum_from_gradient(spec, sigma)
                    grad = superpotential_grad(spec, sigma)
                    h = 1e-6
                    for j in range(spec.dim):
                        worst_prod = max(worst_prod, abs(lhs[j] - refs[j]))
                        stepped = sigma.copy()
                        stepped[j] += h
                        wp = superpotential_value(spec, stepped)
                        stepped[j] -= 2 * h
                        wm = superpotential_value(spec, stepped)
                        worst_fd = max(worst_fd,
                                       abs((wp - wm) / (2 * h) - grad[j]))
                except SingularPointError:
                    continue
                done += 1
    ok = worst_prod <= 1e-8 and worst_fd <= 1e-6
    return {"name": "gradient_vs_product", "pass": ok,
            "detail": {"max_product_gap": worst_prod, "max_fd_gap": worst_fd}}


def _battery_presets(seed: int) -> Dict[str, object]:
    rows = []
    ok = True
    for preset in all_presets():
        tol = 1e-6 if any(x is not None and x.infinite
                          for x in (preset.xi_plus, preset.xi_minus)) else 1e-10
        rep = verify_identity(preset, dims=(2, 4), samples=200, tol=tol, seed=seed)
        rows.append({"preset": preset.id, "max_residual": rep.max_residual,
                     "tol": tol, "pass": rep.passed})
        ok = ok and rep.passed
    flipped = verify_identity(preset_by_id("B-3d-P5"), dims=(2, 4), samples=50,
                              tol=1e-10, seed=seed, branch=BRANCH_PLUS)
    flip_ok = flipped.max_residual >= 0.1
    rows.append({"preset": "B-3d-P5 (forced +1)",
                 "max_residual": flipped.max_residual,
                 "tol": ">=0.1", "pass": flip_ok})
    ok = ok and flip_ok
    return {"name": "preset_dictionaries", "pass": ok, "detail": rows}


def _battery_transfer(seed: int) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for draw in range(5):
        eta = rng.uniform(0.2, 0.4)
        th = rng.uniform(-0.1, 0.1, size=3)
        u, v = rng.uniform(0.1, 0.9, size=2)
        ybe = yang_baxter_residual(u, v, BracketContext(eta))
        draw_ok = ybe <= 1e-12
        worst_comm = 0.0
        worst_cert = 0.0
        chains = [ChainSpec("closed-xxz", 3, m, eta, (0.5,) * 3, tuple(th))
                  for m in (1, 2)]
        xi = rng.uniform(-0.4, 0.4, size=2)
        chains.append(ChainSpec("open-xxz", 2, 1, eta, (0.5,) * 2, tuple(th[:2]),
                                xi_plus=xi[0], xi_minus=xi[1]))
        for chain in chains:
            worst_comm = max(worst_comm, commutator_residual(chain, u, v))
            sols = solve_bethe(chain, SolveConfig(n_starts=48, tol=1e-10,
                                                  max_iter=40, seed=seed + draw))
            for roots in sols:
                worst_cert = max(worst_cert, certify_roots(chain, roots).residual)
        draw_ok = draw_ok and worst_comm <= 1e-10 and worst_cert <= 1e-8
        rows.append({"draw": draw, "yang_baxter": ybe, "commutator": worst_comm,
                     "certificate": worst_cert, "pass": draw_ok})
        ok = ok and draw_ok
    return {"name": "transfer_matrix_oracle", "pass": ok, "detail": rows}


def _battery_degeneration(seed: int) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    rows = []
    ok = True
    for family in ("A", "B", "C", "D"):
        spec0 = GaugeTheorySpec(
            family=family, rank=2, n_fund=2,
            masses=tuple(rng.uniform(0.3, 0.9, size=2)),
            m_adj=rng.uniform(0.4, 0.8),
            masses_anti=tuple(rng.uniform(0.3, 0.9, size=2)) if family == "A" else None,
        )
        sigma0 = rng.uniform(0.3, 1.1, size=2)
        gaps = []
        for e in eps:
            spec = GaugeTheorySpec(
                family=family, rank=2, n_fund=2,
                masses=tuple(e * m for m in spec0.masses),
                m_adj=e * spec0.m_adj,
                masses_anti=tuple(e * m for m in spec0.masses_anti)
                if family == "A" else None,
            )
            sig = e * sigma0
            gap = max(abs(vacuum_lhs(spec, sig, j) - vacuum_lhs_2d(spec, sig, j))
                      for j in range(2))
            gaps.append(gap)
        slope = float(np.polyfit(np.log(eps), np.log(gaps), 1)[0])
        row_ok = abs(slope - 2.0) <= 0.2
        rows.append({"family": family, "slope": slope, "pass": row_ok})
        ok = ok and row_ok
    # chain side: trig LHS at shrunk parameters vs rational LHS
    eta0 = rng.uniform(0.25, 0.4)
    th0 = rng.uniform(-0.1, 0.1, size=2)
    u0 = rng.uniform(0.3, 0.7, size=1)
    gaps = []
    for e in eps:
        trig = ChainSpec("closed-xxz", 2, 1, e * eta0, (0.5, 0.5), tuple(e * th0))
        rat = ChainSpec("closed-xxx", 2, 1, e * eta0, (0.5, 0.5), tuple(e * th0))
        ur = BetheRoots((complex(e * u0[0]),))
        gaps.append(abs(bethe_lhs(trig, ur, 0) - bethe_lhs(rat, ur, 0)))
    slope = float(np.polyfit(np.log(eps), np.log(gaps), 1)[0])
    row_ok = abs(slope - 2.0) <= 0.2
    rows.append({"family": "chain", "slope": slope, "pass": row_ok})
    ok = ok and row_ok
    return {"name": "rational_degeneration", "pass": ok, "detail": rows}


def _battery_duality(seed: int) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for family in ("B", "C"):
        for rank in (1, 2, 3):
            masses = tuple(math.pi * rng.uniform(0.07, 0.43, size=4))
            m_adj = math.pi * rng.uniform(0.09, 0.34)
            g1 = GaugeTheorySpec(family=family, rank=rank, n_fund=4,
                                 masses=masses, m_adj=m_adj, realization="I")
            g2 = GaugeTheorySpec(family=family, rank=rank, n_fund=4,
                                 masses=masses, m_adj=m_adj, realization="II")
            rep = duality_compare(g1, g2, samples=50, seed=seed, tol=1e-10)
            rows.append({"family": family, "rank": rank,
                         "max_residual": rep.max_residual, "pass": rep.passed})
            ok = ok and rep.passed
    return {"name": "duality_squared_products", "pass": ok, "detail": rows}


def _battery_specfun(seed: int) -> Dict[str, object]:
    checks = _specfun_checks(seed)
    return {"name": "special_functions", "pass": all(c["pass"] for c in checks),
            "detail": checks}


def _cmd_report_all(cfg: RunConfig) -> int:
    batteries = [
        _battery_root_counts(),
        _battery_gradient(cfg.seed),
        _battery_presets(cfg.seed),
        _battery_transfer(cfg.seed),
        _battery_degeneration(cfg.seed),
        _battery_duality(cfg.seed),
        _battery_specfun(cfg.seed),
    ]
    ok = all(b["pass"] for b in batteries)
    human = []
    rows: List[List[object]] = [["criterion", "pass"]]
    for k, b in enumerate(batteries):
        human.append("criterion %d %-28s %s"
                     % (k + 1, b["name"], "PASS" if b["pass"] else "FAIL"))
        rows.append([b["name"], b["pass"]])
    human.append("report-all: %s" % ("PASS" if ok else "FAIL"))
    _emit(cfg, {"criteria": batteries, "pass": ok}, human, rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit a JSON report")
    sub.add_argument("--csv", action="store_true", help="emit a CSV table")
    sub.add_argument("--out", help="write the report to a file")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed (default: BGL_SEED or 0)")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp from JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bethegauge",
        description="certification laboratory for vacuum/Bethe correspondences",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("roots", help="enumerate a root system")
    p.add_argument("--family", required=True,
                   choices=["A", "B", "C", "D", "E6", "E7", "E8", "F4"])
    p.add_argument("--rank", type=_positive_int, required=True)
    _add_common(p)

    p = subs.add_parser("specfun-selftest", help="dilog and q-product checks")
    _add_common(p)

    def gauge_flags(p: argparse.ArgumentParser, families: Sequence[str]) -> None:
        p.add_argument("--family", required=True, choices=list(families))
        p.add_argument("--rank", type=_positive_int, required=True)
        p.add_argument("--nf", type=_nonneg_int, default=2)
        p.add_argument("--masses", type=_csv_floats)
        p.add_argument("--masses-anti", dest="masses_anti", type=_csv_floats)
        p.add_argument("--m-adj", dest="m_adj", type=float)
        p.add_argument("--realization", choices=["I", "II"], default="II")
        p.add_argument("--branch", type=_branch_arg, default=BRANCH_PLUS)
        p.add_argument("--regime", choices=["3d", "2d"], default="3d")

    p = subs.add_parser("vacuum", help="evaluate vacuum equation components")
    gauge_flags(p, ["A", "B", "C", "D", "E8", "F4"])
    p.add_argument("--sigma", type=_csv_floats)
    _add_common(p)

    def chain_flags(p: argparse.ArgumentParser, with_roots: bool) -> None:
        p.add_argument("--kind", required=True,
                       choices=["closed-xxz", "open-xxz", "closed-xxx", "open-xxx"])
        p.add_argument("--sites", type=_positive_int)
        p.add_argument("--magnons", type=_nonneg_int, required=True)
        p.add_argument("--eta", type=float, required=True)
        p.add_argument("--spins", type=_csv_floats)
        p.add_argument("--thetas", type=_csv_floats)
        p.add_argument("--xi-plus", dest="xi_plus", type=complex)
        p.add_argument("--xi-minus", dest="xi_minus", type=complex)
        if with_roots:
            p.add_argument("--u", type=_csv_complex, required=True)

    p = subs.add_parser("bethe", help="evaluate Bethe equation residuals")
    chain_flags(p, with_roots=True)
    _add_common(p)

    p = subs.add_parser("chain-oracle", help="R-matrix and transfer checks")
    p.add_argument("--kind", default="closed-xxz",
                   choices=["closed-xxz", "open-xxz", "closed-xxx", "open-xxx"])
    p.add_argument("--sites", type=_positive_int, default=3)
    p.add_argument("--magnons", type=_nonneg_int, default=1)
    p.add_argument("--eta", type=float)
    _add_common(p)

    p = subs.add_parser("verify", help="certify one preset dictionary")
    p.add_argument("--preset", required=True)
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--nf", type=_nonneg_int, default=4)
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--branch", type=_branch_arg, default=None)
    _add_common(p)

    p = subs.add_parser("calibrate", help="grid-scan preset conventions")
    p.add_argument("--family", required=True, choices=["A", "B", "C", "D"])
    p.add_argument("--regime", required=True, choices=["3d", "2d"])
    p.add_argument("--samples", type=_positive_int, default=50)
    _add_common(p)

    p = subs.add_parser("duality-compare", help="compare squared realizations")
    p.add_argument("--family", required=True, choices=["A", "B", "C", "D"])
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--nf", type=_positive_int, default=4)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    _add_common(p)

    p = subs.add_parser("solve-bethe", help="find Bethe root sets")
    chain_flags(p, with_roots=False)
    p.add_argument("--starts", type=_positive_int, default=64)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=40)
    _add_common(p)

    p = subs.add_parser("solve-vacuum", help="find vacuum solutions")
    gauge_flags(p, ["A", "B", "C", "D"])
    p.add_argument("--starts", type=_positive_int, default=64)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--max-iter", dest="max_iter", type=_positive_int, default=40)
    _add_common(p)

    p = subs.add_parser("cross-check", help="transport Bethe roots to vacua")
    p.add_argument("--preset", required=True)
    p.add_argument("--rank", type=_positive_int, default=1)
    p.add_argument("--nf", type=_nonneg_int, default=2)
    p.add_argument("--starts", type=_positive_int, default=64)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    _add_common(p)

    p = subs.add_parser("report-all", help="run the full certification battery")
    _add_common(p)

    return parser


_HANDLERS = {
    "roots": _cmd_roots,
    "specfun-selftest": _cmd_specfun_selftest,
    "vacuum": _cmd_vacuum,
    "bethe": _cmd_bethe,
    "chain-oracle": _cmd_chain_oracle,
    "verify": _cmd_verify,
    "calibrate": _cmd_calibrate,
    "duality-compare": _cmd_duality_compare,
    "solve-bethe": _cmd_solve_bethe,
    "solve-vacuum": _cmd_solve_vacuum,
    "cross-check": _cmd_cross_check,
    "report-all": _cmd_report_all,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    flags = {k: v for k, v in vars(ns).items()
             if k not in ("subcommand", "json", "csv", "out", "seed", "no_timestamp")
             and v is not None}
    output = "json" if ns.json else ("csv" if getattr(ns, "csv", False) else "human")
    cfg = RunConfig(
        subcommand=ns.subcommand,
        seed=ns.seed if ns.seed is not None else _default_seed(),
        output=output,
        no_timestamp=ns.no_timestamp,
        out=ns.out,
        flags=flags,
    )
    try:
        return _HANDLERS[ns.subcommand](cfg)
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
