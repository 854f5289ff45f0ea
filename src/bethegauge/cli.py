"""Command line front end: evaluation, certification and solving.

One binary with subcommands; every subcommand supports --json (versioned
schema), and the three with a table (roots, verify, report-all) also
support --csv.  Reports are reproducible: the same argv and seed give
byte-identical JSON once timestamps are disabled with --no-timestamp.  The
BGL_SEED environment variable overrides the default seed of any subcommand.
Each handler reads the parsed namespace, so every default is stated once,
in the parser or in the library dataclass or function the parser takes it
from, and every input rule once, in the library: an input built from the
flags that the library refuses is a bad argument.

Exit codes: 2 on a bad argument (the parser), 1 on an evaluation error
(:func:`run`), and otherwise the report's own verdict: every report is
written by ``_emit``, which returns 1 exactly when the report has ``pass``
and it is false.  Every subcommand but vacuum, bethe, solve-bethe and
solve-vacuum grades its report with ``pass``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from . import __version__
from .bridge import (
    M_ADJ_BOX,
    MASS_BOX,
    SIGMA_BOX,
    VerificationReport,
    _calibrate,
    all_presets,
    calibrate_preset,
    duality_compare,
    preset_by_id,
    verify_identity,
)
from .chain import (
    KINDS,
    BetheRoots,
    ChainSpec,
    _check_oracle,
    bethe_lhs,
    bethe_residuals,
    certify_roots,
    commutator_residual,
    reflection_residual,
    rtt_residual,
    validate_roots,
    yang_baxter_residual,
)
from .gauge import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    CLASSICAL,
    FAMILIES,
    REGIME_SCALE,
    GaugeTheorySpec,
    _check_sigma,
    _vacuum_lhs_values,
    superpotential_grad,
    superpotential_value,
    vacuum_lhs,
    vacuum_lhs_2d,
    vacuum_lhs_squared,
)
from .lie_roots import expected_root_count, generate_roots, root_family, weight_factor
from .solve import (SolveConfig, SolveResult, cross_check, fates_summary, solve_bethe,
                    solve_vacuum)
from .specfun import (
    BracketContext,
    SingularPointError,
    dilog,
    dilog_factorization_residual,
    dilog_grad_check,
    dilog_qpoch_link,
)

SCHEMA_VERSION = "1"

T = TypeVar("T")


#: the library's keyword defaults that the parser takes, read at import so that
#: a wrapper installed later cannot hide them
_VERIFY, _DUALITY, _CALIBRATE = (
    {name: p.default for name, p in inspect.signature(fn).parameters.items()}
    for fn in (verify_identity, duality_compare, calibrate_preset))


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


def _csv_list(kind: Callable[[str], T], noun: str) -> Callable[[str], Tuple[T, ...]]:
    """The parser of a comma-separated list of ``kind`` values, named ``noun``."""
    def parse(text: str) -> Tuple[T, ...]:
        try:
            return tuple(kind(t) for t in text.split(",") if t.strip())
        except ValueError:
            raise argparse.ArgumentTypeError("expected a comma-separated list of " + noun)
    return parse


_csv_floats, _csv_complex = _csv_list(float, "reals"), _csv_list(complex, "numbers")


def _branch_arg(text: str):
    if text in ("+", "+1", "plus"):
        return BRANCH_PLUS
    if text in ("-", "-1", "minus"):
        return BRANCH_MINUS
    raise argparse.ArgumentTypeError("branch must be + or -")


def _argument_error(ns: argparse.Namespace) -> Optional[str]:
    """A bad combination of flags that no library input refuses.

    The library states every other rule; :func:`_from_flags` prints its refusal.
    """
    anti = getattr(ns, "masses_anti", None)  # one --nf counts both mass lists
    if anti is not None and len(anti) != ns.nf:
        return "got %d anti-fundamental masses for --nf %d" % (len(anti), ns.nf)
    if "spins" in ns and ns.sites is None and not ns.spins:
        return "need --sites or an explicit --spins list"
    if "regime" in ns and ns.regime == "2d" and ns.family not in CLASSICAL:
        return "the 2d regime covers only the families %s" % ", ".join(CLASSICAL)
    return None


def _from_flags(make: Callable[..., T], *args, **kwargs) -> T:
    """``make(*args, **kwargs)``, which builds or checks a library input from
    the flags: its ValueError is a bad argument, exit 2 with its message."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _parser().error(str(exc))


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.floating, float)):  # strict JSON: a non-finite float is null
        return float(x) if math.isfinite(x) else None
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.complexfloating, complex)):
        z = complex(x)
        return {"re": _jsonable(z.real), "im": _jsonable(z.imag)}
    return x


def _emit(ns: argparse.Namespace, payload: Dict[str, object], human: Sequence[str],
          rows: Optional[List[List[object]]] = None) -> int:
    """Write the report as JSON, as CSV rows, or as the human lines, and
    return the exit code: 1 exactly when the payload's ``pass`` is false.

    Only the subcommands that pass ``rows`` declare --csv.
    """
    if ns.json:
        doc = {"schema_version": SCHEMA_VERSION, "command": ns.subcommand, "seed": ns.seed}
        if not ns.no_timestamp:
            doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        doc.update(_jsonable(payload))
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    elif rows is not None and ns.csv:
        text = "".join(",".join(str(c) for c in row) + "\n" for row in rows)
    else:
        text = "\n".join(human) + "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if payload.get("pass", True) else 1


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _emit_report(ns: argparse.Namespace, rep: VerificationReport, summary: str,
                 rows: Optional[List[List[object]]] = None) -> int:
    """Emit a verification report under its one summary line."""
    return _emit(ns, rep.to_dict(), ["%s -> %s" % (summary, _verdict(rep.passed))], rows)


def _emit_solutions(ns: argparse.Namespace, head: str, result: SolveResult, key: str,
                    name: str, values: Sequence[Sequence], show: Callable[..., str],
                    residual: str, payload: Dict[str, object]) -> int:
    """Emit a solve's solutions: the ``head`` line, one human line per
    solution (its ``values`` under ``name``, each formatted by ``show``, and its
    ``residual``), then the fate ledger; the payload lists them under ``key``
    with the solve's diagnostics."""
    items, human = [], [head]
    for vals, worst in zip(values, result.residuals):
        items.append({name: list(vals), "max_residual": worst})
        human.append("  %s=%s  %s=%.3e" % (name, [show(v) for v in vals], residual, worst))
    human.append("  " + fates_summary(result.diagnostics["fates"]))
    return _emit(ns, {**payload, key: items, "diagnostics": result.diagnostics}, human)


def _emit_graded(ns: argparse.Namespace, title: str, key: str, items: List[Dict[str, object]],
                 line: str, payload: Optional[Dict[str, object]] = None,
                 rows: Optional[List[List[object]]] = None) -> int:
    """Emit graded items under ``key``: one human ``line`` per item, formatted
    from the item, its 1-based ``number`` and its ``verdict``, then the
    verdict of all under ``title``; they pass when every item passes."""
    ok = all(item["pass"] for item in items)
    human = [line % dict(item, number=k + 1, verdict=_verdict(item["pass"]))
             for k, item in enumerate(items)]
    human.append("%s: %s" % (title, _verdict(ok)))
    return _emit(ns, {**(payload or {}), key: items, "pass": ok}, human, rows)


def _check(name: str, value: float, bound: float) -> Dict[str, object]:
    """One named check record: the value passes when it is at most the bound."""
    return {"name": name, "value": value, "bound": bound, "pass": value <= bound}


def _criterion(name: str, rows: List[Dict[str, object]]) -> Dict[str, object]:
    """One report-all criterion: it passes when every row passes."""
    return {"name": name, "pass": all(row["pass"] for row in rows), "detail": rows}


def _gauge_spec(ns: argparse.Namespace, family: str, scale: float,
                rng: np.random.Generator) -> GaugeTheorySpec:
    """The theory the gauge flags describe; masses not given are drawn in units of scale."""
    masses = ns.masses
    if masses is None:
        masses = tuple(scale * rng.uniform(*MASS_BOX, size=ns.nf))
    m_adj = ns.m_adj
    if m_adj is None:
        m_adj = scale * rng.uniform(*M_ADJ_BOX)
    anti = ns.masses_anti  # realization I without a list takes the fundamental masses
    if anti is None and family == "A":
        anti = tuple(scale * rng.uniform(*MASS_BOX, size=ns.nf))
    return _from_flags(
        GaugeTheorySpec, family=family, rank=ns.rank, n_fund=ns.nf, masses=tuple(masses),
        m_adj=m_adj, realization=ns.realization, masses_anti=anti,
    )


def _realization_pair(family: str, rank: int, nf: int,
                      rng: np.random.Generator) -> Tuple[GaugeTheorySpec, GaugeTheorySpec]:
    """One drawn 3d theory in realization I and in realization II."""
    masses = tuple(math.pi * rng.uniform(*MASS_BOX, size=nf))
    m_adj = math.pi * rng.uniform(*M_ADJ_BOX)
    g1, g2 = (GaugeTheorySpec(family=family, rank=rank, n_fund=nf, masses=masses,
                              m_adj=m_adj, realization=r) for r in ("I", "II"))
    return g1, g2


def _chain_spec(ns: argparse.Namespace) -> ChainSpec:
    sites = ns.sites or len(ns.spins)
    return _from_flags(
        ChainSpec, kind=ns.kind, n_sites=sites, n_magnons=ns.magnons, eta=ns.eta,
        spins=(0.5,) * sites if ns.spins is None else ns.spins,
        inhomogeneities=(0.0,) * sites if ns.thetas is None else ns.thetas,
        xi_plus=ns.xi_plus, xi_minus=ns.xi_minus,
    )


def _solve_config(ns: argparse.Namespace) -> SolveConfig:
    return _from_flags(SolveConfig, n_starts=ns.starts, tol=ns.tol, max_iter=ns.max_iter,
                       seed=ns.seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_roots(ns: argparse.Namespace) -> int:
    family, rank = _from_flags(root_family, ns.family, ns.rank)
    roots = generate_roots(family, rank)
    expected = expected_root_count(family, rank)
    payload = {
        "family": ns.family,
        "rank": rank,
        "count": len(roots),
        "expected": expected,
        "weight_factor_histogram": Counter(str(weight_factor(r)) for r in roots),
        "pass": len(roots) == expected,
    }
    human = ["family %s rank %d: %d roots (expected %d)"
             % (ns.family, rank, len(roots), expected)]
    width = len(roots[0]) if roots else rank  # U(1) and D1 have no roots
    rows: List[List[object]] = [["index"] + ["x%d" % i for i in range(width)]]
    for idx, root in enumerate(roots):
        rows.append([idx] + [str(c) for c in root])
    return _emit(ns, payload, human, rows)


def _specfun_checks(seed: int) -> List[Dict[str, object]]:
    """The special-function checks of specfun-selftest and criterion 7."""
    ana, fd = dilog_grad_check(0.2 + 0.3j)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for r in (2, 3, 4):
        for _ in range(20):
            x = complex(rng.uniform(-2.5, math.log(0.9)), rng.uniform(-3.0, 3.0))
            worst = max(worst, dilog_factorization_residual(np.exp(x), r))
    rels = [dilog_qpoch_link(np.exp(0.4j), beta2)[2] for beta2 in (1e-1, 1e-2, 1e-3)]
    return [
        _check("dilog_at_one", abs(dilog(1.0) - math.pi ** 2 / 6.0), 1e-12),
        _check("dilog_at_minus_one", abs(dilog(-1.0) + math.pi ** 2 / 12.0), 1e-12),
        _check("derivative_fd_gap", abs(ana - fd), 1e-8),
        _check("factorization_r234", worst, 1e-10),
        _check("qpoch_link_at_1e-3", rels[-1], 5e-3),
        {"name": "qpoch_link_monotone", "value": rels, "bound": "decreasing",
         "pass": rels[0] > rels[1] > rels[2]},
    ]


def _cmd_specfun_selftest(ns: argparse.Namespace) -> int:
    return _emit_graded(ns, "specfun selftest", "checks", _specfun_checks(ns.seed),
                        "%(name)-24s %(verdict)s")


def _cmd_vacuum(ns: argparse.Namespace) -> int:
    scale = REGIME_SCALE[ns.regime]
    rng = np.random.default_rng(ns.seed)
    spec = _gauge_spec(ns, ns.family, scale, rng)
    sigma = ns.sigma
    if sigma is None:
        sigma = scale * rng.uniform(*SIGMA_BOX, size=spec.dim)
    _from_flags(_check_sigma, spec, sigma)
    sigma = np.asarray(sigma, dtype=float)
    sign = ns.branch.sign
    values = _vacuum_lhs_values(spec, sigma, ns.regime)
    residuals = [abs(v - sign) for v in values]
    payload = {
        "family": spec.family, "rank": spec.rank, "regime": ns.regime, "branch": sign,
        "sigma": list(sigma), "masses": list(spec.masses), "m_adj": spec.m_adj,
        "lhs": values, "residuals": residuals,
    }
    human = ["vacuum %s rank %d (%s, branch %+d)" % (spec.family, spec.rank, ns.regime, sign)]
    for j, (v, r) in enumerate(zip(values, residuals)):
        human.append("  j=%d  LHS=%s  |LHS-branch|=%.3e" % (j, v, r))
    return _emit(ns, payload, human)


def _cmd_bethe(ns: argparse.Namespace) -> int:
    chain = _chain_spec(ns)
    roots = _from_flags(BetheRoots, ns.u)
    _from_flags(validate_roots, chain, roots)
    res = bethe_residuals(chain, roots)
    payload = {
        "kind": chain.kind, "sites": chain.n_sites, "magnons": chain.n_magnons,
        "u": list(roots.values), "residuals": list(res),
    }
    human = ["bethe %s L=%d M=%d" % (chain.kind, chain.n_sites, chain.n_magnons)]
    for i, r in enumerate(res):
        human.append("  i=%d  |LHS-1|=%.3e" % (i, r))
    return _emit(ns, payload, human)


def _cmd_chain_oracle(ns: argparse.Namespace) -> int:
    _from_flags(_check_oracle, ns.sites, ())  # before any per-site draw; all spins are 1/2
    rng = np.random.default_rng(ns.seed)
    eta = rng.uniform(0.2, 0.4) if ns.eta is None else ns.eta
    xi_p = xi_m = None
    if ns.kind.startswith("open"):
        xi_p, xi_m = rng.uniform(-0.4, 0.4, size=2)
    chain = _from_flags(
        ChainSpec, kind=ns.kind, n_sites=ns.sites, n_magnons=0, eta=eta,
        spins=(0.5,) * ns.sites,
        inhomogeneities=tuple(rng.uniform(-0.1, 0.1, size=ns.sites)),
        xi_plus=xi_p, xi_minus=xi_m,
    )
    u, v = rng.uniform(0.1, 0.9, size=2)
    checks: List[Dict[str, object]] = []
    if chain.is_trig:
        ctx = BracketContext(eta)
        checks.append(_check("yang_baxter", yang_baxter_residual(u, v, ctx), 1e-12))
        if chain.is_open:
            # each boundary's K matrix solves the same reflection equation: check both
            worst = max(reflection_residual(u, v, xi, ctx) for xi in (xi_m, xi_p))
            checks.append(_check("reflection", worst, 1e-12))
    checks.append(_check("rtt_exchange", rtt_residual(chain, u, v), 1e-12))
    checks.append(_check("transfer_commutator", commutator_residual(chain, u, v), 1e-10))
    return _emit_graded(ns, "chain oracle", "checks", checks, "%(name)-20s %(value).3e  %(verdict)s",
                        {"kind": ns.kind, "sites": ns.sites, "eta": eta})


def _cmd_verify(ns: argparse.Namespace) -> int:
    rep = verify_identity(preset_by_id(ns.preset), dims=(ns.rank, ns.nf), samples=ns.samples,
                          tol=ns.tol, seed=ns.seed, branch=ns.branch)
    rows = [["preset", "samples", "seed", "branch", "max_residual", "pass"],
            [rep.preset_id, rep.samples, rep.seed, rep.branch_used,
             rep.max_residual, rep.passed]]
    return _emit_report(
        ns, rep, "preset %s: max residual %.3e over %d samples (tol %.1e, branch %+d)"
        % (rep.preset_id, rep.max_residual, rep.samples, rep.tol, rep.branch_used), rows)


def _cmd_calibrate(ns: argparse.Namespace) -> int:
    chosen, rep, grid = _calibrate(ns.family, ns.regime, ns.samples, ns.seed)
    payload = {
        "family": ns.family,
        "regime": ns.regime,
        "chosen": {
            "xi_plus": chosen.xi_plus.label() if chosen.xi_plus else None,
            "xi_minus": chosen.xi_minus.label() if chosen.xi_minus else None,
            "fixed_sites": [str(s.theta) for s in chosen.fixed_sites],
            "branch": chosen.branch.sign,
        },
        "report": rep.to_dict(),
        "grid": grid,
        "pass": rep.passed,
    }
    trial, report = payload["chosen"], payload["report"]  # the human lines read the JSON's
    refused = ", ".join("%s %d" % kv for kv in sorted(grid["refused"].items()))
    human = [
        "calibrated %s %s: %d fixed site(s) theta=[%s], branch %+d, xi=(%s, %s)"
        % (ns.family, ns.regime, len(trial["fixed_sites"]), ", ".join(trial["fixed_sites"]),
           trial["branch"], trial["xi_plus"] or "-", trial["xi_minus"] or "-"),
        "max residual %.3e over %d samples" % (report["max_residual"], report["samples"]),
        "grid: %d trials, %d refused%s" % (grid["trials"], sum(grid["refused"].values()),
                                            " (%s)" % refused if refused else ""),
    ]
    return _emit(ns, payload, human)


def _cmd_duality_compare(ns: argparse.Namespace) -> int:
    pair = _realization_pair(ns.family, ns.rank, ns.nf, np.random.default_rng(ns.seed))
    rep = duality_compare(*pair, samples=ns.samples, seed=ns.seed, tol=ns.tol)
    return _emit_report(ns, rep, "%s: squared products differ by at most %.3e over %d points"
                        % (rep.preset_id, rep.max_residual, rep.samples))


def _cmd_solve_bethe(ns: argparse.Namespace) -> int:
    chain = _chain_spec(ns)
    result = solve_bethe(chain, _solve_config(ns))
    return _emit_solutions(
        ns, "solve-bethe %s L=%d M=%d: %d root set(s)"
        % (chain.kind, chain.n_sites, chain.n_magnons, len(result)),
        result, "root_sets", "u", [roots.values for roots in result],
        lambda z: "%.12g%+.12gj" % (z.real, z.imag), "max|LHS-1|",
        {"kind": chain.kind, "sites": chain.n_sites, "magnons": chain.n_magnons})


def _cmd_solve_vacuum(ns: argparse.Namespace) -> int:
    rng = np.random.default_rng(ns.seed)
    spec = _gauge_spec(ns, ns.family, REGIME_SCALE[ns.regime], rng)
    sign = ns.branch.sign
    result = solve_vacuum(spec, ns.branch, _solve_config(ns), rational=ns.regime == "2d")
    return _emit_solutions(
        ns, "solve-vacuum %s rank %d branch %+d: %d solution(s)"
        % (spec.family, spec.rank, sign, len(result)),
        result, "solutions", "sigma", result, lambda s: "%.12g" % s, "max|LHS-branch|",
        {"family": spec.family, "rank": spec.rank, "branch": sign,
         "masses": list(spec.masses), "m_adj": spec.m_adj})


def _cmd_cross_check(ns: argparse.Namespace) -> int:
    preset = preset_by_id(ns.preset)
    spec = _gauge_spec(ns, preset.family, preset.scale, np.random.default_rng(ns.seed))
    rep = cross_check(spec, preset, _solve_config(ns))
    summary = ("cross-check %s rank %d nf %d: %d root set(s), mapped residual %.3e"
               % (preset.id, spec.rank, ns.nf, rep.samples, rep.max_residual))
    if not rep.samples:  # say what became of the starts
        summary += " (%s)" % rep.notes["cause"]
    return _emit_report(ns, rep, summary)


# ---------------------------------------------------------------------------
# report-all: the full certification battery
# ---------------------------------------------------------------------------


def _battery_root_counts() -> Dict[str, object]:
    names = [("E8", 8), ("E7", 7), ("E6", 6), ("F4", 4)] + [
        (family, n) for n in range(1, 7) for family in "ABCD"]
    rows = []
    for name, rank in names:
        family = root_family(name, rank)
        rows.append({"family": name, "rank": rank, "count": len(generate_roots(*family)),
                     "expected": expected_root_count(*family)})
    return {"name": "root_counts", "pass": all(r["count"] == r["expected"] for r in rows),
            "detail": rows}


def _battery_gradient(seed: int) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    worst_prod = 0.0
    worst_fd = 0.0
    for family in CLASSICAL:
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
                    grad = superpotential_grad(spec, sigma)
                    lhs = np.exp(1j * grad)  # vacuum_from_gradient, from the one gradient
                    h = 1e-6
                    for j in range(spec.dim):
                        worst_prod = max(worst_prod, abs(lhs[j] - refs[j]))
                        # five-point stencil: its O(h^4) error stays small
                        # near poles, where the O(h^2) central one does not
                        w = [superpotential_value(spec, sigma + k * h * np.eye(spec.dim)[j])
                             for k in (2, 1, -1, -2)]
                        fd = (-w[0] + 8 * w[1] - 8 * w[2] + w[3]) / (12 * h)
                        worst_fd = max(worst_fd, abs(fd - grad[j]))
                except SingularPointError:
                    continue
                done += 1
    ok = worst_prod <= 1e-8 and worst_fd <= 1e-6
    return {"name": "gradient_vs_product", "pass": ok,
            "detail": {"max_product_gap": worst_prod, "max_fd_gap": worst_fd}}


def _battery_presets(seed: int) -> Dict[str, object]:
    rows = []
    for preset in all_presets():
        rep = verify_identity(preset, dims=(2, 4), samples=200, tol=1e-10, seed=seed)
        rows.append({"preset": preset.id, "max_residual": rep.max_residual,
                     "tol": 1e-10, "pass": rep.passed})
    flipped = verify_identity(preset_by_id("B-3d-P5"), dims=(2, 4), samples=50,
                              tol=1e-10, seed=seed, branch=BRANCH_PLUS)
    rows.append({"preset": "B-3d-P5 (forced +1)",
                 "max_residual": flipped.max_residual,
                 "tol": ">=0.1", "pass": flipped.max_residual >= 0.1})
    return _criterion("preset_dictionaries", rows)


def _battery_transfer(seed: int) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    rows = []
    for draw in range(5):
        eta = rng.uniform(0.2, 0.4)
        th = rng.uniform(-0.1, 0.1, size=3)
        u, v = rng.uniform(0.1, 0.9, size=2)
        ybe = yang_baxter_residual(u, v, BracketContext(eta))
        draw_ok = ybe <= 1e-12
        worst_cert = 0.0
        chains = [ChainSpec("closed-xxz", 3, m, eta, (0.5,) * 3, tuple(th))
                  for m in (1, 2)]
        xi = rng.uniform(-0.4, 0.4, size=2)
        chains.append(ChainSpec("open-xxz", 2, 1, eta, (0.5,) * 2, tuple(th[:2]),
                                xi_plus=xi[0], xi_minus=xi[1]))
        # t(u) does not depend on the magnon number: the closed chains share it
        worst_comm = max(commutator_residual(chain, u, v) for chain in chains[1:])
        for chain in chains:
            sols = solve_bethe(chain, SolveConfig(n_starts=48, tol=1e-10,
                                                  max_iter=40, seed=seed + draw))
            for roots in sols:
                worst_cert = max(worst_cert, certify_roots(chain, roots).residual)
        draw_ok = draw_ok and worst_comm <= 1e-10 and worst_cert <= 1e-8
        rows.append({"draw": draw, "yang_baxter": ybe, "commutator": worst_comm,
                     "certificate": worst_cert, "pass": draw_ok})
    return _criterion("transfer_matrix_oracle", rows)


def _battery_degeneration(seed: int) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    eps = np.array([0.1, 0.05, 0.025, 0.0125])
    rows = []
    for family in CLASSICAL:
        spec0 = GaugeTheorySpec(
            family=family, rank=2, n_fund=2,
            masses=tuple(rng.uniform(0.3, 0.9, size=2)),
            m_adj=rng.uniform(0.4, 0.8),
            masses_anti=tuple(rng.uniform(0.3, 0.9, size=2)) if family == "A" else None,
        )
        sigma0 = rng.uniform(0.3, 1.1, size=2)
        gaps = []
        for e in eps:
            spec = replace(spec0, masses=tuple(e * m for m in spec0.masses), m_adj=e * spec0.m_adj,
                           masses_anti=tuple(e * m for m in spec0.masses_anti)
                           if family == "A" else None)
            sig = e * sigma0
            # the two forms are compared on purpose: their gap is what scales as eps^2
            gap = max(abs(vacuum_lhs(spec, sig, j) - vacuum_lhs_2d(spec, sig, j))
                      for j in range(2))
            gaps.append(gap)
        slope = float(np.polyfit(np.log(eps), np.log(gaps), 1)[0])
        rows.append({"family": family, "slope": slope, "pass": abs(slope - 2.0) <= 0.2})
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
    rows.append({"family": "chain", "slope": slope, "pass": abs(slope - 2.0) <= 0.2})
    return _criterion("rational_degeneration", rows)


def _battery_duality(seed: int) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    rows = []
    for family in ("B", "C"):
        for rank in (1, 2, 3):
            rep = duality_compare(*_realization_pair(family, rank, 4, rng),
                                  samples=50, seed=seed, tol=1e-10)
            rows.append({"family": family, "rank": rank,
                         "max_residual": rep.max_residual, "pass": rep.passed})
    return _criterion("duality_squared_products", rows)


def _cmd_report_all(ns: argparse.Namespace) -> int:
    batteries = [
        _battery_root_counts(),
        _battery_gradient(ns.seed),
        _battery_presets(ns.seed),
        _battery_transfer(ns.seed),
        _battery_degeneration(ns.seed),
        _battery_duality(ns.seed),
        _criterion("special_functions", _specfun_checks(ns.seed)),
    ]
    rows: List[List[object]] = [["criterion", "pass"]]
    rows += [[b["name"], b["pass"]] for b in batteries]
    return _emit_graded(ns, "report-all", "criteria", batteries,
                        "criterion %(number)d %(name)-28s %(verdict)s", rows=rows)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bethegauge",
        description="certification laboratory for vacuum/Bethe correspondences",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    preset_ids = [preset.id for preset in all_presets()]

    def command(name: str, handler, about: str, table: bool = False) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=about)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if table:
            p.add_argument("--csv", action="store_true", help="emit a CSV table")
        p.add_argument("--out", help="write the report to a file")
        # without --seed, run reads BGL_SEED at parse time
        p.add_argument("--seed", type=int, help="seed (default: BGL_SEED or 0)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from JSON output")
        return p

    def gauge_flags(p: argparse.ArgumentParser, families: Sequence[str]) -> None:
        p.add_argument("--family", required=True, choices=list(families))
        p.add_argument("--rank", type=_positive_int, required=True)
        p.add_argument("--nf", type=_nonneg_int, default=2)
        p.add_argument("--masses", type=_csv_floats)
        p.add_argument("--masses-anti", dest="masses_anti", type=_csv_floats)
        p.add_argument("--m-adj", dest="m_adj", type=float)
        p.add_argument("--realization", choices=["I", "II"],
                       default=GaugeTheorySpec.realization)
        p.add_argument("--branch", type=_branch_arg, default=BRANCH_PLUS)
        p.add_argument("--regime", choices=list(REGIME_SCALE), default="3d")

    def chain_flags(p: argparse.ArgumentParser, with_roots: bool) -> None:
        p.add_argument("--kind", required=True, choices=KINDS)
        p.add_argument("--sites", type=_positive_int)
        p.add_argument("--magnons", type=_nonneg_int, required=True)
        p.add_argument("--eta", type=float, required=True)
        p.add_argument("--spins", type=_csv_floats)
        p.add_argument("--thetas", type=_csv_floats)
        p.add_argument("--xi-plus", dest="xi_plus", type=complex)
        p.add_argument("--xi-minus", dest="xi_minus", type=complex)
        if with_roots:
            p.add_argument("--u", type=_csv_complex, required=True)

    def solve_flags(p: argparse.ArgumentParser, with_max_iter: bool) -> None:
        p.add_argument("--starts", type=_positive_int, default=SolveConfig.n_starts)
        p.add_argument("--tol", type=_positive_float, default=SolveConfig.tol)
        if with_max_iter:
            p.add_argument("--max-iter", dest="max_iter", type=_positive_int,
                           default=SolveConfig.max_iter)
        else:
            p.set_defaults(max_iter=SolveConfig.max_iter)

    p = command("roots", _cmd_roots, "enumerate a root system", table=True)
    p.add_argument("--family", required=True,
                   choices=["A", "B", "C", "D", "E6", "E7", "E8", "F4"])
    p.add_argument("--rank", type=_positive_int, required=True)

    command("specfun-selftest", _cmd_specfun_selftest, "dilog and q-product checks")

    p = command("vacuum", _cmd_vacuum, "evaluate vacuum equation components")
    gauge_flags(p, FAMILIES)
    p.add_argument("--sigma", type=_csv_floats)

    p = command("bethe", _cmd_bethe, "evaluate Bethe equation residuals")
    chain_flags(p, with_roots=True)

    p = command("chain-oracle", _cmd_chain_oracle, "R-matrix and transfer checks")
    p.add_argument("--kind", default="closed-xxz", choices=KINDS)
    p.add_argument("--sites", type=_positive_int, default=3)
    p.add_argument("--eta", type=float)

    p = command("verify", _cmd_verify, "certify one preset dictionary", table=True)
    p.add_argument("--preset", required=True, choices=preset_ids, metavar="ID")
    p.add_argument("--rank", type=_positive_int, default=2)
    p.add_argument("--nf", type=_nonneg_int, default=4)
    p.add_argument("--samples", type=_positive_int, default=_VERIFY["samples"])
    p.add_argument("--tol", type=_positive_float, default=_VERIFY["tol"])
    p.add_argument("--branch", type=_branch_arg, default=None)

    p = command("calibrate", _cmd_calibrate, "grid-scan preset conventions")
    p.add_argument("--family", required=True, choices=CLASSICAL)
    p.add_argument("--regime", required=True, choices=list(REGIME_SCALE))
    p.add_argument("--samples", type=_positive_int, default=_CALIBRATE["samples"])

    p = command("duality-compare", _cmd_duality_compare, "compare squared realizations")
    p.add_argument("--family", required=True, choices=CLASSICAL)
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--nf", type=_positive_int, default=4)
    p.add_argument("--samples", type=_positive_int, default=_DUALITY["samples"])
    p.add_argument("--tol", type=_positive_float, default=_DUALITY["tol"])

    p = command("solve-bethe", _cmd_solve_bethe, "find Bethe root sets")
    chain_flags(p, with_roots=False)
    solve_flags(p, with_max_iter=True)

    p = command("solve-vacuum", _cmd_solve_vacuum, "find vacuum solutions")
    gauge_flags(p, CLASSICAL)
    solve_flags(p, with_max_iter=True)

    p = command("cross-check", _cmd_cross_check, "transport Bethe roots to vacua")
    p.add_argument("--preset", required=True, choices=preset_ids, metavar="ID")
    p.add_argument("--rank", type=_positive_int, default=1)
    p.add_argument("--nf", type=_nonneg_int, default=2)
    solve_flags(p, with_max_iter=False)
    # the theory is drawn in the preset's family and regime, in realization II
    p.set_defaults(masses=None, masses_anti=None, m_adj=None,
                   realization=GaugeTheorySpec.realization)

    command("report-all", _cmd_report_all, "run the full certification battery",
            table=True)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    ns = parser.parse_args(argv)
    if ns.seed is None:
        seed = os.environ.get("BGL_SEED", "0")
        try:
            ns.seed = int(seed)
        except ValueError:
            parser.error("BGL_SEED: invalid int value: %r" % seed)
    error = _argument_error(ns)
    if error:
        parser.error(error)
    try:
        return ns.handler(ns)
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
