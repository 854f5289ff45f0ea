"""Task lists of the three workloads, generated from the workload seed.

A task is one public entry point called once: ``bethegauge.cli.run`` in
process with its output captured, or one library call.  Each task carries
the check that grades its output against the bound the program documents
for it, and a signature that the known-defect register matches against.
The program receives only the generated inputs; the ``--seed`` given to the
command line is the workload seed, except in the probes of known defects
pinned to a seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from bethegauge import bridge, chain, cli, gauge, solve
from bethegauge.specfun import SingularPointError

#: a check: (name, passed, residual or None)
Check = Tuple[str, bool, Optional[float]]

#: Newton acceptance tolerance of the solvers (the CLI default for --tol)
SOLVE_TOL = 1e-10
#: bound of the transfer-commutator check (chain-oracle's documented gate)
COMMUTATOR_TOL = 1e-10
#: eigenvector certificates must be at or below this (acceptance criterion 4)
CERTIFICATE_TOL = 1e-8
#: exponentiated gradient against the closed product (criterion 2)
GRADIENT_TOL = 1e-8
#: central finite differences of W against the analytic gradient (criterion 2)
FD_TOL = 1e-6

ORACLE_SIZES = (5, 6, 7, 8)
#: root sets certified per (kind, L, M), so the oracle's work does not depend on the solver
ORACLE_CAP = 1
#: chain draws tried before the oracle set-up gives up on filling a (kind, L, M) slot
ORACLE_DRAWS = 20


@dataclass
class Task:
    label: str
    signature: Dict[str, object]
    call: Callable[[], object]
    check: Callable[[object], List[Check]]
    #: checks of this name count towards solutions_found when they pass;
    #: VERDICT counts the task once when all its checks pass
    solution_check: str = ""

    def solutions(self, checks: List[Check]) -> int:
        """Certified results this task returned, for solutions_found."""
        if self.solution_check == VERDICT:
            return int(all(ok for _, ok, _ in checks))
        return sum(1 for name, ok, _ in checks if name == self.solution_check and ok)

    def message(self, output) -> str:
        """What a CLI task wrote to stderr; '' for a library call."""
        return output[2].strip() if "subcommand" in self.signature else ""


VERDICT = "verdict"


def _reject_constant(name: str):
    raise ValueError("non-finite number %s is not JSON" % name)


def _cli_call(argv: List[str]) -> Callable[[], Tuple[int, str, str]]:
    def call() -> Tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()
    return call


def _cli_check(has_pass: bool, recheck: Optional[Callable[[dict], List[Check]]] = None):
    """Exit code 0, strict JSON, ``pass`` true, then the task's own re-checks."""
    def check(output) -> List[Check]:
        code, text, _ = output
        checks: List[Check] = [("exit_code", code == 0, None)]
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError:
            doc = None
        checks.append(("strict_json", doc is not None, None))
        if has_pass:
            lenient = doc
            if lenient is None:
                try:
                    lenient = json.loads(text)
                except ValueError:
                    lenient = {}
            residual = lenient.get("max_residual")
            checks.append(("pass", doc is not None and doc.get("pass") is True,
                           float(residual) if isinstance(residual, (int, float)) else None))
        if recheck is not None and doc is not None:
            checks.extend(recheck(doc))
        return checks
    return check


def _cli_task(label: str, argv: List[str], seed: int, has_pass: bool,
              recheck=None, solution_check: str = "", **signature) -> Task:
    argv = argv + ["--json", "--no-timestamp", "--seed=%d" % seed]
    signature = dict(signature, subcommand=argv[0], seed=seed)
    return Task(label, signature, _cli_call(argv), _cli_check(has_pass, recheck),
                solution_check)


def _num(x: float) -> str:
    return "%.17g" % x


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _verify_task(preset, rank: int, seed: int) -> Task:
    regulated = any(x is not None and x.infinite for x in (preset.xi_plus, preset.xi_minus))
    tol = 1e-6 if regulated else 1e-10
    return _cli_task("verify %s rank%d" % (preset.id, rank),
                     ["verify", "--preset", preset.id, "--rank", str(rank), "--nf", "4",
                      "--samples", "200", "--tol", repr(tol)],
                     seed, True, preset=preset.id, rank=rank, nf=4)


def _gradient_point(rng: np.random.Generator, family: str) -> Tuple[object, np.ndarray]:
    """An admissible point of acceptance criterion 2: products within (1e-3, 1e3)."""
    spec = gauge.GaugeTheorySpec(family=family, rank=2, n_fund=2,
                                 masses=tuple(rng.uniform(0.3, 1.2, size=2)),
                                 m_adj=rng.uniform(0.4, 0.9))
    while True:
        sigma = rng.uniform(0.15, math.pi - 0.15, size=spec.dim)
        try:
            refs = [gauge.vacuum_lhs_squared(spec, sigma, j) for j in range(spec.dim)]
        except SingularPointError:
            continue
        if all(1e-3 < abs(r) < 1e3 for r in refs):
            return spec, sigma


def _gradient_task(label: str, spec, sigma: np.ndarray) -> Task:
    h = 1e-6

    def call():
        route = gauge.vacuum_from_gradient(spec, sigma)
        grad = gauge.superpotential_grad(spec, sigma)
        fd = []
        for j in range(spec.dim):
            step = np.zeros(spec.dim)
            step[j] = h
            fd.append((gauge.superpotential_value(spec, sigma + step)
                       - gauge.superpotential_value(spec, sigma - step)) / (2 * h))
        refs = [gauge.vacuum_lhs_squared(spec, sigma, j) for j in range(spec.dim)]
        return route, grad, fd, refs

    def check(output) -> List[Check]:
        route, grad, fd, refs = output
        prod_gap = max(abs(a - b) for a, b in zip(route, refs))
        fd_gap = max(abs(a - b) for a, b in zip(fd, grad))
        return [("gradient_vs_product", prod_gap <= GRADIENT_TOL, prod_gap),
                ("fd_vs_gradient", fd_gap <= FD_TOL, fd_gap)]

    return Task(label, {"task": "gradient", "family": spec.family}, call, check)


def certify(seed: int, defects: List[dict], lap: Callable[[], None]) -> List[Task]:
    rng = np.random.default_rng([seed, 1])
    tasks = [_verify_task(p, rank, seed) for rank in (2, 3) for p in bridge.all_presets()]
    for family in ("B", "C"):
        for rank in (1, 2, 3):
            tasks.append(_cli_task("duality-compare %s rank%d" % (family, rank),
                                   ["duality-compare", "--family", family, "--rank", str(rank)],
                                   seed, True, family=family, rank=rank))
    tasks.append(_cli_task("specfun-selftest", ["specfun-selftest"], seed, True))
    for family in ("A", "B", "C", "D"):
        for k in range(3):
            spec, sigma = _gradient_point(rng, family)
            tasks.append(_gradient_task("gradient %s rank2 #%d" % (family, k), spec, sigma))
    # seed-pinned repros of known defects run in every round, whatever the workload seed
    for d in defects:
        repro = d.get("repro")
        if repro is not None:
            for pid in repro["preset"]:
                task = _verify_task(bridge.preset_by_id(pid), repro["rank"], repro["seed"])
                task.label += " seed%d" % repro["seed"]
                tasks.append(task)
    for task in tasks:
        task.solution_check = VERDICT
        # warm-up: the superpotential's per-root cache
        if task.signature.get("task") == "gradient":
            task.call()
    return tasks


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _chain_params(rng: np.random.Generator, kind: str, sites: int) -> Dict[str, object]:
    params = {"eta": rng.uniform(0.2, 0.4),
              "inhomogeneities": tuple(rng.uniform(-0.1, 0.1, size=sites))}
    if kind.startswith("open"):
        xi = rng.uniform(-0.4, 0.4, size=2)
        params.update(xi_plus=xi[0], xi_minus=xi[1])
    return params


def _chain(kind: str, sites: int, magnons: int, params) -> chain.ChainSpec:
    return chain.ChainSpec(kind=kind, n_sites=sites, n_magnons=magnons,
                           spins=(0.5,) * sites, **params)


def _bethe_recheck(spec: chain.ChainSpec):
    def recheck(doc: dict) -> List[Check]:
        out: List[Check] = []
        for s in doc["root_sets"]:
            u = [complex(z["re"], z["im"]) for z in s["u"]]
            try:
                res = float(np.max(chain.bethe_residuals(spec, chain.BetheRoots(u))))
            except ValueError:  # includes SingularPointError and invalid root sets
                res = math.inf
            out.append(("root_set", res <= SOLVE_TOL, res))
        return out
    return recheck


def _vacuum_recheck(spec: gauge.GaugeTheorySpec, regime: str):
    lhs = gauge.vacuum_lhs if regime == "3d" else gauge.vacuum_lhs_2d

    def recheck(doc: dict) -> List[Check]:
        out: List[Check] = []
        for s in doc["solutions"]:
            sigma = np.asarray(s["sigma"], dtype=float)
            try:
                res = max(abs(lhs(spec, sigma, j) - 1.0) for j in range(spec.dim))
            except ValueError:
                res = math.inf
            out.append(("vacuum", res <= SOLVE_TOL, res))
        return out
    return recheck


#: independent inputs per solver shape: the solvers' cost and yield vary with the input
SOLVE_INSTANCES = 4
SOLVE_BETHE = [("closed-xxz", 6, m) for m in (1, 2, 3, 4)] + [("open-xxz", 4, 1), ("open-xxz", 4, 2)] \
    + [(kind, 4, m) for kind in ("closed-xxx", "open-xxx") for m in (1, 2)]
SOLVE_VACUUM = [(f, r, reg) for f in "ABCD" for r in (2, 3) for reg in ("3d", "2d")]
CROSS_CHECK = ["A-3d", "B-3d-P1", "C-3d-P1", "B-2d", "D-3d"]


def solve_labels() -> List[str]:
    """Keys of the per-size solver timings, as ``<function>.<key>``."""
    return (["solve_bethe.%s.L%d.M%d" % k for k in SOLVE_BETHE]
            + ["solve_vacuum.%s%d.%s" % k for k in SOLVE_VACUUM]
            + ["cross_check.%s" % p for p in CROSS_CHECK])


def solve_workload(seed: int, defects: List[dict], lap: Callable[[], None]) -> List[Task]:
    rng = np.random.default_rng([seed, 2])
    tasks: List[Task] = []
    for (kind, sites, magnons), k in product(SOLVE_BETHE, range(SOLVE_INSTANCES)):
        params = _chain_params(rng, kind, sites)
        spec = _chain(kind, sites, magnons, params)
        argv = ["solve-bethe", "--kind", kind, "--sites", str(sites), "--magnons", str(magnons),
                "--eta=" + _num(params["eta"]),
                "--thetas=" + ",".join(_num(t) for t in params["inhomogeneities"])]
        if spec.is_open:
            argv += ["--xi-plus=" + _num(params["xi_plus"]), "--xi-minus=" + _num(params["xi_minus"])]
        tasks.append(_cli_task("solve-bethe %s L%d M%d #%d" % (kind, sites, magnons, k), argv, seed,
                               False, _bethe_recheck(spec), "root_set",
                               kind=kind, sites=sites, magnons=magnons))
    for (family, rank, regime), k in product(SOLVE_VACUUM, range(SOLVE_INSTANCES)):
        scale = math.pi if regime == "3d" else 1.0
        masses = tuple(scale * rng.uniform(0.07, 0.43, size=2))
        m_adj = scale * rng.uniform(0.09, 0.34)
        anti = tuple(scale * rng.uniform(0.07, 0.43, size=2)) if family == "A" else None
        spec = gauge.GaugeTheorySpec(family=family, rank=rank, n_fund=2, masses=masses,
                                     m_adj=m_adj, masses_anti=anti)
        argv = ["solve-vacuum", "--family", family, "--rank", str(rank), "--nf", "2",
                "--regime", regime, "--masses=" + ",".join(_num(m) for m in masses),
                "--m-adj=" + _num(m_adj)]
        if anti is not None:
            argv.append("--masses-anti=" + ",".join(_num(m) for m in anti))
        tasks.append(_cli_task("solve-vacuum %s%d %s #%d" % (family, rank, regime, k), argv, seed,
                               False, _vacuum_recheck(spec, regime), "vacuum",
                               family=family, rank=rank, regime=regime))
    for preset in CROSS_CHECK:
        tasks.append(_cli_task("cross-check %s rank1 nf2" % preset,
                               ["cross-check", "--preset", preset, "--rank", "1", "--nf", "2"],
                               seed, True, preset=preset, rank=1, nf=2))
    return tasks


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _oracle_sets(rng: np.random.Generator, kind: str, sites: int, magnons: int, seed: int):
    """Draw chains until the solver returns ORACLE_CAP re-checked root sets."""
    for draw in range(ORACLE_DRAWS):
        spec = _chain(kind, sites, magnons, _chain_params(rng, kind, sites))
        found = solve.solve_bethe(spec, solve.SolveConfig(n_starts=64, seed=seed + draw))
        good = [r for r in found
                if float(np.max(chain.bethe_residuals(spec, r))) <= SOLVE_TOL]
        if len(good) >= ORACLE_CAP:
            return spec, good[:ORACLE_CAP]
    raise RuntimeError("no %s L=%d M=%d root set in %d chain draws"
                       % (kind, sites, magnons, ORACLE_DRAWS))


def oracle(seed: int, defects: List[dict], lap: Callable[[], None]) -> List[Task]:
    """The dense-oracle tasks; ``lap`` is called after each set-up solve, so the
    caller can time the seconds of solving in short, separately rescaled parts."""
    rng = np.random.default_rng([seed, 3])
    tasks: List[Task] = []
    for kind in ("closed-xxz", "open-xxz"):
        for sites in ORACLE_SIZES:
            magnon_counts = {6: (1, 2, 3, 4) if kind == "closed-xxz" else (1, 2),
                             8: (1,)}.get(sites, (1, 2))
            pool = []
            for m in magnon_counts:
                pool.append(_oracle_sets(rng, kind, sites, m, seed))
                lap()
            spec = pool[0][0]
            u, v = rng.uniform(0.1, 0.9, size=2)
            dim = 2 ** sites
            sig = {"kind": kind, "sites": sites}

            def t_check(t, dim=dim) -> List[Check]:
                ok = t.shape == (dim, dim) and bool(np.all(np.isfinite(t)))
                return [("finite_square", ok, None)]

            tasks.append(Task(
                "transfer_matrix %s L%d" % (kind, sites), dict(sig, task="transfer_matrix"),
                lambda spec=spec, u=u: chain.transfer_matrix(spec, u), t_check))
            tasks.append(Task(
                "commutator_residual %s L%d" % (kind, sites), dict(sig, task="commutator_residual"),
                lambda spec=spec, u=u, v=v: chain.commutator_residual(spec, u, v),
                lambda r: [("commutator", r <= COMMUTATOR_TOL, r)]))
            for (mspec, sets), m in zip(pool, magnon_counts):
                for k, roots in enumerate(sets):
                    tasks.append(Task(
                        "certify_roots %s L%d M%d #%d" % (kind, sites, m, k),
                        dict(sig, task="certify_roots", magnons=m),
                        lambda mspec=mspec, roots=roots: chain.certify_roots(mspec, roots),
                        lambda c: [("certificate", c.residual <= CERTIFICATE_TOL, c.residual)],
                        "certificate"))
    return tasks


WORKLOADS = {"certify": certify, "solve": solve_workload, "oracle": oracle}


def clear_caches() -> None:
    """Empty every function cache in the package, so each set-up starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "bethegauge" or name.startswith("bethegauge."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()
