"""Span tracing around the public functions of each bethegauge module.

The benchmark wraps every public function of the package's modules (the
layers) from outside: each module attribute that refers to the function is
replaced by a wrapper, so a call is recorded whichever module makes it
(``bethegauge.cli.verify_identity`` and ``bethegauge.bridge.verify_identity``
are the same span name, ``bridge.verify_identity``).  Spans stay in memory
and are written out when the run ends.  A layer's self time is its span
minus the time covered by its direct child spans; calls are sequential, so
the children never overlap.
"""

from __future__ import annotations

import gzip
import inspect
import json
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional

MODULES = ("lie_roots", "specfun", "gauge", "chain", "bridge", "solve", "cli")

#: chain functions that build or apply the dense 2^L x 2^L oracle
ORACLE_FUNCTIONS = frozenset({
    "transfer_matrix", "bethe_vector", "certify_roots", "commutator_residual",
    "monodromy", "double_row_monodromy", "double_row_dtilde", "r_matrix",
    "k_matrix", "yang_baxter_residual", "reflection_residual", "rtt_residual",
    "open_transfer_expansion",
})

#: certificates at or below this residual count as eigenvectors
CERTIFIED = 1e-8

# span fields
NAME, START, END, PARENT, TASK, KEY, INFO = range(7)


def layer_of(name: str) -> str:
    module, func = name.split(".", 1)
    if module == "chain":
        return "chain.oracle" if func in ORACLE_FUNCTIONS else "chain.product"
    return module


def _chain_key(chain) -> str:
    return "%s.L%d.M%d" % (chain.kind, chain.n_sites, chain.n_magnons)


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _vacuum_key(args, kwargs) -> str:
    return "j%d" % _arg(args, kwargs, 2, "j")


def _solve_vacuum_key(args, kwargs) -> str:
    spec = args[0]
    regime = "2d" if _arg(args, kwargs, 3, "rational", False) else "3d"
    return "%s%d.%s" % (spec.family, spec.rank, regime)


def _solve_info(result) -> Dict[str, int]:
    diag = result.diagnostics
    return {"n_starts": int(diag.get("n_starts", 0)),
            "n_converged": int(diag.get("n_converged", 0)),
            "returned": len(result)}


#: span keys recorded from the arguments (what the per-size metrics group by)
KEYS: Dict[str, Callable] = {
    "gauge.vacuum_lhs": _vacuum_key,
    "gauge.vacuum_lhs_2d": _vacuum_key,
    "chain.transfer_matrix": lambda a, k: _chain_key(a[0]),
    "chain.bethe_vector": lambda a, k: _chain_key(a[0]),
    "chain.certify_roots": lambda a, k: _chain_key(a[0]),
    "chain.commutator_residual": lambda a, k: _chain_key(a[0]),
    "solve.solve_bethe": lambda a, k: _chain_key(a[0]),
    "solve.solve_vacuum": _solve_vacuum_key,
    "solve.cross_check": lambda a, k: a[1].id,
}

#: facts recorded from the return values (ratios measured where the work is)
INFOS: Dict[str, Callable] = {
    "bridge.verify_identity": lambda r: {"samples": r.samples},
    "chain.certify_roots": lambda r: {"residual": r.residual},
    "solve.solve_bethe": _solve_info,
    "solve.solve_vacuum": _solve_info,
}


class Tracer:
    """Records spans while ``task`` is set; passes calls through otherwise."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.task: Optional[str] = None
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        key_of = KEYS.get(name)
        info_of = INFOS.get(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if self.task is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task,
                    key_of(args, kwargs) if key_of else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info_of is not None:
                span[INFO] = info_of(out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap each public function of every layer module in every module."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        for short in MODULES:
            mod = getattr(package, short)
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap("%s.%s" % (short, attr), fn)
                for holder in modules:
                    for name, value in vars(holder).copy().items():
                        if value is fn:
                            setattr(holder, name, wrapper)
                            self._patched.append((holder, name, fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patched):
            setattr(holder, name, fn)
        self._patched.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "task", "key", "info"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _self_times(spans: List[list]) -> List[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: List[str], setup_task: str,
                  solve_labels: List[str], oracle_sizes: List[int]) -> Dict[str, tuple]:
    """Per-layer metrics from the traced rounds, as name -> (value, unit).

    ``rounds`` holds the task-id prefix of each traced round; per-round
    counts and self times are medians over those rounds, per-call latencies
    pool every call.  A function the workload never calls reports 0.
    """
    spans = tracer.spans
    self_t = _self_times(spans)
    by_round: Dict[str, List[int]] = {r: [] for r in rounds}
    setup: List[int] = []
    for i, s in enumerate(spans):
        if s[TASK] == setup_task:
            setup.append(i)
            continue
        prefix = s[TASK].split(".", 1)[0]
        if prefix in by_round:
            by_round[prefix].append(i)
    traced = [i for r in rounds for i in by_round[r]]

    def info(i: int, field: str, default=0):
        # a call that raised recorded no return-value facts
        return (spans[i][INFO] or {}).get(field, default)

    def per_round(fn) -> float:
        return statistics.median(fn(by_round[r]) for r in rounds)

    def named(name: str, idx=None) -> List[int]:
        return [i for i in (traced if idx is None else idx) if spans[i][NAME] == name]

    def durations(idx) -> List[float]:
        return [spans[i][END] - spans[i][START] for i in idx]

    def layer_self(layer: str) -> Callable:
        return lambda idx: sum(self_t[i] for i in idx if layer_of(spans[i][NAME]) == layer)

    m: Dict[str, tuple] = {}
    # cli: argparse, dispatch and JSON output, per cli.run call
    cli_self: Dict[str, float] = {}
    for i in traced:
        if layer_of(spans[i][NAME]) == "cli":
            cli_self[spans[i][TASK]] = cli_self.get(spans[i][TASK], 0.0) + self_t[i]
    m["cli.self_ms"] = (_median(list(cli_self.values()), 1e3), "ms")

    # bridge
    m["bridge.verify_identity.ms_p50"] = (_median(durations(named("bridge.verify_identity")), 1e3), "ms")
    m["bridge.map_gauge_to_chain.calls"] = (
        per_round(lambda idx: len(named("bridge.map_gauge_to_chain", idx))), "count")
    m["bridge.self_s"] = (per_round(layer_self("bridge")), "s")

    def draws(idx) -> int:
        return sum(1 for i in idx
                   if spans[i][NAME] in ("gauge.vacuum_lhs", "gauge.vacuum_lhs_2d")
                   and spans[i][KEY] == "j0" and spans[i][PARENT] >= 0
                   and spans[spans[i][PARENT]][NAME] == "bridge.verify_identity")

    def accepted(idx) -> int:
        return sum(info(i, "samples") for i in named("bridge.verify_identity", idx))

    m["bridge.verify.draws"] = (per_round(draws), "count")
    m["bridge.verify.accept_ratio"] = (per_round(lambda idx: _ratio(accepted(idx), draws(idx))), "ratio")

    # gauge
    for fn in ("vacuum_lhs", "vacuum_lhs_2d", "vacuum_lhs_squared"):
        name = "gauge." + fn
        m[name + ".calls"] = (per_round(lambda idx, n=name: len(named(n, idx))), "count")
        m[name + ".us_p50"] = (_median(durations(named(name)), 1e6), "us")
    sp_names = ("gauge.superpotential_value", "gauge.superpotential_grad", "gauge.vacuum_from_gradient")

    def sp_top(idx) -> List[int]:
        # vacuum_from_gradient calls superpotential_grad: count the outer call only
        return [i for i in idx if spans[i][NAME] in sp_names
                and not (spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] in sp_names)]

    m["gauge.superpotential.calls"] = (per_round(lambda idx: len(sp_top(idx))), "count")
    m["gauge.superpotential.us_p50"] = (_median(durations(sp_top(traced)), 1e6), "us")
    m["gauge.self_s"] = (per_round(layer_self("gauge")), "s")

    # specfun
    m["specfun.dilog.calls"] = (per_round(lambda idx: len(named("specfun.dilog", idx))), "count")
    m["specfun.dilog.us_p50"] = (_median(durations(named("specfun.dilog")), 1e6), "us")
    m["specfun.self_s"] = (per_round(layer_self("specfun")), "s")

    # chain, product side
    for fn in ("bethe_lhs", "bethe_residuals"):
        name = "chain." + fn
        m[name + ".calls"] = (per_round(lambda idx, n=name: len(named(n, idx))), "count")
        m[name + ".us_p50"] = (_median(durations(named(name)), 1e6), "us")

    # chain, dense oracle
    for kind in ("closed-xxz", "open-xxz"):
        for L in oracle_sizes:
            tm = [i for i in named("chain.transfer_matrix")
                  if spans[i][KEY].startswith("%s.L%d." % (kind, L))]
            m["chain.transfer_matrix.ms.%s.L%d" % (kind, L)] = (_median(durations(tm), 1e3), "ms")
    for fn in ("bethe_vector", "certify_roots", "commutator_residual"):
        for L in oracle_sizes:
            idx = [i for i in named("chain." + fn) if ".L%d." % L in spans[i][KEY]]
            m["chain.%s.ms.L%d" % (fn, L)] = (_median(durations(idx), 1e3), "ms")
    certs = named("chain.certify_roots")
    good = sum(1 for i in certs if info(i, "residual", float("inf")) <= CERTIFIED)
    m["chain.certified_ratio"] = (_ratio(good, len(certs)), "ratio")

    # solve: timings of the solver entry points called straight from cli.run
    def from_cli(name: str, key: str) -> List[int]:
        return [i for i in named(name) if spans[i][KEY] == key and spans[i][PARENT] >= 0
                and spans[spans[i][PARENT]][NAME] == "cli.run"]

    for label in solve_labels:
        fn, key = label.split(".", 1)
        m["solve.%s.ms.%s" % (fn, key)] = (_median(durations(from_cli("solve." + fn, key)), 1e3), "ms")
    solvers = ("solve.solve_bethe", "solve.solve_vacuum")

    def solver_total(idx, field: str) -> int:
        return sum(info(i, field) for i in idx if spans[i][NAME] in solvers)

    tot = {k: solver_total(traced, k) for k in ("n_starts", "n_converged", "returned")}
    m["solve.starts"] = (per_round(lambda idx: solver_total(idx, "n_starts")), "count")
    m["solve.converged_ratio"] = (_ratio(tot["n_converged"], tot["n_starts"]), "ratio")
    m["solve.accepted_ratio"] = (_ratio(tot["returned"], tot["n_converged"]), "ratio")
    m["solve.self_s"] = (per_round(layer_self("solve")), "s")

    # lie_roots: root generation happens while the set-up fills its caches
    m["lie_roots.generate_roots.ms"] = (sum(durations(named("lie_roots.generate_roots", setup))) * 1e3, "ms")
    return m
