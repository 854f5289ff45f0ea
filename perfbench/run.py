"""The bethegauge benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run is a closed loop with one client: after set-up
it runs the workload's task list (a round) again and again, one task at a
time, while another round fits in ``--seconds``, and checks every output in
the loop.  All rounds run the same inputs, so each timing is a median or a
percentile over the rounds.  With ``--trace 1`` untraced and traced rounds
alternate and the per-layer metrics come from the traced ones.  The last
line of standard output is one JSON object; per-task records (and spans,
when traced) go to ``perfbench/runs/``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups per run; setup_s reports their median
SETUP_REPS = 5
#: tasks beyond the tail percentile, within one round
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "task_p50_ms": "ms", "task_tail_ms": "ms",
    "solutions_found": "count", "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    def positive(text: str) -> float:
        value = float(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError("must be a positive number")
        return value

    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be a non-negative integer")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["certify", "solve", "oracle"])
    p.add_argument("--seed", type=seed, required=True)
    p.add_argument("--seconds", type=positive, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_package():
    """Import bethegauge from this checkout's src/, never from elsewhere."""
    if not (SRC / "bethegauge" / "__init__.py").is_file():
        sys.exit("perfbench: no bethegauge sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import bethegauge

    if Path(bethegauge.__file__).resolve().parent != SRC / "bethegauge":
        sys.exit("perfbench: imported bethegauge from %s, not from this checkout"
                 % bethegauge.__file__)
    return bethegauge


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _openblas_threads():
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # a checkout without git metadata; see source_sha256


def environment(args) -> dict:
    import hashlib
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "bethegauge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def known_defect(signature: dict, message: str, worst, defects: list):
    """The register entry a failed task matches, by its signature, stderr and worst residual."""
    for d in defects:
        if not all(signature.get(k) in (v if isinstance(v, list) else [v])
                   for k, v in d["match"].items()):
            continue
        if "message" in d and d["message"] not in message:
            continue
        if "max_residual" in d and not (worst is not None and worst <= d["max_residual"]):
            continue
        return d["id"]
    return None


def _finite_or_text(x):
    """Residuals as strict-JSON values: inf and nan become strings."""
    return x if x is None or math.isfinite(x) else repr(x)


def run_round(tasks, index: int, defects: list, speedo, tracer=None) -> dict:
    """One pass of the task list; probes and checks run outside the timed task calls."""
    records = []
    start = perf_counter()
    for k, task in enumerate(tasks):
        probe = speedo.sample()
        if tracer is not None:
            tracer.task = "r%d.t%d" % (index, k)
        t0 = perf_counter()
        try:
            output, error = task.call(), None
        except Exception as exc:  # a crashing task is a counted failure, not a stop
            output, error = None, "%s: %s" % (type(exc).__name__, exc)
        latency = perf_counter() - t0
        if tracer is not None:
            tracer.task = None
        checks = [("no_exception", False, None)] if error else task.check(output)
        checks = [(name, bool(ok), None if v is None else float(v)) for name, ok, v in checks]
        residuals = [c[2] for c in checks if c[2] is not None]
        worst = max(residuals) if residuals else None
        verdict = all(c[1] for c in checks)
        message = error or task.message(output)
        records.append({
            "label": task.label,
            "latency_ms": latency * 1e3,
            "probe": probe,
            "verdict": verdict,
            "worst_residual": _finite_or_text(worst),
            "checks": [[name, ok, _finite_or_text(v)] for name, ok, v in checks],
            "solutions": task.solutions(checks),
            "known_defect": None if verdict else known_defect(task.signature, message, worst, defects),
            "message": message or None,
        })
    return {"index": index, "traced": tracer is not None,
            "elapsed_s": perf_counter() - start, "tasks": records}


def rescale(rounds: list, speedo) -> None:
    """Add each task's latency, and each round's time, at the reference speed."""
    for rnd in rounds:
        for t in rnd["tasks"]:
            t["latency_ref_ms"] = t["latency_ms"] * speedo.scale(t["probe"])
        rnd["wall_s"] = sum(t["latency_ms"] for t in rnd["tasks"]) / 1e3
        rnd["wall_ref_s"] = sum(t["latency_ref_ms"] for t in rnd["tasks"]) / 1e3


class SetupClock:
    """Times one set-up in laps, each rescaled by the probes on either side of it.

    The oracle set-up solves for seconds, over which the host's speed moves;
    ``workloads.oracle`` calls ``lap`` between solves, so each lap has probes of its own.
    """

    def __init__(self, speedo, reference_s: float) -> None:
        self.speedo = speedo
        self.reference_s = reference_s
        self.raw_s = self.ref_s = 0.0
        self._probe = speedo.probe()
        self._t0 = perf_counter()

    def lap(self) -> None:
        elapsed = perf_counter() - self._t0
        probe = self.speedo.probe()
        self.raw_s += elapsed
        self.ref_s += elapsed * self.reference_s / statistics.median([self._probe, probe])
        self._probe = probe
        self._t0 = perf_counter()


def verdicts(rnd: dict) -> list:
    return [(r["label"], tuple(c[1] for c in r["checks"]), r["solutions"]) for r in rnd["tasks"]]


def _quantile(values: list, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def summarize(rounds: list) -> dict:
    """End-to-end metrics over untraced rounds, plus the bases behind them.

    Times are at the reference speed (see speed.py); ``raw`` holds the same
    statistics of the times as measured.
    """
    n_tasks = len(rounds[0]["tasks"])
    # the percentile that leaves TAIL_BEYOND tasks of one round beyond it,
    # read from every round's latencies pooled
    tail_q = (n_tasks - min(TAIL_BEYOND, n_tasks - 1)) / n_tasks

    def timings(wall: str, latency: str) -> dict:
        latencies = [t[latency] for r in rounds for t in r["tasks"]]
        return {"wall_s": statistics.median(r[wall] for r in rounds),
                "task_p50_ms": statistics.median(latencies),
                "task_tail_ms": _quantile(latencies, tail_q)}

    checks = [(c[1], t["known_defect"]) for r in rounds for t in r["tasks"] for c in t["checks"]]
    failed = sum(1 for ok, _ in checks if not ok)
    unexpected = sum(1 for ok, known in checks if not ok and known is None)
    return {
        "metrics": dict(
            timings("wall_ref_s", "latency_ref_ms"),
            solutions_found=statistics.median(sum(t["solutions"] for t in r["tasks"])
                                              for r in rounds),
        ),
        "raw": timings("wall_s", "latency_ms"),
        "fail_ratio": failed / len(checks),
        "rounds": len(rounds),
        "tasks_per_round": n_tasks,
        "tail_percentile": 100.0 * tail_q,
        "checks_attempted": len(checks),
        "checks_failed": failed,
        "checks_failed_unexpected": unexpected,
    }


def per_task_table(rounds: list) -> list:
    lines = ["%-44s %10s %10s  %-7s %-12s %s" % (
        "task", "p50 ms", "p50 ref ms", "verdict", "worst resid", "known defect")]
    for k, first in enumerate(rounds[0]["tasks"]):
        lat, ref = (statistics.median(r["tasks"][k][key] for r in rounds)
                    for key in ("latency_ms", "latency_ref_ms"))
        worst = first["worst_residual"]
        if isinstance(worst, float):
            worst = "%.3e" % worst
        lines.append("%-44s %10.3f %10.3f  %-7s %-12s %s" % (
            first["label"], lat, ref, "PASS" if first["verdict"] else "FAIL",
            worst or "-", first["known_defect"] or ""))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: with two, every dense product waits for the slower
    # core, and with any other load on a 2-core machine oracle rounds ran up
    # to 4x slower.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    package = import_package()
    import speed
    import tracing
    import workloads

    defects = json.loads((HERE / "known_defects.json").read_text())["defects"]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(package)

    speedo = speed.Speedometer(dense=args.workload == "oracle")
    # set-up is scalar Python work whatever the workload, so the scalar
    # probe rescales it
    setup_speedo = speed.Speedometer()
    build = workloads.WORKLOADS[args.workload]
    # a set-up: the package's import in a fresh interpreter, then the inputs
    # built from the seed and the caches warmed, in this process; each part
    # is rescaled with probes taken in its own process around it
    setup_times, setup_ref = [], []
    for rep in range(SETUP_REPS):
        workloads.clear_caches()
        import_s, import_probe = speed.time_import(SRC)
        if tracer is not None and rep == SETUP_REPS - 1:
            tracer.task = "setup"
        clock = SetupClock(setup_speedo, speed.REFERENCE_S)
        tasks = build(args.seed, defects, clock.lap)
        clock.lap()
        if tracer is not None:
            tracer.task = None
        setup_times.append(import_s + clock.raw_s)
        setup_ref.append(speed.REFERENCE_S * import_s / import_probe + clock.ref_s)
    setup_s = statistics.median(setup_ref)

    # A round starts only if one more, as long as the last, still fits in
    # --seconds, so a run's length does not depend on the machine's speed.
    plain, traced = [], []
    deadline = perf_counter() + args.seconds
    index, last = 0, 0.0
    while (perf_counter() + last <= deadline or not plain
           or (tracer is not None and not traced)):
        use_tracer = tracer is not None and index % 2 == 1
        rnd = run_round(tasks, index, defects, speedo, tracer if use_tracer else None)
        (traced if use_tracer else plain).append(rnd)
        last = rnd["elapsed_s"]
        index += 1
    rescale(plain + traced, speedo)

    summary = summarize(plain)
    reference = verdicts(plain[0])
    consistent = all(verdicts(r) == reference for r in plain + traced)
    correct = consistent and summary["checks_failed_unexpected"] == 0

    if tracer is not None:
        tracer.uninstall()
        metrics = tracing.layer_metrics(
            tracer, ["r%d" % r["index"] for r in traced], "setup",
            workloads.solve_labels(), list(workloads.ORACLE_SIZES))
        overhead = (statistics.median(r["wall_ref_s"] for r in traced)
                    / statistics.median(r["wall_ref_s"] for r in plain) - 1.0)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
    else:
        m = dict(summary["metrics"], setup_s=setup_s,
                 peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {name: (m[name], unit) for name, unit in END_TO_END_UNITS.items()}

    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    env = environment(args)
    with open(out_dir / (stem + ".json"), "w") as fh:
        json.dump({"environment": env, "setup_times_s": setup_times, "setup_ref_s": setup_ref,
                   "probe_s": speedo.samples,
                   "summary": summary, "verdicts_consistent": consistent,
                   "metrics": {k: v[0] for k, v in metrics.items()},
                   "rounds": plain + traced}, fh, indent=1)
    if tracer is not None:
        tracer.write(out_dir / (stem + "-spans.jsonl.gz"))

    for line in per_task_table(plain):
        print(line)
    print("environment: " + json.dumps(env, sort_keys=True))
    print("rounds: %d untraced, %d traced; %d tasks per round; tail = p%.1f (%d tasks of a round beyond it)"
          % (len(plain), len(traced), summary["tasks_per_round"], summary["tail_percentile"],
             min(TAIL_BEYOND, summary["tasks_per_round"] - 1)))
    raw = summary["raw"]
    print("as measured, before rescaling to the reference speed: setup_s %.4f, wall_s %.4f, "
          "task_p50_ms %.3f, task_tail_ms %.3f; probe median %.4f ms"
          % (statistics.median(setup_times), raw["wall_s"], raw["task_p50_ms"],
             raw["task_tail_ms"], statistics.median(speedo.samples) * 1e3))
    print("fail_ratio %.6f: %d failed of %d checks attempted (%d outside the known-defect register)"
          % (summary["fail_ratio"], summary["checks_failed"], summary["checks_attempted"],
             summary["checks_failed_unexpected"]))
    if not consistent:
        print("verdicts differ between rounds (traced or untraced)")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["checks_attempted"],
        "failed": summary["checks_failed_unexpected"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
