#!/usr/bin/env python3
"""relu-forge benchmark: one workload per process, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-analytic --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py):

* ``certify-analytic``: ``build analytic`` + ``verify`` through the CLI for
  exp, sin and runge at eps 1e-3, 1e-6 and 1e-10; deep, narrow nets.
* ``sweep-grid``: the four convergence sweeps of scripts/run_sweeps.py
  through the CLI; shallow nets on about 263k points, the only workload
  that uses the chunked evaluation pool.
* ``convert-equiv``: load, ``skip_to_standard``, standard-form round trip
  and ``equivalence_check`` for eight prebuilt nets. ``--seed`` seeds the
  equivalence samples; the other workloads use fixed grids.

The library is imported from ``src/`` of the checkout and driven in this
process with ``min(2, nproc)`` evaluation threads. Set-up (the import plus
the workload's fixed inputs) is repeated three times and reported as
``setup_s`` = import time + the median set-up. Then whole passes over the
workload's operations run until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics; no wrapper is installed.
``--trace 1`` runs untraced passes for half the time and traced passes for
the other half, reports the per-layer metrics of layers.py (medians over
traced passes) and ``trace.overhead_ratio``, and writes the spans to
``.perfbench-out/``. Every output must match the first pass byte for byte,
traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
operations whose output was wrong or that broke (see workloads.py);
``correct`` is true when none did, repeated set-ups agreed and the traced
run restored every wrapped function. A net missing its certified bound or
an equivalence check over its tolerance is the operation's verdict, not a
broken output: it lowers ``ok_ratio`` (1 - fail_ratio) and shows in
``worst_ratio``.
"""

import time

# Taken before every other import, so that setup_s includes them.
_STARTED = time.perf_counter()

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("certify-analytic", "sweep-grid", "convert-equiv")
SETUP_REPEATS = 3
THREADS = min(2, os.cpu_count() or 1)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="relu-forge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import relu_forge from this checkout's src/ and the workloads on it."""
    src = ROOT / "src"
    if not (src / "relu_forge" / "__init__.py").is_file():
        raise SystemExit(f"error: relu_forge sources not found under {src}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import relu_forge

    if not Path(relu_forge.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: relu_forge imported from {relu_forge.__file__}, not {src}")
    return importlib.import_module("workloads")


# ---------------------------------------------------------------------------
# Machine record


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the library's source files, for checkouts without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record(seed: int) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "cpu_model": cpu_model(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Passes


class Runner:
    """Runs whole passes and checks each output against the first pass."""

    def __init__(self, workloads, workload):
        self.Outcome = workloads.Outcome
        self.ops = workload.operations()
        self.first = None

    def run_pass(self):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outcomes = []
        for _, op in self.ops:
            try:
                outcomes.append(op())
            except Exception:
                last = traceback.format_exc().strip().splitlines()[-1]
                outcomes.append(self.Outcome("", None, False, f"raised {last}"))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if self.first is None:
            self.first = [o.output for o in outcomes]
        for outcome, reference in zip(outcomes, self.first):
            if outcome.error is None and outcome.output != reference:
                outcome.error = "output differs from the first pass"
        return wall, cpu, outcomes

    def run_for(self, seconds: float, tracer=None) -> dict:
        """Passes until ``seconds`` have elapsed, at least one."""
        phase = {"wall": [], "cpu": [], "outcomes": [], "spans": []}
        started = time.perf_counter()
        while not phase["wall"] or time.perf_counter() - started < seconds:
            wall, cpu, outcomes = self.run_pass()
            phase["wall"].append(wall)
            phase["cpu"].append(cpu)
            phase["outcomes"].append(outcomes)
            if tracer is not None:
                phase["spans"].append(tracer.drain())
        return phase

    def digest(self, outcomes) -> str:
        digest = hashlib.sha256()
        for (label, _), outcome in zip(self.ops, outcomes):
            digest.update(f"{label}\0{outcome.output}\0".encode())
        return digest.hexdigest()


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def describe(values, unit: str, what: str) -> str:
    q1, q3 = quartiles(values)
    return (
        f"{statistics.median(values):.6g} {unit}  median of n={len(values)} {what}, "
        f"quartiles {q1:.6g} .. {q3:.6g}"
    )


# ---------------------------------------------------------------------------
# Reports


def end_to_end(phase, setup_s: float, setup_times, import_s: float, lines) -> dict:
    outcomes = [o for run in phase["outcomes"] for o in run]
    attempted = len(outcomes)
    ok = sum(o.passed and o.error is None for o in outcomes)
    ratios = [o.ratio for o in outcomes if o.ratio is not None]
    worst = max(ratios) if ratios else 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines += [
        f"setup_s      {setup_s:.6g} s  import {import_s:.6g} s once + "
        + describe(setup_times, "s", "set-ups"),
        f"pass_s       {describe(phase['wall'], 's', 'passes')}",
        f"cpu_s        {describe(phase['cpu'], 's', 'passes')}",
        f"peak_rss_mb  {rss_mb:.6g} MB  ru_maxrss of this process, n=1",
        f"fail_ratio   {(attempted - ok) / attempted:.6g}  {attempted - ok} of {attempted} operations",
        f"ok_ratio     {ok / attempted:.6g}  {ok} of {attempted} operations",
        f"worst_ratio  {worst:.6g}  max measured/allowed over n={len(ratios)} operations",
    ]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(phase["wall"]), "s"),
        "cpu_s": (statistics.median(phase["cpu"]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": (ok / attempted, "ratio"),
        "worst_ratio": (worst, "ratio"),
    }


def per_layer(layers, untraced, traced, lines) -> dict:
    per_pass = [
        layers.layer_metrics(spans, THREADS, threading.get_ident())
        for spans in traced["spans"]
    ]
    metrics = {}
    for name, unit in layers.PER_LAYER:
        values = [m[name] for m in per_pass]
        metrics[name] = (statistics.median(values), unit)
        tag = " (computed)" if name in layers.COMPUTED else ""
        lines.append(f"{name:36s} {describe(values, unit, 'traced passes')}{tag}")
    overhead = statistics.median(traced["wall"]) / statistics.median(untraced["wall"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    lines.append(
        f"{'trace.overhead_ratio':36s} {overhead:.6g}  median traced pass over median "
        f"untraced pass (n={len(traced['wall'])} and n={len(untraced['wall'])})"
    )
    return metrics


def write_spans(path: Path, record: dict, traced) -> None:
    spans = [s for run in traced["spans"] for s in run]
    t0 = min((s.start for s in spans), default=0.0)
    rows = [
        {
            "pass": i, "id": s.id, "parent": s.parent, "name": s.name,
            "thread": s.thread, "start": s.start - t0, "end": s.end - t0,
            "error": s.error, "counts": s.counts,
        }
        for i, run in enumerate(traced["spans"])
        for s in run
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"machine": record, "spans": rows}) + "\n", encoding="utf-8")


def run(args, workloads, import_s: float, work_dir: Path) -> int:
    import layers
    import tracing

    record = machine_record(args.seed)
    workload = workloads.WORKLOADS[args.workload](str(work_dir), THREADS, args.seed)
    setup_times, fingerprints = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fingerprints.add(workload.setup())
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    runner = Runner(workloads, workload)
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}",
        f"machine {json.dumps(record)}",
    ]
    problems = []
    if len(fingerprints) != 1:
        problems.append("repeated set-ups built different inputs")

    phases = [runner.run_for(args.seconds / 2 if args.trace else args.seconds)]
    if args.trace:
        originals = tracing.current(layers.WRAPPERS)
        tracer = tracing.Tracer()
        with tracing.patched(tracer, layers.WRAPPERS):
            phases.append(runner.run_for(args.seconds / 2, tracer))
        if any(a is not b for a, b in zip(originals, tracing.current(layers.WRAPPERS))):
            problems.append("wrapped functions were not restored")

    labels = [label for label, _ in runner.ops]
    for phase, kind in zip(phases, ("untraced", "traced")):
        for label, outcome in zip(labels, phase["outcomes"][0]):
            verdict = "ok" if outcome.passed else "FAIL"
            ratio = "-" if outcome.ratio is None else f"{outcome.ratio:.6g}"
            lines.append(f"op {kind:8s} {label:28s} ratio {ratio:>12s}  {verdict}")
        for i, outcomes in enumerate(phase["outcomes"]):
            lines += [
                f"error {kind} pass {i} {label}: {o.error}"
                for label, o in zip(labels, outcomes)
                if o.error is not None
            ]
        lines.append(f"outputs_sha256 {kind} {runner.digest(phase['outcomes'][0])}")

    metrics = end_to_end(phases[0], setup_s, setup_times, import_s, lines)
    if args.trace:
        metrics = per_layer(layers, phases[0], phases[1], lines)
        spans_path = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(spans_path, record, phases[1])
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")

    outcomes = [o for phase in phases for run in phase["outcomes"] for o in run]
    failed = sum(o.error is not None for o in outcomes)
    for problem in problems:
        lines.append(f"problem: {problem}")
    print("\n".join(lines))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_library()
    import_s = time.perf_counter() - _STARTED
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        return run(args, workloads, import_s, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
