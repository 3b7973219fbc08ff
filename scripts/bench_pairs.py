#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarize.

Usage:
    python scripts/bench_pairs.py PARENT CHANGE --out BENCH_N.json \\
        [--workloads certify-analytic,sweep-grid,convert-equiv] \\
        [--seeds 301:310] [--seconds 25] [--trace 0]

PARENT and CHANGE are the roots of two checkouts, each with its own
``perfbench/run.py`` and ``src/``. For every workload, pair i runs both
checkouts with seed i of ``--seeds``, one process after the other; the
parent runs first in even pairs and the change first in odd ones, so a
drift in machine load falls on both sides.

The JSON written to ``--out`` (rewritten after every pair) holds the
machine line of each side, every run's metrics, ``correct``, ``failed``
and untraced ``outputs_sha256``, and per workload and metric each side's
median and quartiles, the pairs the change won and lost (by the metric's
``better`` in CHANGE's BENCHMARK.json) and the relative change of the
median.

After each workload it prints one verdict line per end-to-end metric: each
side's median and quartiles, the pairs won and lost, the relative change,
and whether the gap between the medians exceeds the parent's quartile
spread. A gain may be claimed when it does and the change won at least nine
tenths of the pairs.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition(":")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(root: pathlib.Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} in {root} exited {proc.returncode}:\n"
                         + proc.stderr)
    result = json.loads(lines[-1])
    machine = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("machine "))
    digest = next(l.split()[-1] for l in lines if l.startswith("outputs_sha256 untraced"))
    return {
        "machine": machine,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "outputs_sha256": digest,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs, declared) -> dict:
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        side = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        entry = {s: spread(side[s]) for s in SIDES}
        better = declared.get(name, {}).get("better")
        if better is not None:
            sign = 1.0 if better == "lower" else -1.0
            gains = [sign * (a - b) for a, b in zip(side["parent"], side["change"])]
            entry.update(better=better, bound=declared[name].get("bound"),
                         change_won=sum(g > 0 for g in gains),
                         change_lost=sum(g < 0 for g in gains))
        base = entry["parent"]["median"]
        entry["median_change"] = (entry["change"]["median"] - base) / base if base else None
        summary[name] = entry
    return summary


def verdict(workload: str, name: str, entry: dict, pairs: int) -> str:
    """One line: both sides' medians and quartiles, pairs won and lost, the
    relative change, and the gap between the medians against the parent's
    quartile spread."""
    side = lambda s: "{median:.4g} [{q1:.4g}..{q3:.4g}]".format(**entry[s])
    gap = entry["change"]["median"] - entry["parent"]["median"]
    spread = entry["parent"]["q3"] - entry["parent"]["q1"]
    gain = -gap if entry["better"] == "lower" else gap
    change = entry["median_change"]
    claim = gain > spread and 10 * entry["change_won"] >= 9 * pairs
    return (f"verdict {workload} {name}: parent {side('parent')} change {side('change')}"
            f" won {entry['change_won']} lost {entry['change_lost']} of {pairs}"
            f" change {'n/a' if change is None else f'{change:+.1%}'}"
            f" gap {gap:+.4g} {'exceeds' if abs(gap) > spread else 'within'}"
            f" parent spread {spread:.4g}"
            f" claim {'holds' if claim else 'not met'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--workloads", default="certify-analytic,sweep-grid,convert-equiv")
    parser.add_argument("--seeds", default="301:310",
                        help="inclusive range A:B, one seed per pair")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    report = {"seconds": args.seconds, "trace": args.trace, "machine": {}, "workloads": {}}
    for workload in args.workloads.split(","):
        pairs = []
        report["workloads"][workload] = {"pairs": pairs}
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = pair[side] = run_once(roots[side], workload, seed, args.seconds, args.trace)
                machine = run.pop("machine")
                machine.pop("seed")
                report["machine"][side] = machine
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()), flush=True)
            pairs.append(pair)
            summary = report["workloads"][workload]["summary"] = summarize(pairs, declared)
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        for metric in bench["end_to_end"]:
            if metric["name"] in summary:
                print(verdict(workload, metric["name"], summary[metric["name"]], len(pairs)),
                      flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
