#!/usr/bin/env python3
"""Convergence experiments: build nets over a depth range, measure sup
errors against their targets, and write one CSV table per target.

Usage:
    python scripts/run_sweeps.py [--out-dir sweeps] [--threads N]

Each table is one ``relu-forge sweep`` run, so targets, boxes and grids are
the CLI's. Deterministic: same inputs produce byte-identical CSV files.
"""

import argparse
import pathlib
import sys
import time

import numpy as np

from relu_forge import cli

# (CSV name, CLI target, depth range); the polynomial is 1 - x1^2 + x1*x2/2.
SWEEPS = (
    ("square", "square", "1:12"),
    ("multiply", "multiply", "2:8"),
    ("monomial_x1x2x3", "monomial:1,2,3", "2:6"),
    ("poly_acceptance", "poly:0,0:1;2,0:-1;1,1:0.5", "2:6"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="sweeps")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    threads = [] if args.threads is None else ["--threads", str(args.threads)]

    all_ok = True
    for name, target, depths in SWEEPS:
        t0 = time.perf_counter()
        path = out_dir / f"{name}.csv"
        code = cli.main([*threads, "sweep", target, "--depths", depths, "--csv", str(path)])
        if code == cli.USAGE_ERROR:
            return code
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        measured = [float(r[5]) for r in rows]
        worst = max(float(r[6]) for r in rows)
        rates = [b / a for a, b in zip(measured, measured[1:])]
        ok = code == 0
        all_ok &= ok
        print(
            f"{name:18s} rows={len(rows)} worst measured/bound={worst:.3f} "
            f"mean rate={np.mean(rates):.3f} "
            f"({time.perf_counter() - t0:.2f}s) {'ok' if ok else 'BOUND VIOLATED'}"
        )
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
