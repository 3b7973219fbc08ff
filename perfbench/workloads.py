"""The benchmark's workloads: fixed lists of operations on relu_forge.

Each workload prepares its inputs in ``setup()``, which returns a digest of
them so repeated set-ups can be compared, and lists its operations in
``operations()``. An operation returns an ``Outcome``:

* ``output``: text that must repeat exactly between passes (a verify
  payload, a sweep CSV, an equivalence report);
* ``ratio``: measured over allowed error (the certified bound for verify
  and sweep, the tolerance for equivalence);
* ``passed``: the operation's verdict, False when a net exceeds its bound
  or an equivalence check exceeds its tolerance;
* ``error``: set when an output is wrong or the operation broke, such as a
  usage-error exit, a report that contradicts itself or its exit code, a
  CSV that differs from the one-thread reference, or a round trip that is
  not bit-identical.

Library functions are looked up on their modules at call time
(``cli.main``, ``serialize.serialize_net``), so the traced run's wrappers
see these calls.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from relu_forge import builders, calculus, cli, serialize, verify

PRESETS = ("exp", "sin", "runge")
DELTA = 0.25
# The acceptance polynomial 1 - x1^2 + x1*x2/2 of scripts/run_sweeps.py.
ACCEPTANCE_TERMS = {(0, 0): 1.0, (2, 0): -1.0, (1, 1): 0.5}
ACCEPTANCE_TARGET = "poly:0,0:1;2,0:-1;1,1:0.5"


@dataclass
class Outcome:
    output: str
    ratio: float | None
    passed: bool
    error: str | None = None


def run_cli(argv) -> tuple[int, str]:
    """Run ``relu-forge`` in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def bits(obj):
    """Comparable form of a net that differs whenever any stored bit does."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if is_dataclass(obj):
        return tuple((f.name, bits(getattr(obj, f.name))) for f in fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(bits(v) for v in obj)
    if isinstance(obj, float):
        return obj.hex()
    return obj


class CertifyAnalytic:
    """``build analytic`` then ``verify`` through the CLI, per preset and eps."""

    EPS = ("1e-3", "1e-6", "1e-10")
    POINTS = 20001

    def __init__(self, work_dir: str, threads: int, seed: int):
        self.work_dir = work_dir
        self.threads = str(threads)

    def setup(self) -> str:
        os.makedirs(self.work_dir, exist_ok=True)
        return ""

    def operations(self):
        return [
            (f"{preset} eps={eps}", functools.partial(self._certify, preset, eps))
            for preset in PRESETS
            for eps in self.EPS
        ]

    def _certify(self, preset: str, eps: str) -> Outcome:
        path = os.path.join(self.work_dir, f"{preset}_{eps}.json")
        code, _ = run_cli([
            "--threads", self.threads, "build", "analytic", "--preset", preset,
            "--eps", eps, "--delta", str(DELTA), "-o", path,
        ])
        if code != 0:
            return Outcome("", None, False, f"build exited {code}")
        code, out = run_cli([
            "--threads", self.threads, "verify", "-i", path, "--target", preset,
            "--strategy", f"uniform:{self.POINTS}",
        ])
        try:
            report = json.loads(out)
            measured, bound, passed = report["measured"], report["bound"], report["passed"]
        except (ValueError, KeyError):
            return Outcome(out, None, False, f"verify exited {code} without a report")
        problems = []
        if code != (0 if passed else cli.VERIFY_FAILURE):
            problems.append(f"exit code {code} with passed={passed}")
        if passed != (measured <= bound):
            problems.append(f"passed={passed} but measured {measured!r} vs bound {bound!r}")
        if report["points"] != self.POINTS:
            problems.append(f"{report['points']} points measured")
        if report["ratio"] != measured / bound:
            problems.append(f"ratio {report['ratio']!r} is not measured/bound")
        return Outcome(out, measured / bound, passed, "; ".join(problems) or None)


class SweepGrid:
    """The four convergence sweeps of scripts/run_sweeps.py through the CLI."""

    SWEEPS = (
        ("square", "1:12"),
        ("multiply", "2:8"),
        ("monomial:1,2,3", "2:6"),
        (ACCEPTANCE_TARGET, "2:6"),
    )

    def __init__(self, work_dir: str, threads: int, seed: int):
        self.threads = str(threads)
        self.reference = {}

    def _sweep(self, threads: str, target: str, depths: str) -> tuple[int, str]:
        return run_cli(["--threads", threads, "sweep", target, "--depths", depths])

    def setup(self) -> str:
        """One-thread CSVs that every timed pass must reproduce byte for byte."""
        self.reference = {
            target: self._sweep("1", target, depths) for target, depths in self.SWEEPS
        }
        return json.dumps(self.reference)

    def operations(self):
        return [
            (f"sweep {target} {depths}", functools.partial(self._check, target, depths))
            for target, depths in self.SWEEPS
        ]

    def _check(self, target: str, depths: str) -> Outcome:
        code, csv = self._sweep(self.threads, target, depths)
        try:
            ratio = max(float(row.rsplit(",", 1)[1]) for row in csv.splitlines()[1:])
        except (ValueError, IndexError):
            return Outcome(csv, None, False, f"sweep exited {code} without a table")
        problems = []
        if csv != self.reference[target][1]:
            problems.append("CSV differs from the one-thread reference")
        if code != (cli.VERIFY_FAILURE if ratio > 1.0 else 0):
            problems.append(f"exit code {code} with worst ratio {ratio!r}")
        return Outcome(csv, ratio, code == 0, "; ".join(problems) or None)


class ConvertEquiv:
    """Load a skip net, convert it to standard form, round-trip that, and
    check it against the skip net on seeded random points."""

    EPS = (1e-6, 1e-8)
    SAMPLES = 10_000
    TOL = 1e-9

    def __init__(self, work_dir: str, threads: int, seed: int):
        self.seed = seed
        self.documents = []

    def setup(self) -> str:
        nets = []
        for preset in PRESETS:
            series, _ = builders.preset_series(preset)
            for eps in self.EPS:
                built = builders.build_analytic(series, eps, DELTA)
                nets.append((f"{preset} eps={eps:g}", built.net, built.certificate))
        nets.append(("multiply L=8", *builders.build_multiply(8)))
        poly = builders.PolySpec(2, ACCEPTANCE_TERMS)
        nets.append(("acceptance poly L=6", *builders.build_polynomial(poly, 6)))
        self.documents = [
            (label, serialize.serialize_net(net, cert)) for label, net, cert in nets
        ]
        digest = hashlib.sha256()
        for _, text in self.documents:
            digest.update(text.encode())
        return digest.hexdigest()

    def operations(self):
        return [
            (f"skip2std {label}", functools.partial(self._convert, text))
            for label, text in self.documents
        ]

    def _convert(self, text: str) -> Outcome:
        net, cert = serialize.deserialize_net(text)
        std = calculus.skip_to_standard(net)
        back, _ = serialize.deserialize_net(serialize.serialize_net(std, cert))
        report = verify.equivalence_check(
            net, back, net.domain, self.SAMPLES, self.seed, tol=self.TOL
        )
        error = None if bits(back) == bits(std) else "standard-form round trip changed bits"
        return Outcome(
            json.dumps(asdict(report)), report.normalized / report.tol, report.passed, error
        )


WORKLOADS = {
    "certify-analytic": CertifyAnalytic,
    "sweep-grid": SweepGrid,
    "convert-equiv": ConvertEquiv,
}
