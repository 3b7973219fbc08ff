"""Empirical sup-norm measurement, bound recomputation, and sweeps.

The true sup-norm distance is a maximum over a continuum; this module
estimates it over finite point sets. Three strategies are available:

* ``Uniform(n)``: a tensor grid with n points per axis.
* ``DyadicMidpoints(level)``: odd multiples of ``2**-level`` per axis, the
  exact maximizer set of the squaring construction.
* ``RandomPoints(count, seed)``: seeded uniform samples, reproducible.

Grid evaluation is embarrassingly parallel. When ``threads`` exceeds one,
chunks are evaluated concurrently and written into disjoint slices of one
output array, so results are identical for every thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .builders import BoundCertificate
from .calculus import count_params
from .errors import ParameterError, StructuralError
from .nets import _CHUNK, Box, evaluate_batch

__all__ = [
    "Uniform",
    "DyadicMidpoints",
    "RandomPoints",
    "strategy_points",
    "ErrorReport",
    "SweepRow",
    "EquivalenceReport",
    "sup_error",
    "theoretical_bound",
    "analytic_rate_bound",
    "convergence_sweep",
    "sweep_csv",
    "equivalence_check",
]


@dataclass(frozen=True)
class Uniform:
    points_per_dim: int

    def describe(self) -> str:
        return f"uniform:{self.points_per_dim}"


@dataclass(frozen=True)
class DyadicMidpoints:
    level: int

    def describe(self) -> str:
        return f"dyadic:{self.level}"


@dataclass(frozen=True)
class RandomPoints:
    count: int
    seed: int

    def describe(self) -> str:
        return f"random:{self.count}:{self.seed}"


def _dyadic_axis(lo: float, hi: float, level: int) -> np.ndarray:
    """Odd multiples of 2**-level inside [lo, hi]; exact dyadic floats."""
    scale = 2.0**-level
    k_lo = math.ceil((lo / scale - 1.0) / 2.0)
    k_hi = math.floor((hi / scale - 1.0) / 2.0)
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    return (2.0 * ks + 1.0) * scale


def strategy_points(box: Box, strategy) -> np.ndarray:
    """Materialize the strategy's point set inside the box, shape (n, d)."""
    if isinstance(strategy, Uniform):
        if strategy.points_per_dim < 1:
            raise ParameterError("uniform strategy needs at least one point per axis")
        axes = [
            np.linspace(lo, hi, strategy.points_per_dim)
            for lo, hi in zip(box.lo, box.hi)
        ]
    elif isinstance(strategy, DyadicMidpoints):
        if strategy.level < 1:
            raise ParameterError("dyadic strategy needs level >= 1")
        axes = [_dyadic_axis(lo, hi, strategy.level) for lo, hi in zip(box.lo, box.hi)]
        if any(a.size == 0 for a in axes):
            raise ParameterError("box contains no dyadic midpoints at this level")
    elif isinstance(strategy, RandomPoints):
        if strategy.count < 1:
            raise ParameterError("random strategy needs at least one point")
        rng = np.random.default_rng(strategy.seed)
        return box.sample(strategy.count, rng)
    else:
        raise ParameterError(f"unknown strategy {strategy!r}")
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _evaluate_threaded(net, X: np.ndarray, threads) -> np.ndarray:
    n = X.shape[0]
    if not threads or threads <= 1 or n <= _CHUNK:
        return evaluate_batch(net, X)
    out = np.empty(n)
    spans = [(i, min(i + _CHUNK, n)) for i in range(0, n, _CHUNK)]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        def work(span):
            a, b = span
            out[a:b] = evaluate_batch(net, X[a:b])
        list(pool.map(work, spans))
    return out


@dataclass(frozen=True)
class ErrorReport:
    """Measured sup error of a net against a target over a finite point set."""

    measured: float
    argmax: tuple
    strategy: str
    points: int
    bound: float | None
    ratio: float | None
    out_of_domain: bool

    @property
    def within_bound(self) -> bool | None:
        if self.bound is None:
            return None
        return self.measured <= self.bound


def sup_error(
    net,
    target,
    box: Box,
    strategy,
    certificate: BoundCertificate | None = None,
    threads=None,
) -> ErrorReport:
    """Maximize ``|target(x) - net(x)|`` over the strategy's point set.

    ``target`` is called once with the full (n, d) point array and must
    return n values. The argmax point and, when a certificate is supplied,
    the measured/bound ratio are reported. Exceeding the bound is reported,
    never clamped.
    """
    if box.dim != net.input_dim:
        raise StructuralError(f"box dimension {box.dim} != input_dim {net.input_dim}")
    X = strategy_points(box, strategy)
    approx = _evaluate_threaded(net, X, threads)
    exact = np.asarray(target(X), dtype=float).reshape(-1)
    if exact.shape != approx.shape:
        raise StructuralError("target returned a mis-shaped value array")
    err = np.abs(exact - approx)
    idx = int(np.argmax(err))
    measured = float(err[idx])
    bound = float(certificate.bound) if certificate is not None else None
    ratio = measured / bound if bound is not None and bound > 0.0 else None
    return ErrorReport(
        measured=measured,
        argmax=tuple(float(v) for v in X[idx]),
        strategy=strategy.describe(),
        points=X.shape[0],
        bound=bound,
        ratio=ratio,
        out_of_domain=not net.domain.contains(box),
    )


# ---------------------------------------------------------------------------
# Certified bound recomputation


def theoretical_bound(cert: BoundCertificate) -> float:
    """Recompute the closed-form bound from the certificate's parameters.

    Must equal ``cert.bound`` exactly for every certificate the builders
    produce; any mismatch means a corrupted certificate.
    """
    p = cert.params
    if cert.lemma == "square":
        return 2.0 ** (-2 * p["L"])
    if cert.lemma == "multiply":
        return 3.0 * 2.0 ** (-2 * p["L"])
    if cert.lemma == "monomial":
        return 3.0 * (p["p"] - 1) * 2.0 ** (-2 * p["L"])
    if cert.lemma == "polynomial":
        if p["p"] < 2:
            return 0.0
        return 3.0 * (p["p"] - 1) * 2.0 ** (-2 * p["L"]) * p["coeff_l1"]
    if cert.lemma == "analytic":
        return 2.0 * p["eps"] * p["coeff_l1"]
    raise StructuralError(f"unknown certificate tag {cert.lemma!r}")


def analytic_rate_bound(d: int, delta: float, depth: int, coeff_l1: float) -> float:
    """Depth-form error bound for the fixed-width analytic construction:
    ``2 * l1 * exp(-d * delta * (L**(1/(2d)) / e - 1))``."""
    return (
        2.0
        * coeff_l1
        * math.exp(-d * delta * (math.exp(-1.0) * depth ** (1.0 / (2 * d)) - 1.0))
    )


# ---------------------------------------------------------------------------
# Convergence sweeps


@dataclass(frozen=True)
class SweepRow:
    L: int
    depth: int
    std_width: int
    params: int
    bound: float
    measured: float
    ratio: float


def convergence_sweep(build, target, depths, box: Box, strategy_for, threads=None):
    """One ErrorReport row per depth parameter, in increasing order.

    ``build(L)`` must return ``(net, certificate)``; ``strategy_for(L)``
    picks the measurement strategy per row. Builder failures are annotated
    with the offending L.
    """
    depths = [int(L) for L in depths]
    if not depths:
        raise ParameterError("sweep needs at least one depth value")
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ParameterError("sweep depths must be strictly increasing")
    rows = []
    for L in depths:
        try:
            net, cert = build(L)
        except Exception as exc:
            raise ParameterError(f"builder failed at L={L}: {exc}") from exc
        report = sup_error(
            net, target, box, strategy_for(L), certificate=cert, threads=threads
        )
        rows.append(
            SweepRow(
                L=L,
                depth=net.depth,
                std_width=net.width + net.input_dim + 1,
                params=count_params(net.width, net.depth, net.input_dim),
                bound=cert.bound,
                measured=report.measured,
                ratio=report.measured / cert.bound if cert.bound > 0.0 else 0.0,
            )
        )
    return rows


SWEEP_CSV_HEADER = "L,depth,std_width,params,bound,measured,ratio"


def sweep_csv(rows) -> str:
    """Byte-stable CSV rendering of sweep rows (full float precision)."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.L},{r.depth},{r.std_width},{r.params},{r.bound!r},{r.measured!r},{r.ratio!r}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Differential equivalence


@dataclass(frozen=True)
class EquivalenceReport:
    max_deviation: float
    argmax: tuple
    normalized: float
    tol: float
    passed: bool
    points: int
    seed: int


def equivalence_check(
    net_a, net_b, box: Box, n_samples: int, seed: int, tol: float
) -> EquivalenceReport:
    """Compare two nets on seeded random points.

    Passes when ``|a(x) - b(x)| <= tol * (1 + |a(x)|)`` at every sample.
    Identical seeds give bit-identical reports.
    """
    if net_a.input_dim != net_b.input_dim:
        raise StructuralError("nets have different input dimensions")
    if n_samples < 1:
        raise ParameterError("equivalence check needs at least one sample")
    rng = np.random.default_rng(seed)
    X = box.sample(n_samples, rng)
    va = evaluate_batch(net_a, X)
    vb = evaluate_batch(net_b, X)
    dev = np.abs(va - vb)
    normalized = dev / (1.0 + np.abs(va))
    idx = int(np.argmax(dev))
    worst = float(np.max(normalized))
    return EquivalenceReport(
        max_deviation=float(dev[idx]),
        argmax=tuple(float(v) for v in X[idx]),
        normalized=worst,
        tol=float(tol),
        passed=bool(worst <= tol),
        points=n_samples,
        seed=int(seed),
    )
