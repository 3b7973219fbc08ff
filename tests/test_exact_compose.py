"""Exact-arithmetic oracle for the builders' compositions.

Every weight a builder makes is a dyadic rational, so a skip net evaluated in
``fractions.Fraction`` at dyadic points is exact. A composition is sound
exactly when its shifted channels never clip: then ``compose(f2, f1)``
equals ``f2(f1(x), x)`` with no tolerance. The oracle checks that for every
``compose`` a build makes, declared chain shifts included.
"""

from fractions import Fraction

import numpy as np
import pytest

from relu_forge import builders, build_analytic, build_monomial, build_polynomial, preset_series

from test_acceptance import _runge2

POINTS = 8

BUILDS = {
    "x^7 L=2": lambda: build_monomial([1] * 7, 2, 1),
    "x^7 L=2 clamp": lambda: build_monomial([1] * 7, 2, 1, clamp=True),
    "[1,2,1,2,1] L=2": lambda: build_monomial([1, 2, 1, 2, 1], 2, 2),
    "runge 1e-3": lambda: build_analytic(preset_series("runge")[0], 1e-3, 0.25),
}


def _dot(w, v):
    return sum((Fraction(a) * b for a, b in zip(w.tolist(), v) if a != 0.0), Fraction(0))


def exact_skip(net, x):
    """Value of a skip net at the point ``x`` in exact arithmetic, layer by layer."""
    x = [Fraction(v) for v in x]
    out = Fraction(net.out_a0) + _dot(net.out_a, x)
    y = []
    for l in range(net.depth):
        if l == 0:
            pre = [Fraction(b) + _dot(w, x) for w, b in zip(net.first_w, net.first_b.tolist())]
        else:
            rows = zip(net.hidden_wx[l - 1], net.hidden_wy[l - 1], net.hidden_b[l - 1].tolist())
            pre = [Fraction(b) + _dot(wx, x) + _dot(wy, y) for wx, wy, b in rows]
        y = [max(v, Fraction(0)) for v in pre]
        out += _dot(net.out_beta[l], y)
    return out


def _composes(monkeypatch, build):
    """Every (f2, f1, compose(f2, f1)) that ``build`` makes."""
    seen, real = [], builders.compose

    def spy(f2, f1):
        seen.append((f2, f1, real(f2, f1)))
        return seen[-1][2]

    monkeypatch.setattr(builders, "compose", spy)
    build()
    return seen


def _mismatches(composes, seed):
    """Composes whose exact value differs from f2(f1(x), x) at a dyadic point."""
    rng = np.random.default_rng(seed)
    bad = 0
    for f2, f1, c in composes:
        for x in rng.integers(-256, 257, size=(POINTS, f1.input_dim)).tolist():
            x = [Fraction(v, 256) for v in x]
            if exact_skip(c, x) != exact_skip(f2, [exact_skip(f1, x), *x]):
                bad += 1
                break
    return bad


@pytest.mark.parametrize("name", BUILDS)
def test_builder_composes_are_exact(monkeypatch, name):
    composes = _composes(monkeypatch, BUILDS[name])
    assert any(f1.chain_shifts is not None for _, f1, _ in composes)
    assert all(c.chain_shifts is None for _, _, c in composes)
    assert _mismatches(composes, seed=7) == 0


@pytest.mark.parametrize(
    "target, eps, clamp",
    [("runge", 1e-3, False), ("runge", 1e-3, True), ("runge", 1e-6, False),
     ("runge", 1e-6, True), ("runge2", 1e-3, False)],
)
def test_tapped_head_equals_the_summed_head(target, eps, clamp):
    """Each tap reads the chain value the summed layout's monomial net puts
    out, so at dyadic points in the certificate box the nets agree exactly."""
    series = _runge2()[0] if target == "runge2" else preset_series(target)[0]
    built = build_analytic(series, eps, 0.25, clamp=clamp)
    head = series.head.truncated(built.truncation_degree)
    summed, _ = build_polynomial(head, built.stage_depth, clamp=clamp)
    rng = np.random.default_rng(3)
    for x in rng.integers(-192, 193, size=(4, head.input_dim)).tolist():
        x = [Fraction(v, 256) for v in x]
        assert exact_skip(built.net, x) == exact_skip(summed, x)


def test_oracle_catches_too_small_chain_shifts(monkeypatch):
    monkeypatch.setattr(builders, "_CHAIN_SHIFTS", (0.25, 0.5))
    caught = [_mismatches(_composes(monkeypatch, build), seed=7) > 0 for build in BUILDS.values()]
    assert all(caught), caught
