"""Acceptance suite: one test per shipped guarantee, sharp tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its runtime. Every tolerance is fixed here; nothing is
calibrated at runtime.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from relu_forge import (
    Box,
    DyadicMidpoints,
    PolySpec,
    SeriesSpec,
    Uniform,
    add,
    build_analytic,
    build_monomial,
    build_multiply,
    build_polynomial,
    build_square,
    compose,
    count_params,
    count_params_standard,
    equivalence_check,
    eval_skip_batch,
    monomial_count,
    pad_width,
    preset_series,
    sigmoidal_to_relu,
    skip_to_standard,
    sup_error,
    theorem_depth,
    wide_to_deep,
)

from conftest import make_random_shallow, make_random_skip


class _Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(n, text, watch=None):
    suffix = f" ({watch.elapsed:.2f}s)" if watch is not None else ""
    print(f"\nPASS criterion {n}: {text}{suffix}")


def test_criterion_1_square_convergence():
    """Squaring error equals 4**-L on its dyadic midpoints for L = 1..12."""
    with _Stopwatch(5.0) as watch:
        for L in range(1, 13):
            net, cert = build_square(L)
            rep = sup_error(
                net, lambda X: X[:, 0] ** 2, net.domain, DyadicMidpoints(L), certificate=cert
            )
            assert abs(rep.measured - 2.0 ** (-2 * L)) <= 1e-10, f"L={L}: {rep.measured}"
            assert rep.measured <= cert.bound + 1e-15
    assert watch.elapsed < 5.0
    _report(1, "squaring error equals 4**-L exactly for L=1..12, quartering per layer", watch)


def test_criterion_2_multiply_band():
    """Product error on a 513x513 grid sits in [4**-L, 3*4**-L] for L = 2..8."""
    with _Stopwatch(20.0) as watch:
        for L in range(2, 9):
            net, cert = build_multiply(L)
            rep = sup_error(
                net,
                lambda X: X[:, 0] * X[:, 1],
                net.domain,
                Uniform(513),
                certificate=cert,
            )
            lo, hi = 2.0 ** (-2 * L), 3.0 * 2.0 ** (-2 * L)
            assert lo - 1e-15 <= rep.measured <= hi + 1e-15, f"L={L}: {rep.measured}"
    assert watch.elapsed < 20.0
    _report(2, "product error inside [4**-L, 3*4**-L] on 513^2 grids for L=2..8", watch)


def test_criterion_3_monomial_bound_and_structure():
    """x1*x2*x3 nets: bound on a 65^3 grid, exact depth/width budgets."""
    with _Stopwatch(30.0) as watch:
        for L in (3, 4, 5):
            net, cert = build_monomial([1, 2, 3], L, 3)
            assert net.depth == 3 * 2 * L
            assert net.width == 3
            std = skip_to_standard(net)
            assert set(std.widths) == {7}, "standard form must have width d+4 = 7"
            rep = sup_error(
                net,
                lambda X: X[:, 0] * X[:, 1] * X[:, 2],
                net.domain,
                Uniform(65),
                certificate=cert,
            )
            assert rep.measured <= 3 * 2 * 2.0 ** (-2 * L) + 1e-15, f"L={L}: {rep.measured}"
    assert watch.elapsed < 30.0
    _report(3, "degree-3 monomial within 6*4**-L on 65^3 grids; depth 6L, widths 3 and 7", watch)


def test_criterion_4_polynomial_bound():
    """1 - x1^2 + 0.5 x1 x2 within its certificate; term-count helper exact."""
    spec = PolySpec(2, {(0, 0): 1.0, (2, 0): -1.0, (1, 1): 0.5})
    with _Stopwatch(20.0) as watch:
        for L in (3, 5):
            net, cert = build_polynomial(spec, L)
            assert cert.bound == 3.0 * 1 * 2.0 ** (-2 * L) * 2.5
            rep = sup_error(net, spec, net.domain, Uniform(513), certificate=cert)
            assert rep.measured <= cert.bound + 1e-15, f"L={L}: {rep.measured}"
        assert monomial_count(2, 2) == 6
    _report(4, "polynomial within 3(p-1)4**-L * 2.5 on 513^2 grids; C(4,2) = 6 terms", watch)


def test_criterion_5_analytic_at_desk_scale():
    """exp on [-0.75, 0.75] at eps = 1e-3; depth formula cross-derived."""
    with _Stopwatch(10.0) as watch:
        series, _ = preset_series("exp")
        result = build_analytic(series, 1e-3, 0.25)
        p = result.truncation_degree
        head_l1 = sum(1.0 / math.factorial(k) for k in range(p + 1))
        tail = series.tail_l1_bound(p, 0.25)
        rep = sup_error(
            result.net,
            lambda X: np.exp(X[:, 0]),
            result.certificate.box,
            Uniform(2**15 + 1),
            certificate=result.certificate,
        )
        assert rep.measured <= 2.0 * 1e-3 * head_l1 + tail, f"{rep.measured}"
        assert rep.measured <= result.certificate.bound

        assert theorem_depth(1, 0.5, 0.1) == 233
        import sympy

        expr = (sympy.E * (sympy.log(10) / sympy.Rational(1, 2) + 1)) ** 2
        assert int(sympy.ceiling(expr)) == 233
    assert watch.elapsed < 10.0
    _report(5, "exp net within 2*eps*head_l1 + tail on [-0.75,0.75]; depth formula = 233", watch)


def test_criterion_6_conversion_exactness():
    """Structural rewrites agree with their sources on 10^4 seeded points."""
    partitions = [(8,), (4, 4), (2, 2, 2, 2), (1,) * 8]
    with _Stopwatch(10.0) as watch:
        rng = np.random.default_rng(60)
        for i in range(20):
            net = make_random_skip(
                int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 6)), rng
            )
            rep = equivalence_check(net, skip_to_standard(net), net.domain, 10_000, 600 + i, 1e-9)
            assert rep.passed, f"skip_to_standard instance {i}: {rep.max_deviation}"
        for i in range(20):
            shallow = make_random_shallow(int(rng.integers(1, 4)), 8, rng)
            for part in partitions:
                deep = wide_to_deep(shallow, part)
                rep = equivalence_check(shallow, deep, shallow.domain, 10_000, 700 + i, 1e-9)
                assert rep.passed, f"wide_to_deep {part} instance {i}: {rep.max_deviation}"
        for i in range(20):
            sig = make_random_shallow(
                int(rng.integers(1, 4)), int(rng.integers(1, 9)), rng, activation="sigmoidal-step"
            )
            rep = equivalence_check(sig, sigmoidal_to_relu(sig), sig.domain, 10_000, 800 + i, 1e-12)
            assert rep.passed, f"sigmoidal_to_relu instance {i}: {rep.max_deviation}"
    assert watch.elapsed < 10.0
    _report(6, "skip->standard, wide->deep, ramp->ReLU all equivalent, 20 instances each", watch)


def test_criterion_7_calculus_structure():
    """Depth/width arithmetic, addition linearity, padding bit-exactness."""
    with _Stopwatch(20.0) as watch:
        rng = np.random.default_rng(70)
        for i in range(50):
            d = int(rng.integers(1, 4))
            w = int(rng.integers(1, 5))
            f1 = make_random_skip(d, int(rng.integers(1, 5)), w, rng)
            f2 = make_random_skip(d, int(rng.integers(1, 5)), w, rng)
            a1, a2 = rng.uniform(-2, 2, 2)
            s = add(f1, f2, a1, a2)
            assert s.depth == f1.depth + f2.depth and s.width == w
            X = s.domain.sample(300, rng)
            resid = (
                eval_skip_batch(s, X)
                - a1 * eval_skip_batch(f1, X)
                - a2 * eval_skip_batch(f2, X)
            )
            assert np.abs(resid).max() <= 1e-12

            inner = pad_width(make_random_skip(d, int(rng.integers(1, 4)), w, rng), w + 1)
            outer = make_random_skip(d + 1, int(rng.integers(1, 4)), w, rng)
            c = compose(outer, inner)
            assert c.depth == inner.depth + outer.depth
            assert c.width == inner.width

            padded = pad_width(f1, w + int(rng.integers(1, 4)))
            assert (eval_skip_batch(padded, X) == eval_skip_batch(f1, X)).all()
    _report(7, "add/compose depth and width arithmetic, linearity, bit-exact padding", watch)


def test_criterion_8_parameter_count():
    """Closed-form count versus summation over materialized arrays."""
    with _Stopwatch(20.0) as watch:
        rng = np.random.default_rng(80)
        for _ in range(100):
            M = int(rng.integers(1, 8))
            L = int(rng.integers(1, 7))
            d = int(rng.integers(1, 4))
            net = make_random_skip(d, L, M, rng)
            std = skip_to_standard(net)
            actual = count_params_standard(std)
            # the closed form charges one constant channel per deeper layer
            assert count_params(M, L, d) == actual + (M + d + 2) * (L - 1)
    _report(8, "parameter formula matches array census plus the constant-channel offset", watch)


def test_criterion_9_statistical_rate_excluded():
    """The mean-square fitting rate needs training, which is out of scope."""
    # No construction here is probabilistic; criteria 6..8 cover every
    # structural element the conversions rely on.
    _report(9, "statistical approximation rate excluded (needs fitting); covered by 6..8")


@pytest.mark.parametrize("eps", [1e-9, 1e-10])
def test_runge_certificate_holds_at_deep_eps(eps):
    """The runge certificate must hold for the floats the evaluator computes."""
    series, ref = preset_series("runge")
    result = build_analytic(series, eps, 0.25)
    net, cert = result.net, result.certificate
    rep = sup_error(net, lambda X: ref(X[:, 0]), cert.box, Uniform(2001), certificate=cert)
    assert rep.measured <= cert.bound, f"measured {rep.measured!r} is {rep.ratio:.1f}x the bound"


def _deep_eps_report(name, eps, clamp=False):
    series, ref = preset_series(name)
    result = build_analytic(series, eps, 0.25, clamp=clamp)
    cert = result.certificate
    return sup_error(result.net, lambda X: ref(X[:, 0]), cert.box, Uniform(2001), certificate=cert)


@pytest.mark.parametrize("eps", [1e-9, 1e-10])
def test_clamped_runge_certificate_holds_at_deep_eps(eps):
    """The clamped runge net keeps its certificate at depth as well."""
    rep = _deep_eps_report("runge", eps, clamp=True)
    assert rep.within_bound, f"measured {rep.measured!r} is {rep.ratio:.1f}x the bound"


@pytest.mark.parametrize("eps", [1e-11, 1e-12])
@pytest.mark.parametrize("name", ["exp", "sin"])
def test_exp_and_sin_certificates_hold_at_deep_eps(name, eps):
    """These hold with today's shifts; a new source of ranges must keep them."""
    rep = _deep_eps_report(name, eps)
    assert rep.within_bound, f"measured {rep.measured!r} is {rep.ratio:.1f}x the bound"


@lru_cache(maxsize=None)
def _grid_build(name, eps, clamp):
    return build_analytic(preset_series(name)[0], eps, 0.25, clamp=clamp)


_STANDARD_MISSES = {("runge", 1e-12, False), ("runge", 1e-8, True), ("runge", 1e-10, True),
                    ("runge", 1e-12, True)}


def _grid_cases():
    for name in ("exp", "sin", "runge"):
        for eps in (1e-3, 1e-6, 1e-8, 1e-10, 1e-12):
            for clamp in (False, True):
                for form in ("skip", "standard"):
                    marks = []
                    if form == "standard" and (name, eps, clamp) in _STANDARD_MISSES:
                        marks = [pytest.mark.xfail(
                            strict=True,
                            reason="ROADMAP item 1, slice 2: the standard form's interval "
                            "accumulator shifts swamp the float bits",
                        )]
                    yield pytest.param(name, eps, clamp, form, marks=marks,
                                       id=f"{name}-{eps:g}-clamp={clamp}-{form}")


@pytest.mark.parametrize("name, eps, clamp, form", _grid_cases())
def test_soundness_grid(name, eps, clamp, form):
    """Every analytic certificate holds for the floats of its skip and standard forms."""
    result = _grid_build(name, eps, clamp)
    net = result.net if form == "skip" else skip_to_standard(result.net)
    ref, cert = preset_series(name)[1], result.certificate
    rep = sup_error(net, lambda X: ref(X[:, 0]), cert.box, Uniform(2001), certificate=cert)
    assert rep.within_bound, f"measured {rep.measured!r} is {rep.ratio:.3g}x the bound"


def _exp2():
    """exp((x1 + x2) / 2); its degree-n coefficients sum to 1/n!, so the 1-d
    exp tail bounds its tail."""
    coeffs = {
        (i, j): 1.0 / (2 ** (i + j) * math.factorial(i) * math.factorial(j))
        for i in range(41)
        for j in range(41 - i)
    }
    series = SeriesSpec(PolySpec(2, coeffs), tail_l1_bound=preset_series("exp")[0].tail_l1_bound)
    return series, lambda X: np.exp((X[:, 0] + X[:, 1]) / 2)


def _runge2():
    """1 / (1 + (x1**2 + x2**2) / 4) = sum_j (-1/4)**j (x1**2 + x2**2)**j; its
    degree-2j coefficients sum to 2**-j, so its tail beyond degree p is
    sum_{j > p/2} (r**2 / 2)**j, r = 1 - delta."""
    coeffs = {
        (2 * a, 2 * b): (-0.25) ** (a + b) * math.comb(a + b, a)
        for a in range(21)
        for b in range(21 - a)
    }

    def tail(p, delta):
        q = (1.0 - delta) ** 2 / 2.0
        return q ** (p // 2 + 1) / (1.0 - q)

    series = SeriesSpec(PolySpec(2, coeffs), tail_l1_bound=tail)
    return series, lambda X: 1.0 / (1.0 + (X[:, 0] ** 2 + X[:, 1] ** 2) / 4.0)


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6])
@pytest.mark.parametrize("target", [_exp2, _runge2], ids=["exp2", "runge2"])
def test_2d_analytic_certificate_holds(target, eps):
    """A 2-d analytic certificate holds for the floats of its skip net."""
    series, ref = target()
    result = build_analytic(series, eps, 0.25)
    cert = result.certificate
    rep = sup_error(result.net, ref, cert.box, Uniform(65), certificate=cert, threads=2)
    assert rep.within_bound, f"measured {rep.measured!r} is {rep.ratio:.3g}x the bound"
