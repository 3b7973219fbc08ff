"""Constructive compilers from target functions to skip-form ReLU nets.

Each builder returns a net together with a ``BoundCertificate`` recording
the closed-form sup-norm guarantee its parameters entail:

* squaring: ``4**-L`` on [-1, 1] with depth L, width 2
* product: ``3 * 4**-L`` on [-1, 1]^2 with depth 3L, width 2
* degree-p monomial: ``3 * (p-1) * 4**-L`` with depth 3(p-1)L
* polynomial: the monomial bound times the coefficient l1 mass
* analytic (power series): ``2 * eps * l1`` on the delta-shrunk box

The table ``_BOUNDS`` holds these closed forms, once: every builder makes its
certificate from it, and ``theoretical_bound`` recomputes bounds from it.

The squaring net is the piecewise-linear interpolant of x**2 on the dyadic
grid of spacing ``2**(1-L)``, built from one absolute-value layer followed
by tent-map compositions; its error is exactly ``4**-L``, attained at the
odd multiples of ``2**-L``. Products reduce to three squarings through
``xy = 2((x+y)/2)**2 - x**2/2 - y**2/2``, monomials iterate the product
construction one factor at a time, and polynomials sum monomial nets with
their coefficients. An analytic head builds one chain per factor list that
is a prefix of no other and reads each term where that chain carries it.

All constructed weights are dyadic rationals, so building introduces no
floating-point rounding, except that a tapped analytic head rounds each
``a_k * shift`` of a term read at a tap into ``out_a0``; otherwise only
evaluation does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .calculus import _sum, add, compose, pad_width, substitute_inputs
from .errors import (
    NoFreeChannelError,
    ParameterError,
    SeriesTruncationError,
    StructuralError,
)
from .nets import Box, SkipNet, affine_net

__all__ = [
    "BoundCertificate",
    "theoretical_bound",
    "PolySpec",
    "SeriesSpec",
    "AnalyticBuild",
    "build_square",
    "build_multiply",
    "build_monomial",
    "build_polynomial",
    "build_analytic",
    "theorem_depth",
    "monomial_count",
    "multi_index_degree",
    "expand_multi_index",
    "preset_series",
    "PRESET_NAMES",
]


def multi_index_degree(k) -> int:
    return int(sum(k))


def monomial_count(p: int, d: int) -> int:
    """Number of monomials in d variables of degree at most p."""
    if p < 0 or d < 1:
        raise ParameterError("monomial_count requires p >= 0 and d >= 1")
    return math.comb(p + d, d)


@dataclass(frozen=True)
class BoundCertificate:
    """Machine-checkable sup-norm guarantee attached to a constructed net.

    ``bound`` always equals the closed form of ``params`` that the table
    ``_BOUNDS`` gives for ``lemma`` (see ``theoretical_bound``); ``box`` is
    where the guarantee holds.
    """

    lemma: str
    params: dict
    bound: float
    box: Box

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "bound", float(self.bound))


def _chain_error(p, L):
    """Error of a chain of p - 1 products, each of depth 3L: ``3 (p-1) 4**-L``."""
    return 3.0 * (p - 1) * 2.0 ** (-2 * L)


# The closed form of each lemma: the certificate parameters it reads, in
# order, and the bound as a function of them.
_BOUNDS = {
    "square": (("L",), lambda L: 2.0 ** (-2 * L)),
    "multiply": (("L",), lambda L: _chain_error(2, L)),
    "monomial": (("p", "L"), _chain_error),
    "polynomial": (
        ("p", "L", "coeff_l1"),
        lambda p, L, l1: _chain_error(p, L) * l1 if p >= 2 else 0.0,
    ),
    "analytic": (("eps", "coeff_l1"), lambda eps, l1: 2.0 * eps * l1),
}


def _bound(lemma: str, params) -> float:
    if lemma not in _BOUNDS:
        raise StructuralError(f"unknown certificate tag {lemma!r}")
    names, form = _BOUNDS[lemma]
    for name in names:
        value = params.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            got = repr(value) if name in params else "nothing"
            raise StructuralError(f"{lemma} certificate: {name!r} needs a number, got {got}")
    return form(*(params[name] for name in names))


def theoretical_bound(cert: BoundCertificate) -> float:
    """Recompute the closed-form bound from the certificate's parameters.

    Must equal ``cert.bound`` exactly for every certificate the builders
    produce; any mismatch means a corrupted certificate. Raises
    ``StructuralError`` for an unknown lemma, or for a parameter of its closed
    form that is missing or not a number.
    """
    return _bound(cert.lemma, cert.params)


def _certificate(lemma: str, box: Box, **params) -> BoundCertificate:
    """Certificate of ``lemma`` on ``box``: params in keyword order, the table's bound."""
    return BoundCertificate(lemma, params, _bound(lemma, params), box)


# ---------------------------------------------------------------------------
# Polynomial and series specifications


@dataclass(frozen=True)
class PolySpec:
    """Multivariate polynomial as a map from exponent tuples to coefficients.

    Zero coefficients are dropped on construction. ``degree`` is the largest
    total degree among stored terms (0 for the empty spec).
    """

    input_dim: int
    coeffs: dict

    def __post_init__(self):
        clean = {}
        for k, a in dict(self.coeffs).items():
            k = tuple(int(e) for e in k)
            if len(k) != self.input_dim:
                raise ParameterError(
                    f"exponent tuple {k} does not match input_dim {self.input_dim}"
                )
            if any(e < 0 for e in k):
                raise ParameterError(f"negative exponent in {k}")
            a = float(a)
            if not math.isfinite(a):
                raise ParameterError(f"non-finite coefficient for {k}")
            if a != 0.0:
                clean[k] = a
        object.__setattr__(self, "coeffs", MappingProxyType(clean))

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(multi_index_degree(k) for k in self.coeffs)

    @property
    def coeff_l1(self) -> float:
        return float(sum(abs(a) for a in self.coeffs.values()))

    def truncated(self, p: int) -> "PolySpec":
        return PolySpec(
            self.input_dim,
            {k: a for k, a in self.coeffs.items() if multi_index_degree(k) <= p},
        )

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Exact evaluation on an (n, d) array; the test oracle for builders."""
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0])
        for k in sorted(self.coeffs):
            term = np.full(X.shape[0], self.coeffs[k])
            for i, e in enumerate(k):
                if e:
                    term *= X[:, i] ** e
            out += term
        return out


def expand_multi_index(k) -> list:
    """Exponent tuple to a 1-based factor list: x1 repeated k1 times, then x2."""
    out = []
    for i, e in enumerate(k):
        out.extend([i + 1] * int(e))
    return out


@dataclass(frozen=True)
class SeriesSpec:
    """Power series given by explicit head coefficients plus a tail bound.

    ``tail_l1_bound(p, delta)`` must bound the remainder ``sum over |k| > p``
    of ``|a_k| (1 - delta)^|k|`` on the delta-shrunk box and be non-increasing
    in p. When absent, truncation degrees fall back to the generic
    ``ceil(log(1/eps) / delta)`` rule.
    """

    head: PolySpec
    tail_l1_bound: Callable | None = None

    @property
    def coeff_l1(self) -> float:
        return self.head.coeff_l1


# ---------------------------------------------------------------------------
# Squaring


def build_square(L: int):
    """Depth-L, width-2 net interpolating x**2 on [-1, 1].

    Layer 1 splits x into ReLU(x), ReLU(-x); each further layer applies the
    tent map to the running sawtooth pair. The output subtracts the scaled
    sawtooth corrections from |x|, yielding the piecewise-linear interpolant
    of the parabola at spacing ``2**(1-L)``. Certified error ``4**-L``,
    attained exactly at odd multiples of ``2**-L``.
    """
    L = int(L)
    if L < 1:
        raise ParameterError(f"build_square requires L >= 1, got {L}")
    box = Box.symmetric(1)
    first_w = np.array([[1.0], [-1.0]])
    first_b = np.zeros(2)
    # layer 2 sums the pair; each later layer applies the tent map
    hidden_wy = np.tile([[2.0, -4.0], [2.0, -4.0]], (L - 1, 1, 1))
    hidden_wy[:1] = 1.0
    beta = np.zeros((L, 2))
    beta[0] = (1.0, 1.0)
    for l in range(1, L):
        scale = 4.0 ** (-l)
        beta[l] = (-2.0 * scale, 4.0 * scale)
    net = SkipNet(
        input_dim=1,
        first_w=first_w,
        first_b=first_b,
        hidden_wx=np.zeros((L - 1, 2, 1)),
        hidden_wy=hidden_wy,
        hidden_b=np.tile([0.0, -0.5], (L - 1, 1)),
        out_a0=0.0,
        out_a=np.zeros(1),
        out_beta=beta,
        domain=box,
    )
    return net, _certificate("square", box, L=L)


# ---------------------------------------------------------------------------
# Products


def _reading(net: SkipNet, columns, d: int) -> SkipNet:
    """``net`` over [-1, 1]^d, its i-th input reading x[columns[i]] (0-based)."""
    T = np.eye(d)[columns]
    return substitute_inputs(net, T, np.zeros(len(columns)), Box.symmetric(d))


def build_multiply(L: int):
    """Depth-3L, width-2 net approximating xy on [-1, 1]^2.

    Three squaring blocks evaluated at (x+y)/2, x, and y are stacked with
    output weights 2, -1/2, -1/2. Certified error ``3 * 4**-L``.
    """
    L = int(L)
    if L < 1:
        raise ParameterError(f"build_multiply requires L >= 1, got {L}")
    box = Box.symmetric(2)
    sq, _ = build_square(L)
    mean = substitute_inputs(sq, [[0.5, 0.5]], [0.0], box)
    left, right = _reading(sq, [0], 2), _reading(sq, [1], 2)
    net = add(add(mean, left, 2.0, -0.5), right, 1.0, -0.5)
    return net, _certificate("multiply", box, L=L)


# ---------------------------------------------------------------------------
# Monomials


def _lifted_multiply(L: int, input_dim: int, factor: int) -> SkipNet:
    """Product net over (v, x) reading its second operand from x[factor-1]."""
    return _reading(build_multiply(L)[0], [0, factor], input_dim + 1)


def _lifted_clamp(input_dim: int) -> SkipNet:
    """One-layer net over (v, x) computing v clipped to [-1, 1]."""
    clamp = SkipNet(
        input_dim=1,
        first_w=np.array([[1.0], [1.0]]),
        first_b=np.array([1.0, -1.0]),
        hidden_wx=(),
        hidden_wy=(),
        hidden_b=(),
        out_a0=-1.0,
        out_a=np.zeros(1),
        out_beta=np.array([[1.0, -1.0]]),
        domain=Box.symmetric(1),
    )
    return _reading(clamp, [0], input_dim + 1)


_CHAIN_SHIFTS = (4.0, 2.0)  # (partial, carry), declared on the chains composed onto


def _proven_chain_error(n: int, L: int) -> Fraction:
    """Bound e_n on |v - P|, v an unclamped chain of n factors, P its product.

    On [-1, 1] the square block S interpolates t**2 at spacing h = 2**(1-L):
    S - t**2 is in [0, 4**-L] and S' in [2t - h, 2t + h]. For 1 < |t| < 2,
    S(t) is |t| at L = 1, else 1.5|t| - 0.5. So a stage
    m(u, x) = 2 S((u+x)/2) - S(u)/2 - S(x)/2 errs by -4**-L .. 2 4**-L at
    |u|, |x| <= 1, and its slope in u, S'((u+x)/2) - S'(u)/2, is x +- 3h/2
    there and at most 5/4 in size for 1 < |u| < 2. While e_(n-1) < 1,
    e_n <= 2 4**-L + K e_(n-1), K = max(5/4, 1 + 3 2**-L), from e_1 = 0:
    e_n <= 2 4**-L (K**(n-1) - 1) / (K - 1).
    """
    K = max(Fraction(5, 4), 1 + Fraction(3, 2**L))
    return Fraction(2, 4**L) * (K ** (n - 1) - 1) / (K - 1)


def _compose_grow(outer: SkipNet, inner: SkipNet, declare: bool) -> SkipNet:
    """Compose, widening the chain by one unit when threading needs room.

    Chains up to three factors fit width 3. Longer chains occupy the spare
    channel with the carried value while the stage's output coefficients are
    still live, so one extra unit of width is required from the fourth
    factor on; composition then alternates the freed channels and the width
    stays put. One retry is enough: a padded unit has no weights and no
    output coefficient, so one more unit of width always frees a channel.

    ``declare`` hands over the inner net with ``_CHAIN_SHIFTS``, so its
    running output partial is shifted by 4 and its value by 2. That is
    sound for a clamp, whose value is in [-1, 1] and whose partial is not
    threaded, and for a product chain within e < 1 of its product: its head
    is zero and its terms are its last stage's square blocks, weighted 2,
    -1/2 and -1/2, reading (u+x)/2, u and x with |u| <= 1 + e < 2. A block's
    running partial is in [0, |t|] for |t| <= 1 and in [0, 2.5) for
    |t| < 2, so the chain's stays above -2.5/2 - 1/2 > -4, and its value
    in (-2, 2). A clamped chain's stages read |u| <= 1; an unclamped one is
    declared while ``_proven_chain_error`` of the chain built is below 1.
    """
    def declared(width):
        f1 = replace(pad_width(inner, width))
        object.__setattr__(f1, "chain_shifts", _CHAIN_SHIFTS if declare else None)
        return f1

    target = max(3, inner.width)
    try:
        return compose(pad_width(outer, target - 1), declared(target))
    except NoFreeChannelError:
        return compose(pad_width(outer, target), declared(target + 1))


def _monomial_chain(indices, L: int, d: int, clamp: bool, chains: dict) -> tuple:
    """Unpadded product chain for two or more checked factors, and its taps.

    Tap n - 2 is the ``(row, unit, shift)`` that carries the chain's value
    after n factors, clamped if the chain is: ``compose`` holds the inner
    value, shifted, in unit ``width - 1`` of row ``inner.depth``.

    Resumes from the longest factor tuple in ``chains`` that is a prefix of
    ``indices`` and stores the result and its taps under ``tuple(indices)``.
    A chain is a pure function of its factors, L, d and clamp, so a resumed
    chain is the same net the full loop would build, and it keeps its
    prefix's taps: compose stacks the inner layers first.
    """
    key = tuple(indices)
    start = next((n for n in range(len(key), 1, -1) if key[:n] in chains), None)
    if start is None:
        net, taps = _reading(build_multiply(L)[0], [key[0] - 1, key[1] - 1], d), ()
        start = 2
    else:
        net, taps = chains[key[:start]]
    for n, factor in enumerate(key[start:], start + 1):
        if clamp:
            net = _compose_grow(_lifted_clamp(d), net, declare=True)
        declare = clamp or _proven_chain_error(n, L) < 1
        row = net.depth
        net = _compose_grow(_lifted_multiply(L, d, factor), net, declare)
        taps += ((row, net.width - 1, net.shifts[-1]),)
    chains[key] = net, taps
    return net, taps


def build_monomial(indices, L: int, input_dim: int, clamp: bool = False):
    """Net approximating the product of the selected coordinates.

    ``indices`` lists 1-based factors, repeats allowed, e.g. (1, 1, 2) for
    x1*x1*x2. Each factor beyond the second composes a product stage onto
    the running chain, giving depth ``3 * (p-1) * L`` for p factors and a
    certified error of ``3 * (p-1) * 4**-L`` on [-1, 1]^d.

    ``clamp=True`` inserts one extra layer after each intermediate stage
    that clips the carried value back to [-1, 1], guarding against the
    slight range overshoot of inner stages at the cost of one layer per
    clamp (depth grows by p-2).
    """
    indices = [int(i) for i in indices]
    L = int(L)
    p = len(indices)
    if p < 1:
        raise ParameterError("build_monomial requires at least one factor")
    if L < 1:
        raise ParameterError(f"build_monomial requires L >= 1, got {L}")
    if input_dim < 1:
        raise ParameterError("input_dim must be positive")
    for i in indices:
        if not 1 <= i <= input_dim:
            raise ParameterError(f"factor index {i} outside 1..{input_dim}")
    box = Box.symmetric(input_dim)
    cert = _certificate("monomial", box, p=p, L=L, d=input_dim)
    if p == 1:
        a = np.zeros(input_dim)
        a[indices[0] - 1] = 1.0
        return affine_net(0.0, a, box), cert
    net, _ = _monomial_chain(indices, L, input_dim, clamp, {})
    if net.width < 3:
        net = pad_width(net, 3)
    return net, cert


# ---------------------------------------------------------------------------
# Polynomials


def _head(spec: PolySpec, L: int, clamp: bool, tap: bool) -> SkipNet:
    """Net of the spec: constant and degree-1 terms in the output map, and a
    product chain per term of degree 2 or more, in exponent order, resumed
    from the longest earlier one whose factor list prefixes its own. Summed,
    each chain is weighted by its coefficient. Tapped, a factor list sorts
    just before its extensions, so a term whose next one extends it is read
    at a tap of the next one's chain, which is then kept in its place. The
    chains are padded to one width before they are scaled, so a padded zero
    takes the coefficient's sign as a stored one does, and summed at once."""
    d = spec.input_dim
    a0 = spec.coeffs.get((0,) * d, 0.0)
    avec = [spec.coeffs.get(tuple(k), 0.0) for k in np.eye(d, dtype=int).tolist()]
    cache, chains = {}, []
    for k in sorted(k for k in spec.coeffs if multi_index_degree(k) >= 2):
        factors, reads = expand_multi_index(k), []
        if tap and chains and factors[: len(chains[-1][0])] == chains[-1][0]:
            prev, a, _, reads = chains.pop()
            reads.append((a, len(prev)))
        chain = _monomial_chain(factors, L, d, clamp, cache)
        chains.append((factors, spec.coeffs[k], chain, reads))
    width = max([3] + [chain.width for _, _, (chain, _), _ in chains])
    terms = [(1.0, affine_net(a0, avec, Box.symmetric(d)))]
    for _, a, (chain, taps), reads in chains:
        chain = pad_width(chain, width)
        beta, out_a0 = a * chain.out_beta, a * chain.out_a0
        for a_k, n in reads:  # a tap carries the value of n factors, shifted
            row, unit, shift = taps[n - 2]
            beta[row, unit] += a_k
            out_a0 -= a_k * shift
        terms.append((1.0, replace(chain, out_a0=out_a0, out_a=a * chain.out_a, out_beta=beta)))
    return _sum(terms)


def build_polynomial(spec: PolySpec, L: int, clamp: bool = False):
    """Sum of monomial nets weighted by the polynomial's coefficients.

    Constant and degree-1 terms fold into the output affine map and cost no
    layers; each degree-q term with q >= 2 contributes a monomial net of
    depth ``3 (q-1) L``, and all of them are summed in one step, in
    lexicographic exponent order. Certified error ``3 (p-1) 4**-L`` times
    the total coefficient mass, p the degree. Monomials share their chains'
    prefixes as they are built, and the net is the same, bit for bit, as the
    sum of separately built monomials.
    """
    L = int(L)
    if L < 1:
        raise ParameterError(f"build_polynomial requires L >= 1, got {L}")
    if not spec.coeffs:
        raise ParameterError("empty polynomial specification")
    d = spec.input_dim
    cert = _certificate("polynomial", Box.symmetric(d), p=spec.degree, L=L, d=d,
                        coeff_l1=spec.coeff_l1)
    return _head(spec, L, clamp, tap=False), cert


# ---------------------------------------------------------------------------
# Analytic functions via truncated power series


class AnalyticBuild(NamedTuple):
    net: SkipNet
    certificate: BoundCertificate
    truncation_degree: int
    stage_depth: int


def theorem_depth(d: int, delta: float, eps: float) -> int:
    """Depth at which the fixed-width analytic guarantee reaches accuracy eps.

    Returns ``ceil((e * (log(1/eps) / (d * delta) + 1)) ** (2 d))`` with the
    natural logarithm. Grows doubly exponentially in d; intended for small d.
    """
    d = int(d)
    if d < 1:
        raise ParameterError("theorem_depth requires d >= 1")
    if not 0.0 < delta < 1.0:
        raise ParameterError("theorem_depth requires 0 < delta < 1")
    if not 0.0 < eps < 1.0:
        raise ParameterError("theorem_depth requires 0 < eps < 1")
    base = math.e * (math.log(1.0 / eps) / (d * delta) + 1.0)
    return math.ceil(base ** (2 * d))


def build_analytic(series: SeriesSpec, eps: float, delta: float, clamp: bool = False):
    """Fixed-width net approximating an absolutely convergent power series.

    Picks the truncation degree p as ``ceil(log(1/eps) / delta)``, or smaller
    when the supplied tail bound already reaches ``eps * l1`` earlier, then
    picks the smallest per-stage depth L with
    ``3 (p-1) 2**(-2L) * head_l1 <= eps * l1`` and compiles the truncated
    head tapped along its chains: in 1-d one chain to x^q, q the head's
    degree, of depth ``3 (q-1) L``. Each tap errs by at most the chain's
    error, so the certificate grants total error below ``2 * eps * l1`` on
    the delta-shrunk box, splitting the budget evenly between truncation and
    polynomial approximation.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError("build_analytic requires 0 < eps < 1")
    if not 0.0 < delta < 1.0:
        raise ParameterError("build_analytic requires 0 < delta < 1")
    l1 = series.coeff_l1
    if l1 <= 0.0:
        raise ParameterError("series has no stored coefficients")
    p = math.ceil(math.log(1.0 / eps) / delta)
    if series.tail_l1_bound is not None:
        for q in range(0, p):
            if series.tail_l1_bound(q, delta) <= eps * l1:
                p = q
                break
    head_degree = series.head.degree
    if p > head_degree:
        raise SeriesTruncationError(
            f"series head stores degrees up to {head_degree}; truncation order "
            f"{p} requires the degree-{head_degree + 1} coefficient"
        )
    head = series.head.truncated(p)
    stage_depth = 1
    if p >= 2:
        head_l1 = head.coeff_l1
        while _chain_error(p, stage_depth) * head_l1 > eps * l1:
            stage_depth += 1
            if stage_depth > 64:
                raise ParameterError("stage depth search exceeded 64 levels")
    d = series.head.input_dim
    net = _head(head, stage_depth, clamp, tap=True)  # an empty head makes the zero net
    shrunk = Box(np.full(d, -1.0 + delta), np.full(d, 1.0 - delta))
    cert = _certificate("analytic", shrunk, d=d, delta=float(delta), eps=float(eps),
                        coeff_l1=l1, p=p, stage_depth=stage_depth)
    return AnalyticBuild(net, cert, p, stage_depth)


# ---------------------------------------------------------------------------
# Built-in series with closed-form tail bounds


def _exp_tail(p: int, delta: float) -> float:
    """Upper bound on sum_{k > p} r^k / k! with r = 1 - delta."""
    r = 1.0 - delta
    total = 0.0
    term = r ** (p + 1) / math.factorial(p + 1)
    k = p + 1
    while term > 1e-320 and k < p + 400:
        total += term
        k += 1
        term *= r / k
    # geometric closure of the dropped remainder
    total += term / (1.0 - r / (k + 1))
    return total


def _sin_tail(p: int, delta: float) -> float:
    """Upper bound on the odd-degree factorial tail beyond degree p."""
    r = 1.0 - delta
    k = p + 1 if (p + 1) % 2 == 1 else p + 2
    total = 0.0
    term = r**k / math.factorial(k)
    while term > 1e-320 and k < p + 400:
        total += term
        k += 2
        term *= r * r / ((k - 1) * k)
    total += term / (1.0 - r * r / ((k + 1) * (k + 2)))
    return total


def _runge_tail(p: int, delta: float) -> float:
    """Exact geometric tail of sum_j (r^2 / 4)^j beyond degree p, r = 1 - delta."""
    q = (1.0 - delta) ** 2 / 4.0
    j0 = p // 2 + 1
    return q**j0 / (1.0 - q)


_PRESET_DEGREE = 40


def _exp_series() -> SeriesSpec:
    coeffs = {(k,): 1.0 / math.factorial(k) for k in range(_PRESET_DEGREE + 1)}
    return SeriesSpec(PolySpec(1, coeffs), tail_l1_bound=_exp_tail)


def _sin_series() -> SeriesSpec:
    coeffs = {
        (k,): (-1.0) ** ((k - 1) // 2) / math.factorial(k)
        for k in range(1, _PRESET_DEGREE + 1, 2)
    }
    return SeriesSpec(PolySpec(1, coeffs), tail_l1_bound=_sin_tail)


def _runge_series() -> SeriesSpec:
    coeffs = {(2 * j,): (-0.25) ** j for j in range(_PRESET_DEGREE // 2 + 1)}
    return SeriesSpec(PolySpec(1, coeffs), tail_l1_bound=_runge_tail)


_PRESETS = {
    "exp": (_exp_series, np.exp),
    "sin": (_sin_series, np.sin),
    "runge": (_runge_series, lambda x: 1.0 / (1.0 + x * x / 4.0)),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_series(name: str):
    """Named 1-d analytic targets: (SeriesSpec, reference callable on x)."""
    try:
        make, ref = _PRESETS[name]
    except KeyError:
        raise ParameterError(
            f"unknown series preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    return make(), ref
