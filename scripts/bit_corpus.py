#!/usr/bin/env python3
"""Hash a fixed corpus of nets, to show that a change keeps every bit.

Usage:
    PYTHONPATH=src python scripts/bit_corpus.py

The corpus holds builder nets (square, multiply, monomials with and without
clamping, polynomials, among them two whose monomials share factor prefixes
with and without clamping, the analytic presets down to eps 1e-10), seeded
random skip nets, every rewrite of `relu_forge.calculus` on seeded random
operands (deep and depth 0, symmetric boxes and boxes with a zero lower
end), `skip_to_standard` of every net of depth >= 1, and `wide_to_deep` of
seeded shallow nets on random partitions. Each line is a label and the
sha256 over the net's document (`to_document`, shifts included, keys
sorted) and the bytes of `evaluate_batch` on 257 seeded points of its
domain. The line after them is the sha256 over all of them, and the next
line, ``documents <sha256>``, hashes the ``serialize_net`` text of every
net in order, so the writer's bytes can be compared too. The next line,
``certificates <sha256>``, hashes the ``serialize_net`` text of every
builder net together with its certificate, so a change to a certificate's
params or bound shows as well. The last line, ``ranges <sha256>``, hashes
`interval_bounds(net, net.domain)` of every skip net of the corpus, compose
results included, so a change to range analysis shows even where no shift
moves. Run it against two source trees and compare the output. A full run
takes about ten seconds on a 2-core machine.
"""

import hashlib
import json

import numpy as np

from relu_forge import (
    Box,
    PolySpec,
    SeriesSpec,
    ShallowNet,
    SkipNet,
    add,
    affine_net,
    build_analytic,
    build_monomial,
    build_multiply,
    build_polynomial,
    build_square,
    compose,
    evaluate_batch,
    interval_bounds,
    pad_width,
    preset_series,
    sigmoidal_to_relu,
    skip_to_standard,
    substitute_inputs,
    wide_to_deep,
)
from relu_forge.serialize import serialize_net, to_document

POINTS = 257
MONOMIALS = ([1, 2], [1, 1, 2], [1, 2, 3], [1, 1, 1, 1], [1, 2, 1, 2, 1], [2, 1, 1, 2, 2, 1], [1] * 7)
POLYNOMIALS = (
    PolySpec(2, {(0, 0): 1.0, (2, 0): -1.0, (1, 1): 0.5}),
    PolySpec(3, {(0, 0, 0): 0.25, (1, 0, 1): -0.5, (0, 2, 1): 0.75, (1, 1, 1): 0.5}),
    PolySpec(2, {(0, 0): 0.5, (1, 0): -0.25, (0, 1): 1.5}),
)
# Polynomials whose monomials share factor prefixes: x^2 inside x^4 ... x^12,
# and x1^2 inside x1^3 and x1^2 x2, which is inside x1^2 x2^2.
EVEN_HEAD = PolySpec(1, {(q,): 1.0 for q in range(2, 13, 2)})
BRANCHING_2D = PolySpec(
    2, {(3, 0): 0.5, (2, 1): -0.25, (2, 0): 1, (1, 2): 0.125, (0, 3): 0.5, (2, 2): 0.25}
)


def random_skip(d, depth, width, rng) -> SkipNet:
    u = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    return SkipNet(
        input_dim=d,
        first_w=u(width, d),
        first_b=u(width),
        hidden_wx=u(depth - 1, width, d),
        hidden_wy=u(depth - 1, width, width),
        hidden_b=u(depth - 1, width),
        out_a0=float(u(1)[0]),
        out_a=u(d),
        out_beta=u(depth, width),
        domain=Box.symmetric(d),
    )


def random_affine(d, rng) -> SkipNet:
    return affine_net(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0, d), Box.symmetric(d))


def random_box(d, rng, zero_lo: bool) -> Box:
    lo = -rng.uniform(0.25, 2.0, d)
    if zero_lo:
        lo[rng.integers(d)] = 0.0
    return Box(lo, lo + rng.uniform(0.5, 2.0, d))


def builder_nets():
    """(label, (net, certificate)) for every builder net of the corpus."""
    for L in range(1, 9):
        yield f"square L={L}", build_square(L)
        yield f"multiply L={L}", build_multiply(L)
    for factors in MONOMIALS:
        for L in (1, 2, 4):
            for clamp in (False, True):
                yield f"monomial {factors} L={L} clamp={clamp}", build_monomial(
                    factors, L, max(factors), clamp=clamp
                )
    yield "monomial [2] L=1 dim=3", build_monomial([2], 1, 3)
    for i, spec in enumerate(POLYNOMIALS):
        for L in range(1, 7):
            yield f"polynomial {i} L={L}", build_polynomial(spec, L)
    for L in range(1, 5):
        yield f"even head L={L}", build_polynomial(EVEN_HEAD, L)
        for clamp in (False, True):
            yield f"branching 2-d L={L} clamp={clamp}", build_polynomial(
                BRANCHING_2D, L, clamp=clamp
            )
    for name in ("exp", "sin", "runge"):
        for eps in (1e-3, 1e-6, 1e-8, 1e-10):
            yield f"{name} eps={eps:g}", build_analytic(preset_series(name)[0], eps, 0.25)[:2]
    yield "exp eps=1e-06 clamp=True", build_analytic(preset_series("exp")[0], 1e-6, 0.25, clamp=True)[:2]
    head = PolySpec(2, {(0, 0): 0.5, (1, 1): 0.25, (2, 1): 0.125, (2, 0): -0.25})
    series = SeriesSpec(head, tail_l1_bound=lambda p, delta: 0.0 if p >= 3 else 1.0)
    yield "finite series", build_analytic(series, 1e-2, 0.25)[:2]


def skip_nets():
    """(label, net) for every skip net of the corpus."""
    for label, (net, _) in builder_nets():
        yield label, net

    rng = np.random.default_rng(20240811)
    for i in range(40):
        d, depth, w = (int(v) for v in rng.integers(1, [4, 5, 5]))
        yield f"random {i}", random_skip(d, depth, w, rng)
    for i in range(30):
        d, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f1 = random_skip(d, int(rng.integers(1, 4)), w, rng)
        f2 = random_skip(d + 1, int(rng.integers(1, 4)), w, rng)
        g = random_skip(d, int(rng.integers(1, 4)), w, rng)
        a1, a2, a3 = random_affine(d, rng), random_affine(d, rng), random_affine(d + 1, rng)
        alpha, beta = rng.uniform(-2.0, 2.0, 2)
        e = int(rng.integers(1, 4))
        T, offset = rng.uniform(-1.0, 1.0, (d, e)), rng.uniform(-0.5, 0.5, d)
        yield f"pair {i} compose", compose(f2, pad_width(f1, w + 1))
        yield f"pair {i} compose affine inner", compose(f2, a1)
        yield f"pair {i} compose affine outer", compose(a3, f1)
        yield f"pair {i} compose affine both", compose(a3, a1)
        yield f"pair {i} add", add(f1, g, alpha, beta)
        yield f"pair {i} add affine both", add(a1, a2, alpha, beta)
        yield f"pair {i} add affine second", add(f1, a1, alpha, beta)
        yield f"pair {i} add affine first", add(a1, f1, alpha, beta)
        yield f"pair {i} substitute", substitute_inputs(f1, T, offset, Box.symmetric(e))
        yield f"pair {i} substitute affine", substitute_inputs(a1, T, offset, Box.symmetric(e))
        yield f"pair {i} substitute zero lo", substitute_inputs(
            f1, np.eye(d), np.zeros(d), random_box(d, rng, zero_lo=True)
        )
        yield f"pair {i} pad", pad_width(f1, w + 2)
        yield f"pair {i} pad affine", pad_width(a1, 3)


def shallow_nets():
    """(label, net) for the shallow sources of ``wide_to_deep``."""
    rng = np.random.default_rng(5)
    for i in range(60):
        d, units = int(rng.integers(1, 4)), int(rng.integers(1, 13))
        sigmoidal = i % 2 == 1
        s = ShallowNet(
            d, rng.normal(size=(units, d)), rng.normal(size=units), rng.normal(size=units),
            float(rng.normal()), "sigmoidal-step" if sigmoidal else "relu",
            random_box(d, rng, zero_lo=i % 5 == 0),
        )
        yield f"shallow {i}", sigmoidal_to_relu(s) if sigmoidal else s


def corpus():
    """(label, net) for every net of the corpus, in a fixed order."""
    for label, net in skip_nets():
        yield label, net
        if net.depth >= 1:
            yield f"{label} std", skip_to_standard(net)
    rng = np.random.default_rng(6)
    for label, s in shallow_nets():
        blocks = 1 if rng.integers(4) == 0 else int(rng.integers(1, s.units + 1))
        cuts = np.sort(rng.choice(np.arange(1, s.units), blocks - 1, replace=False))
        partition = np.diff([0, *cuts, s.units]).tolist()
        yield f"{label} wide_to_deep {partition}", wide_to_deep(s, partition)


def values(net) -> np.ndarray:
    return evaluate_batch(net, net.domain.sample(POINTS, np.random.default_rng(POINTS)))


def digest(net) -> str:
    doc = json.dumps(to_document(net), sort_keys=True).encode()
    return hashlib.sha256(doc + values(net).tobytes()).hexdigest()


def ranges(net) -> bytes:
    """The bytes of every array and bound of the net's range analysis."""
    rep = interval_bounds(net, net.domain)
    arrays = (*rep.pre_lo, *rep.pre_hi, *rep.post_lo, *rep.post_hi)
    bounds = np.array([*rep.term_lo, rep.out_lo, rep.out_hi])
    return b"".join(a.tobytes() for a in arrays) + bounds.tobytes()


def main() -> int:
    total, documents = hashlib.sha256(), hashlib.sha256()
    count = 0
    for label, net in corpus():
        line = f"{label}: {digest(net)}"
        print(line)
        total.update(line.encode() + b"\n")
        documents.update(serialize_net(net).encode())
        count += 1
    print(f"total over {count} nets: {total.hexdigest()}")
    print(f"documents {documents.hexdigest()}")
    certificates = hashlib.sha256()
    for _, (net, cert) in builder_nets():
        certificates.update(serialize_net(net, cert).encode())
    print(f"certificates {certificates.hexdigest()}")
    analyzed = hashlib.sha256()
    for _, net in skip_nets():
        analyzed.update(ranges(net))
    print(f"ranges {analyzed.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
