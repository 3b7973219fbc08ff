"""Property-based invariants over randomized network structures."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relu_forge import (
    BoundCertificate,
    add,
    deserialize_net,
    equivalence_check,
    eval_shallow_batch,
    eval_skip_batch,
    eval_standard_batch,
    pad_width,
    serialize_net,
    sigmoidal_to_relu,
    skip_to_standard,
    validate,
    wide_to_deep,
)
from relu_forge.nets import Box, ShallowNet, SkipNet
from relu_forge.serialize import to_document

from conftest import net_bits
from test_nets import reference_forward

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def skip_nets(draw, max_dim=3, max_depth=3, max_width=4):
    d = draw(st.integers(1, max_dim))
    depth = draw(st.integers(1, max_depth))
    width = draw(st.integers(1, max_width))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    hw = tuple(rng.uniform(-1, 1, (width, d)) for _ in range(depth - 1))
    hy = tuple(rng.uniform(-1, 1, (width, width)) for _ in range(depth - 1))
    hb = tuple(rng.uniform(-1, 1, width) for _ in range(depth - 1))
    return SkipNet(
        input_dim=d,
        first_w=rng.uniform(-1, 1, (width, d)),
        first_b=rng.uniform(-1, 1, width),
        hidden_wx=hw,
        hidden_wy=hy,
        hidden_b=hb,
        out_a0=float(rng.uniform(-1, 1)),
        out_a=rng.uniform(-1, 1, d),
        out_beta=rng.uniform(-1, 1, (depth, width)),
        domain=Box.symmetric(d),
    )


@st.composite
def skip_nets_of_any_finite_weights(draw):
    """Skip nets of depth 0 to 5 whose weights and shifts are any finite floats."""
    any_finite = st.floats(allow_nan=False, allow_infinity=False)
    d, depth = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    w = draw(st.integers(1, 4)) if depth else 0
    layers = max(depth - 1, 0)
    weights = lambda *shape: draw(arrays(np.float64, shape, elements=any_finite))
    return SkipNet(
        input_dim=d,
        first_w=weights(w, d),
        first_b=weights(w),
        hidden_wx=weights(layers, w, d),
        hidden_wy=weights(layers, w, w),
        hidden_b=weights(layers, w),
        out_a0=draw(any_finite),
        out_a=weights(d),
        out_beta=weights(depth, w),
        domain=Box.symmetric(d),
        shifts=tuple(draw(st.lists(any_finite, max_size=3))),
    )


@st.composite
def shallow_nets(draw, activation="relu"):
    d = draw(st.integers(1, 3))
    units = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return ShallowNet(
        input_dim=d,
        a=rng.normal(size=(units, d)),
        b=rng.normal(size=units),
        c=rng.normal(size=units),
        c0=float(rng.normal()),
        activation=activation,
        domain=Box.symmetric(d),
    )


@settings(max_examples=30, deadline=None)
@given(skip_nets(), st.integers(0, 3))
def test_pad_width_is_bit_exact_identity(net, extra):
    padded = pad_width(net, net.width + extra)
    assert validate(padded) == []
    X = net.domain.sample(200, np.random.default_rng(0))
    assert (eval_skip_batch(padded, X) == eval_skip_batch(net, X)).all()


@settings(max_examples=25, deadline=None)
@given(skip_nets(), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1), finite, finite)
def test_add_linearity_and_structure(f1, depth2, width2, seed, a1, a2):
    rng = np.random.default_rng(seed)
    d = f1.input_dim
    f2 = SkipNet(
        input_dim=d,
        first_w=rng.uniform(-1, 1, (width2, d)),
        first_b=rng.uniform(-1, 1, width2),
        hidden_wx=tuple(rng.uniform(-1, 1, (width2, d)) for _ in range(depth2 - 1)),
        hidden_wy=tuple(rng.uniform(-1, 1, (width2, width2)) for _ in range(depth2 - 1)),
        hidden_b=tuple(rng.uniform(-1, 1, width2) for _ in range(depth2 - 1)),
        out_a0=float(rng.uniform(-1, 1)),
        out_a=rng.uniform(-1, 1, d),
        out_beta=rng.uniform(-1, 1, (depth2, width2)),
        domain=Box.symmetric(d),
    )
    w = max(f1.width, f2.width)
    f1p, f2p = pad_width(f1, w), pad_width(f2, w)
    s = add(f1p, f2p, a1, a2)
    assert s.depth == f1.depth + f2.depth
    assert s.width == w
    X = s.domain.sample(100, np.random.default_rng(1))
    resid = eval_skip_batch(s, X) - a1 * eval_skip_batch(f1p, X) - a2 * eval_skip_batch(f2p, X)
    assert np.abs(resid).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(skip_nets(max_depth=3, max_width=4))
def test_skip_to_standard_preserves_function(net):
    std = skip_to_standard(net)
    assert validate(std) == []
    rep = equivalence_check(net, std, net.domain, 2000, 11, 1e-9)
    assert rep.passed


@settings(max_examples=20, deadline=None)
@given(skip_nets(), st.booleans())
def test_standard_form_kernel_matches_reference_bytes(net, repeat):
    if repeat:  # two copies of every block, whose units the program computes once
        net = add(net, net, 1.0, -0.5)
    std = skip_to_standard(net)
    X = net.domain.sample(100, np.random.default_rng(4))
    assert eval_standard_batch(std, X).tobytes() == reference_forward(std, X)[0].tobytes()


@settings(max_examples=20, deadline=None)
@given(shallow_nets(), st.data())
def test_wide_to_deep_preserves_function(s, data):
    # draw a composition of s.units: cut the unit range at sorted points
    cut_count = data.draw(st.integers(0, min(3, s.units - 1)))
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(1, s.units - 1),
                min_size=cut_count,
                max_size=cut_count,
                unique=True,
            )
        )
    ) if s.units > 1 else []
    bounds = [0] + cuts + [s.units]
    partition = [b - a for a, b in zip(bounds, bounds[1:])]
    deep = wide_to_deep(s, partition)
    assert validate(deep) == []
    rep = equivalence_check(s, deep, s.domain, 2000, 13, 1e-9)
    assert rep.passed


@settings(max_examples=20, deadline=None)
@given(shallow_nets(activation="sigmoidal-step"))
def test_sigmoidal_rewrite_is_exact(s):
    r = sigmoidal_to_relu(s)
    X = s.domain.sample(500, np.random.default_rng(2))
    dev = np.abs(eval_shallow_batch(s, X) - eval_shallow_batch(r, X))
    assert dev.max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(skip_nets())
def test_serialization_round_trip_bitwise(net):
    back, _ = deserialize_net(serialize_net(net))
    X = net.domain.sample(100, np.random.default_rng(3))
    assert (eval_skip_batch(back, X) == eval_skip_batch(net, X)).all()


@settings(max_examples=40, deadline=None)
@given(skip_nets_of_any_finite_weights(), st.booleans())
def test_document_text_is_the_reference_json(net, certified):
    cert = BoundCertificate("square", {"L": 2}, 0.0625, net.domain) if certified else None
    text = serialize_net(net, cert)
    assert text == json.dumps(to_document(net, cert)) + "\n"
    back, cert2 = deserialize_net(text)
    assert net_bits(back) == net_bits(net) and net_bits(cert2) == net_bits(cert)


@settings(max_examples=15, deadline=None)
@given(skip_nets())
def test_validate_clean_on_generated_nets(net):
    assert validate(net) == []
