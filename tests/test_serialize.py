"""Document round trips and rejection paths."""

import dataclasses
import gc
import json
import re

import numpy as np
import pytest

from relu_forge import (
    BoundCertificate,
    Box,
    DocumentInvariantError,
    DocumentParseError,
    DocumentVersionError,
    StandardNet,
    affine_net,
    build_monomial,
    build_multiply,
    build_square,
    deserialize_net,
    serialize_net,
    sigmoidal_to_relu,
    skip_to_standard,
    validate,
    wide_to_deep,
)
from relu_forge import serialize
from relu_forge.cli import main
from relu_forge.serialize import from_document, to_document

from conftest import make_random_shallow, make_random_skip, net_bits

# Floats whose text a writer may get wrong: the sign of zero, the least
# subnormal, the least normal, an integer past 2**53 and two inexact fractions.
AWKWARD = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 0.1, 1 / 3])


def awkward(net):
    """The net with every stored weight array tiled with AWKWARD, signs alternating."""
    def tiled(a):
        signs = np.resize([1.0, -1.0], a.size)
        return (np.resize(AWKWARD, a.size) * signs).reshape(a.shape)

    changes = {}
    for f in dataclasses.fields(net):
        value = getattr(net, f.name)
        if isinstance(value, np.ndarray):
            changes[f.name] = tiled(value)
        elif f.name in ("layer_w", "layer_b"):
            changes[f.name] = tuple(tiled(a) for a in value)
    return dataclasses.replace(net, **changes)


def standard_of_widths(widths, rng, d=2) -> StandardNet:
    """Random standard net whose layer shapes follow ``widths``."""
    dims = [d, *widths]
    return StandardNet(
        input_dim=d,
        layer_w=tuple(rng.uniform(-1, 1, (m, n)) for n, m in zip(dims, dims[1:])),
        layer_b=tuple(rng.uniform(-1, 1, m) for m in widths),
        out_w=rng.uniform(-1, 1, widths[-1]),
        out_b=0.5,
        domain=Box.symmetric(d),
    )


def first_difference(text: str, reference: str):
    """None if the texts are equal, else the first offset at which they
    differ and both texts from there; unlike pytest's diff, quick on
    megabytes."""
    if text == reference:
        return None
    at = next((i for i, (a, b) in enumerate(zip(text, reference)) if a != b), len(text))
    return at, text[at : at + 40], reference[at : at + 40]


def document_cases():
    """(label, net, certificate) for every kind and every shape of stack the
    writer cuts into blocks: depth 0 and 1, more than one block, a layer of
    more than one block's floats, shapes that change mid-stack."""
    rng = np.random.default_rng(16)
    monomial, cert = build_monomial([1, 1, 2], 2, 2)  # with shifts
    deep = make_random_skip(1, 1100, 4, rng)  # 1099 layers of 24 floats, 2 blocks
    wide = make_random_skip(1, 3, 130, rng)  # 17,160 floats per layer
    steps = standard_of_widths([3, 3, *[5] * 700, 2, 2, 1], rng)  # 700 layers of 30 floats
    shallow = make_random_shallow(2, 5, rng)
    sigmoidal = make_random_shallow(3, 7, rng, activation="sigmoidal-step")
    shallow_cert = BoundCertificate("shallow", {"units": 5, "eps": 0.1}, 1 / 3, shallow.domain)
    yield "monomial", monomial, cert
    yield "depth 0", *build_monomial([2], 3, 2)
    yield "affine", affine_net(-0.0, [0.1, 1e16], Box.symmetric(2)), None
    yield "depth 1", make_random_skip(2, 1, 3, rng), None
    yield "depth 1 square", *build_square(1)
    yield "deep", deep, None
    yield "deep with shifts", dataclasses.replace(deep, shifts=(0.5, 1e16, 0.0)), cert
    yield "wide", wide, None
    yield "standard", skip_to_standard(monomial), cert
    yield "standard shapes change", steps, None
    yield "shallow", shallow, shallow_cert
    yield "sigmoidal", sigmoidal, None
    for label, net, c in [("skip", monomial, cert), ("deep", deep, None),
                          ("standard", steps, None), ("shallow", sigmoidal, shallow_cert)]:
        yield f"awkward {label}", awkward(net), c


class TestRoundTrip:
    def test_square_weights_bit_identical(self):
        net, cert = build_square(2)
        back, cert2 = deserialize_net(serialize_net(net, cert))
        assert (back.first_w == net.first_w).all()
        assert (back.out_beta == net.out_beta).all()
        assert back.hidden_wy[0].tolist() == net.hidden_wy[0].tolist()
        assert cert2.bound == cert.bound and cert2.lemma == "square"

    def test_document_fields(self):
        net, cert = build_square(2)
        doc = json.loads(serialize_net(net, cert))
        assert doc["version"] == 1
        assert doc["kind"] == "skip"
        assert doc["depth"] == 2 and doc["width"] == 2
        assert len(doc["first_layer"]) == 2
        assert len(doc["hidden_layers"]) == 1

    def test_multiply_certificate_block(self):
        net, cert = build_multiply(3)
        doc = json.loads(serialize_net(net, cert))
        assert doc["certificate"]["bound"] == 3 * 2**-6
        assert doc["certificate"]["lemma"] == "multiply"

    def test_random_skip_round_trip(self, rng):
        for _ in range(10):
            net = make_random_skip(
                int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng
            )
            back, _ = deserialize_net(serialize_net(net))
            X = net.domain.sample(100, rng)
            from relu_forge import eval_skip_batch

            assert (eval_skip_batch(back, X) == eval_skip_batch(net, X)).all()

    def test_standard_round_trip(self):
        std = skip_to_standard(build_monomial([1, 2, 3], 3, 3)[0])
        back, _ = deserialize_net(serialize_net(std))
        assert back.widths == std.widths
        assert all((a == b).all() for a, b in zip(back.layer_w, std.layer_w))
        assert back.shifts == std.shifts

    def test_shallow_round_trip(self, rng):
        s = make_random_shallow(2, 5, rng, activation="sigmoidal-step")
        back, _ = deserialize_net(serialize_net(s))
        assert back.activation == "sigmoidal-step"
        assert (back.a == s.a).all() and back.c0 == s.c0
        assert validate(sigmoidal_to_relu(back)) == []

    def test_depth_zero_round_trip(self):
        net, cert = build_monomial([2], 3, 2)
        back, _ = deserialize_net(serialize_net(net, cert))
        assert back.depth == 0 and back.input_dim == 2

    def test_serialized_text_stable(self):
        net, cert = build_square(3)
        assert serialize_net(net, cert) == serialize_net(net, cert)

    def test_document_is_compact_json_on_one_line(self):
        net, cert = build_monomial([1, 1, 2], 2, 2)
        text = serialize_net(net, cert)
        assert text == json.dumps(to_document(net, cert)) + "\n"
        assert text.count("\n") == 1
        for label, net, cert in document_cases():
            text = serialize_net(net, cert)
            assert first_difference(text, json.dumps(to_document(net, cert)) + "\n") is None, label
            assert text.count("\n") == 1, label
            back, cert2 = deserialize_net(text)
            same = net_bits((back, cert2)) == net_bits((net, cert))  # no pytest diff of megabytes
            assert same, label

    def test_indented_document_still_loads(self):
        for net, cert in (
            build_monomial([1, 1, 2], 2, 2),
            (skip_to_standard(build_monomial([1, 2, 3], 3, 3)[0]), None),
        ):
            back, cert2 = deserialize_net(json.dumps(to_document(net, cert), indent=2))
            assert net_bits(back) == net_bits(net)
            assert net_bits(cert2) == net_bits(cert)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_reading_pauses_the_collector_and_restores_it(self, enabled, monkeypatch):
        text = serialize_net(*build_square(2))
        seen = []

        def spy(doc):
            seen.append(gc.isenabled())
            return from_document(doc)

        monkeypatch.setattr(serialize, "from_document", spy)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            deserialize_net(text)
            assert seen == [False] and gc.isenabled() is enabled
            with pytest.raises(DocumentParseError):
                deserialize_net(text[:-5])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


class TestRejection:
    def test_truncated_document_names_offset(self):
        net, _ = build_square(2)
        text = serialize_net(net)[:40]
        with pytest.raises(DocumentParseError) as err:
            deserialize_net(text)
        assert err.value.offset is not None
        assert "byte" in str(err.value)

    def test_unsupported_version(self):
        net, _ = build_square(2)
        doc = json.loads(serialize_net(net))
        doc["version"] = 99
        with pytest.raises(DocumentVersionError):
            deserialize_net(json.dumps(doc))

    def test_mismatched_layer_shape_names_layer(self):
        net, _ = build_square(3)
        doc = json.loads(serialize_net(net))
        doc["hidden_layers"][1] = doc["hidden_layers"][1][:1]
        with pytest.raises(DocumentInvariantError, match="layer 3"):
            deserialize_net(json.dumps(doc))

    def test_nonfinite_weight_rejected(self):
        net, _ = build_square(2)
        doc = json.loads(serialize_net(net))
        doc["first_layer"][0]["w"][0] = 1e400  # becomes inf through float()
        with pytest.raises(DocumentInvariantError, match="non-finite"):
            deserialize_net(json.dumps(doc))

    @pytest.mark.parametrize("pair, problem", [
        ("[1.0, -1.0]", "lo < hi"), ("[0.5, 0.5]", "lo < hi"), ("[-1.0, 1e400]", "finite"),
    ], ids=["reversed", "empty", "non-finite"])
    @pytest.mark.parametrize("field, name", [
        ('"domain": [[-1.0, 1.0]]', "domain"), ('"box": [[-1.0, 1.0]]', "certificate box"),
    ], ids=["domain", "certificate"])
    def test_bad_box_names_its_field(self, field, name, pair, problem):
        net, cert = build_square(2)
        text = serialize_net(net, cert)
        assert text.count(field) == 1
        bad = text.replace(field, field.replace("[-1.0, 1.0]", pair))
        with pytest.raises(DocumentInvariantError, match=f"^{name}: .*{problem}"):
            deserialize_net(bad)

    @pytest.mark.parametrize("command, rest", [("info", []), ("verify", ["--target", "square"])],
                             ids=["info", "verify"])
    def test_certificate_box_of_another_dimension_is_a_document_error(
        self, command, rest, tmp_path, capsys
    ):
        doc = to_document(*build_square(2))
        doc["certificate"]["box"] = [[-1.0, 1.0], [-1.0, 1.0]]  # the net reads one input
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main([command, "-i", str(path), *rest]) == 2
        err = capsys.readouterr().err
        assert err.startswith("document error: certificate box: dimension 2 != input_dim 1")

    def test_unit_with_a_weight_moved_from_wy_to_wx_rejected(self):
        # the document's float count is unchanged, so only the per-unit shapes catch it
        doc = to_document(build_square(3)[0])
        unit = doc["hidden_layers"][1][0]
        unit["wx"].append(unit["wy"].pop())
        with pytest.raises(DocumentInvariantError, match="malformed skip document"):
            from_document(doc)

    def test_valid_document_validates_cleanly(self):
        net, _ = build_multiply(2)
        back, _ = deserialize_net(serialize_net(net))
        assert validate(back) == []

    def test_invalid_net_refused_at_serialization(self, rng):
        from relu_forge import Box, SkipNet

        bad = SkipNet(
            input_dim=1,
            first_w=np.array([[np.inf]]),
            first_b=np.zeros(1),
            hidden_wx=(),
            hidden_wy=(),
            hidden_b=(),
            out_a0=0.0,
            out_a=np.zeros(1),
            out_beta=np.ones((1, 1)),
            domain=Box.symmetric(1),
        )
        with pytest.raises(DocumentInvariantError):
            serialize_net(bad)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(depth=4), "declared depth 4 inconsistent with 3 stored layers"),
            (lambda doc: doc.update(width=3), "first layer stores 2 units, declared width 3"),
            (lambda doc: doc.update(kind="recurrent"), "unknown document kind 'recurrent'"),
            (lambda doc: doc["certificate"].pop("bound"), "malformed certificate: 'bound'"),
        ],
        ids=["depth", "width", "kind", "certificate"],
    )
    def test_inconsistent_document_rejected(self, edit, message):
        doc = to_document(*build_square(3))
        edit(doc)
        with pytest.raises(DocumentInvariantError, match=re.escape(message)):
            from_document(doc)

    def test_depth_zero_document_must_declare_width_zero(self):
        doc = to_document(affine_net(0.5, [2.0], Box.symmetric(1)))
        doc["width"] = 3
        with pytest.raises(
            DocumentInvariantError, match="first layer stores 0 units, declared width 3"
        ):
            from_document(doc)

    def test_root_must_be_an_object(self):
        with pytest.raises(DocumentParseError, match="document root must be a JSON object"):
            deserialize_net("[1, 2]")

    def test_unsupported_type_has_no_document(self):
        with pytest.raises(DocumentInvariantError, match="cannot serialize type object"):
            to_document(object())


class TestStandardReader:
    """The standard reader fills each run of equal-shaped layers at once."""

    @staticmethod
    def two_shapes():
        # with d = 2 and three units per layer, layer 1 is (6, 2) and the rest (6, 6)
        shallow = make_random_shallow(2, 9, np.random.default_rng(25))
        return wide_to_deep(shallow, [3, 3, 3])

    def test_declared_depth_must_match_the_stored_layers(self):
        doc = to_document(skip_to_standard(build_square(3)[0]))
        doc["depth"] = 99
        with pytest.raises(
            DocumentInvariantError, match="declared depth 99 inconsistent with 3 stored layers"
        ):
            from_document(doc)

    def test_layers_of_two_shapes_round_trip_bit_for_bit(self):
        net = self.two_shapes()
        assert [W.shape for W in net.layer_w] == [(6, 2), (6, 6), (6, 6)]
        back, _ = deserialize_net(serialize_net(net))
        assert net_bits(back) == net_bits(net)
        assert all(not a.flags.writeable for a in (*back.layer_w, *back.layer_b))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda layers: layers[1]["W"][2].append(0.5),  # a row one weight longer
            lambda layers: layers[2]["W"][0].pop(),  # a row one weight shorter
            lambda layers: layers[1]["b"].pop(),  # a layer with fewer biases than rows
            lambda layers: layers[2]["W"].pop(),  # a layer with fewer rows than biases
        ],
        ids=["long row", "short row", "short bias", "short weights"],
    )
    def test_ragged_rows_and_layers_rejected(self, edit):
        doc = to_document(self.two_shapes())
        edit(doc["layers"])
        with pytest.raises(DocumentInvariantError):
            from_document(doc)
