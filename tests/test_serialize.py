"""Document round trips and rejection paths."""

import json
import re

import numpy as np
import pytest

from relu_forge import (
    DocumentInvariantError,
    DocumentParseError,
    DocumentVersionError,
    build_monomial,
    build_multiply,
    build_square,
    deserialize_net,
    serialize_net,
    sigmoidal_to_relu,
    skip_to_standard,
    validate,
)
from relu_forge.serialize import from_document, to_document

from conftest import make_random_shallow, make_random_skip, net_bits


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

    def test_indented_document_still_loads(self):
        for net, cert in (
            build_monomial([1, 1, 2], 2, 2),
            (skip_to_standard(build_monomial([1, 2, 3], 3, 3)[0]), None),
        ):
            back, cert2 = deserialize_net(json.dumps(to_document(net, cert), indent=2))
            assert net_bits(back) == net_bits(net)
            assert net_bits(cert2) == net_bits(cert)


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

    def test_root_must_be_an_object(self):
        with pytest.raises(DocumentParseError, match="document root must be a JSON object"):
            deserialize_net("[1, 2]")

    def test_unsupported_type_has_no_document(self):
        with pytest.raises(DocumentInvariantError, match="cannot serialize type object"):
            to_document(object())
