"""JSON document format for networks and certificates.

Documents are version-tagged JSON objects with kind ``skip``, ``standard``,
or ``shallow``, written compactly on one line (``python -m json.tool``
pretty-prints one; indented documents load the same). Numbers are emitted
with full round-trip precision, so
``deserialize(serialize(net))`` reproduces every weight bit for bit. A
deserialized net is validated before it is returned; documents describing
an invalid net are rejected with the validator's diagnostics.
"""

from __future__ import annotations

import json

import numpy as np

from .builders import BoundCertificate
from .errors import (
    DocumentInvariantError,
    DocumentParseError,
    DocumentVersionError,
)
from .nets import (
    Box,
    ShallowNet,
    SkipNet,
    StandardNet,
    validate,
)

__all__ = ["FORMAT_VERSION", "to_document", "from_document", "serialize_net", "deserialize_net"]

FORMAT_VERSION = 1


def to_document(net, certificate: BoundCertificate | None = None) -> dict:
    """Plain-JSON dict for a net, optionally carrying its certificate."""
    doc: dict = {"version": FORMAT_VERSION}
    if isinstance(net, SkipNet):
        doc["kind"] = "skip"
        doc["input_dim"] = net.input_dim
        doc["depth"] = net.depth
        doc["width"] = net.width
        doc["domain"] = net.domain.as_pairs()
        doc["first_layer"] = [
            {"w": w, "b": b} for w, b in zip(net.first_w.tolist(), net.first_b.tolist())
        ]
        doc["hidden_layers"] = [
            [{"wx": wx, "wy": wy, "b": b} for wx, wy, b in zip(*layer)]
            for layer in zip(net.hidden_wx.tolist(), net.hidden_wy.tolist(), net.hidden_b.tolist())
        ]
        doc["output"] = {
            "a0": float(net.out_a0),
            "a": net.out_a.tolist(),
            "beta": net.out_beta.tolist(),
        }
    elif isinstance(net, StandardNet):
        doc["kind"] = "standard"
        doc["input_dim"] = net.input_dim
        doc["depth"] = net.depth
        doc["domain"] = net.domain.as_pairs()
        doc["layers"] = [
            {"W": W.tolist(), "b": b.tolist()} for W, b in zip(net.layer_w, net.layer_b)
        ]
        doc["output"] = {"w": net.out_w.tolist(), "b": float(net.out_b)}
    elif isinstance(net, ShallowNet):
        doc["kind"] = "shallow"
        doc["input_dim"] = net.input_dim
        doc["domain"] = net.domain.as_pairs()
        doc["units"] = [
            {"a": a, "b": b, "c": c}
            for a, b, c in zip(net.a.tolist(), net.b.tolist(), net.c.tolist())
        ]
        doc["c0"] = float(net.c0)
        doc["activation"] = net.activation
    else:
        raise DocumentInvariantError(f"cannot serialize type {type(net).__name__}")
    if getattr(net, "shifts", ()):
        doc["shifts"] = [float(s) for s in net.shifts]
    if certificate is not None:
        doc["certificate"] = {
            "lemma": certificate.lemma,
            "params": dict(certificate.params),
            "bound": certificate.bound,
            "box": certificate.box.as_pairs(),
        }
    return doc


def _box_from(pairs) -> Box:
    pairs = list(pairs)
    return Box(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))


def _skip_from(doc: dict) -> SkipNet:
    d = int(doc["input_dim"])
    depth = int(doc["depth"])
    width = int(doc["width"])
    first = doc["first_layer"]
    hidden = doc["hidden_layers"]
    if depth != (0 if not first else 1 + len(hidden)):
        raise DocumentInvariantError(
            f"declared depth {depth} inconsistent with {len(first) and 1 + len(hidden)} stored layers"
        )
    if first and len(first) != width:
        raise DocumentInvariantError(
            f"first layer stores {len(first)} units, declared width {width}"
        )
    for i, layer in enumerate(hidden):
        if len(layer) != width:
            raise DocumentInvariantError(
                f"hidden layer {i + 2} stores {len(layer)} units, declared width {width}"
            )
    out = doc["output"]

    def stacked(key, *shape):
        units = [[u[key] for u in layer] for layer in hidden]
        return np.array(units, dtype=float).reshape(len(hidden), width, *shape)

    return SkipNet(
        input_dim=d,
        first_w=np.array([u["w"] for u in first], dtype=float).reshape(len(first), d),
        first_b=np.array([u["b"] for u in first], dtype=float),
        hidden_wx=stacked("wx", d),
        hidden_wy=stacked("wy", width),
        hidden_b=stacked("b"),
        out_a0=float(out["a0"]),
        out_a=np.asarray(out["a"], dtype=float),
        out_beta=np.asarray(out["beta"], dtype=float).reshape(depth, width),
        domain=_box_from(doc["domain"]),
        shifts=tuple(doc.get("shifts", ())),
    )


def _standard_from(doc: dict) -> StandardNet:
    layers = doc["layers"]
    out = doc["output"]
    return StandardNet(
        input_dim=int(doc["input_dim"]),
        layer_w=tuple(np.asarray(layer["W"], dtype=float) for layer in layers),
        layer_b=tuple(np.asarray(layer["b"], dtype=float) for layer in layers),
        out_w=np.asarray(out["w"], dtype=float),
        out_b=float(out["b"]),
        domain=_box_from(doc["domain"]),
        shifts=tuple(doc.get("shifts", ())),
    )


def _shallow_from(doc: dict) -> ShallowNet:
    units = doc["units"]
    d = int(doc["input_dim"])
    return ShallowNet(
        input_dim=d,
        a=np.array([u["a"] for u in units], dtype=float).reshape(len(units), d),
        b=np.array([u["b"] for u in units], dtype=float),
        c=np.array([u["c"] for u in units], dtype=float),
        c0=float(doc["c0"]),
        activation=str(doc["activation"]),
        domain=_box_from(doc["domain"]),
    )


def from_document(doc: dict):
    """Rebuild (net, certificate or None) from a parsed document."""
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise DocumentVersionError(
            f"unsupported document version {version!r}; this build reads version {FORMAT_VERSION}"
        )
    kind = doc.get("kind")
    builders = {"skip": _skip_from, "standard": _standard_from, "shallow": _shallow_from}
    if kind not in builders:
        raise DocumentInvariantError(f"unknown document kind {kind!r}")
    try:
        net = builders[kind](doc)
    except DocumentInvariantError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DocumentInvariantError(f"malformed {kind} document: {exc}") from exc
    problems = validate(net)
    if problems:
        raise DocumentInvariantError("; ".join(problems), diagnostics=problems)
    cert = None
    if "certificate" in doc:
        c = doc["certificate"]
        try:
            cert = BoundCertificate(
                lemma=str(c["lemma"]),
                params=dict(c["params"]),
                bound=float(c["bound"]),
                box=_box_from(c["box"]) if "box" in c else net.domain,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentInvariantError(f"malformed certificate: {exc}") from exc
    return net, cert


def serialize_net(net, certificate: BoundCertificate | None = None) -> str:
    """JSON text for a net; refuses nets that fail validation."""
    problems = validate(net)
    if problems:
        raise DocumentInvariantError(
            "refusing to serialize an invalid net: " + "; ".join(problems),
            diagnostics=problems,
        )
    return json.dumps(to_document(net, certificate)) + "\n"


def deserialize_net(text: str):
    """Parse JSON text back into (net, certificate or None).

    Parse failures carry the byte offset; version mismatches and invariant
    violations raise their own error types.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(
            f"document parse error at byte {exc.pos}: {exc.msg}", offset=exc.pos
        ) from exc
    if not isinstance(doc, dict):
        raise DocumentParseError("document root must be a JSON object", offset=0)
    return from_document(doc)
