"""JSON document format for networks and certificates.

Documents are version-tagged JSON objects with kind ``skip``, ``standard``,
or ``shallow``, written compactly on one line (``python -m json.tool``
pretty-prints one; indented documents load the same). Numbers are emitted
with full round-trip precision, so
``deserialize(serialize(net))`` reproduces every weight bit for bit. A
deserialized net is validated before it is returned; documents describing
an invalid net are rejected with the validator's diagnostics.

``serialize_net`` formats the stacked arrays straight to text, block by
block, and writes the same bytes as ``json.dumps(to_document(net))``, which
stays as the reference.
"""

from __future__ import annotations

import gc
import json

import numpy as np

from .builders import BoundCertificate
from .errors import (
    DocumentInvariantError,
    DocumentParseError,
    DocumentVersionError,
    StructuralError,
)
from .nets import (
    Box,
    ShallowNet,
    SkipNet,
    StandardNet,
    _BLOCK,
    _blocks,
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
    doc.update(_extras(net, certificate))
    return doc


def _extras(net, certificate: BoundCertificate | None) -> dict:
    """The optional last fields of a document: shifts, then the certificate."""
    extras = {}
    if getattr(net, "shifts", ()):
        extras["shifts"] = [float(s) for s in net.shifts]
    if certificate is not None:
        extras["certificate"] = {
            "lemma": certificate.lemma,
            "params": dict(certificate.params),
            "bound": certificate.bound,
            "box": certificate.box.as_pairs(),
        }
    return extras


# The writer formats the stacked arrays with %r, which is repr(float): the
# float format of json.dumps for finite values. validate proves them finite;
# every other field goes through json.dumps, which writes Infinity, not inf.
# A block of items is formatted at once: a standard net's blocks as its
# constructor stacked them, every other stack in blocks of _BLOCK floats.


def _list(item: str, count: int) -> str:
    """Template of a JSON list of ``count`` items."""
    return "[" + ", ".join([item] * count) + "]"


def _blocked(item: str, *columns):
    """(item, block) per block of at most _BLOCK floats, one item at least:
    the columns joined along their last axis. The columns share their other
    axes, and the first counts the items."""
    step = max(1, _BLOCK // max(1, sum(c[:1].size for c in columns)))
    for start in range(0, len(columns[0]), step):
        yield item, np.concatenate([c[start : start + step] for c in columns], axis=-1)


def _fields(net, certificate: BoundCertificate | None) -> tuple:
    """The head and the tail of a valid net's document, as dicts for
    json.dumps, and between them its stacked arrays: per key, the
    (item template, block) pairs of the list it holds."""
    if isinstance(net, SkipNet):
        d, w = net.input_dim, net.width
        head = {"kind": "skip", "input_dim": d, "depth": net.depth, "width": w}
        first = f'{{"w": {_list("%r", d)}, "b": %r}}'
        unit = f'{{"wx": {_list("%r", d)}, "wy": {_list("%r", w)}, "b": %r}}'
        stacks = {
            "first_layer": _blocked(first, net.first_w, net.first_b[:, None]),
            "hidden_layers": _blocked(
                _list(unit, w), net.hidden_wx, net.hidden_wy, net.hidden_b[..., None]
            ),
        }
        output = {"a0": net.out_a0, "a": net.out_a.tolist(), "beta": net.out_beta.tolist()}
        tail = {"output": output}
    elif isinstance(net, StandardNet):
        head = {"kind": "standard", "input_dim": net.input_dim, "depth": net.depth}

        def layers():
            for _, W, b in _blocks(net):
                _, r, c = W.shape
                item = f'{{"W": {_list(_list("%r", c), r)}, "b": {_list("%r", r)}}}'
                yield item, np.concatenate([W.reshape(len(W), r * c), b], axis=1)

        stacks = {"layers": layers()}
        tail = {"output": {"w": net.out_w.tolist(), "b": net.out_b}}
    else:
        head = {"kind": "shallow", "input_dim": net.input_dim}
        unit = f'{{"a": {_list("%r", net.input_dim)}, "b": %r, "c": %r}}'
        stacks = {"units": _blocked(unit, net.a, net.b[:, None], net.c[:, None])}
        tail = {"c0": net.c0, "activation": net.activation}
    head = {"version": FORMAT_VERSION, **head, "domain": net.domain.as_pairs()}
    return head, stacks, {**tail, **_extras(net, certificate)}


def _text(head: dict, stacks: dict, tail: dict) -> str:
    """The document's one line: each block of a stack fills a template of
    its items once, and the parts are joined once."""
    parts, key, template = [json.dumps(head)[:-1]], None, None
    for name, items in stacks.items():
        parts.append(f', "{name}": [')
        for i, (item, block) in enumerate(items):
            if key != (item, len(block)):  # once per run of equal blocks
                key, template = (item, len(block)), ", ".join([item] * len(block))
            parts += (", " if i else "", template % tuple(block.ravel().tolist()))
        parts.append("]")
    parts.append(", " + json.dumps(tail)[1:] + "\n")
    return "".join(parts)


def _box_from(pairs, name: str = "domain") -> Box:
    pairs = list(pairs)
    try:
        return Box(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    except StructuralError as exc:
        raise DocumentInvariantError(f"{name}: {exc}") from exc


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
    if len(first) != width:
        raise DocumentInvariantError(
            f"first layer stores {len(first)} units, declared width {width}"
        )
    for i, layer in enumerate(hidden):
        if len(layer) != width:
            raise DocumentInvariantError(
                f"hidden layer {i + 2} stores {len(layer)} units, declared width {width}"
            )
    out = doc["output"]

    def stacked(key, *shape):  # one flat list over the units of every layer
        units = [u[key] for layer in hidden for u in layer]
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
    depth = int(doc["depth"])
    layers = doc["layers"]
    if depth != len(layers):
        raise DocumentInvariantError(
            f"declared depth {depth} inconsistent with {len(layers)} stored layers"
        )
    out = doc["output"]
    return StandardNet(
        input_dim=int(doc["input_dim"]),
        layer_w=tuple([np.array(layer["W"], dtype=float) for layer in layers]),
        layer_b=tuple([np.array(layer["b"], dtype=float) for layer in layers]),
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
                box=_box_from(c["box"], "certificate box") if "box" in c else net.domain,
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
    return _text(*_fields(net, certificate))


def deserialize_net(text: str):
    """Parse JSON text back into (net, certificate or None).

    Parse failures carry the byte offset; version mismatches and invariant
    violations raise their own error types. The cyclic garbage collector is
    paused while the document is read, since a parsed document holds no
    cycle; a caller that had it off finds it off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentParseError(
                f"document parse error at byte {exc.pos}: {exc.msg}", offset=exc.pos
            ) from exc
        if not isinstance(doc, dict):
            raise DocumentParseError("document root must be a JSON object", offset=0)
        return from_document(doc)
    finally:
        if enabled:
            gc.enable()
