"""Command-line front end.

Subcommands: build, convert, eval, verify, sweep, info. Exit codes: 0 on
success, 1 when a verification assertion fails (bound exceeded, equivalence
broken, sweep ratio above one), 2 for usage, input, or I/O problems.

Verification targets are named built-ins: ``square``, ``multiply``,
``monomial:i1,i2,..`` (1-based factors), ``poly:k1,..,kd:coeff;..``, and
the analytic presets ``exp``, ``sin``, ``runge``. ``build square``,
``multiply``, ``monomial`` and ``poly`` name the same targets: ``--indices``
is the ``monomial:`` factor list, ``--coeffs`` the ``poly:`` spec, and a
``--dim`` other than the built net's input dimension is a usage error (only
``monomial`` builds nets wider than its factors need). Grid parallelism comes
from ``--threads`` (default: all cores, overridable through the
``RELU_FORGE_THREADS`` environment variable); a count below 1 is a usage
error, and results are identical for every thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .builders import (
    PRESET_NAMES,
    PolySpec,
    build_analytic,
    build_monomial,
    build_multiply,
    build_polynomial,
    build_square,
    preset_series,
)
from .calculus import (
    count_params,
    count_params_standard,
    sigmoidal_to_relu,
    skip_to_standard,
    wide_to_deep,
)
from .errors import DocumentError, ParameterError, ReluForgeError
from .nets import Box, ShallowNet, SkipNet, StandardNet, _program, evaluate
from .serialize import deserialize_net, serialize_net
from .verify import (
    DyadicMidpoints,
    RandomPoints,
    Uniform,
    convergence_sweep,
    sup_error,
    sweep_csv,
    theoretical_bound,
)

USAGE_ERROR = 2
VERIFY_FAILURE = 1


def _threads(flag) -> int:
    """Evaluation threads: ``--threads``, else ``RELU_FORGE_THREADS``, else
    all cores. A count below 1 from either source is a usage error."""
    source, threads = "--threads", flag
    if threads is None:
        env = os.environ.get("RELU_FORGE_THREADS")
        if not env:
            return os.cpu_count() or 1
        try:
            source, threads = "RELU_FORGE_THREADS", int(env)
        except ValueError:
            raise ParameterError(f"RELU_FORGE_THREADS must be an integer, got {env!r}")
    if threads < 1:
        raise ParameterError(f"{source} must be at least 1, got {threads}")
    return threads


def _parse_floats(text: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ParameterError(f"expected comma-separated numbers, got {text!r}")


def _parse_ints(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ParameterError(f"expected comma-separated integers, got {text!r}")


def _parse_poly(text: str) -> PolySpec:
    """Inline polynomial syntax: ``k1,..,kd:coeff;k1,..,kd:coeff;..``."""
    coeffs = {}
    dim = None
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParameterError(f"polynomial term {part!r} lacks ':coefficient'")
        ks, _, cs = part.rpartition(":")
        k = tuple(_parse_ints(ks))
        if dim is None:
            dim = len(k)
        elif len(k) != dim:
            raise ParameterError("polynomial terms disagree on dimension")
        try:
            coeffs[k] = coeffs.get(k, 0.0) + float(cs)
        except ValueError:
            raise ParameterError(f"bad coefficient {cs!r}")
    if not coeffs or dim is None:
        raise ParameterError("empty polynomial specification")
    return PolySpec(dim, coeffs)


def _parse_strategy(text: str):
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "uniform" and len(parts) == 2:
            return Uniform(int(parts[1]))
        if kind == "dyadic" and len(parts) == 2:
            return DyadicMidpoints(int(parts[1]))
        if kind == "random" and len(parts) == 3:
            return RandomPoints(int(parts[1]), int(parts[2]))
    except ValueError:
        pass
    raise ParameterError(
        f"bad strategy {text!r}; use uniform:N, dyadic:L, or random:N:SEED"
    )


def _parse_depth_range(text: str) -> list:
    if ":" in text:
        a, _, b = text.partition(":")
        try:
            lo, hi = int(a), int(b)
        except ValueError:
            raise ParameterError(f"bad depth range {text!r}")
        if hi < lo:
            raise ParameterError(f"empty depth range {text!r}")
        return list(range(lo, hi + 1))
    return _parse_ints(text)


def _target(name: str, input_dim: int | None = None, clamp: bool = False):
    """(build(L) or None, reference, dim) for a named target.

    ``build``, ``verify`` and ``sweep`` all resolve targets here.
    ``reference`` is vectorized over (n, dim) arrays; ``build`` is None for
    the analytic presets, which ``sweep`` cannot run. ``input_dim`` is the
    net's when verifying and ``--dim`` when building; left out, dim is what
    the target needs. ``clamp`` reaches the monomial and polynomial builders.
    """
    need = lambda k: k if input_dim is None else input_dim
    if name == "square":
        return build_square, (lambda X: X[:, 0] ** 2), need(1)
    if name == "multiply":
        dim = need(2)
        if dim < 2:
            raise ParameterError("multiply target needs two inputs")
        return build_multiply, (lambda X: X[:, 0] * X[:, 1]), dim
    if name.startswith("monomial:"):
        factors = _parse_ints(name.split(":", 1)[1])
        dim, idx = need(max(factors, default=0)), np.array(factors) - 1
        if idx.size == 0 or idx.min() < 0 or idx.max() >= dim:
            raise ParameterError(f"monomial factors out of range for dimension {dim}")
        build = lambda L: build_monomial(factors, L, dim, clamp=clamp)
        return build, (lambda X: np.prod(X[:, idx], axis=1)), dim
    if name.startswith("poly:"):
        spec = _parse_poly(name.split(":", 1)[1])
        dim = need(spec.input_dim)
        if spec.input_dim > dim:
            raise ParameterError(f"polynomial has more variables than dimension {dim}")
        return (lambda L: build_polynomial(spec, L, clamp=clamp)), spec, dim
    if name in PRESET_NAMES:
        _, ref = preset_series(name)
        return None, (lambda X: ref(X[:, 0])), need(1)
    raise ParameterError(
        f"unknown target {name!r}; use square, multiply, monomial:.., poly:.., "
        f"or one of {', '.join(PRESET_NAMES)}"
    )


def _default_resolution(dim: int) -> int:
    # keeps full sweeps under a minute at the shipped problem sizes
    return {1: 2**15 + 1, 2: 513, 3: 65}.get(dim, 17)


def _read_net(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return deserialize_net(fh.read())
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc


def _is_stdout(fd: int) -> bool:
    try:
        return os.path.samestat(os.fstat(fd), os.fstat(1))
    except OSError:  # standard output is closed
        return False


def _write_text(path: str, text: str):
    import stat
    try:  # in place: emptying a file as it is opened can stall ext4 for 0.1 s
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        mode = os.fstat(fd).st_mode
        if fd != 1 and _is_stdout(fd):
            # `-o /dev/stdout >> log` opens the log anew at offset 0: write
            # where standard output writes, after what it holds, and cut nothing
            os.close(fd)
            sys.stdout.flush()
            fd, mode = os.dup(1), 0
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(mode):  # a pipe cannot be truncated
                fh.truncate()
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_build(args) -> int:
    kind = args.what
    if kind in ("square", "multiply", "monomial", "poly"):
        if args.depth is None:
            raise ParameterError(f"build {kind} requires --depth")
        if kind == "monomial" and not args.indices:
            raise ParameterError("build monomial requires --indices i1,i2,..")
        if kind == "poly" and not args.coeffs:
            raise ParameterError("build poly requires --coeffs 'k1,..,kd:c;..'")
        name = {"monomial": f"monomial:{args.indices}", "poly": f"poly:{args.coeffs}"}.get(kind, kind)
        build, _, _ = _target(name, args.dim, clamp=args.clamp)
        net, cert = build(args.depth)
    else:  # analytic
        if args.eps is None or args.delta is None:
            raise ParameterError("build analytic requires --eps and --delta")
        series, _ = preset_series(args.preset)
        result = build_analytic(series, args.eps, args.delta, clamp=args.clamp)
        net, cert = result.net, result.certificate
    if args.dim is not None and args.dim != net.input_dim:
        raise ParameterError(
            f"--dim {args.dim}: build {kind} makes a net of input dimension {net.input_dim}"
        )
    _write_text(args.output, serialize_net(net, cert))
    print(f"wrote {args.output} (depth={net.depth}, width={net.width}, bound={cert.bound!r})")
    return 0


def _cmd_convert(args) -> int:
    net, cert = _read_net(args.input)
    if args.how == "skip2std":
        if not isinstance(net, SkipNet):
            raise ParameterError("skip2std expects a skip-kind document")
        out = skip_to_standard(net)
    elif args.how == "wide2deep":
        if not isinstance(net, ShallowNet):
            raise ParameterError("wide2deep expects a shallow-kind document")
        if not args.partition:
            raise ParameterError("wide2deep requires --partition m1,m2,..")
        out = wide_to_deep(net, _parse_ints(args.partition))
    else:  # sig2relu
        if not isinstance(net, ShallowNet):
            raise ParameterError("sig2relu expects a shallow-kind document")
        out = sigmoidal_to_relu(net)
    _write_text(args.output, serialize_net(out, cert))
    print(f"wrote {args.output}")
    return 0


def _cmd_eval(args) -> int:
    net, _ = _read_net(args.input)
    point = np.array(_parse_floats(args.point))
    print(repr(evaluate(net, point)))
    return 0


def _cmd_verify(args) -> int:
    if args.tol is not None and not args.tol >= 0.0:  # no error exceeds a NaN
        raise ParameterError(f"--tol must be a number >= 0, got {args.tol!r}")
    net, cert = _read_net(args.input)
    _, target, _ = _target(args.target, net.input_dim)
    box = cert.box if cert is not None else net.domain
    strategy = _parse_strategy(args.strategy)
    report = sup_error(
        net, target, box, strategy, certificate=cert, threads=args.threads
    )
    failed = report.within_bound is False
    if args.tol is not None and report.measured > args.tol:
        failed = True
    print(json.dumps({**dataclasses.asdict(report), "passed": not failed}, indent=2))
    return VERIFY_FAILURE if failed else 0


def _cmd_sweep(args) -> int:
    build, target, dim = _target(args.target)
    if build is None:
        raise ParameterError(f"target {args.target!r} is not sweepable")
    if args.target == "square":
        strategy_for = lambda L: DyadicMidpoints(L)
    else:
        strategy_for = lambda L: Uniform(_default_resolution(dim))
    depths = _parse_depth_range(args.depths)
    rows = convergence_sweep(
        build, target, depths, Box.symmetric(dim), strategy_for, threads=args.threads
    )
    text = sweep_csv(rows)
    if args.csv:
        _write_text(args.csv, text)
        print(f"wrote {args.csv} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    if any(r.ratio > 1.0 for r in rows):
        print("bound violated in sweep", file=sys.stderr)
        return VERIFY_FAILURE
    return 0


def _print_eval(net, units: int) -> None:
    # the evaluator computes each distinct unit once, in this many rows per point
    prog = _program(net)
    print(f"eval_units: {prog.units} of {units}")
    print(f"eval_rows: {prog.registers}")


def _cmd_info(args) -> int:
    net, cert = _read_net(args.input)
    # before the first line, so a certificate that cannot be recomputed prints none
    recomputed = theoretical_bound(cert) if cert is not None else None
    print(f"kind: {type(net).__name__}")
    print(f"input_dim: {net.input_dim}")
    if isinstance(net, SkipNet):
        print(f"depth: {net.depth}")
        print(f"width: {net.width}")
        if net.depth >= 1 and net.width >= 1:
            print(f"standard_width: {net.width + net.input_dim + 1}")
            print(f"params_standard_form: {count_params(net.width, net.depth, net.input_dim)}")
        _print_eval(net, net.depth * net.width)
    elif isinstance(net, StandardNet):
        print(f"depth: {net.depth}")
        print(f"widths: {','.join(str(w) for w in net.widths)}")
        print(f"params: {count_params_standard(net)}")
        _print_eval(net, sum(net.widths))
    elif isinstance(net, ShallowNet):
        print(f"units: {net.units}")
        print(f"activation: {net.activation}")
    print(f"domain: {net.domain.as_pairs()}")
    if getattr(net, "shifts", ()):
        print(f"shifts: {len(net.shifts)} recorded")
        print(f"max_shift: {max(net.shifts)!r}")
    if cert is not None:
        print(f"certificate: {cert.lemma} bound={cert.bound!r} "
              f"(recomputed {recomputed!r})")
        print(f"certificate_params: {dict(cert.params)}")
        print(f"certificate_box: {cert.box.as_pairs()}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relu-forge",
        description="Build, convert, evaluate, and verify explicit ReLU networks.",
    )
    parser.add_argument("--version", action="version", version=f"relu-forge {__version__}")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="grid evaluation threads (default: all cores or RELU_FORGE_THREADS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a network with its certificate")
    b.add_argument("what", choices=["square", "multiply", "monomial", "poly", "analytic"])
    b.add_argument("--depth", type=int, help="per-stage depth parameter L")
    b.add_argument("--indices", help="monomial factors, 1-based: 1,1,2")
    b.add_argument("--dim", type=int, help="input dimension (default: what the target needs)")
    b.add_argument("--coeffs", help="polynomial terms: 'k1,..,kd:c;..'")
    b.add_argument("--preset", default="exp", choices=list(PRESET_NAMES))
    b.add_argument("--eps", type=float, help="accuracy target for analytic builds")
    b.add_argument("--delta", type=float, help="domain shrink for analytic builds")
    b.add_argument("--clamp", action="store_true", help="clip carried values to [-1,1] between stages")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(handler=_cmd_build)

    c = sub.add_parser("convert", help="rewrite a network structurally")
    c.add_argument("how", choices=["skip2std", "wide2deep", "sig2relu"])
    c.add_argument("--partition", help="wide2deep layer sizes: m1,m2,..")
    c.add_argument("-i", "--input", required=True)
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(handler=_cmd_convert)

    e = sub.add_parser("eval", help="evaluate a stored network at a point")
    e.add_argument("-i", "--input", required=True)
    e.add_argument("--point", required=True, help="coordinates: x1,x2,..")
    e.set_defaults(handler=_cmd_eval)

    v = sub.add_parser("verify", help="measure sup error against a target")
    v.add_argument("-i", "--input", required=True)
    v.add_argument("--target", required=True)
    v.add_argument("--strategy", default="uniform:1025")
    v.add_argument("--tol", type=float, help="extra absolute tolerance to enforce")
    v.set_defaults(handler=_cmd_verify)

    s = sub.add_parser("sweep", help="convergence table over a depth range")
    s.add_argument("target")
    s.add_argument("--depths", required=True, help="range A:B or list L1,L2,..")
    s.add_argument("--csv", help="write CSV here instead of stdout")
    s.set_defaults(handler=_cmd_sweep)

    i = sub.add_parser("info", help="print structure and certificate of a document")
    i.add_argument("-i", "--input", required=True)
    i.set_defaults(handler=_cmd_info)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.threads = _threads(args.threads)
    except ReluForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.handler(args)
    except DocumentError as exc:
        print(f"document error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ReluForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
