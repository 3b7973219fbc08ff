"""Command-line surface: subcommands, exit codes, output formats."""

import importlib.util
import json
import os
import pathlib
import stat
import subprocess
import sys

import numpy as np
import pytest

from relu_forge import (
    PolySpec,
    build_monomial,
    build_multiply,
    build_polynomial,
    build_square,
    deserialize_net,
    nets,
    serialize_net,
    sigmoidal_to_relu,
)
from relu_forge import cli
from relu_forge.cli import main

from conftest import make_random_shallow


def run(argv):
    return main([str(a) for a in argv])


POLY = "0,0:1;2,0:-1;1,1:0.5"
POLY_SPEC = PolySpec(2, {(0, 0): 1.0, (2, 0): -1.0, (1, 1): 0.5})


class TestBuild:
    def test_square_writes_file(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert run(["build", "square", "--depth", 3, "-o", out]) == 0
        assert out.exists()
        net, cert = deserialize_net(out.read_text())
        assert net.depth == 3 and net.width == 2
        assert cert.bound == 2**-6

    def test_monomial_and_poly(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["build", "monomial", "--indices", "1,1,2", "--depth", 2, "-o", out]) == 0
        net, cert = deserialize_net(out.read_text())
        assert net.input_dim == 2 and net.depth == 3 * 2 * 2
        out2 = tmp_path / "p.json"
        assert run(["build", "poly", "--coeffs", "0,0:1;2,0:-1;1,1:0.5", "--depth", 3, "-o", out2]) == 0
        _, cert2 = deserialize_net(out2.read_text())
        assert cert2.params["coeff_l1"] == 2.5

    def test_analytic_preset(self, tmp_path):
        out = tmp_path / "exp.json"
        code = run(["build", "analytic", "--preset", "exp", "--eps", "1e-3",
                    "--delta", "0.25", "-o", out])
        assert code == 0
        _, cert = deserialize_net(out.read_text())
        assert cert.lemma == "analytic"

    def test_missing_depth_is_usage_error(self, tmp_path, capsys):
        assert run(["build", "square", "-o", tmp_path / "x.json"]) == 2
        assert "depth" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, builder",
        [
            (["square"], build_square),
            (["multiply"], build_multiply),
            (["monomial", "--indices", "1,1,2"], lambda L: build_monomial([1, 1, 2], L, 2)),
            (["monomial", "--indices", "1,1,2", "--dim", 3],
             lambda L: build_monomial([1, 1, 2], L, 3)),
            (["monomial", "--indices", "1,1,2", "--clamp"],
             lambda L: build_monomial([1, 1, 2], L, 2, clamp=True)),
            (["poly", "--coeffs", POLY], lambda L: build_polynomial(POLY_SPEC, L)),
            (["poly", "--coeffs", POLY, "--clamp"],
             lambda L: build_polynomial(POLY_SPEC, L, clamp=True)),
            # degree 3, so clamping changes the document
            (["poly", "--coeffs", "2,1:1;1,0:0.5", "--clamp"],
             lambda L: build_polynomial(PolySpec(2, {(2, 1): 1.0, (1, 0): 0.5}), L, clamp=True)),
        ],
        ids=["square", "multiply", "monomial", "monomial-dim3", "monomial-clamp",
             "poly", "poly-clamp", "poly-cubic-clamp"],
    )
    def test_writes_the_builders_document(self, tmp_path, argv, builder):
        out = tmp_path / "net.json"
        assert run(["build", *argv, "--depth", 2, "-o", out]) == 0
        assert out.read_text() == serialize_net(*builder(2))

    @pytest.mark.parametrize(
        "argv",
        [
            ["multiply", "--dim", 1],
            ["poly", "--coeffs", "0,1:1", "--dim", 1],
            ["monomial", "--indices", "1,3", "--dim", 2],
        ],
        ids=["multiply", "poly", "monomial"],
    )
    def test_contradicting_dim_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "net.json"
        assert run(["build", *argv, "--depth", 2, "-o", out]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["square", "--dim", 2],
            ["multiply", "--dim", 3],
            ["poly", "--coeffs", "0,1:1", "--dim", 3],
        ],
        ids=["square", "multiply", "poly"],
    )
    def test_dim_the_builder_would_ignore_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "net.json"
        assert run(["build", *argv, "--depth", 2, "-o", out]) == 2
        assert "--dim" in capsys.readouterr().err
        assert not out.exists()


class TestEvalVerifyInfo:
    def test_eval_prints_value(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        capsys.readouterr()
        assert run(["eval", "-i", out, "--point", "0.25"]) == 0
        assert float(capsys.readouterr().out) == 0.125

    def test_verify_square_dyadic_exact(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 3, "-o", out])
        capsys.readouterr()
        assert run(["verify", "-i", out, "--target", "square", "--strategy", "dyadic:3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["measured"] == payload["bound"] == 2**-6
        assert payload["passed"]

    def test_verify_fails_on_unreachable_tolerance(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        capsys.readouterr()
        code = run(["verify", "-i", out, "--target", "square",
                    "--strategy", "dyadic:2", "--tol", "1e-9"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_info_lists_structure(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "multiply", "--depth", 3, "-o", out])
        capsys.readouterr()
        assert run(["info", "-i", out]) == 0
        text = capsys.readouterr().out
        assert "depth: 9" in text and "width: 2" in text
        assert "certificate: multiply" in text

    def test_verify_fails_when_bound_exceeded(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        doc = json.loads(out.read_text())
        doc["certificate"]["bound"] = 1e-9
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["verify", "-i", out, "--target", "square", "--strategy", "dyadic:2"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["measured", "argmax", "strategy", "points", "bound",
                                 "ratio", "out_of_domain", "passed"]
        assert payload["bound"] == 1e-9 and payload["passed"] is False

    def test_info_shows_the_units_evaluation_computes(self, tmp_path, capsys):
        out = tmp_path / "runge.json"
        run(["build", "analytic", "--preset", "runge", "--eps", "1e-6", "--delta", "0.25",
             "-o", out])
        capsys.readouterr()
        assert run(["info", "-i", out]) == 0
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        computed, total = fields["eval_units"].split(" of ")
        assert int(total) == 1404 * 4 and int(computed) <= 1100
        net, _ = deserialize_net(out.read_text())
        assert int(fields["eval_rows"]) == nets._compile_skip(net).registers

    def test_info_prints_the_largest_shift(self, tmp_path, capsys):
        out = tmp_path / "runge.json"
        run(["build", "analytic", "--preset", "runge", "--eps", "1e-3", "--delta", "0.25",
             "-o", out])
        capsys.readouterr()
        assert run(["info", "-i", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        net, _ = deserialize_net(out.read_text())
        at = lines.index(f"shifts: {len(net.shifts)} recorded")
        assert lines[at + 1] == f"max_shift: {max(net.shifts)!r}"

    def test_info_shows_the_units_standard_evaluation_computes(self, tmp_path, capsys):
        src, dst = tmp_path / "runge.json", tmp_path / "std.json"
        run(["build", "analytic", "--preset", "runge", "--eps", "1e-6", "--delta", "0.25",
             "-o", src])
        run(["convert", "skip2std", "-i", src, "-o", dst])
        capsys.readouterr()
        assert run(["info", "-i", dst]) == 0
        fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        computed, total = fields["eval_units"].split(" of ")
        assert int(total) == 1404 * 6 and int(computed) <= 1300
        net, _ = deserialize_net(dst.read_text())
        assert int(fields["eval_rows"]) == nets._compile_standard(net).registers

    def test_info_on_standard_document(self, tmp_path, capsys):
        src = tmp_path / "net.json"
        dst = tmp_path / "std.json"
        run(["build", "square", "--depth", 3, "-o", src])
        run(["convert", "skip2std", "-i", src, "-o", dst])
        capsys.readouterr()
        assert run(["info", "-i", dst]) == 0
        text = capsys.readouterr().out
        assert "kind: StandardNet" in text
        assert "widths: 4,4,4" in text and "params: " in text
        assert f"shifts: {len(deserialize_net(dst.read_text())[0].shifts)} recorded" in text

    def test_info_on_shallow_document(self, tmp_path, rng, capsys):
        src = tmp_path / "shallow.json"
        dst = tmp_path / "relu.json"
        src.write_text(serialize_net(make_random_shallow(2, 3, rng, activation="sigmoidal-step")))
        run(["convert", "sig2relu", "-i", src, "-o", dst])
        capsys.readouterr()
        assert run(["info", "-i", dst]) == 0
        text = capsys.readouterr().out
        assert "units: 6" in text and "activation: relu" in text


class TestConvert:
    def test_skip2std_round(self, tmp_path, capsys):
        src = tmp_path / "net.json"
        dst = tmp_path / "std.json"
        run(["build", "square", "--depth", 3, "-o", src])
        assert run(["convert", "skip2std", "-i", src, "-o", dst]) == 0
        capsys.readouterr()
        assert run(["eval", "-i", dst, "--point", "0.25"]) == 0
        assert abs(float(capsys.readouterr().out) - 0.0625) < 1e-12

    def test_wide2deep_and_sig2relu(self, tmp_path, rng):
        s = make_random_shallow(2, 6, rng, activation="sigmoidal-step")
        src = tmp_path / "shallow.json"
        src.write_text(serialize_net(s))
        mid = tmp_path / "relu.json"
        assert run(["convert", "sig2relu", "-i", src, "-o", mid]) == 0
        relu_net, _ = deserialize_net(mid.read_text())
        assert relu_net.units == 12
        dst = tmp_path / "deep.json"
        assert run(["convert", "wide2deep", "--partition", "6,6", "-i", mid, "-o", dst]) == 0
        deep, _ = deserialize_net(dst.read_text())
        assert deep.widths == (9, 9)

    def test_kind_mismatch_is_input_error(self, tmp_path, rng):
        src = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", src])
        assert run(["convert", "sig2relu", "-i", src, "-o", tmp_path / "x.json"]) == 2


class TestSweep:
    def test_square_sweep_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        assert run(["sweep", "square", "--depths", "2:8", "--csv", csv_path]) == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "L,depth,std_width,params,bound,measured,ratio"
        assert len(lines) == 8
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1.0

    def test_sweep_stdout_byte_stable(self, tmp_path, capsys):
        assert run(["sweep", "square", "--depths", "2:4"]) == 0
        first = capsys.readouterr().out
        assert run(["sweep", "square", "--depths", "2:4"]) == 0
        assert capsys.readouterr().out == first

    def test_depth_list(self, capsys):
        assert run(["sweep", "square", "--depths", "2,4,6"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "4", "6"]

    def test_row_above_its_bound_fails_the_sweep(self, monkeypatch, capsys):
        target = cli._target

        def off_by_one(name, *args, **kwargs):
            build, reference, dim = target(name, *args, **kwargs)
            return build, (lambda X: reference(X) + 1.0), dim

        monkeypatch.setattr(cli, "_target", off_by_one)
        assert run(["sweep", "square", "--depths", "2:3"]) == 1
        out, err = capsys.readouterr()
        assert all(float(row.split(",")[-1]) > 1.0 for row in out.strip().split("\n")[1:])
        assert err == "bound violated in sweep\n"

    def test_monomial_without_factors_is_usage_error(self, capsys):
        assert run(["sweep", "monomial:", "--depths", "2:3"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["monomial:1", "poly:1:0.5"])
    def test_affine_target_is_usage_error(self, target, capsys):
        assert run(["sweep", target, "--depths", "1:2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "L=1" in err and "depth-0 (affine)" in err
        assert "count_params" not in err

    def test_preset_and_unknown_targets_are_usage_errors(self, capsys):
        assert run(["sweep", "exp", "--depths", "2:3"]) == 2
        assert "'exp' is not sweepable" in capsys.readouterr().err
        assert run(["sweep", "cube", "--depths", "2:3"]) == 2
        assert "unknown target 'cube'" in capsys.readouterr().err


class TestRunSweepsScript:
    def test_writes_one_cli_table_per_target(self, tmp_path, capsys):
        path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_sweeps.py"
        spec = importlib.util.spec_from_file_location("run_sweeps", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--out-dir", str(tmp_path), "--threads", "1"]) == 0
        summary = [line for line in capsys.readouterr().out.splitlines() if "rows=" in line]
        assert len(summary) == 4 and all(line.endswith(" ok") for line in summary)
        names = ["monomial_x1x2x3", "multiply", "poly_acceptance", "square"]
        assert sorted(p.stem for p in tmp_path.glob("*.csv")) == names
        assert run(["sweep", "square", "--depths", "1:12"]) == 0
        assert (tmp_path / "square.csv").read_text() == capsys.readouterr().out


class TestOutputFiles:
    """``-o`` and ``--csv`` rewrite an existing file in place."""

    def test_short_document_replaces_a_deep_one(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert run(["build", "analytic", "--preset", "runge", "--eps", "1e-6",
                    "--delta", "0.25", "-o", out]) == 0
        deep_size = out.stat().st_size
        assert run(["build", "square", "--depth", 1, "-o", out]) == 0
        assert out.read_bytes() == serialize_net(*build_square(1)).encode("utf-8")
        assert out.stat().st_size < deep_size
        assert run(["verify", "-i", out, "--target", "square", "--strategy", "dyadic:3"]) == 0

    def test_rewrite_keeps_inode_and_mode(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert run(["build", "square", "--depth", 4, "-o", out]) == 0
        out.chmod(0o640)
        before = out.stat()
        assert run(["build", "square", "--depth", 2, "-o", out]) == 0
        after = out.stat()
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o640
        assert out.read_bytes() == serialize_net(*build_square(2)).encode("utf-8")

    def test_symlink_writes_its_target(self, tmp_path, capsys):
        target, link = tmp_path / "real.json", tmp_path / "link.json"
        target.write_text("x" * 10_000)
        link.symlink_to(target)
        assert run(["build", "square", "--depth", 2, "-o", link]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == serialize_net(*build_square(2)).encode("utf-8")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
    def test_pipe_receives_the_document(self, capsys):
        r, w = os.pipe()
        try:
            code = run(["build", "square", "--depth", 2, "-o", f"/dev/fd/{w}"])
        finally:
            os.close(w)
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
        assert code == 0
        assert data == serialize_net(*build_square(2)).encode("utf-8")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this platform")
    def test_stdout_appending_to_a_log_keeps_the_log(self, tmp_path):
        # `-o /dev/stdout >> log` opens the log anew, at offset 0
        log = tmp_path / "log"
        head = "".join(f"{i}\n" for i in range(1, 20001))
        log.write_text(head)
        src = str(pathlib.Path(nets.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "relu_forge", "build", "square", "--depth", "2", "-o", "/dev/stdout"]
        with open(log, "a") as fh:
            subprocess.run(argv, stdout=fh, env=env, check=True, timeout=120)
        wrote = "wrote /dev/stdout (depth=2, width=2, bound=0.0625)\n"
        assert log.read_text() == head + serialize_net(*build_square(2)) + wrote

    def test_directory_is_usage_error(self, tmp_path, capsys):
        assert run(["build", "square", "--depth", 2, "-o", tmp_path]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_outputs_are_never_truncated_on_open(self, tmp_path, monkeypatch, capsys):
        flags, real_open = [], os.open

        def spy(path, fl, *args, **kwargs):
            flags.append(fl)
            return real_open(path, fl, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        net, csv = tmp_path / "net.json", tmp_path / "out.csv"
        for argv in (["build", "square", "--depth", 3, "-o", net],
                     ["convert", "skip2std", "-i", net, "-o", net],
                     ["sweep", "square", "--depths", "2:3", "--csv", csv]):
            assert run(argv) == 0
        assert len(flags) == 3
        assert not any(fl & os.O_TRUNC for fl in flags)


class TestThreads:
    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 5, "-o", out])
        capsys.readouterr()
        results = []
        for threads in ("1", "3"):
            monkeypatch.setenv("RELU_FORGE_THREADS", threads)
            assert run(["verify", "-i", out, "--target", "square",
                        "--strategy", "uniform:70000"]) == 0
            results.append(json.loads(capsys.readouterr().out))
        assert results[0] == results[1]

    def test_bad_env_var_is_usage_error(self, monkeypatch, tmp_path):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        monkeypatch.setenv("RELU_FORGE_THREADS", "many")
        assert run(["eval", "-i", out, "--point", "0.5"]) == 2

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_flag_below_one_is_usage_error(self, threads, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        capsys.readouterr()
        assert run(["--threads", threads, "eval", "-i", out, "--point", "0.5"]) == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_env_var_below_one_is_usage_error(self, threads, monkeypatch, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        capsys.readouterr()
        monkeypatch.setenv("RELU_FORGE_THREADS", threads)
        assert run(["eval", "-i", out, "--point", "0.5"]) == 2
        assert f"RELU_FORGE_THREADS must be at least 1, got {threads}" in capsys.readouterr().err
        assert run(["--threads", "1", "eval", "-i", out, "--point", "0.5"]) == 0  # the flag wins


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert run(["eval", "-i", "/nonexistent/net.json", "--point", "0"]) == 2

    def test_corrupt_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["info", "-i", bad]) == 2

    @pytest.mark.parametrize("params", [{}, {"L": "x"}])
    def test_info_on_unusable_certificate_params(self, tmp_path, capsys, params):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        doc = json.loads(out.read_text())
        doc["certificate"]["params"] = params
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["info", "-i", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "square" in err and "'L'" in err

    def test_unknown_target(self, tmp_path):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        assert run(["verify", "-i", out, "--target", "cube", "--strategy", "dyadic:2"]) == 2

    def test_bad_strategy(self, tmp_path):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        assert run(["verify", "-i", out, "--target", "square", "--strategy", "grid:9"]) == 2

    def test_poly_target_with_more_variables_than_inputs(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        capsys.readouterr()
        assert run(["verify", "-i", out, "--target", "poly:0,1:1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_random_seed(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        capsys.readouterr()
        assert run(["verify", "-i", out, "--target", "square", "--strategy", "random:10:-1"]) == 2
        assert "error:" in capsys.readouterr().err


    def test_info_prints_nothing_before_an_unusable_certificate(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        doc = json.loads(out.read_text())
        doc["certificate"]["params"] = {"L": "x"}
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["info", "-i", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: square certificate: 'L' needs a number, got 'x'\n"

    @pytest.mark.parametrize(
        "strategy", ["dyadic:64", "uniform:4611686018427387904", "random:4611686018427387904:1"]
    )
    def test_point_set_too_large_for_an_array_is_usage_error(self, tmp_path, capsys, strategy):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        capsys.readouterr()
        assert run(["verify", "-i", out, "--target", "square", "--strategy", strategy]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {strategy} gives ")

    def test_dyadic_midpoints_past_float64_precision_are_usage_error(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 2, "-o", out])
        doc = json.loads(out.read_text())
        del doc["certificate"]
        doc["domain"] = [[0.5, 0.5 + 2.0**-50]]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["verify", "-i", out, "--target", "square", "--strategy", "dyadic:60"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: dyadic:60: ")

    @pytest.mark.parametrize("tol", ["nan", "-0.5"])
    def test_nan_or_negative_tolerance_is_usage_error(self, tmp_path, capsys, tol):
        out = tmp_path / "net.json"
        run(["build", "square", "--depth", 3, "-o", out])
        capsys.readouterr()
        code = run(["verify", "-i", out, "--target", "square", "--strategy", "dyadic:3", "--tol", tol])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --tol must be a number >= 0, got {float(tol)!r}\n"

@pytest.fixture
def documents(tmp_path, rng):
    """Paths of a skip document, a shallow document and an output not yet written."""
    skip, shallow = tmp_path / "skip.json", tmp_path / "shallow.json"
    skip.write_text(serialize_net(*build_square(2)))
    shallow.write_text(serialize_net(make_random_shallow(1, 4, rng)))
    return {"skip": skip, "shallow": shallow, "out": tmp_path / "out.json"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "square", "--depths", "2:x"], "bad depth range '2:x'"),
        (["sweep", "square", "--depths", "5:3"], "empty depth range '5:3'"),
        (["eval", "-i", "{skip}", "--point", "0.5,x"], "expected comma-separated numbers, got '0.5,x'"),
        (["build", "monomial", "--depth", 2, "-o", "{out}"], "build monomial requires --indices i1,i2,.."),
        (["build", "poly", "--depth", 2, "-o", "{out}"],
         "build poly requires --coeffs 'k1,..,kd:c;..'"),
        (["build", "analytic", "--delta", 0.25, "-o", "{out}"],
         "build analytic requires --eps and --delta"),
        (["convert", "skip2std", "-i", "{shallow}", "-o", "{out}"],
         "skip2std expects a skip-kind document"),
        (["convert", "wide2deep", "--partition", "2,2", "-i", "{skip}", "-o", "{out}"],
         "wide2deep expects a shallow-kind document"),
        (["convert", "sig2relu", "-i", "{skip}", "-o", "{out}"],
         "sig2relu expects a shallow-kind document"),
        (["convert", "wide2deep", "-i", "{shallow}", "-o", "{out}"],
         "wide2deep requires --partition m1,m2,.."),
        (["build", "poly", "--coeffs", "1,0", "--depth", 2, "-o", "{out}"],
         "polynomial term '1,0' lacks ':coefficient'"),
        (["build", "poly", "--coeffs", "1:1;1,1:1", "--depth", 2, "-o", "{out}"],
         "polynomial terms disagree on dimension"),
        (["build", "poly", "--coeffs", "1:x", "--depth", 2, "-o", "{out}"], "bad coefficient 'x'"),
        (["build", "poly", "--coeffs", ";", "--depth", 2, "-o", "{out}"],
         "empty polynomial specification"),
        (["build", "poly", "--coeffs", "a:1", "--depth", 2, "-o", "{out}"],
         "expected comma-separated integers, got 'a'"),
    ],
)
def test_usage_error_names_its_cause(documents, capsys, argv, message):
    assert run([str(a).format(**documents) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not documents["out"].exists()
