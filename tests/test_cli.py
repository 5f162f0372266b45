"""Command-line interface: every verb, flags, and exit codes."""
import dataclasses
import hashlib
import struct
import warnings

import numpy as np
import pytest

from intflow.analysis import speedup_estimate
from intflow.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main
from intflow.modelfile import HEADER_DIMS, HEADER_SIZE, load_model, save_model
from intflow.scaling import ScaleGranularity, Session
from intflow.transformer import ModelConfig, forward, random_reference_model


@pytest.fixture()
def workspace(tmp_path):
    fp32 = tmp_path / "m.fp32"
    int8 = tmp_path / "m.int8"
    assert main(["init", str(fp32), "--seed", "3", "--d-m", "16",
                 "--heads", "2", "--d-ff", "32", "--vocab", "24"]) == EXIT_OK
    assert main(["quantize", str(fp32), str(int8)]) == EXIT_OK
    return tmp_path, fp32, int8


class TestInitAndQuantize:
    def test_quantize_prints_storage(self, workspace, capsys):
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        assert main(["quantize", str(fp32), str(int8)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "storage\tratio" in out

    def test_quantize_rejects_int8_input(self, workspace):
        tmp, fp32, int8 = workspace
        assert main(["quantize", str(int8), str(tmp / "x")]) == EXIT_VALIDATION

    def test_custom_precision_and_granularity(self, workspace):
        tmp, fp32, int8 = workspace
        out = tmp / "p5.int8"
        assert main(["quantize", str(fp32), str(out),
                     "--precision", "5", "--granularity", "b"]) == EXIT_OK

    @pytest.mark.parametrize("flags, precision, granularity", [
        ([], 5, ScaleGranularity.PER_BATCH),
        (["--precision", "6"], 6, ScaleGranularity.PER_BATCH),
        (["--granularity", "row"], 5, ScaleGranularity.PER_ROW),
        (["--precision", "6", "--granularity", "row"], 6, ScaleGranularity.PER_ROW),
    ], ids=["keeps", "precision", "granularity", "both"])
    def test_quantize_keeps_the_files_settings_unless_a_flag_overrides(
            self, tmp_path, flags, precision, granularity):
        fp32, out = tmp_path / "m.fp32", tmp_path / "m.int8"
        assert main(["init", str(fp32), "--d-m", "16", "--heads", "2", "--d-ff", "32",
                     "--vocab", "24", "--precision", "5", "--granularity", "b"]) == EXIT_OK
        assert main(["quantize", str(fp32), str(out), *flags]) == EXIT_OK
        cfg = load_model(str(out)).config
        assert (cfg.precision, cfg.granularity) == (precision, granularity)


class TestInfer:
    def test_hidden_state_input(self, workspace, tmp_path):
        tmp, fp32, int8 = workspace
        x = tmp_path / "x.npy"
        y = tmp_path / "y.npy"
        np.save(x, np.random.default_rng(0).normal(size=(5, 16)).astype(np.float32))
        assert main(["infer", str(int8), str(x), "--out", str(y),
                     "--dequantize-output"]) == EXIT_OK
        assert np.load(y).shape == (5, 16)

    # The forward quantizes a float input once, at layer 0's LN; its Res
    # reads that quantization as the residual (before, it quantized the
    # input again there, to the same payloads and scales).
    @pytest.mark.parametrize("deq, want", [
        (False, "816fe13e37319b12f0a33761b85aa2af202cc2a9eac5bd01775c59a46cde0a76"),
        (True, "8e9f21d63e6e55b79028eb81615f65e8914853ca190b25f46ae73e4504d3d86e"),
    ], ids=["payloads", "dequantized"])
    def test_hidden_state_output_and_audit_are_pinned(self, workspace, tmp_path, deq, want):
        tmp, fp32, int8 = workspace
        x, y, audit = tmp_path / "x.npy", tmp_path / "y.npy", tmp_path / "audit.tsv"
        np.save(x, np.random.default_rng(0).normal(size=(5, 16)).astype(np.float32))
        assert main(["infer", str(int8), str(x), "--out", str(y), "--audit", str(audit),
                     *["--dequantize-output"] * deq]) == EXIT_OK
        assert hashlib.sha256(np.load(y).tobytes()).hexdigest() == want
        lines = audit.read_text().splitlines()
        assert [line for line in lines if line.startswith("quantize\tscale\t80\t")] == [
            "quantize\tscale\t80\t0\tLN"]
        # The heads of a layer run as one group: 239 lines before, with a
        # record per head and a concat per layer, and 191 with the second
        # quantize of the input.
        assert len(lines) == 190 + deq
        assert hashlib.sha256("\n".join(lines[:190]).encode()).hexdigest() == (
            "abe5146877a441b58cf894543df7603ef1b6ca7b38781ad3d2217ead67e62685")

    def test_token_input_and_audit(self, workspace, tmp_path):
        tmp, fp32, int8 = workspace
        t = tmp_path / "tok.npy"
        y = tmp_path / "logits.npy"
        audit = tmp_path / "audit.tsv"
        np.save(t, np.arange(6))
        assert main(["infer", str(int8), str(t), "--tokens", "--out", str(y),
                     "--audit", str(audit)]) == EXIT_OK
        assert np.load(y).shape == (6, 24)
        lines = audit.read_text().strip().splitlines()
        assert lines[0] == "kind\tlane\telements\trescaled\tmodule"
        assert not any("dequantize" in line for line in lines[1:])

    def test_raw_payload_output_is_integer(self, workspace, tmp_path):
        tmp, fp32, int8 = workspace
        x = tmp_path / "x.npy"
        y = tmp_path / "y.npy"
        np.save(x, np.zeros((3, 16), dtype=np.float32))
        assert main(["infer", str(int8), str(x), "--out", str(y)]) == EXIT_OK
        assert np.load(y).dtype.kind == "i"

    def test_bad_input_shape(self, workspace, tmp_path):
        tmp, fp32, int8 = workspace
        x = tmp_path / "bad.npy"
        np.save(x, np.zeros((5, 7), dtype=np.float32))
        assert main(["infer", str(int8), str(x), "--out",
                     str(tmp_path / "y.npy")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("data, tokens, message", [
        (np.zeros(0, dtype=np.int64), True, "token ids are empty"),
        (np.zeros((2, 3), dtype=np.int64), True, "token ids must be a 1-D array, got shape (2, 3)"),
        (np.zeros((0, 16), dtype=np.float32), False, "hidden input is empty"),
    ])
    def test_empty_or_wrong_rank_input_is_named(self, workspace, tmp_path, capsys,
                                                 data, tokens, message):
        tmp, fp32, int8 = workspace
        x = tmp_path / "in.npy"
        np.save(x, data)
        capsys.readouterr()
        argv = ["infer", str(int8), str(x), "--out", str(tmp_path / "y.npy")]
        assert main(argv + ["--tokens"] * tokens) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_float_token_ids_are_refused(self, workspace, tmp_path, capsys):
        # Cast to int64 they would run as tokens [0, 1].
        tmp, fp32, int8 = workspace
        t = tmp_path / "tok.npy"
        np.save(t, np.array([0.5, 1.7]))
        assert main(["infer", str(int8), str(t), "--tokens",
                     "--out", str(tmp_path / "y.npy")]) == EXIT_VALIDATION
        assert "integers" in capsys.readouterr().err
        assert not (tmp_path / "y.npy").exists()

    @pytest.mark.parametrize("write, message", [
        (lambda fh: np.savez(fh, x=np.zeros((3, 16))), "is an .npz archive"),
        (lambda fh: None, "is empty"),
        # Cast to float64 it would run on its real part alone.
        (lambda fh: np.save(fh, np.full((3, 16), 1 + 2j)), "integers or floats, got complex128"),
    ], ids=["npz", "empty", "complex"])
    def test_input_that_is_not_one_real_array_is_refused(self, workspace, tmp_path, capsys,
                                                         write, message):
        tmp, fp32, int8 = workspace
        x = tmp_path / "in.npy"
        with open(x, "wb") as fh:  # a file handle: np.savez would add ".npz" to a path
            write(fh)
        capsys.readouterr()
        assert main(["infer", str(int8), str(x), "--out", str(tmp_path / "y.npy")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "y.npy").exists()

    def test_missing_model_file(self, workspace, tmp_path):
        tmp, fp32, int8 = workspace
        x = tmp_path / "x.npy"
        np.save(x, np.zeros((5, 16), dtype=np.float32))
        assert main(["infer", str(tmp_path / "none.int8"), str(x),
                     "--out", str(tmp_path / "y.npy")]) == EXIT_IO


class TestCompare:
    def test_precision_report(self, workspace, capsys):
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        assert main(["compare", str(int8), "--seq-len", "6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Attn\t0\tmse\t" in out
        assert "Res\t1\tmse\t" in out

    def test_bit_sweep(self, workspace, capsys):
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        assert main(["compare", str(int8), "--seq-len", "6",
                     "--sweep-bits", "6..8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("sweep\t") == 3

    def test_bad_sweep_range(self, workspace):
        tmp, fp32, int8 = workspace
        assert main(["compare", str(int8), "--sweep-bits", "six"]) == EXIT_VALIDATION

    def test_empty_sweep_range(self, workspace, capsys):
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        assert main(["compare", str(int8), "--sweep-bits", "9..3"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and "empty sweep range" in err

    def test_ablate(self, workspace, capsys):
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        assert main(["compare", str(int8), "--seq-len", "6",
                     "--ablate", "Attn,LN"]) == EXIT_OK
        assert "ablate\tAttn,LN\tmse" in capsys.readouterr().out

    def test_ablate_none_is_zero_loss(self, workspace, capsys):
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        assert main(["compare", str(int8), "--ablate", "none"]) == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert float(line.split("\t")[-1]) == 0.0

    def test_ablate_unknown_module(self, workspace, capsys):
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        assert main(["compare", str(int8), "--ablate", "Bogus"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: unknown module tags: ['Bogus']\n"

    def test_sweep_and_ablate_exclude_each_other(self, workspace, capsys):
        # The sweep once ran and --ablate was ignored, with exit 0.
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["compare", str(int8), "--seq-len", "6", "--sweep-bits", "6..7", "--ablate", "LN"])
        assert exc.value.code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "argument --ablate: not allowed with argument --sweep-bits" in err


class TestReport:
    def test_report_lines(self, workspace, capsys):
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        assert main(["report", str(int8), "--seq-len", "8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "storage\tratio" in out
        assert "speedup\testimate" in out
        # The Amdahl estimate stands next to measured times, never alone.
        measured = {tuple(line.split("\t")[:3]): float(line.split("\t")[3])
                    for line in out.splitlines() if line.startswith("measured\t")}
        assert set(measured) == {
            ("measured", "int_ms", "p50"),
            ("measured", "fp32_ms", "p50"),
            ("measured", "int_vs_fp32", "x"),
        }
        int_ms, fp32_ms = measured["measured", "int_ms", "p50"], measured["measured", "fp32_ms", "p50"]
        assert int_ms > 0 and fp32_ms > 0
        assert measured["measured", "int_vs_fp32", "x"] == pytest.approx(int_ms / fp32_ms, rel=1e-2)

    def test_report_counts_one_forward(self, workspace, capsys):
        # The op shares are one forward's: quantizing the parameters is
        # set-up, which the estimate does not count.
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        assert main(["report", str(int8), "--seq-len", "8"]) == EXIT_OK
        fields = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        shares = {f[1]: float(f[3]) for f in fields if f[0] == "speedup" and f[2] == "share"}
        model = load_model(str(int8))
        session = Session()
        forward(model, session, tokens=np.random.default_rng(0).integers(0, model.config.vocab, 8))
        estimate = speedup_estimate(session.log)
        assert shares == {k: round(v, 4) for k, v in estimate.op_shares.items()} | {
            "accelerable": round(estimate.accelerable_share, 4)}
        # No concat: the heads write into one lane (its share was 0.0044).
        assert shares == {
            "accelerable": 0.7346, "abs": 0.0111, "add": 0.0856, "boost": 0.0155,
            "ew_mul": 0.0118, "gather": 0.0022, "int_div": 0.0206,
            "matmul": 0.7346, "pow_n": 0.0089, "quantize": 0.0089, "relu": 0.0133,
            "rescale": 0.0805, "scale_fold": 0.0051, "sum_reduce": 0.0019,
        }

    def test_report_needs_quantized_model(self, workspace):
        tmp, fp32, int8 = workspace
        assert main(["report", str(fp32)]) == EXIT_VALIDATION


    @pytest.mark.parametrize("factor", ["0", "-1", "inf", "nan"])
    def test_factor_must_be_finite_and_positive(self, workspace, capsys, factor):
        tmp, fp32, int8 = workspace
        assert main(["report", str(int8), "--factor", factor]) == EXIT_VALIDATION
        assert "factor" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize("seq_len", ["0", "-3"])
def test_seq_len_must_be_positive(workspace, capsys, command, seq_len):
    tmp, fp32, int8 = workspace
    capsys.readouterr()
    assert main([command, str(int8), "--seq-len", seq_len]) == EXIT_VALIDATION
    assert "--seq-len" in capsys.readouterr().err


class TestHyperParameters:
    """Every ModelConfig field is checked where the config is built, so a bad
    flag or a bad header exits 2 with a message, never a traceback, and no
    file is written that later commands would refuse."""

    @pytest.mark.parametrize("flags", [
        ["--heads", "0"], ["--d-m", "0"], ["--d-ff", "0"], ["--vocab", "0"],
        ["--heads", "-2"], ["--layers", "-1"], ["--precision", "16"], ["--precision", "1"],
    ])
    def test_init_refuses(self, tmp_path, capsys, flags):
        out = tmp_path / "m.fp32"
        assert main(["init", str(out), *flags]) == EXIT_VALIDATION
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_quantize_refuses_precision_16(self, workspace, tmp_path):
        tmp, fp32, int8 = workspace
        out = tmp_path / "q.int8"
        assert main(["quantize", str(fp32), str(out), "--precision", "16"]) == EXIT_VALIDATION
        assert not out.exists()

    def test_header_with_zero_heads_is_refused(self, workspace, tmp_path, capsys):
        tmp, fp32, int8 = workspace
        blob = bytearray(int8.read_bytes())
        # The u32 dims end the header, followed by n_tensors.
        offset = HEADER_SIZE - 4 * (len(HEADER_DIMS) + 1) + 4 * HEADER_DIMS.index("heads")
        assert struct.unpack_from("<I", blob, offset) == (2,)
        struct.pack_into("<I", blob, offset, 0)
        bad, t = tmp_path / "bad.int8", tmp_path / "tok.npy"
        bad.write_bytes(bytes(blob))
        np.save(t, np.arange(6))
        capsys.readouterr()
        assert main(["infer", str(bad), str(t), "--tokens",
                     "--out", str(tmp_path / "y.npy")]) == EXIT_VALIDATION
        assert "heads" in capsys.readouterr().err


def test_flag_defaults_are_the_model_config_defaults():
    # quantize's flags default to None: the FP32 file's own settings stand.
    cfg = ModelConfig()
    parser = build_parser()
    init = parser.parse_args(["init", "m.fp32"])
    quant = parser.parse_args(["quantize", "m.fp32", "m.int8"])
    arch = {"d_m": init.d_m, "heads": init.heads, "d_ff": init.d_ff,
            "n_layers": init.layers, "vocab": init.vocab, "degree": init.degree}
    assert arch == {name: getattr(cfg, name) for name in arch}
    assert (init.precision, init.granularity) == (cfg.precision, cfg.granularity.value)
    assert (quant.precision, quant.granularity) == (None, None)


class TestTruncatedModelFile:
    def test_every_cut_exits_with_a_code(self, tmp_path):
        # A saved default model cut at every offset below 200 and every 97
        # bytes after: each run exits 2 or 3, never with an exception.
        fp32, int8 = tmp_path / "m.fp32", tmp_path / "m.int8"
        assert main(["init", str(fp32)]) == EXIT_OK
        assert main(["quantize", str(fp32), str(int8)]) == EXIT_OK
        blob = int8.read_bytes()
        tokens = tmp_path / "t.npy"
        np.save(tokens, np.random.default_rng(0).integers(0, 64, 8))
        cut = tmp_path / "cut.int8"
        for n in [*range(200), *range(200, len(blob), 97)]:
            cut.write_bytes(blob[:n])
            rc = main(["infer", str(cut), str(tokens), "--tokens", "--out", str(tmp_path / "o.npy")])
            assert rc in (EXIT_VALIDATION, EXIT_IO), n


class TestFloat32Overflow:
    """An FP32 file whose twin overflows float32, though not float64: every
    command that meets it exits 2 with one error line and no warning."""

    def test_refused_with_exit_2(self, tmp_path, capsys):
        cfg = ModelConfig(d_m=16, heads=2, d_ff=32, vocab=24)
        ref = random_reference_model(cfg, seed=3)
        big = dataclasses.replace(ref.layers[0], w_q=ref.layers[0].w_q * np.float32(1e13))
        fp32, int8 = tmp_path / "big.fp32", tmp_path / "big.int8"
        save_model(str(fp32), dataclasses.replace(ref, layers=(big,) + ref.layers[1:]))
        tokens, out = tmp_path / "t.npy", tmp_path / "o.npy"
        np.save(tokens, np.arange(6))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["infer", str(fp32), str(tokens), "--tokens", "--out", str(out)]) == EXIT_VALIDATION
            assert capsys.readouterr().err == "error: this command needs a quantized model file\n"
            # The integer path runs it; the twin, which compare and report run, cannot.
            assert main(["quantize", str(fp32), str(int8)]) == EXIT_OK
            assert main(["infer", str(int8), str(tokens), "--tokens", "--out", str(out)]) == EXIT_OK
            for command in ("compare", "report"):
                capsys.readouterr()
                assert main([command, str(int8), "--seq-len", "8"]) == EXIT_VALIDATION
                assert capsys.readouterr().err == "error: rational tensor values must be finite\n"
