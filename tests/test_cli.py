"""Command-line interface: every verb, flags, and exit codes."""
import numpy as np
import pytest

from intflow.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main


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


class TestInfer:
    def test_hidden_state_input(self, workspace, tmp_path):
        tmp, fp32, int8 = workspace
        x = tmp_path / "x.npy"
        y = tmp_path / "y.npy"
        np.save(x, np.random.default_rng(0).normal(size=(5, 16)).astype(np.float32))
        assert main(["infer", str(int8), str(x), "--out", str(y),
                     "--dequantize-output"]) == EXIT_OK
        assert np.load(y).shape == (5, 16)

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

    def test_ablate_unknown_module(self, workspace):
        tmp, fp32, int8 = workspace
        assert main(["compare", str(int8), "--ablate", "Bogus"]) == EXIT_VALIDATION


class TestReport:
    def test_report_lines(self, workspace, capsys):
        tmp, fp32, int8 = workspace
        capsys.readouterr()
        assert main(["report", str(int8), "--seq-len", "8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "storage\tratio" in out
        assert "speedup\testimate" in out

    def test_report_needs_quantized_model(self, workspace):
        tmp, fp32, int8 = workspace
        assert main(["report", str(fp32)]) == EXIT_VALIDATION


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
