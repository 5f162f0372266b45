"""Binary model container: round trips, validation, byte accounting."""
import hashlib

import numpy as np
import pytest

from intflow.cli import EXIT_OK, EXIT_VALIDATION, main
from intflow.errors import ValidationError
from intflow.modelfile import (
    FLAG_QUANTIZED,
    HEADER_SIZE,
    MAGIC,
    _encode,
    _records,
    deserialize,
    load_model,
    record_sizes,
    save_model,
    serialize,
)
from intflow.scaling import ScaleGranularity, Session
from intflow.transformer import (
    LAYER_TENSORS,
    MODEL_TENSORS,
    FP32ReferenceModel,
    IntegerTransformerModel,
    ModelConfig,
    forward,
    quantize_model,
    random_reference_model,
)


# Header byte 9 holds the flags; bit 0 (FLAG_QUANTIZED) marks int8 payloads.
FLAG_BYTE = 9


@pytest.fixture(scope="module")
def pair():
    cfg = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=2, vocab=24)
    ref = random_reference_model(cfg, seed=5)
    return ref, quantize_model(ref)


class TestRoundTrips:
    def test_int_model_write_read_write_is_bit_exact(self, pair):
        ref, model = pair
        blob = serialize(model)
        again = serialize(deserialize(blob))
        assert blob == again

    def test_fp32_model_write_read_write_is_bit_exact(self, pair):
        ref, model = pair
        blob = serialize(ref)
        again = serialize(deserialize(blob))
        assert blob == again

    def test_reloaded_model_reproduces_outputs_exactly(self, pair):
        ref, model = pair
        m2 = deserialize(serialize(model))
        tok = np.arange(6)
        o1 = forward(model, Session(), tokens=tok)
        o2 = forward(m2, Session(), tokens=tok)
        assert np.array_equal(o1.x, o2.x)
        assert np.array_equal(o1.s, o2.s)

    def test_save_load_files(self, pair, tmp_path):
        ref, model = pair
        fp = tmp_path / "m.fp32"
        iq = tmp_path / "m.int8"
        save_model(str(fp), ref)
        save_model(str(iq), model)
        assert isinstance(load_model(str(fp)), FP32ReferenceModel)
        assert isinstance(load_model(str(iq)), IntegerTransformerModel)


def payloads(model):
    leaves = [getattr(lp, f) for lp in model.layers for f in LAYER_TENSORS]
    return [t.x for t in leaves] + [getattr(model, f).x for f in MODEL_TENSORS]


class TestInPlaceRecords:
    """Records are read in place: an int8 payload is a view of the file's
    bytes, and a writable blob is copied so that later writes miss the model."""

    def test_int8_payloads_share_the_blob(self, pair):
        _, model = pair
        blob = serialize(model)
        raw = np.frombuffer(blob, np.uint8)
        held = payloads(deserialize(blob))
        assert len(held) == 4 + 12 * model.config.n_layers
        assert all(np.shares_memory(p, raw) for p in held)

    def test_writes_to_a_bytearray_after_loading_miss_the_model(self, pair):
        _, model = pair
        blob = bytearray(serialize(model))
        loaded = deserialize(blob)
        before = [p.copy() for p in payloads(loaded)]
        tok = np.arange(6)
        o1 = forward(loaded, Session(), tokens=tok)
        blob[HEADER_SIZE:] = bytes(len(blob) - HEADER_SIZE)
        assert all(np.array_equal(p, q) for p, q in zip(payloads(loaded), before))
        o2 = forward(loaded, Session(), tokens=tok)
        assert np.array_equal(o1.x, o2.x)
        assert np.array_equal(o1.s, o2.s)


class TestValidation:
    def test_bad_magic(self, pair):
        ref, model = pair
        blob = bytearray(serialize(model))
        blob[:4] = b"NOPE"
        with pytest.raises(ValidationError):
            deserialize(bytes(blob))

    def test_truncated_file(self, pair):
        ref, model = pair
        blob = serialize(model)
        with pytest.raises(ValidationError):
            deserialize(blob[: len(blob) // 2])

    def test_wrong_container_flavor(self, pair):
        # The reader takes the flavour from the flag byte; records of the
        # other flavour than the flag names are refused, not misread.
        ref, model = pair
        for held, flag in ((model, 0), (ref, FLAG_QUANTIZED)):
            blob = bytearray(serialize(held))
            blob[FLAG_BYTE] = flag
            with pytest.raises(ValidationError, match=r"^tensor 'layers.0.w_q' has the wrong dtype$"):
                deserialize(bytes(blob))

    @pytest.mark.parametrize("record", [0, 3])
    def test_name_not_utf8(self, pair, record):
        # The refusal gives the name's byte offset, not Python's codec message.
        _, model = pair
        blob = bytearray(serialize(model))
        at = HEADER_SIZE + 2
        for _, _, _, size in list(_records(bytes(blob)))[:record]:
            at += size
        blob[at] = 0xFF
        with pytest.raises(ValidationError, match=rf"^tensor name at byte {at} is not valid UTF-8$"):
            deserialize(bytes(blob))

    def test_save_refuses_other_objects(self, tmp_path):
        with pytest.raises(ValidationError):
            save_model(str(tmp_path / "x.bin"), object())

    def test_high_precision_models_refuse_int8_container(self, pair):
        ref, model = pair
        m12 = quantize_model(ref, precision=12)
        with pytest.raises(ValidationError):
            serialize(m12)

    def test_payload_must_respect_declared_precision(self, pair):
        ref, model = pair
        blob = bytearray(serialize(model))
        # Lower the declared precision below the stored payload range.
        assert blob[:4] == MAGIC
        blob[6] = 2
        with pytest.raises(ValidationError):
            deserialize(bytes(blob))


def rewrite_records(blob: bytes, cut, *names: str) -> bytes:
    """The container with cut(array) stored in place of each named record."""
    chunks = [blob[:HEADER_SIZE]]
    for name, dtype, arr, _ in _records(blob):
        chunks += _encode(name, dtype, cut(arr) if name in names else arr)
    return b"".join(chunks)


class TestLayerNormWidth:
    """Every LN gain and bias record holds d_m entries; a file where one does
    not is corrupt and is rejected at load, never broadcast at run time."""

    def width_one(self, arr):
        return arr[..., :1]

    def rank_zero(self, arr):
        return arr[..., 0]

    @pytest.mark.parametrize("names, cut", [
        (("layers.0.ln1.b", "layers.0.ln1.b.scale"), "width_one"),
        (("final_ln.b", "final_ln.b.scale"), "width_one"),
        (("layers.1.ln2.g", "layers.1.ln2.g.scale"), "rank_zero"),
    ])
    def test_int_file(self, pair, names, cut):
        _, model = pair
        blob = serialize(model)
        assert rewrite_records(blob, lambda a: a, *names) == blob
        with pytest.raises(ValidationError, match="has shape"):
            deserialize(rewrite_records(blob, getattr(self, cut), *names))

    @pytest.mark.parametrize("names, cut", [
        (("layers.0.ln1.b",), "width_one"),
        (("layers.1.ln2.g", "layers.1.ln2.b"), "width_one"),
        (("final_ln.g",), "rank_zero"),
    ])
    def test_fp32_file(self, pair, names, cut):
        ref, _ = pair
        blob = serialize(ref)
        with pytest.raises(ValidationError, match="has shape"):
            deserialize(rewrite_records(blob, getattr(self, cut), *names))

    def test_cli_exits_with_validation_error(self, pair, tmp_path):
        ref, model = pair
        int8, fp32 = tmp_path / "bad.int8", tmp_path / "bad.fp32"
        names = ("layers.0.ln1.b", "layers.0.ln1.b.scale")
        int8.write_bytes(rewrite_records(serialize(model), self.width_one, *names))
        fp32.write_bytes(rewrite_records(serialize(ref), self.width_one, names[0]))
        tokens = tmp_path / "t.npy"
        np.save(tokens, np.arange(6))
        out = str(tmp_path / "o.npy")
        assert main(["infer", str(int8), str(tokens), "--tokens", "--out", out]) == EXIT_VALIDATION
        assert main(["quantize", str(fp32), str(tmp_path / "q.int8")]) == EXIT_VALIDATION


# One corrupt record each: too few rows, or a bias of width 1.  In an int8
# file its `.scale` sibling is cut alike, so payload and scale still agree.
BAD_SHAPES = {
    "emb": lambda arr: arr[:8],
    "proj": lambda arr: arr[:8],
    "layers.0.b1": lambda arr: arr[..., :1],
    "layers.1.b2": lambda arr: arr[..., :1],
}


def with_degree(degree: float):
    """A cut that writes `degree` into a poly record's (bias, degree, offset)."""

    def cut(arr):
        out = arr.copy()
        out[1] = degree
        return out

    return cut


class TestRecordShapes:
    """Every record has the shape its schema entry names in ModelConfig dims;
    a file where one does not is corrupt and is rejected at load, never run."""

    @pytest.mark.parametrize("name", sorted(BAD_SHAPES))
    def test_int_file(self, pair, name):
        _, model = pair
        blob = rewrite_records(serialize(model), BAD_SHAPES[name], name, name + ".scale")
        with pytest.raises(ValidationError, match="has shape"):
            deserialize(blob)

    @pytest.mark.parametrize("name", sorted(BAD_SHAPES))
    def test_fp32_file(self, pair, name):
        ref, _ = pair
        blob = rewrite_records(serialize(ref), BAD_SHAPES[name], name)
        with pytest.raises(ValidationError, match="has shape"):
            deserialize(blob)


class TestPolyDegree:
    """A `layers.i.poly` record repeats the header's degree; one that differs
    is rejected, not run at its own degree."""

    @pytest.mark.parametrize("degree", [2.0, 2.4])
    def test_int_file(self, pair, degree):
        _, model = pair
        blob = rewrite_records(serialize(model), with_degree(degree), "layers.0.poly")
        with pytest.raises(ValidationError, match="degree"):
            deserialize(blob)

    @pytest.mark.parametrize("degree", [2.0, 2.4])
    def test_fp32_file(self, pair, degree):
        ref, _ = pair
        blob = rewrite_records(serialize(ref), with_degree(degree), "layers.1.poly")
        with pytest.raises(ValidationError, match="degree"):
            deserialize(blob)


def with_constant(index: int, value: float):
    """A cut that writes `value` as a poly record's bias (0) or offset (2)."""

    def cut(arr):
        out = arr.copy()
        out[index] = value
        return out

    return cut


class TestPolyConstants:
    """The polynomial's bias and offset are finite; a record holding NaN or
    an infinity is rejected at load with its name, not carried into a model
    that every forward then refuses."""

    CASES = [(i, v) for i in (0, 2) for v in (np.nan, np.inf, -np.inf)]

    @pytest.mark.parametrize("index, value", CASES)
    def test_int_file(self, pair, index, value):
        _, model = pair
        blob = rewrite_records(serialize(model), with_constant(index, value), "layers.1.poly")
        with pytest.raises(ValidationError, match="'layers.1.poly'.*finite"):
            deserialize(blob)

    @pytest.mark.parametrize("index, value", CASES)
    def test_fp32_file(self, pair, index, value):
        ref, _ = pair
        blob = rewrite_records(serialize(ref), with_constant(index, value), "layers.0.poly")
        with pytest.raises(ValidationError, match="'layers.0.poly'.*finite"):
            deserialize(blob)

    def test_quantize_refuses_a_nan_bias(self, pair, tmp_path, capsys):
        ref, _ = pair
        src, dst = tmp_path / "nan.fp32", tmp_path / "nan.int8"
        src.write_bytes(
            rewrite_records(serialize(ref), with_constant(0, np.nan), "layers.0.poly")
        )
        capsys.readouterr()
        assert main(["quantize", str(src), str(dst)]) == EXIT_VALIDATION
        assert "'layers.0.poly'" in capsys.readouterr().err
        assert not dst.exists()


@pytest.mark.parametrize("name", [*BAD_SHAPES, "layers.0.poly"])
def test_cli_refuses_corrupt_records(pair, tmp_path, name):
    _, model = pair
    cut = BAD_SHAPES.get(name, with_degree(2.0))
    bad = tmp_path / "bad.int8"
    bad.write_bytes(rewrite_records(serialize(model), cut, name, name + ".scale"))
    tokens, hidden = tmp_path / "t.npy", tmp_path / "h.npy"
    np.save(tokens, np.arange(model.config.vocab))
    np.save(hidden, np.ones((4, model.config.d_m)))
    out = str(tmp_path / "o.npy")
    for argv in (
        ["infer", str(bad), str(tokens), "--tokens", "--out", out],
        ["infer", str(bad), str(hidden), "--out", out],
        ["compare", str(bad)],
        ["report", str(bad)],
    ):
        assert main(argv) == EXIT_VALIDATION, argv


class TestGranularityCode:
    """Header byte 7 holds the granularity: 0 = row, 2 = b.  Code 1 was the
    retired "bt", which acted as row; v1 files carrying it load as row."""

    GRAN_BYTE = 7

    def with_code(self, blob: bytes, code: int) -> bytes:
        patched = bytearray(blob)
        assert patched[self.GRAN_BYTE] == 0
        patched[self.GRAN_BYTE] = code
        return bytes(patched)

    @pytest.mark.parametrize("flavor", ["int", "fp32"])
    def test_retired_code_loads_as_row_and_resaves_as_zero(self, pair, flavor):
        ref, model = pair
        blob = serialize(model if flavor == "int" else ref)
        loaded = deserialize(self.with_code(blob, 1))
        assert loaded.config.granularity is ScaleGranularity.PER_ROW
        assert serialize(loaded) == blob

    def test_per_batch_code_round_trips(self, pair):
        ref, _ = pair
        blob = serialize(ref)
        loaded = deserialize(self.with_code(blob, 2))
        assert loaded.config.granularity is ScaleGranularity.PER_BATCH
        assert serialize(loaded)[self.GRAN_BYTE] == 2

    def test_unknown_code_is_rejected(self, pair):
        ref, model = pair
        with pytest.raises(ValidationError):
            deserialize(self.with_code(serialize(model), 3))


class TestByteAccounting:
    def test_record_sizes_cover_the_file(self, pair):
        ref, model = pair
        blob = serialize(model)
        payload, scales = record_sizes(blob)
        assert payload + scales + HEADER_SIZE == len(blob)

    def test_int8_file_is_much_smaller(self, pair):
        # Scale records and per-record overhead weigh more at tiny widths, so
        # this toy (d_m=16) lands below the d_m=32 ratio checked elsewhere.
        ref, model = pair
        ratio = len(serialize(ref)) / len(serialize(model))
        assert 2.5 < ratio < 4.0


class TestPinnedSchema:
    """File bytes of both flavours, pinned so that a change to the parameter
    schema keeps each of them bit for bit."""

    @staticmethod
    def _models():
        ref = random_reference_model(ModelConfig(), seed=0)
        return ref, quantize_model(ref)

    @staticmethod
    def _sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def test_int_model_bytes(self):
        _, model = self._models()
        assert self._sha(serialize(model)) == (
            "040e8f45794ce485b2bbec86065c5db7d6be89494976e9168554352e1f8e781e"
        )

    def test_reference_model_bytes(self):
        ref, _ = self._models()
        assert self._sha(serialize(ref)) == (
            "612b74a5378db75ce661a149270a93ff509c6a7172060ab5ce6b8d264d1b11dd"
        )


@pytest.fixture()
def default_int8(tmp_path):
    """The default int8 file (`init`, then `quantize`) and its token ids."""
    fp32, int8 = tmp_path / "m.fp32", tmp_path / "m.int8"
    assert main(["init", str(fp32)]) == EXIT_OK
    assert main(["quantize", str(fp32), str(int8)]) == EXIT_OK
    tokens = tmp_path / "t.npy"
    np.save(tokens, np.random.default_rng(0).integers(0, 64, 8))
    return int8.read_bytes(), tokens


def test_cli_runs_a_per_tensor_embedding_scale(default_int8, tmp_path, capsys):
    """An `emb.scale` record of shape (1, 1) is one scale for every row: all
    three token commands run, with the logits of that scale repeated per row."""
    blob, tokens = default_int8
    runs = {}
    for label, cut in (
        ("one", lambda s: s[:1]),
        ("repeated", lambda s: np.repeat(s[:1], len(s), axis=0)),
    ):
        path, out = tmp_path / f"{label}.int8", tmp_path / f"{label}.npy"
        path.write_bytes(rewrite_records(blob, cut, "emb.scale"))
        assert main(["infer", str(path), str(tokens), "--tokens", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["compare", str(path)]) == EXIT_OK
        assert main(["report", str(path)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        # The storage lines count the file's bytes, which differ, and the
        # measured lines time forwards, which vary from run to run.
        runs[label] = np.load(out), [
            line for line in printed if not line.startswith(("storage", "measured"))
        ]
    assert deserialize((tmp_path / "one.int8").read_bytes()).embedding.s.shape == (1, 1)
    assert np.array_equal(runs["one"][0], runs["repeated"][0])
    assert runs["one"][1] == runs["repeated"][1]


@pytest.mark.parametrize("precision, value", [(7, -128), (5, -32)])
def test_cli_refuses_a_payload_beyond_its_precision(default_int8, tmp_path, precision, value):
    """One int8 payload entry of magnitude 2^p, one past the range of a p-bit
    header, is refused at load (exit 2); -128 at p = 7 is its own np.abs."""
    blob, tokens = default_int8
    if precision != 7:
        fp32, blob_path = tmp_path / "p.fp32", tmp_path / "p.int8"
        assert main(["init", str(fp32)]) == EXIT_OK
        assert main(["quantize", str(fp32), str(blob_path), "--precision", str(precision)]) == EXIT_OK
        blob = blob_path.read_bytes()

    def poke(arr):
        out = arr.copy()
        out.flat[0] = value
        return out

    bad = tmp_path / "bad.int8"
    bad.write_bytes(rewrite_records(blob, poke, "layers.0.w1"))
    assert main(["infer", str(bad), str(tokens), "--tokens", "--out", str(tmp_path / "o.npy")]) == (
        EXIT_VALIDATION
    )
