"""Seeded fuzz of the CLI: extreme inputs and corrupted model files exit 0
or 2, never a traceback.

Each input case is an array written to .npy and run through `cli.main`:
hidden states with extreme finite magnitudes, token ids in narrow integer
dtypes, odd ranks and empty arrays.  A run that exits 0 must write finite
values and, for raw payloads, payloads within the model's precision.  The
refusals are pinned by message and count, so a change to the range
bookkeeping that moved a fallback path onto another error shows up here.

Each corrupted-file case rewrites 1-3 bytes of the int8 or the FP32 model
file and runs `infer --tokens` or `quantize` on it; exit codes and kinds of
refusal are pinned by count.
"""
import hashlib
import re
from collections import Counter

import numpy as np
import pytest

from intflow.cli import EXIT_OK, EXIT_VALIDATION, main
from intflow.modelfile import HEADER_SIZE, _records, load_model

D_M, VOCAB = 16, 24
CASES = 150
SEED = 20261018

# Magnitudes at the ends of float64's finite range and in between.
EXTREMES = np.array([1e308, -1e308, 5e-324, -5e-324, 2.2e-308, 3.4e38, 1e-30, 1.0, 0.0])
NARROW_INTS = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.int64)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Two quantized models of the same shape, at p = 7 and p = 5."""
    tmp = tmp_path_factory.mktemp("fuzz")
    fp32 = tmp / "m.fp32"
    assert main(["init", str(fp32), "--seed", "5", "--d-m", str(D_M), "--heads", "2",
                 "--d-ff", "32", "--vocab", str(VOCAB)]) == EXIT_OK
    out = {}
    for p in (7, 5):
        path = tmp / f"m{p}.int"
        assert main(["quantize", str(fp32), str(path), "--precision", str(p)]) == EXIT_OK
        out[p] = path
    return tmp, out


def _hidden(rng) -> np.ndarray:
    """T x d_m floats mixing extreme magnitudes with ordinary ones."""
    t = int(rng.integers(1, 5))
    kind = rng.integers(4)
    if kind == 0:  # every element drawn from the extremes
        x = rng.choice(EXTREMES, (t, D_M))
    elif kind == 1:  # ordinary values with a few extremes planted
        x = rng.normal(size=(t, D_M))
        mask = rng.random((t, D_M)) < 0.2
        x[mask] = rng.choice(EXTREMES, int(mask.sum()))
    elif kind == 2:  # one extreme magnitude per row, signs mixed
        x = rng.choice(EXTREMES, (t, 1)) * rng.choice([-1.0, 1.0], (t, D_M))
    else:  # ordinary values scaled to one extreme
        x = rng.normal(size=(t, D_M)) * rng.choice([1e300, 1e-300, 1e-320, 1e30])
    dtype = rng.choice([np.float64, np.float32])
    with np.errstate(over="ignore", under="ignore"):
        x = x.astype(dtype)
    return np.where(np.isfinite(x), x, 0).astype(dtype)


def _odd_hidden(rng) -> np.ndarray:
    """Hidden inputs of the wrong rank, width or length, or of integer type."""
    t = int(rng.integers(1, 4))
    shapes = [(), (D_M,), (1, t, D_M), (t, D_M + 1), (t, 0), (0, D_M), (0,), (0, 0)]
    kind = int(rng.integers(len(shapes) + 1))
    if kind == len(shapes):  # a valid shape held in a narrow integer type
        dtype = NARROW_INTS[int(rng.integers(len(NARROW_INTS)))]
        info = np.iinfo(dtype)
        return rng.integers(info.min, int(info.max) + 1, (t, D_M)).astype(dtype)
    return rng.normal(size=shapes[kind])


def _tokens(rng) -> np.ndarray:
    """Token ids in a narrow integer type, in and out of range, of odd rank
    or empty, or not integers at all."""
    dtype = NARROW_INTS[int(rng.integers(len(NARROW_INTS)))]
    t = int(rng.integers(1, 6))
    kind = int(rng.integers(7))
    if kind <= 2:  # in range
        ids = rng.integers(0, VOCAB, t)
    elif kind == 3:  # one id out of range, either side where the dtype allows
        ids = rng.integers(0, VOCAB, t)
        ids[int(rng.integers(t))] = VOCAB if rng.random() < 0.5 else -1
    elif kind == 4:  # empty
        ids = np.zeros(0, dtype=np.int64)
    elif kind == 5:  # rank 0 or 2
        ids = rng.integers(0, VOCAB, () if rng.random() < 0.5 else (2, t))
    else:  # floats or booleans
        return rng.integers(0, 2, t).astype(rng.choice([np.float64, np.bool_]))
    if dtype in (np.uint8, np.uint16):
        ids = np.where(ids < 0, VOCAB, ids)
    return ids.astype(dtype)


def _cases():
    rng = np.random.default_rng(SEED)
    for i in range(CASES):
        p = (7, 5)[i % 2]
        kind = int(rng.integers(3))
        if kind == 0:
            yield p, _hidden(rng), False, bool(rng.random() < 0.5)
        elif kind == 1:
            yield p, _odd_hidden(rng), False, False
        else:
            yield p, _tokens(rng), True, bool(rng.random() < 0.5)


# Every refusal the fuzz produced, with its count.  Before token ids and
# hidden inputs were checked for rank and emptiness, the same cases gave
# the same messages, except that numpy's "zero-size array to reduction
# operation minimum which has no identity" (11) stood for the empty ones and
# "token ids out of range" (14) covered the rank-0 and rank-2 ids.  Until
# forward owned the hidden input's checks, each shape message read "input
# must be T x 16, got (...)", with the same counts.
PINNED_REFUSALS = {
    "hidden input is empty: a forward needs at least one row": 4,
    "hidden input must be T x 16, got ()": 5,
    "hidden input must be T x 16, got (0, 0)": 3,
    "hidden input must be T x 16, got (0,)": 8,
    "hidden input must be T x 16, got (1, 0)": 2,
    "hidden input must be T x 16, got (1, 1, 16)": 2,
    "hidden input must be T x 16, got (1, 2, 16)": 1,
    "hidden input must be T x 16, got (1, 3, 16)": 1,
    "hidden input must be T x 16, got (16,)": 3,
    "hidden input must be T x 16, got (2, 0)": 2,
    "hidden input must be T x 16, got (2, 17)": 1,
    "hidden input must be T x 16, got (3, 0)": 2,
    "hidden input must be T x 16, got (3, 17)": 2,
    "scale values must be strictly positive": 17,
    "token ids are empty: a forward needs at least one token": 7,
    "token ids must be a 1-D array, got shape ()": 4,
    "token ids must be a 1-D array, got shape (2, 1)": 1,
    "token ids must be a 1-D array, got shape (2, 2)": 1,
    "token ids must be a 1-D array, got shape (2, 3)": 1,
    "token ids must be a 1-D array, got shape (2, 5)": 1,
    "token ids must be integers, got bool": 4,
    "token ids must be integers, got float64": 4,
    "token ids out of range": 6,
}
PINNED_EXIT_OK = 68
# sha256 over the index and output bytes of every run that exited 0; the
# same before the range bookkeeping, so its fallbacks move no payload.
PINNED_OUTPUTS = "561bc48947ea7367618ebcc139b905c44a58cf76939651b3b6faea762e8de306"


def test_infer_fuzz_exits_cleanly(models, capsys):
    tmp, paths = models
    refusals = Counter()
    ok = 0
    outputs = hashlib.sha256()
    for i, (p, data, tokens, deq) in enumerate(_cases()):
        src, dst = tmp / f"in{i}.npy", tmp / f"out{i}.npy"
        np.save(src, data)
        argv = ["infer", str(paths[p]), str(src), "--out", str(dst)]
        argv += ["--tokens"] * tokens + ["--dequantize-output"] * deq
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_VALIDATION), (i, rc, err)
        assert "Traceback" not in err
        if rc == EXIT_VALIDATION:
            assert err.startswith("error: "), (i, err)
            refusals[err[len("error: "):].strip()] += 1
            continue
        ok += 1
        out = np.load(dst)
        outputs.update(str(i).encode() + out.tobytes())
        assert np.all(np.isfinite(out)), i
        if not deq:
            assert out.dtype == np.int64
            assert np.abs(out).max() <= (1 << p) - 1, i
    assert dict(refusals) == PINNED_REFUSALS
    assert ok == PINNED_EXIT_OK
    assert outputs.hexdigest() == PINNED_OUTPUTS


CORRUPT_CASES = 400


def _corrupted(blob: bytes, rng) -> bytes:
    """blob with 1-3 bytes at random offsets each changed to another value."""
    out = bytearray(blob)
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(len(out)))
        out[k] = (out[k] + int(rng.integers(1, 256))) % 256
    return bytes(out)


def _kind(message: str) -> str:
    """A refusal with its names, bytes and numbers blanked: its kind."""
    return re.sub(r"0x[0-9a-f]+|'[^']*'|\(.*\)|-?\d+(\.\d+)?", "#", message)


# Exit codes and refusal kinds of the corrupted-file cases, by flavour:
# `infer --tokens` on the int8 file, `quantize` on the FP32 file.
PINNED_CORRUPT_EXITS = {"fp32 0": 187, "fp32 2": 13, "int8 0": 129, "int8 2": 71}
PINNED_CORRUPT_REFUSALS = {
    "fp32: bad magic; not a model file": 1,
    "fp32: file truncated in a tensor name": 1,
    "fp32: file truncated in the data of #": 2,
    "fp32: missing tensor #": 3,
    "fp32: polynomial degree # differs from the header's #": 1,
    "fp32: tensor name at byte # is not valid UTF#": 1,
    "fp32: unknown dtype tag # for #": 4,
    "int8: file truncated in a tensor name": 2,
    "int8: file truncated in the data of #": 16,
    "int8: header promises # tensors, file holds #": 2,
    "int8: missing tensor #": 13,
    "int8: scale values must be strictly positive": 6,
    "int8: tensor # exceeds the declared precision": 1,
    "int8: tensor # has shape #": 1,
    "int8: tensor name at byte # is not valid UTF#": 23,
    "int8: unknown dtype tag # for #": 7,
}


def test_corrupted_model_files_exit_cleanly(models, capsys):
    tmp, paths = models
    blobs = {"int8": paths[7].read_bytes(), "fp32": (tmp / "m.fp32").read_bytes()}
    tokens = tmp / "tokens.npy"
    np.save(tokens, np.arange(8) % VOCAB)
    rng = np.random.default_rng(SEED)
    exits, refusals = Counter(), Counter()
    for i in range(CORRUPT_CASES):
        flavour = ("int8", "fp32")[i % 2]
        src = tmp / "corrupt.bin"
        src.write_bytes(_corrupted(blobs[flavour], rng))
        if flavour == "int8":
            dst = tmp / "corrupt.npy"
            argv = ["infer", str(src), str(tokens), "--tokens", "--out", str(dst)]
        else:
            dst = tmp / "corrupt.int"
            argv = ["quantize", str(src), str(dst)]
        capsys.readouterr()
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (EXIT_OK, EXIT_VALIDATION), (i, rc, err)
        assert err.startswith("error: ") if rc else not err, (i, err)
        exits[f"{flavour} {rc}"] += 1
        if rc == EXIT_VALIDATION:
            refusals[f"{flavour}: {_kind(err[len('error: '):].strip())}"] += 1
        elif flavour == "int8":
            out = np.load(dst)
            assert out.dtype == np.int64 and np.abs(out).max() <= 127, i
        else:
            assert load_model(str(dst)).config.precision == 7
    assert dict(exits) == PINNED_CORRUPT_EXITS
    assert dict(refusals) == PINNED_CORRUPT_REFUSALS


def test_a_signaling_nan_record_is_refused_quietly(models, capsys):
    # Its cast to float64 raised numpy's "invalid value" warning.
    tmp, _ = models
    blob = bytearray((tmp / "m.fp32").read_bytes())
    pos = HEADER_SIZE
    for name, _, arr, size in _records(bytes(blob)):
        if name == "layers.0.w1":
            at = pos + size - arr.nbytes
            blob[at:at + 4] = np.array([0x7F800001], np.uint32).tobytes()  # a float32 sNaN
            break
        pos += size
    src = tmp / "snan.fp32"
    src.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["quantize", str(src), str(tmp / "snan.int")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: rational tensor values must be finite\n"


CONFIG_CASES = 40


def _configs():
    """Seeded valid ModelConfigs with tiny dimensions: every precision from 2
    to 15, each once at the highest polynomial degree it admits
    (degree * (p + 1) <= 62) and otherwise at a random degree below that."""
    rng = np.random.default_rng(SEED)
    for i in range(CONFIG_CASES):
        p = 2 + i % 14
        top = 62 // (p + 1)
        heads = int(rng.integers(1, 4))
        yield {
            "precision": p,
            "degree": top if i < 14 else int(rng.integers(1, top + 1)),
            "heads": heads,
            "d-m": heads * int(rng.integers(1, 4)),
            "d-ff": int(rng.integers(1, 7)),
            "layers": int(rng.integers(0, 3)),
            "vocab": int(rng.integers(2, 9)),
            "granularity": ("row", "b")[int(rng.integers(2))],
            "seed": int(rng.integers(1000)),
        }, int(rng.integers(1, 6))
    # One of two refusals in 400 random configs run through the library.
    yield {"precision": 2, "degree": 20, "heads": 1, "d-m": 3, "d-ff": 6, "layers": 1,
           "vocab": 8, "granularity": "b", "seed": 285}, 4


# Exit codes of the random-config cases, by the step that ended each run,
# and the kinds of refusal.  A precision from 8 up has no int8 container, so
# `quantize` refuses it.  The lane overflow is the last case's: the
# attention offset, quantized at a scale the power raised to s^20, leaves
# the accumulator lane in a group that is not all zeros (_refit_zero_groups).
PINNED_CONFIG_EXITS = {"infer 0": 18, "infer 2": 1, "quantize 2": 22}
PINNED_CONFIG_REFUSALS = {
    "infer: quantized payload exceeds accumulator lane": 1,
    "quantize: int# container requires precision <= #": 22,
}


def test_random_configs_run_or_refuse(tmp_path, capsys):
    exits, refusals = Counter(), Counter()
    for i, (cfg, t) in enumerate(_configs()):
        fp32, q, tokens, out = (tmp_path / f"{i}.{ext}" for ext in ("fp32", "int", "tok.npy", "out.npy"))
        np.save(tokens, np.arange(t) % cfg["vocab"])
        flags = [f"--{k}={v}" for k, v in cfg.items() if k not in ("precision", "granularity")]
        quant = [f"--precision={cfg['precision']}", f"--granularity={cfg['granularity']}"]
        steps = [
            ["init", str(fp32), *flags, *quant],
            ["quantize", str(fp32), str(q), *quant],
            ["infer", str(q), str(tokens), "--tokens", "--out", str(out)],
        ]
        for argv in steps:
            capsys.readouterr()
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc in (EXIT_OK, EXIT_VALIDATION), (i, argv[0], rc, err)
            assert err.startswith("error: ") if rc else not err, (i, argv[0], err)
            if rc:
                refusals[f"{argv[0]}: {_kind(err[len('error: '):].strip())}"] += 1
                break
        exits[f"{argv[0]} {rc}"] += 1
        if not rc:
            logits = np.load(out)
            assert logits.dtype == np.int64 and logits.shape == (t, cfg["vocab"]), i
            assert np.abs(logits).max() <= (1 << cfg["precision"]) - 1, i
    assert dict(exits) == PINNED_CONFIG_EXITS
    assert dict(refusals) == PINNED_CONFIG_REFUSALS
