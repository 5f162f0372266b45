"""Seeded fuzz of `intflow infer`: extreme inputs exit 0 or 2, never a traceback.

Each case is an input array written to .npy and run through `cli.main`:
hidden states with extreme finite magnitudes, token ids in narrow integer
dtypes, odd ranks and empty arrays.  A run that exits 0 must write finite
values and, for raw payloads, payloads within the model's precision.  The
refusals are pinned by message and count, so a change to the range
bookkeeping that moved a fallback path onto another error shows up here.
"""
import hashlib
from collections import Counter

import numpy as np
import pytest

from intflow.cli import EXIT_OK, EXIT_VALIDATION, main

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
# "token ids out of range" (14) covered the rank-0 and rank-2 ids.
PINNED_REFUSALS = {
    "hidden input is empty: a forward needs at least one row": 4,
    "input must be T x 16, got ()": 5,
    "input must be T x 16, got (0, 0)": 3,
    "input must be T x 16, got (0,)": 8,
    "input must be T x 16, got (1, 0)": 2,
    "input must be T x 16, got (1, 1, 16)": 2,
    "input must be T x 16, got (1, 2, 16)": 1,
    "input must be T x 16, got (1, 3, 16)": 1,
    "input must be T x 16, got (16,)": 3,
    "input must be T x 16, got (2, 0)": 2,
    "input must be T x 16, got (2, 17)": 1,
    "input must be T x 16, got (3, 0)": 2,
    "input must be T x 16, got (3, 17)": 2,
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
