"""A fixed plain-numpy calibration kernel, timed beside the library's forwards.

The kernel is a stand-in transformer forward with a workload's shapes, written
here and not in the library: a float64 pass (BLAS matmuls, small elementwise
ops), an int64 pass on a few tokens (numpy's non-BLAS integer matmuls) and a
short pure-Python loop.  The float pass resembles what the library's FP32
forward spends its time on, the whole kernel what its integer forward does,
yet no change to the library can make either faster or slower.  Timed in the
same iterations as the library's forwards, it measures how fast the machine
is at that moment: a shared machine slows a whole process for seconds at a
time, and dividing by the kernel's time cancels most of that.
"""
from __future__ import annotations

import math
import time

import numpy as np

SEED = 12345
INT_TOKENS = 16  # the int64 pass runs on this many tokens only: on all 128 of
                 # `wide` it would cost nearly as much as the integer forward
PY_STEPS = 5_000


class Calibration:
    def __init__(self, d_m: int, heads: int, d_ff: int, n_layers: int, vocab: int):
        rng = np.random.default_rng(SEED)

        def mat(out_dim, in_dim):
            return rng.normal(0.0, 1.0 / math.sqrt(in_dim), (out_dim, in_dim))

        self.d_m, self.heads = d_m, heads
        self.emb = rng.normal(0.0, 1.0, (vocab, d_m))
        self.layers = [
            {"q": mat(d_m, d_m), "k": mat(d_m, d_m), "v": mat(d_m, d_m), "o": mat(d_m, d_m),
             "w1": mat(d_ff, d_m), "w2": mat(d_m, d_ff)}
            for _ in range(n_layers)
        ]
        self.proj = mat(vocab, d_m)
        self.int_emb = self._q(self.emb)
        self.int_layers = [{k: self._q(w) for k, w in layer.items()} for layer in self.layers]
        self.int_proj = self._q(self.proj)

    @staticmethod
    def _q(values: np.ndarray) -> np.ndarray:
        return np.round(values * 64).astype(np.int64)

    def measure(self, tokens: np.ndarray) -> tuple[float, float]:
        """Seconds taken by the float pass and by the whole kernel."""
        t0 = time.perf_counter()
        self._float_pass(tokens)
        t1 = time.perf_counter()
        self._int_pass(tokens[:INT_TOKENS])
        _python_steps(PY_STEPS)
        return t1 - t0, time.perf_counter() - t0

    def _float_pass(self, tokens: np.ndarray) -> np.ndarray:
        x = self.emb[tokens]
        d_h = self.d_m // self.heads
        for w in self.layers:
            y = _l1_norm(x)
            q, k, v = y @ w["q"].T, y @ w["k"].T, y @ w["v"].T
            heads = []
            for h in range(self.heads):
                sl = slice(h * d_h, (h + 1) * d_h)
                s = np.maximum(q[:, sl] @ k[:, sl].T / math.sqrt(self.d_m) + 0.5, 0.0) ** 2 + 0.1
                heads.append((s @ v[:, sl]) / s.sum(-1, keepdims=True))
            x = x + np.concatenate(heads, 1) @ w["o"].T
            x = x + np.maximum(_l1_norm(x) @ w["w1"].T, 0.0) @ w["w2"].T
        return x @ self.proj.T

    def _int_pass(self, tokens: np.ndarray) -> np.ndarray:
        x = self.int_emb[tokens]
        d_h = self.d_m // self.heads
        for w in self.int_layers:
            y = _int_l1_norm(x)
            q, k, v = (y @ w["q"].T) >> 6, (y @ w["k"].T) >> 6, (y @ w["v"].T) >> 6
            heads = []
            for h in range(self.heads):
                sl = slice(h * d_h, (h + 1) * d_h)
                s = np.maximum(((q[:, sl] @ k[:, sl].T) >> 8) + 32, 0) ** 2
                heads.append((s @ v[:, sl]) // (s.sum(-1, keepdims=True) + 1))
            x = x + ((np.concatenate(heads, 1) @ w["o"].T) >> 6)
            x = x + ((np.maximum((_int_l1_norm(x) @ w["w1"].T) >> 6, 0) @ w["w2"].T) >> 6)
        return (x @ self.int_proj.T) >> 6


def _l1_norm(x: np.ndarray) -> np.ndarray:
    c = x - x.mean(-1, keepdims=True)
    return c / (np.abs(c).mean(-1, keepdims=True) + 1e-9)


def _int_l1_norm(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    c = x * n - x.sum(-1, keepdims=True)
    return (c * 64) // (np.abs(c).sum(-1, keepdims=True) // n + 1)


def _python_steps(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s
