"""Builders shared by the test modules."""
import numpy as np

from intflow.tensor import IntTensor, ScaledTensor, ScaleTensor


def scaled(data, scale, precision=7):
    """A ScaledTensor of int64 payload `data` and float64 scale `scale`."""
    return ScaledTensor(
        IntTensor(np.asarray(data, dtype=np.int64), precision),
        ScaleTensor(np.asarray(scale, dtype=np.float64)),
    )
