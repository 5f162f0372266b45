"""`src/intflow` holds what the system runs.

One forward of each kind (integer, FP32 twin, LN+Res hybrid) and every CLI
command must, between them, run every public function and method the
package defines.  Library code that only tests reach belongs in `tests/`.
A name that only the benchmark reaches stays, listed in ALLOWED with the
reason.
"""
import importlib
import inspect
import pkgutil
import sys

import numpy as np

import intflow
from intflow import cli
from intflow.scaling import Session
from intflow.transformer import (
    LN,
    RES,
    ModelConfig,
    forward,
    quantize_model,
    random_reference_model,
    reference_forward,
    reference_twin,
)

ALLOWED = {
    "intflow.scaling.scale_match": "bound by bench/tracer.py",
    "intflow.kernels.concat": "bound by bench/tracer.py",
    "intflow.tensor.transpose": "bound by bench/tracer.py as kernels.transpose",
    "intflow.tensor.ScaledTensor.data": "the payload view bench/harness.py and bench/tracer.py read",
    "intflow.tensor.ScaledTensor.scale": "the scale view bench/harness.py and bench/tracer.py read",
    "intflow.tensor.IntTensor.in_range": "called by bench/harness.py",
    "intflow.tensor.IntTensor.max_magnitude": "wrapped by bench/tracer.py; read by in_range",
    "intflow.audit.OpAuditLog.integer_pure": "called by bench/harness.py",
    "intflow.audit.OpAuditLog.payload_records": "called by bench/harness.py",
    "intflow.scaling.Lane.max_magnitude": (
        "the exact-max fallback where a lane's bound reaches LANE_MAX, MATCH_FLOAT_MAX or a "
        "product guard; a forward's p-bit bounds stay below them"
    ),
    "intflow.tensor.ScaledTensor.max_magnitude": (
        "the same fallback for a sealed operand, and the max that bench/harness.py's "
        "in_range reads past the bound"
    ),
    "intflow.tensor.check_lane": (
        "the lane guard's fallback, which raises once a scanned max|x| reaches LANE_MAX; "
        "every bound a forward derives stays below it, so none is scanned for the lane"
    ),
}


def public_code() -> dict[str, object]:
    """The code object of every public function, and of every public method
    and property of a public class, that a module of the package defines."""
    found = {}
    for info in pkgutil.iter_modules(intflow.__path__):
        module = importlib.import_module(f"intflow.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                found[where] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    fn = member.fget if isinstance(member, property) else member
                    fn = getattr(fn, "__func__", fn)  # classmethod, staticmethod
                    if inspect.isfunction(fn):
                        found[f"{where}.{attr}"] = fn.__code__
    return found


def run_everything(tmp_path) -> None:
    cfg = ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=1, vocab=16)
    model = quantize_model(random_reference_model(cfg, seed=0))
    twin = reference_twin(model)
    tokens = np.arange(6)
    forward(model, Session(), tokens=tokens)
    reference_forward(twin, tokens=tokens)
    forward(model, Session(), tokens=tokens, int_modules=frozenset({LN, RES}), ref=twin)

    fp32, int8 = str(tmp_path / "m.fp32"), str(tmp_path / "m.int8")
    toks, hidden = str(tmp_path / "tokens.npy"), str(tmp_path / "hidden.npy")
    np.save(toks, tokens)
    np.save(hidden, np.random.default_rng(0).normal(size=(6, 8)).astype(np.float32))
    for argv in (
        ["init", fp32, "--d-m", "8", "--heads", "2", "--d-ff", "16", "--layers", "1", "--vocab", "16"],
        ["quantize", fp32, int8],
        ["infer", int8, toks, "--tokens", "--out", str(tmp_path / "logits.npy")],
        ["infer", int8, hidden, "--out", str(tmp_path / "out.npy"), "--dequantize-output",
         "--audit", str(tmp_path / "audit.tsv")],
        ["compare", int8, "--seq-len", "6"],
        ["compare", int8, "--seq-len", "6", "--ablate", "LN,Res"],
        ["compare", int8, "--seq-len", "6", "--sweep-bits", "6..7"],
        ["report", int8, "--seq-len", "6"],
    ):
        assert cli.main(argv) == cli.EXIT_OK, argv


def test_every_public_function_runs(tmp_path, capsys):
    code = public_code()
    assert set(ALLOWED) <= set(code), "an allowed name is gone: drop it from ALLOWED"
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_everything(tmp_path)
    finally:
        sys.setprofile(None)
    unreached = sorted(name for name, c in code.items() if c not in ran and name not in ALLOWED)
    assert not unreached, f"only tests reach these; move them to tests/: {unreached}"
