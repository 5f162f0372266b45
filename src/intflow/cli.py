"""Command-line front end: create, quantize, run, and analyze models.

Exit codes: 0 success, 2 validation failure, 3 I/O or file-format failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .analysis import (
    DEFAULT_FACTOR,
    bit_sweep,
    measure_forwards,
    module_ablation,
    precision_loss,
    speedup_estimate,
    storage_report,
)
from .errors import IntflowError, ValidationError
from .modelfile import load_model, save_model
from .scaling import ScaleGranularity, Session
from .tensor import PRECISIONS
from .transformer import (
    FP32ReferenceModel,
    IntegerTransformerModel,
    MODULES,
    ModelConfig,
    forward,
    quantize_model,
    random_reference_model,
    reference_twin,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

_GRANULARITIES = {g.value: g for g in ScaleGranularity}


def _add_arch_flags(sub: argparse.ArgumentParser) -> None:
    cfg = ModelConfig()
    sub.add_argument("--d-m", type=int, default=cfg.d_m, help="hidden width")
    sub.add_argument("--heads", type=int, default=cfg.heads, help="attention heads")
    sub.add_argument("--d-ff", type=int, default=cfg.d_ff, help="feed-forward width")
    sub.add_argument("--layers", type=int, default=cfg.n_layers, help="encoder layers")
    sub.add_argument("--vocab", type=int, default=cfg.vocab, help="vocabulary size")
    sub.add_argument("--degree", type=int, default=cfg.degree, help="attention polynomial degree")


def _add_quant_flags(sub: argparse.ArgumentParser, cfg: ModelConfig | None) -> None:
    """--precision and --granularity, defaulting to cfg's settings; without
    cfg a flag not given is None, and the model file's setting stands."""
    sub.add_argument("--precision", type=int, default=cfg and cfg.precision,
                     help=f"payload bits ({PRECISIONS[0]}-{PRECISIONS[-1]})")
    sub.add_argument(
        "--granularity",
        choices=sorted(_GRANULARITIES),
        default=cfg and cfg.granularity.value,
        help=(
            "scale grouping where a float tensor is quantized: the hidden-state input of "
            "`infer` and the inputs of integer modules in a hybrid forward (`compare "
            "--ablate`); row (one scale per token) or b (one per sequence). A token "
            "forward never reads it"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intflow",
        description="Integer transformer inference with propagated scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create a random FP32 toy model")
    p_init.add_argument("out", help="output model file")
    p_init.add_argument("--seed", type=int, default=0)
    _add_arch_flags(p_init)
    _add_quant_flags(p_init, ModelConfig())

    p_quant = sub.add_parser("quantize", help="quantize an FP32 model file at its own settings")
    p_quant.add_argument("model", help="FP32 model file")
    p_quant.add_argument("out", help="quantized model file")
    _add_quant_flags(p_quant, None)

    p_infer = sub.add_parser("infer", help="run the layer stack on a hidden-state input")
    p_infer.add_argument("model", help="quantized model file")
    p_infer.add_argument("input", help=".npy file, shape T x d_m (or token ids with --tokens)")
    p_infer.add_argument("--out", required=True, help="output .npy file")
    p_infer.add_argument("--tokens", action="store_true",
                         help="treat the input as integer token ids")
    p_infer.add_argument("--audit", help="write the op audit log to this TSV file")
    p_infer.add_argument("--dequantize-output", action="store_true",
                         help="emit FP32 values instead of raw payloads")

    p_cmp = sub.add_parser("compare", help="precision loss vs the FP32 twin")
    p_cmp.add_argument("model", help="quantized model file")
    p_cmp.add_argument("--seq-len", type=int, default=16)
    p_cmp.add_argument("--seed", type=int, default=0)
    mode = p_cmp.add_mutually_exclusive_group()
    mode.add_argument("--sweep-bits", metavar="A..B",
                      help="re-quantize at each precision in the range, e.g. 6..10")
    mode.add_argument("--ablate", metavar="MODULES",
                      help=f"comma-separated subset of {','.join(MODULES)}, or 'none'")

    p_rep = sub.add_parser("report", help="storage and speed-up summary")
    p_rep.add_argument("model", help="quantized model file")
    p_rep.add_argument("--seq-len", type=int, default=16)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--factor", type=float, default=DEFAULT_FACTOR,
                       help="assumed acceleration of integer GEMMs")
    return parser


def _require_int_model(model) -> IntegerTransformerModel:
    if not isinstance(model, IntegerTransformerModel):
        raise ValidationError("this command needs a quantized model file")
    return model


def _random_tokens(cfg: ModelConfig, seq_len: int, seed: int) -> np.ndarray:
    if seq_len < 1:
        raise ValidationError(f"--seq-len must be >= 1, got {seq_len}")
    return np.random.default_rng(seed).integers(0, cfg.vocab, seq_len)


def cmd_init(args) -> int:
    cfg = ModelConfig(
        d_m=args.d_m,
        heads=args.heads,
        d_ff=args.d_ff,
        n_layers=args.layers,
        vocab=args.vocab,
        precision=args.precision,
        granularity=_GRANULARITIES[args.granularity],
        degree=args.degree,
    )
    save_model(args.out, random_reference_model(cfg, args.seed))
    print(f"wrote FP32 model: {args.out}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    ref = load_model(args.model)
    if not isinstance(ref, FP32ReferenceModel):
        raise ValidationError("quantize needs an FP32 model file")
    cfg = ref.config  # a flag given overrides the file's setting
    cfg = replace(
        cfg,
        precision=cfg.precision if args.precision is None else args.precision,
        granularity=cfg.granularity if args.granularity is None else _GRANULARITIES[args.granularity],
    )
    model = quantize_model(replace(ref, config=cfg))
    save_model(args.out, model)
    for line in storage_report(model, reference_twin(model)).lines():
        print(line)
    return EXIT_OK


def _load_input(path: str) -> np.ndarray:
    """The one array of the .npy file at `path`; an empty file or an .npz is refused."""
    try:
        data = np.load(path)
    except EOFError as exc:
        raise ValidationError(f"input {path} is empty: expected one .npy array") from exc
    if not isinstance(data, np.ndarray):
        data.close()
        raise ValidationError(f"input {path} is an .npz archive: expected one .npy array")
    return data


def cmd_infer(args) -> int:
    model = _require_int_model(load_model(args.model))
    data = _load_input(args.input)
    session = Session()
    if args.tokens:
        out = forward(model, session, tokens=data)
    else:
        # The forward checks the array, reads it as float64 and quantizes
        # it, audited, where integer steps read it.
        out = forward(model, session, hidden=data)
    if args.dequantize_output:
        np.save(args.out, session.dequantize(out).values.astype(np.float32))
    else:
        np.save(args.out, out.x)
    if args.audit:
        with open(args.audit, "w") as fh:
            fh.write("kind\tlane\telements\trescaled\tmodule\n")
            for r in session.log.records:
                fh.write(
                    f"{r.kind}\t{r.lane}\t{r.elements}\t{int(r.rescaled)}\t{r.module}\n"
                )
    print(f"wrote output: {args.out} (shape {out.shape})")
    return EXIT_OK


def _parse_sweep(text: str) -> range:
    try:
        lo, hi = text.split("..")
        bits = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise ValidationError(f"bad sweep range {text!r}; expected A..B") from exc
    if not bits:
        raise ValidationError(f"empty sweep range {text!r}; A must not exceed B")
    return bits


def cmd_compare(args) -> int:
    model = _require_int_model(load_model(args.model))
    ref = reference_twin(model)
    tokens = _random_tokens(model.config, args.seq_len, args.seed)
    if args.sweep_bits:
        for p, mse in bit_sweep(ref, [tokens], _parse_sweep(args.sweep_bits)):
            print(f"sweep\t{p}\tmse\t{mse:.10e}")
        return EXIT_OK
    if args.ablate is not None:
        names = frozenset() if args.ablate == "none" else frozenset(
            args.ablate.split(",")
        )
        mse = module_ablation(model, [tokens], names, ref=ref)
        label = ",".join(sorted(names)) or "none"
        print(f"ablate\t{label}\tmse\t{mse:.10e}")
        return EXIT_OK
    for line in precision_loss(model, ref, [tokens]).lines():
        print(line)
    return EXIT_OK


def cmd_report(args) -> int:
    model = _require_int_model(load_model(args.model))
    twin = reference_twin(model)
    for line in storage_report(model, twin).lines():
        print(line)
    # The estimate counts one forward's work: the session logs nothing else.
    session = Session()
    tokens = _random_tokens(model.config, args.seq_len, args.seed)
    forward(model, session, tokens=tokens)
    for line in speedup_estimate(session.log, factor=args.factor).lines():
        print(line)
    # The estimate is a model; the measured times stand next to it.
    for line in measure_forwards(model, twin, tokens).lines():
        print(line)
    return EXIT_OK


_COMMANDS = {
    "init": cmd_init,
    "quantize": cmd_quantize,
    "infer": cmd_infer,
    "compare": cmd_compare,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (IntflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
