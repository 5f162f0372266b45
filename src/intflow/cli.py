"""Command-line front end: create, quantize, run, and analyze models.

Exit codes: 0 success, 2 validation failure, 3 I/O or file-format failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .analysis import (
    bit_sweep,
    module_ablation,
    precision_loss,
    speedup_estimate,
    storage_report,
)
from .errors import IntflowError, ValidationError
from .modelfile import load_model, save_model
from .scaling import Precision, ScaleGranularity, Session, init_scale
from .tensor import RationalTensor
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
    sub.add_argument("--d-m", type=int, default=32, help="hidden width")
    sub.add_argument("--heads", type=int, default=2, help="attention heads")
    sub.add_argument("--d-ff", type=int, default=128, help="feed-forward width")
    sub.add_argument("--layers", type=int, default=2, help="encoder layers")
    sub.add_argument("--vocab", type=int, default=64, help="vocabulary size")
    sub.add_argument("--degree", type=int, default=3, help="attention polynomial degree")


def _add_quant_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--precision", type=int, default=7, help="payload bits (2-15)")
    sub.add_argument(
        "--granularity",
        choices=sorted(_GRANULARITIES),
        default="row",
        help="scale grouping for activations: row, bt (batch x time), or b (batch)",
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
    _add_quant_flags(p_init)

    p_quant = sub.add_parser("quantize", help="quantize an FP32 model file")
    p_quant.add_argument("model", help="FP32 model file")
    p_quant.add_argument("out", help="quantized model file")
    _add_quant_flags(p_quant)

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
    p_cmp.add_argument("--sweep-bits", metavar="A..B",
                       help="re-quantize at each precision in the range, e.g. 6..10")
    p_cmp.add_argument("--ablate", metavar="MODULES",
                       help=f"comma-separated subset of {','.join(MODULES)}, or 'none'")

    p_rep = sub.add_parser("report", help="storage and speed-up summary")
    p_rep.add_argument("model", help="quantized model file")
    p_rep.add_argument("--seq-len", type=int, default=16)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--factor", type=float, default=6.0,
                       help="assumed acceleration of integer GEMMs")
    return parser


def _require_int_model(model) -> IntegerTransformerModel:
    if not isinstance(model, IntegerTransformerModel):
        raise ValidationError("this command needs a quantized model file")
    return model


def _random_tokens(cfg: ModelConfig, seq_len: int, seed: int) -> np.ndarray:
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
    cfg = replace(
        ref.config,
        precision=args.precision,
        granularity=_GRANULARITIES[args.granularity],
    )
    model = quantize_model(replace(ref, config=cfg))
    save_model(args.out, model)
    for line in storage_report(model).lines():
        print(line)
    return EXIT_OK


def cmd_infer(args) -> int:
    model = _require_int_model(load_model(args.model))
    cfg = model.config
    data = np.load(args.input)
    session = Session(Precision(cfg.precision))
    if args.tokens:
        out = forward(model, session, tokens=data.astype(np.int64))
    else:
        if data.ndim != 2 or data.shape[1] != cfg.d_m:
            raise ValidationError(
                f"input must be T x {cfg.d_m}, got {data.shape}"
            )
        hidden = RationalTensor(data.astype(np.float64))
        x = session.quantize(
            hidden, init_scale(hidden, cfg.granularity, session.precision)
        )
        out = forward(model, session, hidden=x)
    if args.dequantize_output:
        np.save(args.out, session.dequantize(out).values.astype(np.float32))
    else:
        np.save(args.out, out.data.values)
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
        return range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise ValidationError(f"bad sweep range {text!r}; expected A..B") from exc


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
    for line in storage_report(model).lines():
        print(line)
    session = Session(Precision(model.config.precision))
    quantize_model(reference_twin(model), session=session)
    tokens = _random_tokens(model.config, args.seq_len, args.seed)
    forward(model, session, tokens=tokens)
    for line in speedup_estimate(session.log, factor=args.factor).lines():
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
