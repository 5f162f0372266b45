"""intflow benchmark: integer vs FP32 forward throughput, with a per-layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload toy --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 1

One process runs one workload through the public library API: it builds the
model (reference model, quantize, SPQ1 save/load, FP32 twin), warms up, then
drives a closed loop with one caller -- each ``forward`` starts as soon as the
previous one returns.  Every forward is checked (integer purity, payload
range, error against the FP32 twin, golden digest).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs traced and untraced forwards in pairs
and prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def single_thread_blas() -> None:
    """Run BLAS and OpenMP on one thread; must happen before numpy is imported.

    The integer path is single-threaded numpy, so the FP32 control gets one
    core too.  With two BLAS threads on a shared 2-vCPU machine, FP32 time
    doubled whenever the second vCPU was busy elsewhere.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="toy, wide, longctx, or all (each in its own process)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "intflow" / "__init__.py").is_file():
        print(f"error: no intflow sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    single_thread_blas()
    sys.path.insert(0, str(SRC))
    import harness  # noqa: E402  (needs the BLAS setting and sys.path above)

    if args.workload == "all":
        return harness.run_all(Path(__file__), args.seed, args.seconds, args.trace)
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)} or all", file=sys.stderr)
        return 2
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    harness.print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
