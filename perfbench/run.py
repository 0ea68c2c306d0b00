"""Run one medrank benchmark workload and print its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload scaled_joint --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
rounds with every module call wrapped in a span and reports the per-module
metrics, writing the spans to ``perfbench/out/``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it records the environment, the rounds run and
the output fingerprint. Without ``src/medrank`` next to this directory the
run exits with status 2 and prints no result.
"""

import os

# Pinned before numpy loads, so BLAS starts no extra threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("scaled_joint", "paper_joint", "retrieval_baseline")


def git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.machine()} {cpu_model()}",
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "medrank" / "__init__.py").is_file():
        print(f"perfbench: no medrank package under {SRC}", file=sys.stderr)
        return 2
    if BLAS_THREADS > len(os.sched_getaffinity(0)):
        print("perfbench: more BLAS threads than usable cores", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    result = workloads.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), OUT
    )
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(result.rounds),
        "fingerprint": result.fingerprint,
        "stage_wall_s": {k: sum(v) for k, v in result.walls.items()},
        "round_seconds": [
            {f: getattr(r, f) for f in ("setup_s", "train_s", "predict_s",
                                         "setup_ref", "train_ref", "predict_ref")}
            for r in result.rounds
        ],
        "wall_clock_metrics": {
            k: v for k, (v, _) in workloads.end_to_end_metrics(result, reference=False).items()
        },
        "errors": result.ops.errors,
        "environment": environment(),
    }
    correct = result.ops.failed == 0
    if args.trace:
        metrics = workloads.per_layer_metrics(result)
        info["reconciliation"] = workloads.reconciliation(result)
        correct = correct and info["reconciliation"]["ok"]
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json.gz"
        result.tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = workloads.end_to_end_metrics(result)
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.ops.attempted,
                "failed": result.ops.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
