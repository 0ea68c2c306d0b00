"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric in BENCHMARK.json appears with its unit on
every workload, that a model wrapped to drop a candidate and a NaN loss
injected through a layer wrapper are counted as failed operations, that two
same-seed runs and a traced run give the same fingerprint, and that the
benchmark refuses to run without the package. Exits 0 when all checks pass.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

TINY = {
    "scaled_joint": dict(train_questions=4, val_questions=3, epochs=2),
    "paper_joint": dict(train_questions=1, val_questions=1),
    "retrieval_baseline": dict(topics=20, train_questions=4, val_questions=3),
}
OUT = HERE / "out"
SEED = 5


class NanOutput:
    """Layer wrapper whose forward output is all NaN."""

    def __init__(self, inner):
        self._inner = inner

    def forward(self, x):
        return np.full_like(self._inner.forward(x), np.nan)

    def backward(self, grad_out):
        return self._inner.backward(grad_out)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def inject_nan(model) -> None:
    model.filter_head.layers[-1] = NanOutput(model.filter_head.layers[-1])


def drop_candidate(prediction):
    return dataclasses.replace(prediction, ranking=prediction.ranking[:-1])


def tiny_run(name: str, trace: bool, hooks=None, min_rounds: int = 1):
    workload = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    return workloads.run_workload(
        workload, SEED, 0.001, trace, OUT, hooks=hooks, min_rounds=min_rounds
    )


def main() -> int:
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    failures = []

    def check(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message, flush=True)
        if not condition:
            failures.append(message)

    for name in workloads.WORKLOADS:
        plain = tiny_run(name, trace=False, min_rounds=2)
        again = tiny_run(name, trace=False)
        traced = tiny_run(name, trace=True)
        check(plain.ops.failed == 0 and traced.ops.failed == 0, f"{name}: no failed operations")
        check(
            plain.fingerprint == again.fingerprint == traced.fingerprint,
            f"{name}: same-seed and traced runs share a fingerprint",
        )
        for trace, result, metrics in (
            (False, plain, workloads.end_to_end_metrics(plain)),
            (True, traced, workloads.per_layer_metrics(traced)),
        ):
            units = {metric: unit for metric, (_, unit) in metrics.items()}
            check(units == expected[trace], f"{name} trace={int(trace)}: metric names and units")
        check(workloads.reconciliation(traced)["ok"], f"{name}: span self times reconcile")

    nan_run = tiny_run("scaled_joint", False, workloads.Hooks(wrap_model=inject_nan))
    check(nan_run.ops.failed > 0, "NaN loss through a layer wrapper counts as failed")
    drop_run = tiny_run("scaled_joint", False, workloads.Hooks(wrap_prediction=drop_candidate))
    check(
        drop_run.ops.failed == drop_run.rounds[0].predict_ops,
        "every prediction missing a candidate counts as failed",
    )

    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "scaled_joint",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    check(proc.returncode != 0 and not proc.stdout, "without src/ the run exits nonzero, silent")

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
