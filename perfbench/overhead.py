"""Tracing overhead: traced over untraced wall time across repeated runs.

Run from the repository root:

    python3 perfbench/overhead.py --workload scaled_joint --pairs 5 --seconds 20

Each pair runs ``run.py`` once untraced and once traced with the same seed,
one after the other, alternating which goes first. The measured wall time
of a run is the sum of its stage wall times. Prints the per-pair ratios,
the ratio of the medians, and whether every traced run reproduced its
untraced fingerprint. One pair says little on a noisy host.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    rounds = info["rounds"]
    return {
        "wall_per_round_s": sum(info["stage_wall_s"].values()) / rounds,
        "fingerprint": info["fingerprint"],
        "correct": result["correct"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    plain, traced, same = [], [], True
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        runs = {t: measure(args.workload, args.seed, args.seconds, t) for t in order}
        plain.append(runs[0]["wall_per_round_s"])
        traced.append(runs[1]["wall_per_round_s"])
        same = same and runs[0]["fingerprint"] == runs[1]["fingerprint"]
    summary = {
        "workload": args.workload,
        "pairs": args.pairs,
        "untraced_s_per_round": plain,
        "traced_s_per_round": traced,
        "pair_ratios": [t / p for p, t in zip(plain, traced)],
        "ratio_of_medians": statistics.median(traced) / statistics.median(plain),
        "fingerprints_match": same,
    }
    print(json.dumps(summary, indent=2))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
