"""Self-test of the benchmark: its checks pass on correct answers and can fail.

    python3 perfbench/selftest.py

For each workload it makes a short run as is, which must report no failure,
and one with `--perturb-oracle`, where every expected facet count or
completion size is off by one, which must report failures.  It then copies
the benchmark without the package next to it and checks that a run there
exits nonzero without printing a result.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("finite-verify", "rank2-window", "completion-queries")


def run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0",
            "--trace", "0", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        clean = result_of(run(ROOT, "--workload", workload))
        perturbed = result_of(run(ROOT, "--workload", workload, "--perturb-oracle"))
        frac = perturbed["failed"] / perturbed["attempted"]
        print(f"{workload}: as is failed {clean['failed']}/{clean['attempted']}, "
              f"perturbed failed_frac {frac:.3f}")
        if not clean["correct"] or clean["failed"]:
            problems.append(f"{workload}: failures on correct answers")
        if perturbed["correct"] or frac <= 0:
            problems.append(f"{workload}: a wrong expected answer went unnoticed")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run(bare, "--workload", WORKLOADS[0])
    shutil.rmtree(bare)
    print(f"without the package: exit {done.returncode}, stdout {done.stdout!r}")
    if done.returncode == 0 or done.stdout.strip():
        problems.append("a run without the package did not fail cleanly")

    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
