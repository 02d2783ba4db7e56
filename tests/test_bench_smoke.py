"""The benchmark runs: `perfbench/run.py` on every workload that
BENCHMARK.json names, once untraced and once traced, with zero seconds (one
pass each).  A crash in set-up, in the untimed warm-up or in a fresh-process
set-up exits nonzero; a crash inside a timed verdict counts as a failure.
The traced run also pins the work counters of the pass."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The work counters of one traced seed-1 pass: a change that alters the
# work done (faces, facets, descent steps, members, rigid sets) shows
# here, whatever it does to the timings.
WORK = {
    "finite-verify": {"polytope.faces": 56140, "tilting.facets": 11432,
                      "measure.descent_steps": 12592, "roots.members": 246,
                      "homext.rigid_sets": 31200},
    "rank2-window": {"polytope.faces": 3224, "tilting.facets": 0,
                     "measure.descent_steps": 0, "roots.members": 1608,
                     "homext.rigid_sets": 3214},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_runs_clean(workload, trace):
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "0",
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout[-2000:]
    metrics = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    if trace:
        work = {name: result["metrics"][name]["value"] for name in WORK[workload]}
        assert work == WORK[workload]
