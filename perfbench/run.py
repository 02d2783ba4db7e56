"""Benchmark of the clustercomplex verifier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finite-verify --seed 1 --seconds 30 --trace 0

The workloads are in `workloads.py`; README.md says which of them
BENCHMARK.json lists and why.  One process is one closed-loop client with no
threads.  A run sets up (imports the package from `src/`,
generates its inputs from `--seed`), warms up, repeats passes over the
workload's operations for `--seconds`, then checks every answer against an
oracle that does not call the package.  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones.  `setup_s` is the
median of several set-ups: this process's own and that of fresh processes
started for it.  Each operation (a CLI verdict or a library query) gets one
time, the median over its passes; `verify_s` is their sum and the latency
percentiles are taken over them.  Every timing is normalised by the
machine's speed as `speed.py` gauges it during the run; the raw figures are
in the record.

With `--trace 1` untraced and traced passes alternate, and the metrics are
the per-layer self times and counts of one traced pass, with the tracing
overhead (`trace.overhead_s`, traced minus untraced pass time).

A record of every run (Python version, nproc, commit or source digest,
seed, failures, per-operation medians, raw timings and speed samples, span
edges) is written under
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedGauge, spot_factor
from tracer import Tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-oracle", action="store_true",
                        help="expect one wrong answer per check, to show the checks can fail")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, workdir: Path) -> tuple[Workload, tuple[float, float]]:
    """The workload and (seconds, factor) of its set-up; the factor is
    gauged right after it."""
    start = time.perf_counter()
    workload = Workload(seed=args.seed, workdir=workdir, perturb=args.perturb_oracle)
    WORKLOADS[args.workload](workload)
    seconds = time.perf_counter() - start
    return workload, (seconds, spot_factor())


def setup_in_fresh_process(args, workdir: Path) -> tuple[float, float]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True, env={**os.environ, "PERFBENCH_WORKDIR": str(workdir)})
    seconds, factor = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(factor)


def run_pass(workload: Workload, gauge: SpeedGauge, tracer: Tracer | None = None) -> list[tuple]:
    """One pass over the operations: (index, seconds, answer, error, factor) each.

    An untraced pass runs under the gauge: `seconds` leaves out the time of
    the reference work done during the operation, and `factor` normalises
    it by that work, or by the samples nearest to it when the operation was
    too short to hold `MIN_SAMPLES` of them.  A traced pass runs without
    the gauge and gets factor 1; the tracer times it raw.
    """
    samples = []
    gc.collect()
    with gauge.running() if tracer is None else contextlib.nullcontext():
        for index, op in enumerate(workload.ops):
            if workload.collect_each:
                gc.collect()
            answer = error = None
            start = time.perf_counter()
            try:
                if tracer is None:
                    answer = op.run()
                    seconds = time.perf_counter() - start
                else:
                    answer, seconds = tracer.timed(op.span, op.run)
            except Exception as exc:  # any failure of the package counts, and the run goes on
                seconds = time.perf_counter() - start
                error = f"{type(exc).__name__}: {exc}"
            samples.append((index, start, seconds, answer, error))
    if tracer is not None:
        return [(index, seconds, answer, error, 1.0)
                for index, _, seconds, answer, error in samples]
    return [(index, seconds - sum(gauge.within(start, start + seconds)), answer, error,
             gauge.factor(gauge.near(start, start + seconds)))
            for index, start, seconds, answer, error in samples]


def _freeze(answer):
    if isinstance(answer, (list, set)):
        return tuple(sorted(answer))
    return answer


def check_all(workload: Workload, passes: list[list[tuple]]) -> tuple[int, list[str]]:
    """(attempted, failure messages); equal answers to one operation are checked once."""
    verdicts: dict = {}
    failures = []
    attempted = 0
    for samples in passes:
        for index, _, answer, error, _ in samples:
            attempted += 1
            op = workload.ops[index]
            if error is None:
                key = (index, _freeze(answer))
                if key not in verdicts:
                    verdicts[key] = op.check(answer)
                error = verdicts[key]
            if error is not None:
                failures.append(f"{op.label}: {error}")
    for check in workload.catalog_checks:
        attempted += 1
        try:
            error = check()
        except Exception as exc:  # a crash of the package is one more failure
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"catalog: {error}")
    return attempted, failures


def medians_by_label(workload: Workload, passes) -> dict[str, float]:
    times: dict[str, list[float]] = {}
    for samples in passes:
        for index, seconds, _, _, _ in samples:
            times.setdefault(workload.ops[index].label, []).append(seconds)
    return {label: statistics.median(t) for label, t in sorted(times.items())}


def pass_seconds(samples) -> float:
    return sum(s[1] for s in samples)


def end_to_end(workload: Workload, passes, setups: list[tuple[float, float]],
               raw: bool = False) -> dict:
    """Each operation's time is the median over its passes; the latency
    percentiles are taken over those times, one per operation.
    Each time and each set-up (seconds, factor) is normalised by its own
    factor, unless `raw`."""
    per_op = [[] for _ in workload.ops]
    for samples in passes:
        for index, seconds, _, _, factor in samples:
            per_op[index].append(seconds if raw else seconds * factor)
    times = [statistics.median(t) for t in per_op]
    p99 = (statistics.quantiles(times, n=100, method="inclusive")[98]
           if len(times) > 1 else times[0])
    return {
        "setup_s": statistics.median(seconds if raw else seconds * factor
                                     for seconds, factor in setups),
        "verify_s": sum(times),
        "queries_per_s": len(times) / sum(times),
        "query_p50_ms": statistics.median(times) * 1e3,
        "query_p99_ms": p99 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


UNITS = {"setup_s": "s", "verify_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
         "query_p99_ms": "ms", "peak_rss_mb": "MB"}


def normalised(metrics: dict, factor: float) -> dict:
    """Every time in seconds scaled by the speed gauge's factor; counts as they are."""
    return {name: value * factor if unit_of(name) == "s" else value
            for name, value in metrics.items()}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clustercomplex" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'clustercomplex'}; "
              "run from the root of a clustercomplex checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        _, (seconds, factor) = set_up(args, Path(os.environ["PERFBENCH_WORKDIR"]))
        print(repr(seconds), repr(factor))
        return 0

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload, own_setup = set_up(args, workdir)
    setups = [own_setup]
    for warm_up in workload.warm:
        warm_up()

    # Fresh-process set-ups run between passes, so that their median spans
    # the machine's slow and fast spells like the passes do.  Each untraced
    # operation is normalised by the reference work done during it, each
    # set-up by reference work right after it, and the traced passes by all
    # the reference work of the run.
    gauge = SpeedGauge()
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(run_pass(workload, gauge))
        if args.trace:
            with tracer.installed():
                traced.append(run_pass(workload, gauge, tracer))
        elif len(setups) < SETUP_REPEATS:
            setups.append(setup_in_fresh_process(args, workdir / "setup"))
        if time.perf_counter() >= deadline:
            break
    while not args.trace and len(setups) < SETUP_REPEATS:
        setups.append(setup_in_fresh_process(args, workdir / "setup"))

    passes = untraced + traced
    attempted, failures = check_all(workload, passes)
    if args.trace:
        metrics = tracer.metrics(len(traced))
        untraced_s = statistics.fmean(pass_seconds(p) for p in untraced)
        traced_s = statistics.fmean(pass_seconds(p) for p in traced)
        metrics.update({
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.self_sum_s": sum(tracer.self_time.values()) / len(traced),
        })
        raw_metrics, metrics = metrics, normalised(metrics, gauge.factor())
    else:
        raw_metrics = end_to_end(workload, untraced, setups, raw=True)
        metrics = end_to_end(workload, untraced, setups)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "perturb_oracle": args.perturb_oracle,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), **source_identity(),
        "passes": len(passes), "setup_samples_s_factor": setups,
        "median_s_by_label": medians_by_label(workload, passes),
        "pass_samples_s": [[s[1] for s in samples] for samples in passes],
        "failures": failures[:20],
        "failed_frac": len(failures) / attempted,
        "metrics": metrics,
        "raw_metrics": raw_metrics,
        "speed_factor": gauge.factor(),
        "factor_samples": [[round(s[4], 4) for s in samples] for samples in passes],
        "reference_samples_s": gauge.seconds,
    }
    if args.trace:
        record["span_edges_s"] = {f"{parent} > {child}": busy
                                  for (parent, child), busy in sorted(tracer.edges.items(),
                                                                      key=str)}
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    meta = {k: record[k] for k in ("workload", "seed", "python", "nproc", "commit",
                                   "src_sha256", "passes", "failed_frac")}
    print("# " + json.dumps(meta))
    for failure in failures[:5]:
        print("# failure: " + failure)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
