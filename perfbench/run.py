"""hpqkit benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload select_fixed --seed 7 --seconds 60 --trace 0

Run from the root of a checkout. Fresh worker processes (``worker.py``)
run one after another until ``--seconds`` is used up, at least 3 of
them, each with at least one pass. Each sets up the inputs the seed
makes and then runs passes for up to 8 s; with ``--trace 1``, untraced
and traced passes alternate. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Without tracing the metrics
are the end-to-end medians: set-up time and peak memory over the
workers, and over the passes each pass's wall and CPU time divided by
the wall time of a fixed reference loop run beside it in the same
process. With tracing they are the
per-layer metrics of ``spans.PER_LAYER`` plus the tracing overhead. The
line before it holds the environment, the sample counts and tail
percentiles, and the failure messages. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import COUNTS, PER_LAYER  # noqa: E402

WORKLOADS = ("fit_free", "select_fixed", "map_extract", "cli_batch")
END_TO_END = {"setup_s": "s", "wall_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MB"}
TRACE_METRICS = {"trace.wall_s": "s", "trace.overhead_s": "s"}
#: set-ups per run, at least, so that ``setup_s`` is a median of several
MIN_WORKERS = 3
#: seconds of passes one worker runs after its set-up
WORKER_BUDGET_S = 8.0
#: no new pass starts after this many seconds, so a run ends within 180 s
LAST_START_S = 120.0


class BenchError(RuntimeError):
    """The benchmark could not measure: no program, or a worker died."""


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of a fixed ladder of percentiles with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(math.ceil(p * n / 100.0 - 1e-9), 1)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, index: int, budget: float, workdir: Path, timeout: float) -> dict:
    result_path = workdir / f"worker-{index}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--trace", str(args.trace), "--budget", f"{budget:.3f}",
        "--workdir", str(workdir), "--result", str(result_path),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {index} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker {index} exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workers(args, workdir: Path) -> list[dict]:
    """Start workers one after another until ``--seconds`` is used up."""
    start = time.perf_counter()
    workers, setups = [], []
    while True:
        elapsed = time.perf_counter() - start
        budget = min(WORKER_BUDGET_S, args.seconds - elapsed - (statistics.median(setups) if setups else 0.0))
        workers.append(run_worker(args, len(workers), max(budget, 0.0), workdir, max(175.0 - elapsed, 5.0)))
        setups.append(workers[-1]["setup_s"])
        elapsed = time.perf_counter() - start
        if elapsed > LAST_START_S:
            return workers
        # every worker runs at least one pass
        if len(workers) >= MIN_WORKERS and elapsed + statistics.median(setups) >= args.seconds:
            return workers


def mismatched_ops(reference: dict, other: dict) -> int:
    """Operations whose outputs differ from the first pass's."""
    if reference["files"]:
        keys = set(reference["files"]) | set(other["files"])
        return len({k.split("/")[0] for k in keys if reference["files"].get(k) != other["files"].get(k)})
    return other["ops"] if other["digest"] != reference["digest"] else 0


def summarize(values: list[float]) -> dict:
    entry = {"median": statistics.median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        entry[f"p{tail[0]:g}"] = tail[1]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hpqkit" / "__init__.py").is_file():
        print(f"error: no hpqkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workers = run_workers(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = [p for w in workers for p in w["passes"]]
    reference = passes[0]
    attempted = failed = 0
    for p in passes:
        attempted += p["ops"]
        failed += min(p["ops"], p["failed"] + mismatched_ops(reference, p))
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # the metrics of END_TO_END, and the raw pass times they are made from
    samples = {
        "setup_s": [w["setup_s"] for w in workers],
        "wall_rel": [p["wall_s"] / p["ref_wall_s"] for p in plain],
        "cpu_rel": [p["cpu_s"] / p["ref_wall_s"] for p in plain],
        "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
        **{name: [p[name] for p in plain] for name in ("wall_s", "cpu_s", "ref_wall_s")},
    }

    if args.trace:
        metrics = {
            name: {"value": statistics.median(p["layers"][name] for p in traced), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - statistics.median(p["wall_s"] for p in plain), "unit": "s"
        }
    else:
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in END_TO_END.items()
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": workers[0]["size"],
        "workers": len(workers),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "fail_ratio": failed / attempted,
        "failures": [m for p in passes for m in p["failures"]][:10],
        "end_to_end": {name: summarize(values) for name, values in samples.items()},
        "environment": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            **workers[0]["versions"],
            "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
            "commit": git_commit(),
        },
    }
    if args.trace:
        report["counts_repeat"] = all(p["layers"][c] == traced[0]["layers"][c] for p in traced for c in COUNTS)
        report["traced_end_to_end"] = {name: summarize([p[name] for p in traced]) for name in ("wall_s", "cpu_s")}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
