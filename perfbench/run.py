#!/usr/bin/env python3
"""Benchmark of `titlematch match` on three feed shapes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`. The
seed makes the feeds (see workloads.py), which are written as CSV files
under `perfbench/_work/`. A fresh worker process (worker.py) then reads them
and matches each one in a single thread.

--trace 0 matches every feed once, and goes on cycling through them while
the next match should end within S seconds; it prints the end-to-end
metrics. --trace 1 makes one traced and one untraced pass and prints the
per-layer metrics; the spans are written to
`perfbench/_work/spans-<workload>-seed<N>.jsonl`. Each metric prints on its
own line with its unit; the last line is one JSON object with the keys
correct, attempted, failed and metrics.

For the default seed the feed files' digests and the report rows (without
timings) must match `perfbench/pins.json`; record_pins.py rewrites it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

# both import titlematch from src/; without it the run stops here, exit code 1
from worker import f1_score  # noqa: E402
from workloads import WORKLOADS, tiny_feed, write_feed  # noqa: E402

WORK = BENCH / "_work"
PINS = BENCH / "pins.json"
WORKER = BENCH / "worker.py"

DEFAULT_SEED = 5
SETUP_PROBES = 7
# a run must end within 180 s; every child process is killed by this deadline
DEADLINE_S = 170.0
LAYERS = ("ingest", "textprep", "index", "scoring", "verify", "evaluation", "pipeline")
# the pipeline is single-threaded: no extra threads, including BLAS pools
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def p90(values: List[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def write_feeds(generate: Callable, seed: int, run_dir: Path) -> List[str]:
    (run_dir / "feeds").mkdir(parents=True)
    write_feed(tiny_feed(), run_dir / "tiny.csv")
    names = []
    for name, dataset in generate(seed):
        write_feed(dataset, run_dir / "feeds" / name)
        names.append(f"feeds/{name}")
    return names


def _child(argv: List[str], cwd: Path, deadline: float) -> None:
    env = {**os.environ, **CHILD_ENV}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            cwd=cwd,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv[0]} ran past the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"worker {argv[0]} exited {proc.returncode}: " + " | ".join(tail))


def measure_setup(run_dir: Path, deadline: float) -> List[float]:
    """Wall time of fresh processes that import titlematch and match a tiny feed."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _child(["--setup", "tiny.csv"], run_dir, deadline)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(ops: List[dict], peak_rss_mb: float, setup: List[float]) -> Tuple[dict, List[str]]:
    walls = [op["wall_s"] for op in ops]
    first: Dict[str, Tuple[int, int, int]] = {}
    for op in ops:
        first.setdefault(op["feed"], op["counts"])
    hits, predicted, truth = (sum(c[i] for c in first.values()) for i in range(3))
    failed = sum(op["error"] is not None for op in ops)
    metrics = {
        "titles_per_s": (sum(op["titles"] for op in ops) / sum(walls), "titles/s"),
        "feed_s_p50": (statistics.median(walls), "s"),
        "feed_s_p90": (p90(walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "f1": (f1_score(hits, predicted, truth), "ratio"),
        "ok_share": (1 - failed / len(ops), "ratio"),
        "setup_s": (statistics.median(setup), "s"),
    }
    beyond = len(walls) - math.ceil(0.9 * len(walls))
    notes = [
        f"feed_s_p90 from {len(walls)} feeds, {beyond} beyond it"
        + ("" if beyond >= 10 else " (too few for a p90; it is the slowest feed)"),
        f"failed_share {failed / len(ops):.4f} ({failed} of {len(ops)} feeds)",
        f"f1 pooled over {len(first)} distinct feeds: {hits} hits, "
        f"{predicted} predicted pairs, {truth} truth pairs",
        "setup_s median of " + ", ".join(f"{t:.4f}" for t in setup),
    ]
    return metrics, notes


def per_layer(spans: List[dict], counts: Dict[str, int], untraced_s: float) -> dict:
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration[s["id"]]
    wall = sum(duration[s["id"]] for s in spans if s["name"] == "feed")
    metrics: Dict[str, Tuple[float, str]] = {}
    busy_total = 0.0
    for layer in LAYERS:
        own = [s for s in spans if s["name"] == layer]
        busy = sum(duration[s["id"]] for s in own)
        busy_total += busy
        metrics[f"{layer}.busy_s"] = (busy, "s")
        metrics[f"{layer}.self_s"] = (busy - sum(child_time.get(s["id"], 0.0) for s in own), "s")
        metrics[f"{layer}.share"] = (busy / wall, "ratio")
        metrics[f"{layer}.rss_rise_mb"] = (sum(s["rss_rise_mb"] for s in own), "MB")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    evicted = counts["verify.evicted"]
    metrics["index.distinct_share"] = (
        counts["index.distinct"] / counts["index.instances"] if counts["index.instances"] else 0.0,
        "ratio",
    )
    metrics["verify.migrated_share"] = (
        counts["verify.migrated"] / evicted if evicted else 0.0,
        "ratio",
    )
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.residual_s"] = (wall - busy_total, "s")
    metrics["trace.residual_share"] = ((wall - busy_total) / wall, "ratio")
    metrics["trace.overhead_share"] = (wall / untraced_s - 1.0, "ratio")
    return metrics


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    generators: Dict[str, Callable],
    pins: Optional[dict],
) -> dict:
    """Generate, check pins, measure. Returns metrics, notes and digests."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        feeds = write_feeds(generators[workload], seed, run_dir)
        digests = {f: sha256_file(run_dir / f) for f in feeds}
        if pins is not None and digests != pins["feeds"]:
            pinned = pins["feeds"]
            bad = sorted(f for f in set(digests) | set(pinned) if digests.get(f) != pinned.get(f))
            raise BenchError(
                f"generated feeds differ from perfbench/pins.json for seed {seed}: "
                f"{len(bad)} files, e.g. {bad[:3]}; titlematch.synth changed the workload"
            )
        setup = [] if trace else measure_setup(run_dir, deadline)
        job = {
            "feeds": feeds,
            "tiny_feed": "tiny.csv",
            "seconds": seconds,
            "trace": trace,
            "pinned_rows": pins["report_rows"] if pins is not None else {},
        }
        (run_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        _child(["job.json", "result.json"], run_dir, deadline)
        result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = result["ops"]
    notes = [f"{op['feed']}: {op['error']}" for op in ops if op["error"]][:5]
    if trace:
        spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
        with spans_path.open("w", encoding="utf-8") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
        untraced_s = sum(op["wall_s"] for op in ops)
        metrics = per_layer(result["spans"], result["counts"], untraced_s)
        notes.append(f"{len(result['spans'])} spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, more = end_to_end(ops, result["peak_rss_mb"], setup)
        notes += more
    return {
        "metrics": metrics,
        "notes": notes,
        "attempted": len(ops),
        "failed": sum(op["error"] is not None for op in ops),
        "feed_digests": digests,
        "report_rows": {op["feed"]: op["report_sha256"] for op in ops},
    }


def load_pins(workload: str, seed: int) -> Optional[dict]:
    if seed != DEFAULT_SEED:
        return None
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    if workload not in pins["workloads"]:
        raise BenchError(f"perfbench/pins.json has no pins for {workload}")
    return pins["workloads"][workload]


def main(
    argv: Optional[List[str]] = None, generators: Optional[Dict[str, Callable]] = None
) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and the run dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    generators = WORKLOADS if generators is None else generators
    try:
        pins = load_pins(args.workload, args.seed) if generators is WORKLOADS else None
        if args.workload not in generators:
            known = sorted(generators)
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {known}")
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), generators, pins)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in out["metrics"].items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    for note in out["notes"]:
        print(f"# {note}")
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
