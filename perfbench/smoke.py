#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload, shrunk to a few hundred titles, with --trace 0 and 1,
and checks that each metric BENCHMARK.json names prints with its unit and
nothing else does. Then plants a clusters file that puts two products of one
vendor in one cluster and checks that the feed counts as failed. Exits 0 when
every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from titlematch import synth  # noqa: E402

TINY = {
    "short_titles": lambda seed: [("short_titles.csv", synth.efficiency_dataset(300, seed=seed))],
    "long_titles": lambda seed: [("long_titles.csv", synth.long_title_dataset(60, seed=seed))],
    "many_feeds": lambda seed: workloads.many_feeds(seed)[:5],
}


def check_metrics_print() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(TINY) == sorted(w["name"] for w in spec["workloads"])
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        for name in TINY:
            out = io.StringIO()
            argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
            with contextlib.redirect_stdout(out):
                code = run.main(argv, generators=TINY)
            assert code == 0, f"{name} trace={trace}: exit {code}"
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {lines}"
            printed = {m: v["unit"] for m, v in result["metrics"].items()}
            diff = sorted(set(printed.items()) ^ set(expected.items()))
            assert not diff, f"{name} trace={trace}: {diff}"
            for metric, unit in expected.items():
                assert any(
                    line.split()[:1] == [metric] and line.split()[-1] == unit for line in lines
                ), f"{name} trace={trace}: {metric} not printed with {unit}"
            print(f"ok  {name} --trace {trace}: {len(expected)} metrics with units")


def plant_vendor_clash(feed: str, clusters: str, report: str) -> int:
    """Match, then move a product into a cluster holding its vendor's other product."""
    code = worker.cli_match(feed, clusters, report)
    meta = worker.FeedMeta(feed)
    by_vendor = {}
    for pid, vendor in meta.vendor.items():
        by_vendor.setdefault(vendor, []).append(pid)
    a, b = next(pids for pids in by_vendor.values() if len(pids) > 1)[:2]
    lines = Path(clusters).read_text(encoding="utf-8").splitlines()
    cid = {int(line.split(",")[0]): line.split(",")[1] for line in lines[1:]}
    lines = [lines[0]] + [f"{pid},{cid[a] if pid == b else c}" for pid, c in cid.items()]
    Path(clusters).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return code


def check_bad_clusters_fail() -> None:
    work = run.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        workloads.write_feed(workloads.tiny_feed(), Path("feed.csv"))
        metas = {"feed.csv": worker.FeedMeta("feed.csv")}
        good = worker.run_untraced(["feed.csv"], metas, 0, {})
        bad = worker.run_untraced(["feed.csv"], metas, 0, {}, match=plant_vendor_clash)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    assert good[0]["error"] is None, good[0]["error"]
    assert "products of vendor" in (bad[0]["error"] or ""), bad[0]["error"]
    metrics, notes = run.end_to_end(bad, 1.0, [1.0])
    assert metrics["ok_share"][0] == 0.0, metrics["ok_share"]
    assert any(note.startswith("failed_share 1.0000") for note in notes), notes
    print(f"ok  planted vendor clash counted as failed: {bad[0]['error']}")


if __name__ == "__main__":
    check_metrics_print()
    check_bad_clusters_fail()
    print("smoke test passed")
