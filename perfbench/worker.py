"""The measured process: runs `titlematch match` on feed files already on disk.

run.py starts this script fresh for every run, so its peak RSS covers reading
the feeds and matching them, never generating them. It runs on one thread.

    worker.py JOB_JSON RESULT_JSON   untraced pass (and, with "trace", a traced one)
    worker.py --setup FEED           import, match FEED once, exit; timed by run.py

The untraced pass calls the CLI entry point in-process, exactly as
`titlematch match --input F --format published --clusters C --report R`.
The traced pass calls each layer's public function in `run_match` order and
records a span around each call. Every operation's outputs are checked; a
feed that raises, exits non-zero or fails a check counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from titlematch import cli  # noqa: E402
from titlematch.evaluation import expand_cluster_pairs, prf1, run_report  # noqa: E402
from titlematch.index import analyze_dataset, build_index  # noqa: E402
from titlematch.ingest import load_ground_truth, load_products  # noqa: E402
from titlematch.pipeline import MatchResult, write_clusters  # noqa: E402
from titlematch.scoring import ScoringConfig, select_clusters  # noqa: E402
from titlematch.verify import scan_violators, verify_universe  # noqa: E402

CLUSTERS = "out/clusters.csv"
REPORT = "out/report.jsonl"
TRACED_CLUSTERS = "out/clusters_traced.csv"
TRACED_REPORT = "out/report_traced.jsonl"

MatchFn = Callable[[str, str, str], int]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_match(feed: str, clusters: str, report: str) -> int:
    """`titlematch match` in-process; returns its exit code."""
    argv = ["match", "--input", feed, "--format", "published"]
    argv += ["--clusters", clusters, "--report", report]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class FeedMeta:
    """Vendor and planted cluster of every product, read from the feed CSV."""

    def __init__(self, path: str) -> None:
        self.vendor: Dict[int, int] = {}
        self.truth: Dict[int, int] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                pid = int(row[0])
                self.vendor[pid] = int(row[2])
                self.truth[pid] = int(row[3])

    @property
    def titles(self) -> int:
        return len(self.vendor)


def _pairs(counts) -> int:
    return sum(c * (c - 1) // 2 for c in counts)


def check_clusters(path: str, meta: FeedMeta) -> Tuple[Optional[str], Tuple[int, int, int]]:
    """Check a clusters CSV against its feed.

    Returns (error or None, (hits, predicted pairs, truth pairs)). Every
    product must appear exactly once, and no cluster may hold two products
    of one vendor. Pair counts come from the contingency table, independent
    of the program's own evaluation.
    """
    assignment: Dict[int, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["product_id", "cluster_id"]:
            return "clusters CSV lacks its header", (0, 0, 0)
        for row in reader:
            pid, cid = int(row[0]), int(row[1])
            if pid not in meta.vendor:
                return f"unknown product {pid} in clusters CSV", (0, 0, 0)
            if pid in assignment:
                return f"product {pid} appears twice in clusters CSV", (0, 0, 0)
            assignment[pid] = cid
    if len(assignment) != meta.titles:
        missing = sorted(set(meta.vendor) - set(assignment))
        return f"{len(missing)} products missing from clusters CSV, e.g. {missing[:3]}", (0, 0, 0)
    seen = Counter((cid, meta.vendor[pid]) for pid, cid in assignment.items())
    doubled = [key for key, n in seen.items() if n > 1]
    if doubled:
        cid, vendor = doubled[0]
        return f"cluster {cid} holds {seen[doubled[0]]} products of vendor {vendor}", (0, 0, 0)
    hits = _pairs(Counter((cid, meta.truth[pid]) for pid, cid in assignment.items()).values())
    predicted = _pairs(Counter(assignment.values()).values())
    truth = _pairs(Counter(meta.truth.values()).values())
    return None, (hits, predicted, truth)


def report_digest(row: dict) -> str:
    """sha256 of a report row without its timings, keys sorted."""
    stripped = {k: v for k, v in row.items() if k != "timings_ms"}
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def f1_score(hits: int, predicted: int, truth: int) -> float:
    """Pair-level F1 with `prf1`'s conventions, from pair counts."""
    precision = hits / predicted if predicted else 0.0
    recall = hits / truth if truth else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def check_report(
    path: str, counts: Tuple[int, int, int], pinned_row: Optional[str]
) -> Tuple[Optional[str], Optional[str]]:
    """Check the report file; returns (error or None, row digest)."""
    rows = Path(path).read_text(encoding="utf-8").splitlines()
    if len(rows) != 1:
        return f"report holds {len(rows)} rows, expected 1", None
    row = json.loads(rows[0])
    digest = report_digest(row)
    if abs(row["f1"] - f1_score(*counts)) > 1e-9:
        return f"report f1 {row['f1']} differs from the clusters CSV's {f1_score(*counts)}", digest
    if pinned_row is not None and digest != pinned_row:
        return f"report row differs from the pinned one: {json.dumps(row)}", digest
    return None, digest


def untraced_op(
    feed: str,
    meta: FeedMeta,
    pinned_row: Optional[str],
    match: MatchFn = cli_match,
) -> dict:
    """Match one feed, time it from reading to written outputs, check them."""
    t0 = time.perf_counter()
    try:
        code = match(feed, CLUSTERS, REPORT)
        error = None if code == 0 else f"exit code {code}"
    except Exception:  # a feed that raises is a failed operation, not a crash
        error = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    wall = time.perf_counter() - t0
    counts: Tuple[int, int, int] = (0, 0, 0)
    digest = None
    try:
        if error is None:
            error, counts = check_clusters(CLUSTERS, meta)
        if error is None:
            error, digest = check_report(REPORT, counts, pinned_row)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        error = f"unreadable output: {exc!r}"
    return {
        "feed": feed,
        "titles": meta.titles,
        "wall_s": wall,
        "error": error,
        "counts": counts,
        "report_sha256": digest,
    }


class Tracer:
    """Spans kept in memory: name, start, end, parent and feed of each call."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, feed: str):
        span = {
            "id": len(self.spans),
            "name": name,
            "feed": feed,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        rss0 = max_rss_mb()
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            span["rss_rise_mb"] = max_rss_mb() - rss0
            self._open.pop()


def traced_op(feed: str, tracer: Tracer) -> dict:
    """Run `run_match`'s stages by hand, one span per layer; return counts."""
    config = ScoringConfig()

    def span(name):
        return tracer.span(name, feed)

    with span("feed"):
        with span("ingest"):
            dataset = load_products(feed, "published")
        with span("textprep"):
            analyzed = analyze_dataset(dataset)
        with span("index"):
            index = build_index(
                dataset,
                k=config.k,
                variant=config.variant,
                distance_mode=config.distance_mode,
                analyzed=analyzed,
            )
        # read before select_clusters prunes the combination store
        stats = index.stats
        with span("scoring"):
            universe = select_clusters(index, config)
        violators = scan_violators(universe)
        evicted = sum(len(universe.clusters[ci].members[v]) - 1 for ci, v in violators)
        clusters_before = len(universe)
        with span("verify"):
            verify_universe(universe, index, tau=config.tau, metric=config.verify_metric)
        new_clusters = len(universe) - clusters_before
        with span("evaluation"):
            with span("expand_cluster_pairs"):
                predicted = expand_cluster_pairs(universe, index)
            with span("load_ground_truth"):
                truth = load_ground_truth(dataset)
            with span("prf1"):
                scores = prf1(predicted, truth)
        with span("pipeline"):
            row = {"command": "match", "clusters": len(universe), **scores}
            result = MatchResult(
                universe=universe,
                index=index,
                config=config,
                predicted=predicted,
                truth=truth,
                report=row,
            )
            with span("write_clusters"):
                write_clusters(TRACED_CLUSTERS, result)
            with span("run_report"):
                run_report([row], TRACED_REPORT)
    return {
        "ingest.rows": dataset.title_count,
        "textprep.tokens": sum(t.length for t in analyzed),
        "index.instances": stats.combination_instances,
        "index.distinct": stats.distinct_combinations,
        "index.collisions": stats.collisions_resolved,
        "scoring.clusters": clusters_before,
        "verify.violations": len(violators),
        "verify.evicted": evicted,
        "verify.new_clusters": new_clusters,
        "verify.migrated": evicted - new_clusters,
        "evaluation.predicted_pairs": len(predicted),
        "evaluation.truth_pairs": len(truth),
    }


def run_untraced(
    feeds: List[str],
    metas: Dict[str, FeedMeta],
    seconds: float,
    pinned_rows: Dict[str, str],
    match: MatchFn = cli_match,
) -> List[dict]:
    """Match every feed once, then keep cycling while the next operation
    should end within `seconds` of the start."""
    ops: List[dict] = []
    t0 = time.perf_counter()

    def next_op_ends_in_time() -> bool:
        elapsed = time.perf_counter() - t0
        return elapsed + elapsed / len(ops) <= seconds

    while len(ops) < len(feeds) or next_op_ends_in_time():
        feed = feeds[len(ops) % len(feeds)]
        ops.append(untraced_op(feed, metas[feed], pinned_rows.get(feed), match))
    return ops


def run_traced(
    feeds: List[str], metas: Dict[str, FeedMeta], pinned_rows: Dict[str, str]
) -> Tuple[List[dict], List[dict], Dict[str, int]]:
    """Per feed: a traced run, then an untraced one whose assignment must match.

    The traced run goes first so that its `rss_rise_mb` readings are not
    hidden by the untraced run's high-water mark on the same feed.
    """
    tracer = Tracer()
    ops: List[dict] = []
    counts: Counter = Counter()
    for feed in feeds:
        error = None
        try:
            counts.update(traced_op(feed, tracer))
        except Exception:  # counted as a failed operation
            error = "traced pass raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        op = untraced_op(feed, metas[feed], pinned_rows.get(feed))
        if op["error"] is None and error is None:
            if Path(TRACED_CLUSTERS).read_bytes() != Path(CLUSTERS).read_bytes():
                error = "traced assignment differs from the untraced one"
        op["error"] = op["error"] or error
        ops.append(op)
    return ops, tracer.spans, dict(counts)


def main(argv: List[str]) -> int:
    if argv[:1] == ["--setup"]:
        Path("out").mkdir(exist_ok=True)
        return cli_match(argv[1], CLUSTERS, REPORT)
    job = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    Path("out").mkdir(exist_ok=True)
    # finish lazy set-up (unit lexicon, pattern caches) before timing
    if cli_match(job["tiny_feed"], CLUSTERS, REPORT) != 0:
        raise SystemExit("warm-up match failed")
    metas = {feed: FeedMeta(feed) for feed in job["feeds"]}
    pinned = job["pinned_rows"]
    result: dict = {}
    if job["trace"]:
        ops, spans, counts = run_traced(job["feeds"], metas, pinned)
        result.update(spans=spans, counts=counts)
    else:
        ops = run_untraced(job["feeds"], metas, job["seconds"], pinned)
    result.update(ops=ops, peak_rss_mb=max_rss_mb())
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
