"""Pair expansion, precision/recall/F1, and report emission.

Cluster output and ground truth are both reduced to sets of unordered
(min_id, max_id) product pairs, which makes every method comparable on the
same footing. Reports are JSON lines (one object per run) with a fixed key
order plus an optional flat CSV summary, so repeated runs diff cleanly except
for the timing fields.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional

from .index import ProductIndex
from .ingest import MatchSet, pairs_from_assignment
from .scoring import ClusterUniverse

# Timing keys are excluded when comparing reports for determinism.
TIMING_FIELDS = ("timings_ms",)

SUMMARY_COLUMNS = (
    "dataset",
    "method",
    "variant",
    "k",
    "tau",
    "precision",
    "recall",
    "f1",
    "predicted_pairs",
    "truth_pairs",
    "clusters",
    "total_ms",
)


def expand_cluster_pairs(universe: ClusterUniverse, index: ProductIndex) -> MatchSet:
    """All unordered intra-cluster product-ID pairs."""
    return pairs_from_assignment(dict(zip(index.forward.product_ids, universe.assignment)))


def prf1(predicted: MatchSet, truth: MatchSet) -> Dict[str, float]:
    """Precision, recall and F1 of predicted pairs against ground truth.

    Conventions: empty prediction means precision 0; P = R = 0 means F1 = 0.
    An empty truth set is an error, not a score.
    """
    if not truth:
        raise ValueError("ground-truth match set is empty")
    hits = len(predicted & truth)
    precision = hits / len(predicted) if predicted else 0.0
    recall = hits / len(truth)
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def cluster_size_histogram(universe: ClusterUniverse) -> Dict[str, int]:
    hist: Dict[int, int] = {}
    for cluster in universe.clusters:
        size = cluster.size
        hist[size] = hist.get(size, 0) + 1
    return {str(size): hist[size] for size in sorted(hist)}


def run_report(
    rows: List[dict],
    report_path: Optional[object] = None,
    summary_path: Optional[object] = None,
) -> List[dict]:
    """Write report rows as JSON lines and, optionally, a CSV summary.

    Key order inside each row is preserved as constructed; only the timing
    fields vary between identical runs.
    """
    if report_path is not None:
        path = Path(report_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    if summary_path is not None:
        path = Path(summary_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(SUMMARY_COLUMNS)
            for row in rows:
                timings = row.get("timings_ms", {})
                writer.writerow(
                    [
                        row.get("dataset", {}).get("path", ""),
                        row.get("method", ""),
                        row.get("params", {}).get("variant", ""),
                        row.get("k", ""),
                        row.get("params", {}).get("tau", ""),
                        row.get("precision", ""),
                        row.get("recall", ""),
                        row.get("f1", ""),
                        row.get("predicted_pairs", ""),
                        row.get("truth_pairs", ""),
                        row.get("clusters", ""),
                        timings.get("total", ""),
                    ]
                )
    return rows


def strip_timings(row: dict) -> dict:
    """Copy of a report row without its timing fields, for comparisons."""
    return {k: v for k, v in row.items() if k not in TIMING_FIELDS}
