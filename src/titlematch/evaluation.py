"""Pair-level precision/recall/F1, pair expansion, and report emission.

Every method is scored on the same footing: the unordered product pairs it
puts together against the pairs ground truth puts together. A clustering is
scored from its labels without listing a pair (pair_scores): over the
contingency table of (predicted, truth) labels, the predicted pairs are
sum C(a_i, 2) over predicted cluster sizes, the truth pairs sum C(b_j, 2)
over truth cluster sizes, and the shared pairs sum C(n_ij, 2) over the
cells, so memory stays linear where the pair sets grow with the square of a
cluster's size. Pairwise baselines produce pair sets, which prf1 scores with
the same expressions. Reports are JSON lines (one object per run) with a
fixed key order plus an optional flat CSV summary, so repeated runs diff
cleanly except for the timing fields.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    return pairs_from_assignment(dict(zip(index.forward.product_ids, universe.assignment.tolist())))


def _scores(hits: int, predicted: int, truth: int) -> Dict[str, float]:
    """prf1's scores from pair counts: hits shared pairs, truth > 0."""
    precision = hits / predicted if predicted else 0.0
    recall = hits / truth
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


def prf1(predicted: MatchSet, truth: MatchSet) -> Dict[str, float]:
    """Precision, recall and F1 of predicted pairs against ground truth.

    Conventions: empty prediction means precision 0; P = R = 0 means F1 = 0.
    An empty truth set is an error, not a score.
    """
    if not truth:
        raise ValueError("ground-truth match set is empty")
    return _scores(len(predicted & truth), len(predicted), len(truth))


def _pairs(sizes: np.ndarray) -> int:
    """Unordered pairs within groups of the given sizes: sum C(s, 2)."""
    return int((sizes * (sizes - 1) // 2).sum())


def _dense_ranks(labels: Sequence[int]) -> Tuple[int, np.ndarray]:
    """The number of distinct labels and each label's rank among them.
    Labels are any ints: negative, sparse, or too wide for int64, which are
    then compared as Python ints."""
    try:
        column = np.array(labels, dtype=np.int64)
    except OverflowError:
        column = np.array(labels, dtype=object)
    distinct, ranks = np.unique(column, return_inverse=True)
    return len(distinct), ranks


def pair_scores(
    predicted: Sequence[int], truth: Optional[Sequence[int]]
) -> Dict[str, Optional[float]]:
    """A report's precision, recall, f1, predicted_pairs and truth_pairs, in
    that order, for product i labelled predicted[i] by a method and truth[i]
    by ground truth: prf1 of the two labellings' pair sets, counted from
    their contingency table without listing a pair. Without truth (None), or
    when truth has no pairs, the scores are None; without truth, so is
    truth_pairs."""
    _, predicted_rank = _dense_ranks(predicted)
    n_predicted = _pairs(np.bincount(predicted_rank))
    scores = {"precision": None, "recall": None, "f1": None}
    n_truth = None
    if truth is not None:
        truth_ids, truth_rank = _dense_ranks(truth)
        n_truth = _pairs(np.bincount(truth_rank))
        if n_truth:
            # a bincount over the cell index would allocate every cell of the table
            cell = predicted_rank * truth_ids + truth_rank
            hits = _pairs(np.unique(cell, return_counts=True)[1])
            scores = _scores(hits, n_predicted, n_truth)
    return {**scores, "predicted_pairs": n_predicted, "truth_pairs": n_truth}


def cluster_size_histogram(universe: ClusterUniverse) -> Dict[str, int]:
    hist = np.bincount(np.bincount(universe.assignment, minlength=len(universe)))
    return {str(size): count for size, count in enumerate(hist.tolist()) if count}


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
