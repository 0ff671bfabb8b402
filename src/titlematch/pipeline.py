"""End-to-end orchestration: analyze, index, score, verify, evaluate.

Produces per-stage wall-clock timings and a machine-readable report row per
run. Every stage runs sequentially in a fixed order, so everything downstream
of ingestion is deterministic for a given dataset and configuration and two
runs differ only in the timing fields.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .baseline import pairwise_sweep
from .evaluation import cluster_size_histogram, pair_scores, pair_set_scores
from .index import ProductIndex, analyze_dataset, build_index
from .ingest import CLUSTERS_HEADER, Dataset, MatchSet, truth_labels
from .scoring import ClusterUniverse, ScoringConfig, select_clusters
from .textprep import UnitLexicon
from .verify import verify_universe


@dataclass
class MatchResult:
    """One run's clusters, index, configuration and report row.

    run_match scores the clusters from labels (evaluation.pair_scores) and
    leaves predicted and truth unset; expand_cluster_pairs(universe, index)
    gives the predicted pairs on demand. The two pair-set fields remain
    because perfbench/worker.py's traced pass still builds a MatchResult from
    the pair sets it expands; they go when that pass changes.
    """

    universe: ClusterUniverse
    index: ProductIndex
    config: ScoringConfig
    report: dict
    timings_ms: Dict[str, float] = field(default_factory=dict)
    predicted: Optional[MatchSet] = None
    truth: Optional[MatchSet] = None


def _dataset_block(dataset: Dataset, path: str, avg_title_tokens: float) -> dict:
    truth_clusters = None
    if dataset.has_truth:
        truth_clusters = len({p.truth_cluster_id for p in dataset.products})
    return {
        "path": path,
        "vendors": dataset.vendor_count,
        "titles": dataset.title_count,
        "truth_clusters": truth_clusters,
        "avg_title_tokens": avg_title_tokens,
    }


def run_match(
    dataset: Dataset,
    config: ScoringConfig = ScoringConfig(),
    units: Optional[UnitLexicon] = None,
    verify: bool = True,
    dataset_path: str = "",
) -> MatchResult:
    """Run the full combination-clustering pipeline on a dataset."""
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()
    analyzed = analyze_dataset(dataset, units)
    timings["textprep"] = (time.perf_counter() - t0) * 1000.0

    t1 = time.perf_counter()
    index = build_index(
        dataset,
        k=config.k,
        variant=config.variant,
        distance_mode=config.distance_mode,
        analyzed=analyzed,
    )
    timings["index"] = (time.perf_counter() - t1) * 1000.0

    t2 = time.perf_counter()
    universe = select_clusters(index, config)
    timings["scoring"] = (time.perf_counter() - t2) * 1000.0

    t3 = time.perf_counter()
    if verify:
        verify_universe(universe, index, tau=config.tau, metric=config.verify_metric)
    timings["verify"] = (time.perf_counter() - t3) * 1000.0

    t4 = time.perf_counter()
    truth = truth_labels(dataset) if dataset.has_truth else None
    scores = pair_scores(universe.assignment, truth)
    timings["evaluate"] = (time.perf_counter() - t4) * 1000.0
    timings["total"] = (time.perf_counter() - t0) * 1000.0

    report = {
        "command": "match",
        "dataset": _dataset_block(dataset, dataset_path, analyzed.mean_length),
        "method": config.variant,
        "params": {
            "alpha": config.alpha,
            "b": config.b,
            "tau": config.tau,
            "variant": config.variant,
            "distance": config.distance_mode,
            "verify": verify,
            "verify_metric": config.verify_metric,
            # constants; kept because perfbench/pins.json pins each match row's digest
            "x_scope": "title",
            "threads": 1,
        },
        "k": index.k,
        "clusters": len(universe),
        "cluster_size_histogram": cluster_size_histogram(universe),
        **scores,
        "timings_ms": timings,
    }
    return MatchResult(
        universe=universe, index=index, config=config, report=report, timings_ms=timings
    )


def run_baseline(
    dataset: Dataset,
    metric: str,
    taus: List[float],
    units: Optional[UnitLexicon] = None,
    dataset_path: str = "",
) -> List[dict]:
    """Run one pairwise baseline over one or more thresholds."""
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()
    analyzed = analyze_dataset(dataset, units)
    timings["textprep"] = (time.perf_counter() - t0) * 1000.0

    t1 = time.perf_counter()
    index = build_index(dataset, analyzed=analyzed, with_combinations=False)
    timings["index"] = (time.perf_counter() - t1) * 1000.0

    t2 = time.perf_counter()
    match_sets = pairwise_sweep(index, metric, taus)
    timings["pairs"] = (time.perf_counter() - t2) * 1000.0

    truth = truth_labels(dataset) if dataset.has_truth else None
    sweep_scores = pair_set_scores(
        [match_sets[tau] for tau in taus], index.forward.product_ids, truth
    )
    dataset_block = _dataset_block(dataset, dataset_path, analyzed.mean_length)
    rows: List[dict] = []
    for tau, scores in zip(taus, sweep_scores):
        timings_row = dict(timings)
        timings_row["total"] = (time.perf_counter() - t0) * 1000.0
        rows.append(
            {
                "command": "baseline",
                "dataset": dataset_block,
                "method": metric,
                # constant; kept so baseline rows share the match rows' params schema
                "params": {"tau": tau, "threads": 1},
                "k": None,
                "clusters": None,
                **scores,
                "timings_ms": timings_row,
            }
        )
    return rows


def write_clusters(path, result: MatchResult) -> None:
    """Persist the product-to-cluster assignment as (product_id, cluster_id)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    pids = result.index.forward.product_ids
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLUSTERS_HEADER)
        for p, cid in enumerate(result.universe.assignment.tolist()):
            writer.writerow([pids[p], cid])

