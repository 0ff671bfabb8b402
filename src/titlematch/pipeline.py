"""End-to-end orchestration: analyze, index, score, verify, evaluate.

run_match and run_baseline share one timed front half (analyze, index, read
the truth labels). Stage times live only in each report row's `timings_ms`;
`total` spans the whole call, and a baseline sweep's rows share one dict.
Stages run sequentially in a fixed order, so everything downstream of
ingestion is deterministic and two runs differ only in the timing fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from .baseline import _matches, _sweep_taus
from .evaluation import _count_scores, _label_pairs, cluster_size_histogram, pair_scores
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
    predicted: Optional[MatchSet] = None
    truth: Optional[MatchSet] = None


def _lap(timings: Dict[str, float], stage: str, since: float) -> float:
    """Record the ms from `since` to now as `stage`; return now."""
    now = time.perf_counter()
    timings[stage] = (now - since) * 1000.0
    return now


def _front_half(
    dataset: Dataset, units: Optional[UnitLexicon], path: str, timings: dict, **index_args
):
    """Analyze and index the dataset, timing textprep and index; return the
    index, the truth labels (None without truth) and the dataset block."""
    mark = time.perf_counter()
    analyzed = analyze_dataset(dataset, units)
    mark = _lap(timings, "textprep", mark)
    index = build_index(dataset, analyzed=analyzed, **index_args)
    _lap(timings, "index", mark)
    truth = truth_labels(dataset) if dataset.has_truth else None
    block = {
        "path": path,
        "vendors": dataset.vendor_count,
        "titles": dataset.title_count,
        "truth_clusters": None if truth is None else len(set(truth)),
        "avg_title_tokens": analyzed.mean_length,
    }
    return index, truth, block


def run_match(
    dataset: Dataset,
    config: ScoringConfig = ScoringConfig(),
    units: Optional[UnitLexicon] = None,
    verify: bool = True,
    dataset_path: str = "",
) -> MatchResult:
    """Run the full combination-clustering pipeline on a dataset."""
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    index_args = dict(k=config.k, variant=config.variant, distance_mode=config.distance_mode)
    index, truth, block = _front_half(dataset, units, dataset_path, timings, **index_args)
    mark = time.perf_counter()
    universe = select_clusters(index, config)
    mark = _lap(timings, "scoring", mark)
    if verify:
        verify_universe(universe, index, tau=config.tau, metric=config.verify_metric)
    mark = _lap(timings, "verify", mark)
    scores = pair_scores(universe.assignment, truth)
    _lap(timings, "evaluate", mark)
    _lap(timings, "total", start)

    report = {
        "command": "match",
        "dataset": block,
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
    return MatchResult(universe=universe, index=index, config=config, report=report)


def run_baseline(
    dataset: Dataset,
    metric: str,
    taus: List[float],
    units: Optional[UnitLexicon] = None,
    dataset_path: str = "",
) -> List[dict]:
    """Run one pairwise baseline over one or more thresholds."""
    taus = _sweep_taus(metric, taus)
    timings: Dict[str, float] = {}
    start = time.perf_counter()
    index, truth, block = _front_half(
        dataset, units, dataset_path, timings, with_combinations=False
    )
    mark = time.perf_counter()
    # cleared[t]: the pairs that exceed exactly the first t thresholds;
    # hits[t]: those of them whose two products share a truth label
    cleared, hits = [0] * (len(taus) + 1), [0] * (len(taus) + 1)
    for i, j, t in _matches(index, metric, taus):
        cleared[t] += 1
        hits[t] += truth is not None and truth[i] == truth[j]
    mark = _lap(timings, "pairs", mark)
    n_truth = None if truth is None else _label_pairs(truth)
    # taus[t - 1] is exceeded by the pairs that exceed t or more thresholds
    sweep_scores, predicted, hit = [], 0, 0
    for t in range(len(taus), 0, -1):
        predicted, hit = predicted + cleared[t], hit + hits[t]
        sweep_scores.append(_count_scores(hit, predicted, n_truth))
    _lap(timings, "evaluate", mark)
    _lap(timings, "total", start)
    return [
        {
            "command": "baseline",
            "dataset": block,
            "method": metric,
            # constant; kept so baseline rows share the match rows' params schema
            "params": {"tau": tau, "threads": 1},
            "k": None,
            "clusters": None,
            **scores,
            "timings_ms": timings,
        }
        for tau, scores in zip(taus, reversed(sweep_scores))
    ]


def write_clusters(path, result: MatchResult) -> None:
    """Persist the product-to-cluster assignment as (product_id, cluster_id)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    pids = result.index.forward.product_ids
    # the bytes csv.writer writes: its "\r\n" line ends, and integers need no
    # quotes; lines come from a generator, so no list of every line is held
    rows = zip(pids, result.universe.assignment.tolist())
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CLUSTERS_HEADER) + "\r\n")
        fh.writelines(f"{pid},{cid}\r\n" for pid, cid in rows)

