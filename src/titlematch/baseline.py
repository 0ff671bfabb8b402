"""Pairwise similarity baselines.

Four token-set metrics over analyzed titles: binary cosine, IDF-weighted
cosine, Jaccard, and IDF-weighted Jaccard. Matching evaluates every unordered
title pair and keeps those whose similarity strictly exceeds the threshold.
There is deliberately no blocking or candidate pruning: the quadratic sweep
is the point of comparison for the combination-based pipeline.

idf values come from the same token lexicon the main pipeline uses, so both
routes see identical token statistics.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from .index import ProductIndex
from .ingest import MatchSet

METRICS = ("cs", "cs-idf", "j", "j-idf")


def cs(t: frozenset, t2: frozenset) -> float:
    """Binary cosine similarity of two token sets."""
    if not t or not t2:
        raise ValueError("similarity of an empty title is undefined")
    return len(t & t2) / math.sqrt(len(t) * len(t2))


def jaccard(t: frozenset, t2: frozenset) -> float:
    if not t or not t2:
        raise ValueError("similarity of an empty title is undefined")
    return len(t & t2) / len(t | t2)


def cs_idf(t: frozenset, t2: frozenset, idf: Sequence[float]) -> float:
    """Cosine over squared-idf token weights.

    Sums run in sorted token order so the result is exactly symmetric.
    Titles whose every token has zero idf carry no weight; their similarity
    to anything is 0 by convention.
    """
    if not t or not t2:
        raise ValueError("similarity of an empty title is undefined")
    num = sum(idf[w] * idf[w] for w in sorted(t & t2))
    norm = sum(idf[w] * idf[w] for w in sorted(t)) * sum(idf[w] * idf[w] for w in sorted(t2))
    if norm <= 0.0:
        return 0.0
    return num / math.sqrt(norm)


def jaccard_idf(t: frozenset, t2: frozenset, idf: Sequence[float]) -> float:
    if not t or not t2:
        raise ValueError("similarity of an empty title is undefined")
    num = sum(idf[w] * idf[w] for w in sorted(t & t2))
    den = sum(idf[w] * idf[w] for w in sorted(t | t2))
    if den <= 0.0:
        return 0.0
    return num / den


def _pair_data(index: ProductIndex, metric: str):
    """Precompute per-title sets and norms for the tight pair loop."""
    n = len(index.forward)
    sets = [index.token_set(p) for p in range(n)]
    if metric in ("cs-idf", "j-idf"):
        idf = index.idf
        idf2 = (idf * idf).tolist()
        sums = [sum(idf2[w] for w in s) for s in sets]
    else:
        idf2 = None
        sums = [float(len(s)) for s in sets]
    if metric in ("cs", "cs-idf"):
        inv = [1.0 / math.sqrt(s) if s > 0 else 0.0 for s in sums]
    else:
        inv = None
    return sets, idf2, sums, inv


def _sweep_pairs(index: ProductIndex, metric: str, taus: Sequence[float]) -> List[MatchSet]:
    """One match set per threshold, from a single pass over all pairs."""
    sets, idf2, sums, inv = _pair_data(index, metric)
    n = len(sets)
    pids = index.forward.product_ids
    out: List[MatchSet] = [set() for _ in taus]
    n_taus = len(taus)
    for i in range(n):
        si = sets[i]
        pid_i = pids[i]
        if metric == "cs":
            inv_i = inv[i]
            for j in range(i + 1, n):
                sim = len(si & sets[j]) * inv_i * inv[j]
                t = 0
                while t < n_taus and sim > taus[t]:
                    a, b = pid_i, pids[j]
                    out[t].add((a, b) if a < b else (b, a))
                    t += 1
        elif metric == "j":
            len_i = sums[i]
            for j in range(i + 1, n):
                inter = len(si & sets[j])
                sim = inter / (len_i + sums[j] - inter)
                t = 0
                while t < n_taus and sim > taus[t]:
                    a, b = pid_i, pids[j]
                    out[t].add((a, b) if a < b else (b, a))
                    t += 1
        elif metric == "cs-idf":
            inv_i = inv[i]
            for j in range(i + 1, n):
                num = 0.0
                for w in si & sets[j]:
                    num += idf2[w]
                sim = num * inv_i * inv[j]
                t = 0
                while t < n_taus and sim > taus[t]:
                    a, b = pid_i, pids[j]
                    out[t].add((a, b) if a < b else (b, a))
                    t += 1
        else:
            sum_i = sums[i]
            for j in range(i + 1, n):
                num = 0.0
                for w in si & sets[j]:
                    num += idf2[w]
                den = sum_i + sums[j] - num
                sim = num / den if den > 0.0 else 0.0
                t = 0
                while t < n_taus and sim > taus[t]:
                    a, b = pid_i, pids[j]
                    out[t].add((a, b) if a < b else (b, a))
                    t += 1
    return out


def pairwise_sweep(
    index: ProductIndex, metric: str, taus: Sequence[float]
) -> Dict[float, MatchSet]:
    """Evaluate all pairs once and bucket matches for several thresholds.

    taus must be ascending; each pair's similarity is compared against the
    thresholds in order, stopping at the first it fails to exceed.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    taus = [float(t) for t in taus]
    if any(not 0.0 < t < 1.0 for t in taus):
        raise ValueError(f"thresholds must lie in (0, 1): {taus}")
    if sorted(taus) != taus:
        raise ValueError("thresholds must be ascending")
    return dict(zip(taus, _sweep_pairs(index, metric, taus)))


def pairwise_match(index: ProductIndex, metric: str, tau: float) -> MatchSet:
    """All unordered pairs whose similarity strictly exceeds tau."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    return pairwise_sweep(index, metric, [tau])[float(tau)]
