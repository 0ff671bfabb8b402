"""Pairwise similarity baselines.

Four token-set metrics over analyzed titles: binary cosine, IDF-weighted
cosine, Jaccard, and IDF-weighted Jaccard. Each is one expression over a set
weight W, and these are the only definitions. The sweep below calls them;
verification (titlematch.verify) computes cs and cs_idf with the same
expressions and addition order over numpy columns, so it gets the same
floats.

- W(S) is |S| for the plain metrics. For the idf metrics it is the sum of
  idf(w)^2 over S, added in ascending token-ID order, so its value depends on
  the set alone and not on the order a frozenset iterates in.
- cosine = W(A & B) / sqrt(W(A) * W(B)), or 0 when that product is <= 0.
- Jaccard = W(A & B) / (W(A) + W(B) - W(A & B)), or 0 when that is <= 0.

Matching keeps every unordered title pair whose similarity strictly exceeds
the threshold; a pair at exactly tau does not match. Every pair is still
decided, and only token-disjoint pairs, which score 0, are skipped: there is
no blocking, and the quadratic sweep is the point of comparison for the
combination-based pipeline. One loop (_matches) decides the pairs; the
library sweep collects its matches into sets, and run_baseline counts them.

idf values come from the same token lexicon the main pipeline uses, so both
routes see identical token statistics.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Sequence

from .index import ProductIndex
from .ingest import MatchSet

METRICS = ("cs", "cs-idf", "j", "j-idf")


def _idf_weight(idf: Sequence[float]) -> Callable[[frozenset], float]:
    """W(S) under idf weighting: sum of idf(w)^2 over S in ascending token-ID order."""

    def weight(s: frozenset) -> float:
        total = 0.0
        # two addends sum alike in either order; only longer sets need sorting
        for w in sorted(s) if len(s) > 2 else s:
            x = idf[w]
            total += x * x
        return total

    return weight


def _cosine(w_inter: float, w_a: float, w_b: float) -> float:
    norm = w_a * w_b
    return w_inter / math.sqrt(norm) if norm > 0 else 0.0


def _jaccard(w_inter: float, w_a: float, w_b: float) -> float:
    den = w_a + w_b - w_inter
    return w_inter / den if den > 0 else 0.0


def _similarity(expr, t: frozenset, t2: frozenset, weight) -> float:
    if not t or not t2:
        raise ValueError("similarity of an empty title is undefined")
    return expr(weight(t & t2), weight(t), weight(t2))


def cs(t: frozenset, t2: frozenset) -> float:
    """Binary cosine similarity of two token sets."""
    return _similarity(_cosine, t, t2, len)


def jaccard(t: frozenset, t2: frozenset) -> float:
    return _similarity(_jaccard, t, t2, len)


def cs_idf(t: frozenset, t2: frozenset, idf: Sequence[float]) -> float:
    """Cosine over squared-idf token weights.

    Titles whose every token has zero idf carry no weight; their similarity
    to anything is 0 by convention.
    """
    return _similarity(_cosine, t, t2, _idf_weight(idf))


def jaccard_idf(t: frozenset, t2: frozenset, idf: Sequence[float]) -> float:
    return _similarity(_jaccard, t, t2, _idf_weight(idf))


def _sweep_taus(metric: str, taus: Sequence[float]) -> List[float]:
    """The thresholds as floats, once the metric and the thresholds are
    checked; callers check before they analyze or index anything."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    taus = [float(t) for t in taus]
    if any(not 0.0 < t < 1.0 for t in taus):
        raise ValueError(f"thresholds must lie in (0, 1): {taus}")
    if sorted(taus) != taus:
        raise ValueError("thresholds must be ascending")
    return taus


def _matches(index: ProductIndex, metric: str, taus: List[float]) -> Iterator[tuple]:
    """(i, j, t) for each product pair i < j whose similarity exceeds the
    first t > 0 of the ascending thresholds, stopping at the first it fails
    to exceed, from a single pass over all pairs. metric and taus are
    _sweep_taus's."""
    # no similarity exceeds inf, so each scan below stops there
    taus = taus + [math.inf]
    weight = _idf_weight(index.idf.tolist()) if metric in ("cs-idf", "j-idf") else len
    expr = _cosine if metric in ("cs", "cs-idf") else _jaccard
    n = len(index.forward)
    sets = [index.token_set(p) for p in range(n)]
    weights = [weight(s) for s in sets]
    for i in range(n):
        si, w_i = sets[i], weights[i]
        for j in range(i + 1, n):
            inter = si & sets[j]
            # a token-disjoint pair scores 0, which no tau in (0, 1) clears
            if not inter:
                continue
            sim = expr(weight(inter), w_i, weights[j])
            if sim > taus[0]:
                t = 1
                while sim > taus[t]:
                    t += 1
                yield i, j, t


def pairwise_sweep(
    index: ProductIndex, metric: str, taus: Sequence[float]
) -> Dict[float, MatchSet]:
    """Evaluate all pairs once and bucket matches for several ascending
    thresholds: each threshold's set of product-ID pairs."""
    taus = _sweep_taus(metric, taus)
    out: List[MatchSet] = [set() for _ in taus]
    pids = index.forward.product_ids
    for i, j, t in _matches(index, metric, taus):
        a, b = pids[i], pids[j]
        pair = (a, b) if a < b else (b, a)
        for s in range(t):
            out[s].add(pair)
    return dict(zip(taus, out))


def pairwise_match(index: ProductIndex, metric: str, tau: float) -> MatchSet:
    """All unordered pairs whose similarity strictly exceeds tau."""
    return pairwise_sweep(index, metric, [tau])[float(tau)]
