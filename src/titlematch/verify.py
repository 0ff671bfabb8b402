"""Vendor-consistency verification of a cluster universe.

A vendor listing the same product twice is assumed to be a feed error, so a
valid cluster holds at most one product per vendor. Clusters are visited in
creation order; inside a violating vendor group the product most similar to
the cluster representative stays (the representative itself can never be
evicted) and the rest leave. An evicted product migrates to the most similar
cluster that holds no product of its vendor at that moment, provided the
similarity strictly exceeds the threshold; otherwise it founds a new
single-product cluster at the end of the universe.

The evicted products are known before any of them moves. Representatives
never change during verification, and a migration only enters a cluster that
holds no product of the migrant's vendor, so it cannot create a violation:
every violating (cluster, vendor) group keeps its initial members until it is
visited. The eviction plan is therefore fixed by the initial universe. Vendor
occupancy is a set of (cluster, vendor) pairs; it only grows, as an eviction
leaves its group's keeper behind. Moves rewrite assignment in place, and
founded singletons are appended to pi and key once, at the end.

Candidates are scored from one token-to-slot posting array. The slots are the
initial representatives (slot = cluster index) followed by the evicted
products in plan order; an evicted product's slot becomes a cluster only if it
founds one. Singletons are appended in plan order, so ascending slot order is
ascending cluster-index order, and the rule "most similar, then lowest cluster
index" is a (-similarity, slot) sort. A cluster sharing no token with the
product has similarity 0, which never clears the threshold, so the postings
lose no valid candidate.

Similarity is titlematch.baseline's cs or cs_idf, the one definition of each
metric; eviction ranking calls product_similarity, which calls them. The
posting pass computes the same floats in a few numpy calls: cs as
|I| / sqrt(|A| * |B|), and cs-idf with np.bincount, which adds idf^2 in the
order the product's tokens are given. Those tokens are sorted first, so every
sum runs in ascending token-ID order, as cs_idf's do, and the vectorised score
equals cs_idf bit for bit. No candidate is rescored.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .baseline import cs, cs_idf
from .index import ProductIndex
from .scoring import VERIFY_METRICS, ClusterUniverse


def product_similarity(index: ProductIndex, p: int, pi: int, metric: str = "cs") -> float:
    """Similarity of a product to a cluster representative, in [0, 1]."""
    if metric not in VERIFY_METRICS:
        raise ValueError(f"unknown verify metric {metric!r}")
    a, b = index.token_set(p), index.token_set(pi)
    return cs(a, b) if metric == "cs" else cs_idf(a, b, index.idf)


def _violating_groups(universe: ClusterUniverse) -> List[Tuple[int, int, List[int]]]:
    """(cluster, vendor, members) of every (cluster, vendor) group of two or more
    products, from one stable sort: by cluster, then by first member; members
    in file order."""
    order = np.lexsort((universe.vendor, universe.assignment))
    a, v = universe.assignment[order], universe.vendor[order]
    cuts = np.flatnonzero((a[1:] != a[:-1]) | (v[1:] != v[:-1])) + 1
    starts, ends = np.append(0, cuts), np.append(cuts, len(order))
    big = np.flatnonzero(ends - starts >= 2)
    big = big[np.lexsort((order[starts[big]], a[starts[big]]))]
    return [(int(a[s]), int(v[s]), order[s:e].tolist()) for s, e in zip(starts[big], ends[big])]


def scan_violators(universe: ClusterUniverse) -> List[Tuple[int, int]]:
    """(cluster index, vendor) pairs that still break the one-per-vendor rule."""
    return [(ci, v) for ci, v, _ in _violating_groups(universe)]


def verify_universe(
    universe: ClusterUniverse, index: ProductIndex, tau: float = 0.4, metric: str = "cs"
) -> ClusterUniverse:
    """Evict surplus same-vendor products and re-home them (in place).

    Deterministic processing order: clusters in creation order, vendors in
    first-appearance order, evicted products by descending similarity to the
    representative then ascending product ID. Migration validity is judged
    against the current universe, so earlier moves constrain later ones.
    """
    if metric not in VERIFY_METRICS:
        raise ValueError(f"unknown verify metric {metric!r}")
    fw = index.forward
    pids = fw.product_ids
    plan: List[Tuple[int, int]] = []  # (vendor, product), in eviction order
    for ci, vendor, members in _violating_groups(universe):
        pi = int(universe.pi[ci])
        ranked = sorted(
            members, key=lambda p: (-product_similarity(index, p, pi, metric), pids[p])
        )
        keeper = pi if pi in members else ranked[0]
        plan.extend((vendor, p) for p in ranked if p != keeper)
    if not plan:
        return universe

    n_init = len(universe)
    slot_product = universe.pi.tolist() + [p for _, p in plan]
    n_slots = len(slot_product)
    # cluster index of each slot, -1 while an evicted slot founded nothing
    slot_ci = np.full(n_slots, -1, dtype=np.int64)
    slot_ci[:n_init] = np.arange(n_init)

    # token-major, deduplicated (token, slot) pairs: a CSR from token to slots
    rows = [fw.tokens_of(q) for q in slot_product]
    keys = np.unique(
        np.concatenate(rows).astype(np.int64) * n_slots
        + np.repeat(np.arange(n_slots, dtype=np.int64), [len(r) for r in rows])
    )
    post_tok, post_slot = np.divmod(keys, n_slots)
    indptr = np.searchsorted(post_tok, np.arange(len(index.tokens) + 1))
    slot_len = np.bincount(post_slot, minlength=n_slots)
    if metric == "cs-idf":
        idf_sq = index.idf * index.idf
        # post_tok ascends within each slot, so these are cs_idf's ordered sums
        slot_norm = np.bincount(post_slot, weights=idf_sq[post_tok], minlength=n_slots)
    # a zero score never wins, whatever tau is
    floor = max(tau, 0.0)
    occupied = set(zip(universe.assignment.tolist(), universe.vendor.tolist()))
    founded: List[int] = []

    for j, (vendor, p) in enumerate(plan):
        own = n_init + j
        # ascending tokens make bincount add each candidate's idf^2 in
        # ascending token order, the order cs_idf sums in
        toks = np.sort(fw.tokens_of(p))
        hits = np.concatenate([post_slot[indptr[w] : indptr[w + 1]] for w in toks])
        cand, inter = np.unique(hits, return_counts=True)
        if metric == "cs":
            score = inter / np.sqrt(slot_len[own] * slot_len[cand])
        else:
            hit_w = np.repeat(idf_sq[toks], indptr[toks + 1] - indptr[toks])
            num = np.bincount(np.searchsorted(cand, hits), weights=hit_w, minlength=len(cand))
            norm = slot_norm[own] * slot_norm[cand]
            score = np.divide(num, np.sqrt(norm), out=np.zeros(len(cand)), where=norm > 0.0)
        keep = (score > floor) & (slot_ci[cand] >= 0)
        cand, score = cand[keep], score[keep]
        for s in cand[np.lexsort((cand, -score))].tolist():
            target = int(slot_ci[s])
            if (target, vendor) not in occupied:
                universe.assignment[p] = target
                break
        else:
            target = slot_ci[own] = n_init + len(founded)
            founded.append(p)
        occupied.add((target, vendor))
    universe.add_singletons(founded)

    leftovers = scan_violators(universe)
    if leftovers:
        raise RuntimeError(f"verification left violators: {leftovers[:5]}")
    return universe
