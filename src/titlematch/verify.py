"""Vendor-consistency verification of a cluster universe.

A vendor listing the same product twice is assumed to be a feed error, so a
valid cluster holds at most one product per vendor. Clusters are visited in
creation order; inside a violating vendor group the product most similar to
the cluster representative stays (the representative itself can never be
evicted) and the rest leave. An evicted product migrates to the most similar
cluster that holds no product of its vendor at that moment, provided the
similarity clears the threshold; otherwise it founds a new single-product
cluster at the end of the universe.

The evicted products are known before any of them moves. Representatives
never change during verification, and a migration only enters a cluster that
holds no product of the migrant's vendor, so it cannot create a violation:
every violating (cluster, vendor) group keeps its initial members until it is
visited. The eviction plan is therefore fixed by the initial universe.

Candidates are scored from one token-to-slot posting array. The slots are the
initial representatives (slot = cluster index) followed by the evicted
products in plan order; an evicted product's slot becomes a cluster only if it
founds one. Singletons are appended in plan order, so ascending slot order is
ascending cluster-index order, and the rule "most similar, then lowest cluster
index" is a (-similarity, slot) sort. A cluster sharing no token with the
product has similarity 0, which never clears the threshold, so the postings
lose no valid candidate.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .index import ProductIndex
from .scoring import ClusterUniverse

VERIFY_METRICS = ("cs", "cs-idf")

# the vectorised cs-idf score sums in a different order than idf_cosine, so
# it only preselects; survivors are rescored with idf_cosine itself
_IDF_SLACK = 1e-9


def binary_cosine(a: frozenset, b: frozenset) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / math.sqrt(len(a) * len(b))


def idf_cosine(a: frozenset, b: frozenset, idf_sq: Sequence[float]) -> float:
    num = sum(idf_sq[w] for w in a & b)
    norm_a = sum(idf_sq[w] for w in a)
    norm_b = sum(idf_sq[w] for w in b)
    if norm_a <= 0.0 or norm_b <= 0.0:
        return 0.0
    return num / math.sqrt(norm_a * norm_b)


def product_similarity(index: ProductIndex, p: int, pi: int, metric: str = "cs") -> float:
    """Similarity of a product to a cluster representative, in [0, 1]."""
    if metric not in VERIFY_METRICS:
        raise ValueError(f"unknown verify metric {metric!r}")
    a = index.token_set(p)
    b = index.token_set(pi)
    if metric == "cs":
        return binary_cosine(a, b)
    idf_sq = (index.idf * index.idf).tolist()
    return idf_cosine(a, b, idf_sq)


def scan_violators(universe: ClusterUniverse) -> List[Tuple[int, int]]:
    """(cluster index, vendor) pairs that still break the one-per-vendor rule."""
    out = []
    for ci, cluster in enumerate(universe.clusters):
        for v, members in cluster.members.items():
            if len(members) > 1:
                out.append((ci, v))
    return out


def _eviction_plan(
    universe: ClusterUniverse, sim: Callable[[int, int], float], pids: Sequence[int]
) -> List[Tuple[int, int, int]]:
    """(cluster index, vendor, product) of every product to evict, in order."""
    plan = []
    for ci, cluster in enumerate(universe.clusters):
        for vendor in cluster.vendors:
            members = cluster.members[vendor]
            if len(members) < 2:
                continue
            sims = {p: sim(p, cluster.pi) for p in members}
            if cluster.pi in members:
                keeper = cluster.pi
            else:
                keeper = min(members, key=lambda p: (-sims[p], pids[p]))
            evicted = sorted(
                (p for p in members if p != keeper),
                key=lambda p: (-sims[p], pids[p]),
            )
            plan.extend((ci, vendor, p) for p in evicted)
    return plan


def verify_universe(
    universe: ClusterUniverse,
    index: ProductIndex,
    tau: float = 0.4,
    metric: str = "cs",
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
    idf_sq = (index.idf * index.idf).tolist() if metric == "cs-idf" else None

    def sim(p: int, q: int) -> float:
        if idf_sq is None:
            return binary_cosine(index.token_set(p), index.token_set(q))
        return idf_cosine(index.token_set(p), index.token_set(q), idf_sq)

    pids = fw.product_ids
    plan = _eviction_plan(universe, sim, pids)
    if not plan:
        return universe

    n_init = len(universe.clusters)
    slot_product = [c.pi for c in universe.clusters] + [p for _, _, p in plan]
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
    if idf_sq is not None:
        idf_sq_arr = np.asarray(idf_sq)
        slot_norm = np.bincount(post_slot, weights=idf_sq_arr[post_tok], minlength=n_slots)
    # a zero score never wins, whatever tau is
    floor = max(tau, 0.0)

    for j, (ci, vendor, p) in enumerate(plan):
        own = n_init + j
        universe.remove(p, ci)
        p_set = index.token_set(p)
        toks = np.fromiter(p_set, dtype=np.int64)
        hits = np.concatenate([post_slot[indptr[w] : indptr[w + 1]] for w in toks])
        cand, inter = np.unique(hits, return_counts=True)
        if idf_sq is None:
            score = inter / np.sqrt(slot_len[own] * slot_len[cand])
        else:
            hit_w = np.repeat(idf_sq_arr[toks], indptr[toks + 1] - indptr[toks])
            num = np.bincount(np.searchsorted(cand, hits), weights=hit_w, minlength=len(cand))
            den = np.sqrt(slot_norm[own] * slot_norm[cand])
            score = np.divide(num, den, out=np.zeros(len(cand)), where=den > 0.0)
            live = (score > floor - _IDF_SLACK) & (slot_ci[cand] >= 0)
            cand, score = cand[live], score[live]
            # the winner is vendor-free, and its exact score can only beat the
            # best vendor-free estimate's if its own estimate is within twice
            # the slack of it; only that window is rescored
            window: List[int] = []
            for i in np.lexsort((cand, -score)).tolist():
                if window and score[i] < score[window[0]] - 2 * _IDF_SLACK:
                    break
                if vendor not in universe.clusters[slot_ci[cand[i]]].members:
                    window.append(i)
            cand = cand[window]
            score = np.array(
                [
                    idf_cosine(p_set, index.token_set(slot_product[s]), idf_sq)
                    for s in cand.tolist()
                ]
            )
        keep = (score > floor) & (slot_ci[cand] >= 0)
        cand, score = cand[keep], score[keep]
        for s in cand[np.lexsort((cand, -score))].tolist():
            target = int(slot_ci[s])
            if vendor not in universe.clusters[target].members:
                universe.add_member(p, vendor, target)
                break
        else:
            slot_ci[own] = universe.insert(("new", pids[p]), p, vendor, float(universe.s1[p]))

    leftovers = scan_violators(universe)
    if leftovers:
        raise RuntimeError(f"verification left violators: {leftovers[:5]}")
    return universe
