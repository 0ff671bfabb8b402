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

Similarity is titlematch.baseline's cs or cs_idf, the one definition of each
metric. product_similarity calls them, and eviction ranks each group's
members by it. Migration computes the same floats with a PostingScorer over
slots: the initial representatives (slot = cluster index), then the evicted
products in eviction order. Its postings map each token ID to the slots
holding it, built by two value sorts of packed (slot, token) and (token,
slot) pairs. A migrant is scored against all slots by one np.bincount over
the postings of its tokens, and only the slots above the threshold come
back. Of those, the slots that have founded a cluster are the candidates:
every representative, and an evicted product once it has founded one. A
cluster sharing no token with the migrant has similarity 0, which never
clears the threshold, so the postings lose no valid candidate. The rule
"most similar, then lowest cluster index" sorts only the few candidates
left. No migrants x slots matrix is ever held: each migrant's scores are one
row, dropped before the next.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .baseline import cs, cs_idf
from .index import ProductIndex, _ranges
from .scoring import VERIFY_METRICS, ClusterUniverse


def product_similarity(index: ProductIndex, p: int, pi: int, metric: str = "cs") -> float:
    """Similarity of a product to a cluster representative, in [0, 1]."""
    if metric not in VERIFY_METRICS:
        raise ValueError(f"unknown verify metric {metric!r}")
    a, b = index.token_set(p), index.token_set(pi)
    return cs(a, b) if metric == "cs" else cs_idf(a, b, index.idf)


class PostingScorer:
    """cs or cs_idf between slots, each slot a product given by index.

    The postings list, per token ID, the slots holding it in ascending
    order. The weights of a slot and of an intersection are added in
    ascending token-ID order, as cs_idf adds them, and each score is the
    expression inter / sqrt(w_a * w_b), so every score equals cs or cs_idf
    bit for bit.
    """

    def __init__(self, index: ProductIndex, products: np.ndarray, metric: str) -> None:
        if metric not in VERIFY_METRICS:
            raise ValueError(f"unknown verify metric {metric!r}")
        offsets = index.forward.tok_offsets
        n_slots, n_tokens = len(products), len(index.tokens)
        lens = offsets[products + 1] - offsets[products]
        toks = index.forward.tok_flat[_ranges(offsets[products], lens)]
        slots = np.repeat(np.arange(n_slots), lens)
        # (slot, token) and (token, slot) pairs packed into one int64 each, so
        # that a value sort orders the pairs
        self.slot_tokens = np.sort(slots * n_tokens + toks) % n_tokens
        self.slot_offsets = np.append(0, np.cumsum(lens))
        # a title's tokens are distinct, so the (token, slot) pairs are too
        toks, self.post = np.divmod(np.sort(toks * n_slots + slots), n_slots)
        self.indptr = np.append(0, np.cumsum(np.bincount(toks, minlength=n_tokens)))
        if metric == "cs-idf":
            self.sq: Optional[np.ndarray] = index.idf * index.idf
            # token-major postings add each slot's idf^2 in ascending token order
            self.weight = np.bincount(self.post, weights=self.sq[toks], minlength=n_slots)
        else:
            self.sq = None
            self.weight = lens
        # cs denominators per scored slot's length: few lengths, one row each
        self._norms: Dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.weight)

    def score(self, s: int, above: float) -> Tuple[np.ndarray, np.ndarray]:
        """(slots, similarities) of the slots whose similarity to slot s
        exceeds above >= 0, slots ascending: one np.bincount over the
        postings of s's tokens, which are all the slots sharing one."""
        toks = self.slot_tokens[self.slot_offsets[s] : self.slot_offsets[s + 1]]
        starts, ends = self.indptr[toks], self.indptr[toks + 1]
        hits = np.concatenate([self.post[a:b] for a, b in zip(starts.tolist(), ends.tolist())])
        # s's tokens ascend, so each slot's idf^2 are added in ascending order
        weights = None if self.sq is None else np.repeat(self.sq[toks], ends - starts)
        inter = np.bincount(hits, weights=weights, minlength=len(self))
        w_a = self.weight[s]
        if self.sq is not None:
            den = np.sqrt(w_a * self.weight)
        elif w_a in self._norms:
            den = self._norms[w_a]
        else:
            den = self._norms[w_a] = np.sqrt(w_a * self.weight)
        # a slot of zero weight scores 0 / 0: nan, which exceeds nothing
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = inter / den
        slots = np.flatnonzero(sims > above)
        return slots, sims[slots]


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
    groups = _violating_groups(universe)
    if not groups:
        return universe
    n_init = len(universe)
    pis = universe.pi.tolist()
    pids = index.forward.product_ids
    plan: List[int] = []  # evicted products, in eviction order
    for ci, _, members in groups:
        pi = pis[ci]
        rest = sorted(
            (p for p in members if p != pi),
            key=lambda p: (-product_similarity(index, p, pi, metric), pids[p]),
        )
        # a representative stays; without one, the member closest to it does
        plan.extend(rest[len(rest) == len(members) :])
    scorer = PostingScorer(index, np.array(pis + plan), metric)

    # cluster index of each slot, -1 while it has founded nothing
    slot_ci = np.full(len(scorer), -1, dtype=np.int64)
    slot_ci[:n_init] = np.arange(n_init)
    # a zero score never wins, whatever tau is
    floor = max(tau, 0.0)
    # a (cluster, vendor) pair is cluster * n_vendors + the vendor's code
    vendors, code = np.unique(universe.vendor, return_inverse=True)
    n_vendors = len(vendors)
    occupied = set((universe.assignment * n_vendors + code).tolist())
    founded: List[int] = []
    for own, p in enumerate(plan, n_init):
        vendor = int(code[p])
        slots, sims = scorer.score(own, floor)
        cand = slot_ci[slots]
        live = cand >= 0
        cand, sims = cand[live], sims[live]
        for target in cand[np.lexsort((cand, -sims))].tolist():
            if target * n_vendors + vendor not in occupied:
                universe.assignment[p] = target
                break
        else:
            target = slot_ci[own] = n_init + len(founded)
            founded.append(p)
        occupied.add(target * n_vendors + vendor)
    universe.add_singletons(founded)

    leftovers = scan_violators(universe)
    if leftovers:
        raise RuntimeError(f"verification left violators: {leftovers[:5]}")
    return universe
