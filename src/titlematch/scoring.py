"""Combination scoring and dominating-cluster selection.

Every combination c of every product is scored with

    I(c) = Y_c^2 * ln(f_c) / (alpha + d_acc/f_c)

where Y_c is a BM25F-flavoured field-weighted relevance score over the
combination's tokens. Each title is split into five virtual fields by token
semantics; a field's weight is the global distinct-token count divided by the
field's population within the title, so crowded fields contribute less per
token. The highest-scoring combination becomes the product's dominating
cluster, and all products that select the same combination are declared
matching.

Ties are resolved deterministically: equal positive scores prefer the longer
combination, then the smaller average distance, then the smaller signature;
all-zero products (every combination unique in the corpus) prefer the larger
relevance score, then the longer combination, then the smaller signature.
Scores are plain float64 expressions over identical operands, evaluated in
one fixed order, so exact comparison is reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .combinatorics import position_patterns
from .index import CombinationLexicon, CombinationRecord, ProductIndex, length_buckets
from .textprep import Semantics

VARIANTS = ("upm", "upm+")


@dataclass(frozen=True)
class ScoringConfig:
    """Pipeline parameters; the defaults are the fixed, tuned values."""

    alpha: float = 1.0
    b: float = 1.0
    k: Optional[int] = None  # None resolves to half the average title length
    tau: float = 0.4
    variant: str = "upm"
    distance_mode: str = "squared"
    verify_metric: str = "cs"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


def field_population(semantics: Sequence[int]) -> np.ndarray:
    """Per-title field sizes: entry i counts tokens of semantics type i+1."""
    counts = np.bincount(np.asarray(semantics, dtype=np.int64), minlength=6)
    return counts[1:6]


def field_weight(s: Semantics, x: Sequence[int], total_distinct_tokens: int) -> float:
    """Weight of the field holding a token: |W| / X[s]."""
    population = x[int(s) - 1]
    if population <= 0:
        raise ValueError(f"field weight requested for empty field {s}")
    return total_distinct_tokens / population


def avg_distance(c: CombinationRecord) -> float:
    """Average positional distance of a combination over its titles."""
    if c.f_c < 1:
        raise ValueError("combination has no occurrences")
    return c.d_acc / c.f_c


def ir_score(
    token_idf: Sequence[float],
    token_field_weights: Sequence[float],
    k: int,
    avg_combination_len: float,
    b: float,
) -> float:
    """Field-weighted relevance score Y_c of one combination."""
    denom = 1.0 - b + b * k / avg_combination_len
    return sum(i * q for i, q in zip(token_idf, token_field_weights)) / denom


def combination_score(c: CombinationRecord, y_c: float, alpha: float = 1.0) -> float:
    """I(c) = Y_c^2 * ln(f_c) / (alpha + mean distance). Finite for alpha > 0."""
    return y_c * y_c * math.log(c.f_c) / (alpha + avg_distance(c))


@dataclass
class Cluster:
    """A dominating combination with its member products, grouped by vendor."""

    key_ids: Tuple[int, ...]
    vendors: List[int] = field(default_factory=list)
    members: Dict[int, List[int]] = field(default_factory=dict)
    pi: int = -1
    max_s1: float = float("-inf")

    @property
    def size(self) -> int:
        return sum(len(v) for v in self.members.values())

    def product_ordinals(self) -> List[int]:
        out: List[int] = []
        for v in self.vendors:
            out.extend(self.members[v])
        return out


class ClusterUniverse:
    """All clusters in creation order plus the product-to-cluster map."""

    def __init__(self, n_products: int) -> None:
        self.clusters: List[Cluster] = []
        self.by_key: Dict[tuple, int] = {}
        self.assignment: List[int] = [-1] * n_products
        self.s1: np.ndarray = np.zeros(n_products, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.clusters)

    def insert(self, key: tuple, product: int, vendor: int, s1: float) -> int:
        """Insert a product under its dominating combination.

        Appends a new cluster when the combination is unseen, files the
        product under its vendor, and promotes it to representative when its
        token-rarity score strictly exceeds the running maximum.
        """
        idx = self.by_key.get(key)
        if idx is None:
            idx = len(self.clusters)
            self.clusters.append(Cluster(key_ids=key))
            self.by_key[key] = idx
        cluster = self.clusters[idx]
        if vendor not in cluster.members:
            cluster.members[vendor] = []
            cluster.vendors.append(vendor)
        cluster.members[vendor].append(product)
        if s1 > cluster.max_s1:
            cluster.max_s1 = s1
            cluster.pi = product
        self.assignment[product] = idx
        self.s1[product] = s1
        return idx

    def remove(self, product: int, cluster_idx: int) -> None:
        cluster = self.clusters[cluster_idx]
        vendor = None
        for v, members in cluster.members.items():
            if product in members:
                vendor = v
                members.remove(product)
                break
        if vendor is None:
            raise ValueError(f"product {product} not in cluster {cluster_idx}")
        if not cluster.members[vendor]:
            del cluster.members[vendor]
            cluster.vendors.remove(vendor)
        self.assignment[product] = -1

    def add_member(self, product: int, vendor: int, cluster_idx: int) -> None:
        """Plain membership move; the representative is left untouched."""
        cluster = self.clusters[cluster_idx]
        if vendor not in cluster.members:
            cluster.members[vendor] = []
            cluster.vendors.append(vendor)
        cluster.members[vendor].append(product)
        self.assignment[product] = cluster_idx


def _resolve_row(
    i_row: np.ndarray,
    y_row: np.ndarray,
    ids: np.ndarray,
    combos: CombinationLexicon,
    avgd: np.ndarray,
) -> int:
    """Tie-break one product's combination choice; returns a local column.

    All-zero rows prefer the larger Y, then the larger k, then the smaller
    signature. Equal positive scores prefer the larger k, then the smaller
    mean distance, then the smaller signature.
    """
    k, sigs = combos.k[ids], combos.sigs[ids]
    if i_row.max() == 0.0:
        return int(np.lexsort((sigs, -k, -y_row))[0])
    tied = i_row == i_row.max()
    return next(c for c in np.lexsort((sigs, avgd[ids], -k)).tolist() if tied[c])


# Upper bound on elements gathered per batch in the scoring pass.
_SCORE_BUDGET = 1 << 23


def _score_bucket(
    index: ProductIndex,
    config: ScoringConfig,
    members: np.ndarray,
    length: int,
    block: np.ndarray,
    quality: np.ndarray,
    avgd: np.ndarray,
    chosen: np.ndarray,
) -> None:
    """Score every combination of every product in one equal-length bucket.

    block holds the bucket's record IDs, one row per member.
    """
    fw = index.forward
    idf = index.idf
    total_tokens = len(index.tokens)
    l_avg_c = index.stats.avg_combination_len
    b = config.b

    patterns = [position_patterns(length, kk) for kk in range(2, min(index.k, length) + 1)]
    denoms = [
        1.0 - b + b * kk / l_avg_c for kk in range(2, min(index.k, length) + 1)
    ]
    weight = sum(p.size for p in patterns)
    step = max(1, _SCORE_BUDGET // max(1, weight))

    for c0 in range(0, len(members), step):
        batch = members[c0 : c0 + step]
        cells = fw.tok_offsets[batch][:, None] + np.arange(length)
        ids_mat = fw.tok_flat[cells]
        sem_mat = fw.sem_flat[cells]
        t = len(batch)
        x = np.stack([(sem_mat == s).sum(axis=1) for s in range(1, 6)], axis=1)
        x_per_token = x[np.arange(t)[:, None], sem_mat - 1]
        a = idf[ids_mat] * (total_tokens / x_per_token)

        y_blocks = [
            a[:, pattern].sum(axis=2) / denom for pattern, denom in zip(patterns, denoms)
        ]
        y_mat = np.hstack(y_blocks)

        idx_mat = block[c0 : c0 + step]
        i_mat = (y_mat * y_mat) * quality[idx_mat]

        row_max = i_mat.max(axis=1)
        n_max = (i_mat == row_max[:, None]).sum(axis=1)
        plain = (n_max == 1) & (row_max > 0.0)
        best = np.argmax(i_mat, axis=1)
        chosen[batch[plain]] = idx_mat[plain, best[plain]]
        for r in np.flatnonzero(~plain):
            col = _resolve_row(i_mat[r], y_mat[r], idx_mat[r], index.combos, avgd)
            chosen[batch[r]] = idx_mat[r, col]


def select_clusters(index: ProductIndex, config: ScoringConfig) -> ClusterUniverse:
    """Pick every product's dominating combination and build the universe.

    Products whose analyzed title is a single token cannot form combinations;
    they are filed under a one-token cluster keyed by that token, so identical
    one-token titles still match each other. The index is left unchanged.
    """
    fw = index.forward
    n = len(fw)
    combos = index.combos
    f_arr = combos.f_c.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        avgd = np.where(f_arr > 0, combos.d_acc / np.maximum(f_arr, 1), 0.0)
    quality = np.log(np.maximum(f_arr, 1)) / (config.alpha + avgd)

    chosen = np.full(n, -1, dtype=np.int64)
    buckets = length_buckets(np.diff(fw.tok_offsets))
    for (length, members), block in zip(buckets, fw.combo_blocks):
        _score_bucket(index, config, members, length, block, quality, avgd, chosen)

    idf = index.idf
    universe = ClusterUniverse(n)
    for p in range(n):
        ids = fw.tokens_of(p)
        c = int(chosen[p])
        key = tuple(sorted(ids.tolist())) if c < 0 else tuple(combos.ids_of(c))
        universe.insert(key, p, fw.vendor_ids[p], float(idf[ids].sum()))
    return universe
