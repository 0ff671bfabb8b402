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

The universe is columns: per product its cluster (assignment), vendor and
summed idf s1; per cluster, ordered by first member in file order, its
representative pi (the first member with the largest s1) and its key (the
chosen record ID, or -1 for one-token titles and verification singletons).

Ties are resolved deterministically: equal positive scores prefer the longer
combination, then the smaller average distance, then the smaller signature;
all-zero products (every combination unique in the corpus) prefer the larger
relevance score, then the longer combination, then the smaller signature.
Scores are plain float64 expressions over identical operands, evaluated in
one fixed order, so exact comparison is reproducible across runs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from .combinatorics import position_patterns, signature_rows
from .index import DISTANCE_MODES, CombinationLexicon, ProductIndex

VARIANTS = ("upm", "upm+")
VERIFY_METRICS = ("cs", "cs-idf")


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
        # NaN compares False with everything, so test for the good range
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be a finite number > 0, got {self.alpha}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.distance_mode not in DISTANCE_MODES:
            raise ValueError(f"unknown distance mode {self.distance_mode!r}")
        if self.verify_metric not in VERIFY_METRICS:
            raise ValueError(f"unknown verify metric {self.verify_metric!r}")
        k = self.k
        if k is not None and (isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 2):
            raise ValueError(f"k must be None or an integer >= 2, got {k!r}")


@dataclass(frozen=True)
class ClusterView:
    """One cluster read from the columns: its representative, its key, its
    products and its members by vendor, all in file order."""

    pi: int
    key: int
    products: List[int]
    members: Dict[int, List[int]]


class ClusterViews(Sequence):
    """Per-cluster views over one stable sort of the assignment; a lookup
    costs O(cluster size)."""

    def __init__(self, u: "ClusterUniverse") -> None:
        self.u, self.order = u, np.argsort(u.assignment, kind="stable")
        self.bounds = np.searchsorted(u.assignment[self.order], np.arange(len(u) + 1))

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, ci: int) -> ClusterView:
        ci = range(len(self))[ci]
        products = self.order[self.bounds[ci] : self.bounds[ci + 1]]
        members: Dict[int, List[int]] = {}
        for p, v in zip(products.tolist(), self.u.vendor[products].tolist()):
            members.setdefault(v, []).append(p)
        return ClusterView(int(self.u.pi[ci]), int(self.u.key[ci]), products.tolist(), members)


@dataclass(eq=False)
class ClusterUniverse:
    """Clusters as columns: per product its cluster (assignment), vendor and
    summed idf s1; per cluster, in creation order, its representative pi and
    its key, the chosen record ID or -1 when no combination chose it."""

    assignment: np.ndarray
    vendor: np.ndarray
    s1: np.ndarray
    pi: np.ndarray
    key: np.ndarray

    @classmethod
    def from_choices(
        cls, chosen: np.ndarray, token: np.ndarray, vendor: np.ndarray, s1: np.ndarray
    ) -> "ClusterUniverse":
        """Group products by chosen record ID, or by token where none was
        chosen (-1); clusters follow their first member in file order, and a
        representative is the first member with the largest s1."""
        group = np.where(chosen >= 0, chosen, -1 - token)
        _, first, inverse = np.unique(group, return_index=True, return_inverse=True)
        assignment = np.argsort(np.argsort(first))[inverse]
        order = np.lexsort((-s1, assignment))
        pi = order[np.flatnonzero(np.diff(assignment[order], prepend=-1))]
        return cls(assignment=assignment, vendor=vendor, s1=s1, pi=pi, key=chosen[pi])

    def __len__(self) -> int:
        return len(self.pi)

    @cached_property
    def clusters(self) -> ClusterViews:
        """Read-only per-cluster views for tests, demos and tracing."""
        return ClusterViews(self)

    def add_singletons(self, products: List[int]) -> None:
        """Found one cluster per product; verification calls this once, after
        its in-place assignment writes, so it also drops the cached views."""
        self.assignment[products] = np.arange(len(self.pi), len(self.pi) + len(products))
        self.pi = np.concatenate([self.pi, np.asarray(products, dtype=np.int64)])
        self.key = np.concatenate([self.key, np.full(len(products), -1, dtype=np.int64)])
        self.__dict__.pop("clusters", None)


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
    mean distance, then the smaller signature. Equal signatures keep the
    earliest column.
    """
    k = combos.sizes(ids)
    prefs = (y_row, k) if i_row.max() == 0.0 else (i_row, k, -avgd[ids])
    cols = np.arange(len(ids))
    for pref in prefs:
        vals = pref[cols]
        cols = cols[vals == vals.max()]
    if len(cols) == 1:
        return int(cols[0])
    # only the columns still tied are hashed; they share one k
    rows = combos.key_rows(ids[cols], int(k[cols[0]]))
    return int(cols[np.argmin(signature_rows(rows))])


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
    s1: np.ndarray,
) -> None:
    """Score every combination of every product in one equal-length bucket
    and fill in the members' chosen record IDs and summed idf s1.

    block holds the bucket's record IDs, one row per member.
    """
    fw = index.forward
    idf = index.idf
    total_tokens = len(index.tokens)
    l_avg_c = index.stats.avg_combination_len
    b = config.b

    patterns = [position_patterns(length, kk) for kk in range(2, min(index.k, length) + 1)]
    denoms = [1.0 - b + b * kk / l_avg_c for kk in range(2, min(index.k, length) + 1)]
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
        idf_mat = idf[ids_mat]
        # a row sum equals float(idf[ids].sum()) of the title bit for bit
        s1[batch] = idf_mat.sum(axis=1)
        a = idf_mat * (total_tokens / x_per_token)

        y_mat = np.hstack([a[:, pat].sum(axis=2) / den for pat, den in zip(patterns, denoms)])

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
    they are grouped by that token, so identical one-token titles still match
    each other. The index is left unchanged.
    """
    fw = index.forward
    n = len(fw)
    combos = index.combos
    f_arr = combos.f_c.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        avgd = np.where(f_arr > 0, combos.d_acc / np.maximum(f_arr, 1), 0.0)
    quality = np.log(np.maximum(f_arr, 1)) / (config.alpha + avgd)

    if len(fw.buckets) != len(fw.combo_blocks):
        raise ValueError("index was built without combinations")
    chosen = np.full(n, -1, dtype=np.int64)
    s1 = np.zeros(n, dtype=np.float64)
    for (length, members), block in zip(fw.buckets, fw.combo_blocks):
        _score_bucket(index, config, members, length, block, quality, avgd, chosen, s1)
    first_token = fw.tok_flat[fw.tok_offsets[:-1]]
    lengths = np.diff(fw.tok_offsets)
    s1[lengths == 1] = index.idf[first_token[lengths == 1]]
    vendor = np.asarray(fw.vendor_ids, dtype=np.int64)
    return ClusterUniverse.from_choices(chosen, first_token, vendor, s1)
