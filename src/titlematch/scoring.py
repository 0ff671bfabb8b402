"""Combination scoring and dominating-cluster selection.

Every combination c of every product is scored with

    I(c) = Y_c^2 * ln(f_c) / (alpha + d_acc/f_c)

where Y_c is a BM25F-flavoured field-weighted relevance score over the
combination's tokens. Each title is split into five virtual fields by token
semantics; a field's weight is the global distinct-token count divided by the
field's population within the title, so crowded fields contribute less per
token. The field weights are computed once per corpus, from one count per
(title, semantics) pair, not per length bucket. The highest-scoring
combination becomes the product's dominating cluster, and all products that
select the same combination are declared matching.

A combination unique in the corpus has no record (its cell is -1)
and scores 0. Y_c is summed over the combination's title positions from
left to right, each size extending the sums of the size below.

The universe is columns: per product its cluster (assignment), vendor and
summed idf s1; per cluster, ordered by first member in file order, its
representative pi (the first member with the largest s1) and its key (the
chosen record ID, or -1 when no record was chosen: one-token titles, which
group by their token, products whose choice has no f_c >= 2 record, and
verification singletons, each of which founds its own cluster).

Ties are resolved deterministically: equal positive scores prefer the longer
combination, then the smaller average distance, then the smaller signature;
all-zero products (no combination scores above 0, as when every one is
unique in the corpus) prefer the larger relevance score, then the longer
combination, then the smaller signature of the key read from the title's
own tokens. Scores are plain float64 expressions over identical operands,
evaluated in one fixed order, so exact comparison is reproducible across
runs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from .combinatorics import count_combinations, drop_patterns, position_patterns, signature_rows
from .index import DISTANCE_MODES, CombinationLexicon, ProductIndex
from .textprep import Semantics

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
    its key, the chosen record ID, or -1 when no record chose it: a
    one-token title's cluster, the own cluster of a product whose choice has
    no f_c >= 2 record, or a verification singleton."""

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
        chosen (-1); a product with neither (token -1) founds its own
        cluster. Clusters follow their first member in file order, and a
        representative is the first member with the largest s1."""
        group = np.where(chosen >= 0, chosen, -1 - token)
        own = (chosen < 0) & (token < 0)
        group[own] = group.max(initial=0) + 1 + np.arange(np.count_nonzero(own))
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
    recs: np.ndarray,
    tokens: np.ndarray,
    patterns: List[np.ndarray],
    combos: CombinationLexicon,
) -> int:
    """Tie-break one product's combination choice; returns a local column.

    The title's columns hold its record IDs recs (-1 for a unique
    combination) in pattern order: position_patterns(l, k) for k = 2, 3, ...
    as patterns lists them, over the title's token IDs tokens. All-zero rows
    prefer the larger Y, then the larger k, then the smaller signature. Equal
    positive scores prefer the larger k, then the smaller mean distance, then
    the smaller signature. Equal signatures keep the earliest column.
    """
    starts = np.cumsum([0] + [len(pat) for pat in patterns])
    k = np.searchsorted(starts, np.arange(len(recs)), side="right") + 1
    positive = i_row.max() > 0.0
    cols = np.arange(len(recs))
    for pref in (i_row if positive else y_row, k):
        vals = pref[cols]
        cols = cols[vals == vals.max()]
    if positive and len(cols) > 1:
        # a positive score has a record, so its mean distance is at hand
        tied = recs[cols]
        avgd = combos.d_acc[tied] / combos.f_c[tied]
        cols = cols[avgd == avgd.min()]
    if len(cols) == 1:
        return int(cols[0])
    # only the columns still tied are hashed; they share one k
    kk = int(k[cols[0]])
    rows = np.sort(tokens[patterns[kk - 2][cols - starts[kk - 2]]], axis=1)
    return int(cols[np.argmin(signature_rows(rows))])


def _relevance(a: np.ndarray, k_max: int, b: float, l_avg_c: float) -> np.ndarray:
    """Y of every combination of titles of one length l, given each title
    position's field-weighted idf a (titles, l): a (titles, columns) matrix
    whose columns are position_patterns(l, k) for k = 2..min(k_max, l).

    Y sums a over a pattern's positions from left to right, so it is the sum
    of the pattern's prefix (the pattern without its last position, a row of
    drop_patterns) plus the last position, divided by the length
    normalization 1 - b + b * k / l_avg_c.
    """
    length = a.shape[1]
    y = np.empty((len(a), count_combinations(length, k_max)))
    prefix, lo = a, 0  # a one-position pattern sums to its a
    for kk in range(2, min(k_max, length) + 1):
        pat = position_patterns(length, kk)
        # take gathers columns faster than fancy indexing
        prefix = prefix.take(drop_patterns(length, kk)[:, -1], axis=1) + a.take(pat[:, -1], axis=1)
        np.divide(prefix, 1.0 - b + b * kk / l_avg_c, out=y[:, lo : lo + len(pat)])
        lo += len(pat)
    return y


# Upper bound on the cells of one scoring batch: records when computing their
# quality, score-matrix cells (titles times combinations) when scoring a
# bucket. A bucket batch's Y, score, record-ID and quality matrices take 32
# bytes a cell, so scoring, with the index it reads, peaks below the build
# of that index, as test_scoring_sets_no_memory_peak checks.
_SCORE_BUDGET = 1 << 16


def _score_bucket(
    index: ProductIndex,
    config: ScoringConfig,
    members: np.ndarray,
    length: int,
    views: List[np.ndarray],
    quality: np.ndarray,
    a_rows: np.ndarray,
    chosen: np.ndarray,
) -> None:
    """Score every combination of every product in one equal-length bucket
    and fill in the members' chosen record IDs.

    views holds the bucket's record-ID matrix of each size k = 2, 3, ...,
    one row per member, -1 for a unique combination; quality[-1] is 0. A
    product whose choice is unique keeps -1. a_rows holds, a row per member,
    each token's idf times its field weight; the field weights are computed
    once per corpus (_weighted_idf_rows), not per bucket.
    """
    fw = index.forward
    l_avg_c = index.stats.avg_combination_len
    b = config.b

    patterns = [position_patterns(length, kk) for kk in range(2, len(views) + 2)]
    step = max(1, _SCORE_BUDGET // sum(len(p) for p in patterns))

    for c0 in range(0, len(members), step):
        batch = members[c0 : c0 + step]
        y_mat = _relevance(a_rows[c0 : c0 + step], index.k, b, l_avg_c)

        # the batch's record IDs from the size views, as intp: take then needs
        # no cast buffer, which past about 16k cells costs more than the gather
        recs = [view[c0 : c0 + step] for view in views]
        idx_mat = np.concatenate(recs, axis=1, dtype=np.intp)
        i_mat = y_mat * y_mat
        i_mat *= quality.take(idx_mat)

        row_max = i_mat.max(axis=1)
        n_max = (i_mat == row_max[:, None]).sum(axis=1)
        plain = (n_max == 1) & (row_max > 0.0)
        best = np.argmax(i_mat, axis=1)
        chosen[batch[plain]] = idx_mat[plain, best[plain]]
        for r in np.flatnonzero(~plain):
            tokens = fw.tokens_of(batch[r])
            col = _resolve_row(i_mat[r], y_mat[r], idx_mat[r], tokens, patterns, index.combos)
            chosen[batch[r]] = idx_mat[r, col]


def _weighted_idf_rows(index: ProductIndex) -> List[np.ndarray]:
    """Per length bucket, each title's tokens' idf times their field weight,
    a row per title. A token's field weight is the distinct-token count over
    its field's population in its title: one count per (title, semantics)
    pair, once per corpus."""
    fw = index.forward
    field = np.repeat(np.arange(len(fw)) * (len(Semantics) + 1), np.diff(fw.tok_offsets))
    field += fw.sem_flat
    population = np.bincount(field)[field]
    return fw.bucket_rows(index.idf[fw.tok_flat] * (len(index.tokens) / population))


def _summed_idf(index: ProductIndex) -> np.ndarray:
    """s1: each title's summed token idf."""
    fw = index.forward
    s1 = np.zeros(len(fw))
    for (_, members), idf_rows in zip(fw.buckets, fw.bucket_rows(index.idf[fw.tok_flat])):
        # a row sum equals float(idf[ids].sum()) of the title bit for bit
        s1[members] = idf_rows.sum(axis=1)
    one_token = np.diff(fw.tok_offsets) == 1
    s1[one_token] = index.idf[fw.tok_flat[fw.tok_offsets[:-1][one_token]]]
    return s1


def select_clusters(index: ProductIndex, config: ScoringConfig) -> ClusterUniverse:
    """Pick every product's dominating combination and build the universe.

    Products whose analyzed title is a single token cannot form combinations;
    they are grouped by that token, so identical one-token titles still match
    each other. A product whose choice is a unique combination founds its own
    cluster. The index is left unchanged.
    """
    fw = index.forward
    n = len(fw)
    combos = index.combos
    # records have f_c >= 2; a unique combination's cell (-1) reads the trailing 0.
    # Computed a batch of records at a time, so no temporary spans them all.
    quality = np.zeros(len(combos) + 1)
    for a in range(0, len(combos), _SCORE_BUDGET):
        f_c, d_acc = combos.f_c[a : a + _SCORE_BUDGET], combos.d_acc[a : a + _SCORE_BUDGET]
        np.divide(np.log(f_c), config.alpha + d_acc / f_c, out=quality[a : a + len(f_c)])

    if fw.buckets and not fw.combo_columns:
        raise ValueError("index was built without combinations")
    chosen = np.full(n, -1, dtype=np.int64)
    for (length, members), views, a_rows in zip(
        fw.buckets, fw.combo_views, _weighted_idf_rows(index)
    ):
        _score_bucket(index, config, members, length, views, quality, a_rows, chosen)
    first_token = fw.tok_flat[fw.tok_offsets[:-1]]
    one_token = np.diff(fw.tok_offsets) == 1
    vendor = np.asarray(fw.vendor_ids, dtype=np.int64)
    token = np.where(one_token, first_token, -1)
    return ClusterUniverse.from_choices(chosen, token, vendor, _summed_idf(index))
