"""One-pass construction of the token lexicon, combination lexicon and
forward index, all held as numpy columns.

Tokens are interned in first-encounter order; the lexicon keeps each
token's surface, its product frequency f_w and the semantics seen at first
encounter. The forward index keeps every product's token IDs and semantics
as one CSR in product order. Combinations are grouped by their exact key,
the sorted member-ID sequence, in one whole-array pass per combination size
k. A size-k key is the key of the size-(k-1) subset without its largest
member, plus that member's ID, so each pass packs the subset's rank from the
pass below with the largest ID, and one np.unique ranks the packed values in
key order. Records are therefore ordered by (k, key); f_c and the positional
distance accumulator d_acc come from np.bincount. Equality never rests on a
hash, and the index stores none: scoring computes the FNV-1a signature of a
key only when a tie reaches it.

Titles are bucketed by length (length_buckets), ascending, file order within
a length. A bucket's record IDs form one block with a row per title, which
scoring slices as it is. Within one k, instances follow the bucket order and
enumeration order within a title; bincount sums d_acc in that order, so the
accumulators are reproducible run to run. With the default squared distance
the accumulator is integral and therefore exact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .combinatorics import count_combinations, drop_patterns, pattern_distances, position_patterns
from .ingest import Dataset, RawProduct
from .textprep import (
    AnalyzedTitle,
    TitleNormalizationError,
    UnitLexicon,
    analyze_title,
    truncate_for_variant,
)

SNAPSHOT_FORMAT = "titlematch-index"
SNAPSHOT_VERSION = 2
# v1 snapshots also stored per-record signatures (combo_sigs); loading skips them
SNAPSHOT_VERSIONS = (1, 2)

DISTANCE_MODES = ("squared", "euclidean")


def _empty(dtype) -> np.ndarray:
    return np.empty(0, dtype=dtype)


@dataclass
class TokenLexicon:
    """Title tokens as columns, IDs in first-encounter order.

    Token i has surface surfaces[i], product frequency f_w[i] and the
    semantics s_w[i] it carried at its first encounter.
    """

    surfaces: List[str] = field(default_factory=list)
    f_w: np.ndarray = field(default_factory=lambda: _empty(np.int64))
    s_w: np.ndarray = field(default_factory=lambda: _empty(np.int64))

    def __len__(self) -> int:
        return len(self.surfaces)


@dataclass
class CombinationLexicon:
    """Combination records as numpy columns, ordered by (k, key).

    Record i has frequency f_c[i], distance accumulator d_acc[i] and size
    k[i]; its sorted member IDs are key_flat[key_offsets[i] : key_offsets[i + 1]].
    """

    f_c: np.ndarray = field(default_factory=lambda: _empty(np.int64))
    d_acc: np.ndarray = field(default_factory=lambda: _empty(np.float64))
    k: np.ndarray = field(default_factory=lambda: _empty(np.int64))
    key_flat: np.ndarray = field(default_factory=lambda: _empty(np.int32))
    key_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.f_c)

    def ids_of(self, idx: int) -> List[int]:
        return self.key_flat[self.key_offsets[idx] : self.key_offsets[idx + 1]].tolist()


@dataclass
class ForwardIndex:
    """Per-product references into the lexicons, as columns.

    Product p's token IDs, in title order, are
    tok_flat[tok_offsets[p] : tok_offsets[p + 1]] and their semantics the
    same slice of sem_flat. Combination record IDs live in one block per
    entry of length_buckets(np.diff(tok_offsets)): row r of combo_blocks[b]
    holds the record IDs of the bucket's r-th product in enumeration order.
    combo_blocks is empty when the index was built without combinations.
    """

    product_ids: List[int] = field(default_factory=list)
    vendor_ids: List[int] = field(default_factory=list)
    tok_flat: np.ndarray = field(default_factory=lambda: _empty(np.int64))
    sem_flat: np.ndarray = field(default_factory=lambda: _empty(np.int64))
    tok_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    combo_blocks: List[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.product_ids)

    def tokens_of(self, p: int) -> np.ndarray:
        return self.tok_flat[self.tok_offsets[p] : self.tok_offsets[p + 1]]


@dataclass(frozen=True)
class IndexStats:
    title_count: int
    distinct_tokens: int
    avg_title_len: float
    avg_combination_len: float
    combination_instances: int
    distinct_combinations: int

    @property
    def collisions_resolved(self) -> int:
        """Always 0: records are grouped by exact key and no hash is stored.
        perfbench/worker.py still reads it for index.collisions; it goes when
        the benchmark is re-pinned."""
        return 0


@dataclass
class ProductIndex:
    dataset: Dataset
    tokens: TokenLexicon
    combos: CombinationLexicon
    forward: ForwardIndex
    stats: IndexStats
    k: int
    variant: str
    distance_mode: str

    _idf: Optional[np.ndarray] = None

    @property
    def idf(self) -> np.ndarray:
        """idf(w) = ln(|P| / f_w) for every token, as a dense array."""
        if self._idf is None:
            self._idf = np.log(float(self.stats.title_count) / self.tokens.f_w.astype(np.float64))
        return self._idf

    def token_set(self, p: int) -> frozenset:
        return frozenset(self.forward.tokens_of(p).tolist())


def resolve_k(avg_title_len: float) -> int:
    """Default combination size cap: half the average title length."""
    # combinations need k >= 2, so very short corpora are clamped
    return max(2, int(avg_title_len / 2))


def analyze_dataset(dataset: Dataset, units: Optional[UnitLexicon] = None) -> List[AnalyzedTitle]:
    """Analyze every title; a title that normalizes to nothing names its product."""
    units = units or UnitLexicon.default()
    analyzed = []
    for p in dataset.products:
        try:
            analyzed.append(analyze_title(p.title, units))
        except TitleNormalizationError as exc:
            raise TitleNormalizationError(f"product {p.product_id}: {exc}") from None
    return analyzed


def _check_int32(count: int, what: str) -> None:
    if count > 2**31:
        raise OverflowError(f"{count} {what} overflow the index's int32 IDs")


def _pack(packed: np.ndarray, l: int, kk: int, ids: np.ndarray, prefix_ranks: np.ndarray) -> None:
    """Write (prefix rank << 32) | largest ID for every size-kk instance of a
    length-l bucket into its (titles, C(l, kk)) view of packed. An instance's
    prefix is its size-(kk-1) subset without the largest member; prefix_ranks
    holds each title's subset ranks in position_patterns(l, kk - 1) order."""
    members = ids[:, position_patterns(l, kk)]
    top = members.argmax(axis=2)
    largest = members.max(axis=2)
    del members
    subsets = drop_patterns(l, kk)[np.arange(top.shape[1]), top]
    packed[:] = np.take_along_axis(prefix_ranks, subsets, axis=1)
    packed <<= 32
    packed |= largest


def _group_size(
    kk: int, blocks: list, prev_keys: np.ndarray, prev_offset: int, offset: int, euclidean: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group every size-kk combination instance by exact key.

    blocks holds (l, ID matrix, size-(kk-1) record IDs, size-kk record-ID
    block) per title length l >= kk, ascending. A sorted key is its prefix's
    key plus the largest ID, so one np.unique of (prefix rank, largest ID)
    ranks the keys lexicographically. Returns the distinct keys, from
    prev_keys, with their f_c and d_acc; record IDs are offset + key rank.
    """
    bounds = np.cumsum([0] + [block.size for *_, block in blocks])
    packed = np.empty(bounds[-1], dtype=np.int64)
    for (l, ids, prev, block), start in zip(blocks, bounds):
        part = packed[start : start + block.size].reshape(block.shape)
        _pack(part, l, kk, ids, prev - prev_offset)
    distinct, rank = np.unique(packed, return_inverse=True)
    del packed
    _check_int32(offset + len(distinct), "combination records")
    dist = np.empty(len(rank))
    for (l, _, _, block), start in zip(blocks, bounds):
        block[:] = rank[start : start + block.size].reshape(block.shape) + offset
        dist[start : start + block.size].reshape(block.shape)[:] = pattern_distances(l, kk)
    keys = np.empty((len(distinct), kk), dtype=np.int32)
    keys[:, :-1] = prev_keys[distinct >> 32]
    keys[:, -1] = distinct & 0xFFFFFFFF
    return keys, np.bincount(rank), np.bincount(rank, np.sqrt(dist) if euclidean else dist)


def length_buckets(lengths: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """(length, products) for every title length >= 2, ascending by length,
    products in file order: the layout of the combination blocks, of the
    instances within one k and of the scoring pass."""
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(lengths[order])) + 1
    return [
        (int(lengths[group[0]]), group)
        for group in np.split(order, cuts)
        if len(group) and lengths[group[0]] >= 2
    ]


def _index_combinations(
    forward: ForwardIndex, k_max: int, euclidean: bool
) -> Tuple[CombinationLexicon, int, int]:
    """Group every 2..K combination instance by exact key, one pass per k,
    each extending the ranks the pass below wrote (Apriori's prefix join).

    Fills forward.combo_blocks (each product's record IDs in enumeration
    order) and returns the lexicon, the instance count and the summed member
    count.
    """
    offsets = forward.tok_offsets
    n_tokens = int(forward.tok_flat.max(initial=-1)) + 1
    _check_int32(n_tokens, "distinct tokens")
    forward.combo_blocks, buckets = [], []
    for l, members in length_buckets(np.diff(offsets)):
        ids = forward.tok_flat[offsets[members][:, None] + np.arange(l)].astype(np.int32)
        out = np.empty((len(members), count_combinations(l, k_max)), dtype=np.int32)
        forward.combo_blocks.append(out)
        # the record-ID columns of each size; token IDs stand in for size 1
        cuts = [count_combinations(l, kk) for kk in range(2, min(l, k_max))]
        buckets.append((l, ids, [ids] + np.split(out, cuts, axis=1)))

    keys, f_c, d_acc = [np.arange(n_tokens, dtype=np.int32)[:, None]], [], []
    prev_offset = offset = 0
    for kk in range(2, k_max + 1):
        blocks = [(l, ids, cols[kk - 2], cols[kk - 1]) for l, ids, cols in buckets if l >= kk]
        if not blocks:
            break
        key_rows, f, d = _group_size(kk, blocks, keys[-1], prev_offset, offset, euclidean)
        keys.append(key_rows)
        f_c.append(f)
        d_acc.append(d)
        prev_offset, offset = offset, offset + len(f)

    if not f_c:
        return CombinationLexicon(), 0, 0
    # one column at a time, so no two columns' per-k parts are alive at once
    del key_rows, f, d
    key_flat = np.concatenate([key.ravel() for key in keys[1:]])
    del keys
    k_col = np.repeat(np.arange(2, 2 + len(f_c)), [len(f) for f in f_c])
    f_c, d_acc = np.concatenate(f_c), np.concatenate(d_acc)
    combos = CombinationLexicon(
        f_c=f_c,
        d_acc=d_acc,
        k=k_col,
        key_flat=key_flat,
        key_offsets=np.concatenate([[0], np.cumsum(k_col)]),
    )
    return combos, int(f_c.sum()), int((f_c * k_col).sum())


def build_index(
    dataset: Dataset,
    k: Optional[int] = None,
    variant: str = "upm",
    distance_mode: str = "squared",
    units: Optional[UnitLexicon] = None,
    analyzed: Optional[List[AnalyzedTitle]] = None,
    with_combinations: bool = True,
) -> ProductIndex:
    """Build lexicons and forward index for a dataset.

    k=None resolves the combination cap from the average analyzed title
    length. The pruning variant truncates each title to its first 2k tokens
    before indexing. with_combinations=False stops after the token pass;
    pairwise baselines only need token sets and idf.
    """
    if distance_mode not in DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {distance_mode!r}")
    if analyzed is None:
        analyzed = analyze_dataset(dataset, units)
    n = len(analyzed)
    avg_len = sum(t.length for t in analyzed) / n if n else 0.0
    k_resolved = resolve_k(avg_len) if k is None else int(k)
    if k_resolved < 2:
        raise ValueError(f"K must be >= 2, got {k_resolved}")

    titles = [truncate_for_variant(t, variant, k_resolved) for t in analyzed]

    by_surface: Dict[str, int] = {}
    surfaces: List[str] = []
    first_sem: List[int] = []
    ids: List[int] = []
    sems: List[int] = []
    for title in titles:
        for surface, sem in zip(title.surfaces, title.semantics):
            i = by_surface.get(surface)
            if i is None:
                i = by_surface[surface] = len(surfaces)
                surfaces.append(surface)
                first_sem.append(int(sem))
            ids.append(i)
            sems.append(int(sem))
    tok_flat = np.asarray(ids, dtype=np.int64)
    # analyzed titles hold no duplicate tokens, so occurrences are products
    tokens = TokenLexicon(
        surfaces=surfaces,
        f_w=np.bincount(tok_flat, minlength=len(surfaces)),
        s_w=np.asarray(first_sem, dtype=np.int64),
    )
    forward = ForwardIndex(
        product_ids=[p.product_id for p in dataset.products],
        vendor_ids=[p.vendor_id for p in dataset.products],
        tok_flat=tok_flat,
        sem_flat=np.asarray(sems, dtype=np.int64),
        tok_offsets=np.cumsum([0] + [t.length for t in titles], dtype=np.int64),
    )

    if with_combinations:
        combos, total_instances, total_member_count = _index_combinations(
            forward, k_resolved, distance_mode == "euclidean"
        )
    else:
        combos, total_instances, total_member_count = CombinationLexicon(), 0, 0

    stats = IndexStats(
        title_count=n,
        distinct_tokens=len(tokens),
        avg_title_len=len(tok_flat) / n if n else 0.0,
        avg_combination_len=(total_member_count / total_instances) if total_instances else 0.0,
        combination_instances=total_instances,
        distinct_combinations=len(combos),
    )
    return ProductIndex(
        dataset=dataset,
        tokens=tokens,
        combos=combos,
        forward=forward,
        stats=stats,
        k=k_resolved,
        variant=variant,
        distance_mode=distance_mode,
    )


def save_index(index: ProductIndex, path) -> None:
    """Write a versioned binary snapshot of a built index.

    The snapshot stores combination record IDs in product order, as
    combo_flat[combo_offsets[p] : combo_offsets[p + 1]].
    """
    fw = index.forward
    buckets = length_buckets(np.diff(fw.tok_offsets))
    widths = np.zeros(len(fw), dtype=np.int64)
    for (_, members), block in zip(buckets, fw.combo_blocks):
        widths[members] = block.shape[1]
    combo_offsets = np.cumsum(np.concatenate([[0], widths]))
    combo_flat = np.empty(combo_offsets[-1], dtype=np.int32)
    for (_, members), block in zip(buckets, fw.combo_blocks):
        combo_flat[combo_offsets[members][:, None] + np.arange(block.shape[1])] = block
    combos = index.combos
    products = index.dataset.products
    truth = [-1 if p.truth_cluster_id is None else p.truth_cluster_id for p in products]
    meta = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "k": index.k,
        "variant": index.variant,
        "distance_mode": index.distance_mode,
        "stats": asdict(index.stats),
    }
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        product_ids=np.asarray(fw.product_ids, dtype=np.int64),
        vendor_ids=np.asarray(fw.vendor_ids, dtype=np.int64),
        truth=np.asarray(truth, dtype=np.int64),
        titles=np.asarray([p.title for p in products], dtype=np.str_),
        token_surfaces=np.asarray(index.tokens.surfaces, dtype=np.str_),
        token_f=index.tokens.f_w,
        token_sem=index.tokens.s_w,
        tok_flat=fw.tok_flat,
        tok_offsets=fw.tok_offsets,
        sem_flat=fw.sem_flat,
        combo_flat=combo_flat,
        combo_offsets=combo_offsets,
        combo_f=combos.f_c,
        combo_d=combos.d_acc,
        combo_k=combos.k,
        key_flat=combos.key_flat,
        key_offsets=combos.key_offsets,
    )


def load_index(path) -> ProductIndex:
    """Reload a version 1 or 2 snapshot; verifies format and version."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(bytes(z["meta"]).decode("utf-8"))
        if meta.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(f"not a {SNAPSHOT_FORMAT} snapshot: {path}")
        if meta.get("version") not in SNAPSHOT_VERSIONS:
            raise ValueError(
                f"snapshot version {meta.get('version')} unsupported "
                f"(expected one of {SNAPSHOT_VERSIONS})"
            )
        meta["stats"].pop("collisions_resolved", None)
        product_ids = z["product_ids"].tolist()
        vendor_ids = z["vendor_ids"].tolist()
        products = [
            RawProduct(pid, title, vid, None if t < 0 else t)
            for pid, title, vid, t in zip(
                product_ids, z["titles"].tolist(), vendor_ids, z["truth"].tolist()
            )
        ]
        tokens = TokenLexicon(
            surfaces=z["token_surfaces"].tolist(), f_w=z["token_f"], s_w=z["token_sem"]
        )
        forward = ForwardIndex(
            product_ids=product_ids,
            vendor_ids=vendor_ids,
            tok_flat=z["tok_flat"],
            sem_flat=z["sem_flat"],
            tok_offsets=z["tok_offsets"],
        )
        k = meta["k"]
        combo_flat = z["combo_flat"].astype(np.int32)
        combo_offsets = z["combo_offsets"]
        if len(combo_flat):
            forward.combo_blocks = [
                combo_flat[combo_offsets[members][:, None] + np.arange(count_combinations(l, k))]
                for l, members in length_buckets(np.diff(forward.tok_offsets))
            ]
        combos = CombinationLexicon(
            f_c=z["combo_f"],
            d_acc=z["combo_d"],
            k=z["combo_k"],
            key_flat=z["key_flat"].astype(np.int32),
            key_offsets=z["key_offsets"],
        )
        return ProductIndex(
            dataset=Dataset(products=products),
            tokens=tokens,
            combos=combos,
            forward=forward,
            stats=IndexStats(**meta["stats"]),
            k=k,
            variant=meta["variant"],
            distance_mode=meta["distance_mode"],
        )
