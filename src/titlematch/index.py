"""One-pass construction of the token lexicon, combination lexicon and
forward index, all held as numpy columns.

The token columns come from analyze_dataset, a TitleCorpus whose IDs are
already interned in first-encounter order; the index does no per-token
Python work. The pruning variant clips the corpus's offsets and re-interns
the surviving IDs (TitleCorpus.clip). The lexicon keeps each token's
surface, its product frequency f_w (one bincount) and the semantics at its
first occurrence. The forward index keeps every product's token IDs and
semantics as one CSR in product order: the corpus columns themselves.

Combinations are grouped by their exact key, the sorted member-ID sequence,
in one whole-array pass per combination size k. A size-k key is the key of
the size-(k-1) subset without its largest member, plus that member's ID, so
each pass packs the subset's record ID from the pass below above the
largest ID, which takes as many bits as the largest token ID. The packed
values are ranked inside their column by one in-place value sort
(_rank_values), which leaves the column holding the permutation. Only keys
that occur at least twice become records: I(c) is 0 at f_c = 1, so a unique
key's cells hold -1 instead, and so do those of every instance whose prefix
holds -1, since a superset of a unique subset is unique too. Records are
ordered by (k, key) and each size's records form one run. f_c is counted and
the int32 record IDs numbered in the sorted column, before one scatter back
to positions; the positional distance accumulator d_acc is summed there too,
by one np.bincount per batch of whole runs (_sum_distances). Each size's keys
stay one (records, k) int32 table, which the pass above extends and the
lexicon keeps. Equality never rests on a hash, and the index stores none:
scoring computes the FNV-1a signature of a key only when a tie reaches it.

Titles are bucketed by length (ForwardIndex.buckets), ascending, file order
within a length. A bucket's record IDs form one block with a row per title,
which scoring slices as it is. Within one k, instances follow the bucket
order and enumeration order within a title. A run of the sorted column
lists its instances' positions ascending, so each record's d_acc adds them in
that order and the accumulators are reproducible run to run, whatever the
batches. With the default squared distance the accumulator is integral and
therefore exact.

A snapshot (save_index) stores the key tables and blocks as they are held,
and no stats: ProductIndex.stats derives them from the columns, unique
instances included.
"""

from __future__ import annotations

import json
import math
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .combinatorics import count_combinations, drop_patterns, pattern_distances, position_patterns
from .ingest import Dataset, RawProduct
from .textprep import TitleCorpus, TitleNormalizationError, UnitLexicon, analyze_titles

SNAPSHOT_FORMAT = "titlematch-index"
SNAPSHOT_VERSION = 4
# v1 and v2 snapshots store flat combination columns (_flat_combinations), and
# v1 to v3 a record for every key (_drop_unique)
SNAPSHOT_VERSIONS = (1, 2, 3, 4)

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
    """Combination records as numpy columns, ordered by (k, key): one per
    key that occurs at least twice, since I(c) is 0 at f_c = 1.

    Record i has frequency f_c[i] and distance accumulator d_acc[i]. keys
    holds one table per size: keys[k - 2] is the (n_k, k) int32 table of the
    size-k records' sorted member IDs, a row per record in record order. The
    records of size k are the n_k IDs from size_starts[k - 2].
    """

    f_c: np.ndarray = field(default_factory=lambda: _empty(np.int64))
    d_acc: np.ndarray = field(default_factory=lambda: _empty(np.float64))
    keys: List[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.f_c)

    @cached_property
    def size_starts(self) -> np.ndarray:
        """The first record ID of each size, from the key table lengths."""
        return np.cumsum([0] + [len(table) for table in self.keys])[:-1]

    def sizes(self, recs: np.ndarray) -> np.ndarray:
        """The size k of each record in recs."""
        return np.searchsorted(self.size_starts, recs, side="right") + 1

    def records(self, k: int) -> np.ndarray:
        """The IDs of the records of size k, ascending."""
        if k - 2 not in range(len(self.keys)):
            return np.arange(0)
        start = self.size_starts[k - 2]
        return np.arange(start, start + len(self.keys[k - 2]))

    def key_rows(self, recs: np.ndarray, k: int) -> np.ndarray:
        """The sorted member IDs of records recs, all of size k, one row each."""
        return self.keys[k - 2][recs - self.size_starts[k - 2]]

    def ids_of(self, idx: int) -> List[int]:
        """The sorted member IDs of record idx."""
        if not 0 <= idx < len(self):
            raise IndexError(f"combination record {idx} out of range for {len(self)} records")
        return self.key_rows(idx, int(self.sizes(idx))).tolist()


@dataclass
class ForwardIndex:
    """Per-product references into the lexicons, as columns.

    Product p's token IDs, in title order, are
    tok_flat[tok_offsets[p] : tok_offsets[p + 1]] and their semantics the
    same slice of sem_flat. Combination record IDs live in one block per
    length bucket: row r of combo_blocks[b] holds the record IDs of the r-th
    product of buckets[b] in enumeration order, -1 for a combination unique
    in the corpus. combo_blocks is empty when the index was built without
    combinations.
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

    @cached_property
    def buckets(self) -> List[Tuple[int, np.ndarray]]:
        """(length, products) per title length >= 2, ascending, products in
        file order: the layout of the blocks, of each k's instances and of scoring."""
        lengths = np.diff(self.tok_offsets)
        order = np.argsort(lengths, kind="stable")
        cuts = np.flatnonzero(np.diff(lengths[order])) + 1
        return [
            (int(lengths[group[0]]), group)
            for group in np.split(order, cuts)
            if len(group) and lengths[group[0]] >= 2
        ]


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
    k: int
    variant: str
    distance_mode: str

    @cached_property
    def stats(self) -> IndexStats:
        """Title, token and combination counts, from the columns. A length-l
        block row holds C(l, k) instances of each size k; those its records'
        f_c do not count are unique, one distinct combination each."""
        n = len(self.forward)
        combos = self.combos
        instances = members = unique = 0
        layout = list(zip(self.forward.buckets, self.forward.combo_blocks))
        for kk in range(2, len(combos.keys) + 2):
            count = sum(len(block) * math.comb(l, kk) for (l, _), block in layout)
            instances += count
            members += kk * count
            unique += count - int(combos.f_c[combos.records(kk)].sum())
        return IndexStats(
            title_count=n,
            distinct_tokens=len(self.tokens),
            avg_title_len=len(self.forward.tok_flat) / n if n else 0.0,
            avg_combination_len=members / instances if instances else 0.0,
            combination_instances=instances,
            distinct_combinations=len(combos) + unique,
        )

    @cached_property
    def idf(self) -> np.ndarray:
        """idf(w) = ln(|P| / f_w) for every token, as a dense array."""
        return np.log(float(self.stats.title_count) / self.tokens.f_w.astype(np.float64))

    def token_set(self, p: int) -> frozenset:
        return frozenset(self.forward.tokens_of(p).tolist())


def resolve_k(avg_title_len: float) -> int:
    """Default combination size cap: half the average title length."""
    # combinations need k >= 2, so very short corpora are clamped
    return max(2, int(avg_title_len / 2))


def analyze_dataset(dataset: Dataset, units: Optional[UnitLexicon] = None) -> TitleCorpus:
    """Analyze every title into one TitleCorpus, in product order; a title
    that normalizes to nothing names its product."""
    products = dataset.products
    try:
        return analyze_titles([p.title for p in products], units or UnitLexicon.default())
    except TitleNormalizationError as exc:
        product = products[exc.position]
        raise TitleNormalizationError(f"product {product.product_id}: {exc}") from None


def _check_int32(count: int, what: str) -> None:
    if count > 2**31:
        raise OverflowError(f"{count} {what} overflow the index's int32 IDs")


def _pack(
    packed: np.ndarray,
    l: int,
    kk: int,
    ids: np.ndarray,
    prefix_ranks: np.ndarray,
    id_bits: int,
    no_record: int,
) -> None:
    """Write (prefix rank << id_bits) | largest ID for every size-kk instance
    of a length-l bucket into its (titles, C(l, kk)) view of packed. An
    instance's prefix is its size-(kk-1) subset without the largest member;
    prefix_ranks holds each title's subset ranks in position_patterns(l, kk - 1)
    order, negative for a prefix without a record, and every token ID is below
    2**id_bits. An instance whose prefix has no record packs to no_record plus
    its position in the view, so that value occurs once."""
    patterns = position_patterns(l, kk)
    # a running maximum over the members beats argmax along an axis of length kk
    largest = ids[:, patterns[:, 0]]
    top = np.zeros(largest.shape, dtype=np.intp)
    for j in range(1, kk):
        member = ids[:, patterns[:, j]]
        top[member > largest] = j
        np.maximum(largest, member, out=largest)
    subsets = drop_patterns(l, kk)[np.arange(top.shape[1]), top]
    ranks = np.take_along_axis(prefix_ranks, subsets, axis=1)
    packed[:] = ranks
    packed <<= id_bits
    packed |= largest
    unique = ranks < 0
    packed[unique] = no_record + np.flatnonzero(unique)


# sorted cells per chunk of the neighbour comparison and per d_acc batch
_BATCH = 1 << 16


def _rank_values(
    values: np.ndarray, offset: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rank, inside the column, the values that occur more than once in a
    1-D column of non-negative int64 values.

    Returns the sorted repeated values, the sorted position where each one's
    run starts, how often each occurs, and the rank of every sorted position
    as int32: offset plus the index of its value among the repeated ones, -1
    where its value occurs once. The column is left holding the permutation,
    each sorted value's position, ascending within a run.

    When the values' bit width plus that of their positions fits in 63 bits,
    each value is shifted up and its position written into the low bits, so
    every packed value is distinct and one in-place sort orders them. Two
    neighbours then share a value when their XOR is below 2**pos_bits, and
    masking the high bits off leaves the permutation. Wider inputs take a
    stable argsort instead.
    """
    n = len(values)
    pos_bits = max(n - 1, 0).bit_length()
    order = None
    if int(values.max(initial=0)).bit_length() + pos_bits <= 63:
        values <<= pos_bits
        values |= np.arange(n)
        values.sort()
    else:
        order = values.argsort(kind="stable")
        values[:] = values[order]
        pos_bits = 0
    # same[i]: sorted values i - 1 and i share a value; both ends read False
    same = np.zeros(n + 1, dtype=bool)
    xor = np.empty(min(n, _BATCH), dtype=np.int64)
    for a in range(1, n, _BATCH):
        b = min(a + _BATCH, n)
        np.bitwise_xor(values[a:b], values[a - 1 : b - 1], out=xor[: b - a])
        np.less(xor[: b - a], 1 << pos_bits, out=same[a:b])
    del xor
    # 1 at each run's head, which begins the next rank
    ranks = np.empty(n, dtype=np.int32)
    np.greater(same[1:], same[:-1], out=ranks)
    starts = np.flatnonzero(ranks)
    counts = np.flatnonzero(np.greater(same[:-1], same[1:])) - starts + 1
    distinct = values[starts] >> pos_bits
    if order is None:
        values &= (1 << pos_bits) - 1
    else:
        values[:] = order
        del order
    _check_int32(offset + len(starts), "combination records")
    np.cumsum(ranks, out=ranks)
    ranks += offset - 1
    # a value that occurs once is in no run
    ranks[~(same[1:] | same[:-1])] = -1
    return distinct, starts, counts, ranks


def _sum_distances(
    positions: np.ndarray,
    ranks: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    squared: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """Each record's d_acc: the sum of weight[squared[p]] over the positions
    p of its instances, added in position order, as np.bincount over the
    whole column would add them.

    positions, ranks, starts and counts describe a column as _rank_values
    left it. Each batch of about _BATCH sorted cells holds whole runs, and
    one bincount adds each run's terms in sorted order: positions ascending.
    """
    d_acc = np.empty(len(starts))
    cuts = starts.searchsorted(range(0, len(positions), _BATCH)).tolist() + [len(starts)]
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        if r0 == r1:
            continue
        batch = slice(starts[r0], starts[r1 - 1] + counts[r1 - 1])
        rank = ranks[batch]
        kept = rank >= 0
        cells = positions[batch][kept]
        # the batch begins with record r0's head
        d_acc[r0:r1] = np.bincount(rank[kept] - rank[0], weight.take(squared.take(cells)), r1 - r0)
    return d_acc


def _group_size(
    kk: int,
    blocks: list,
    prev_keys: np.ndarray,
    prev_offset: int,
    offset: int,
    id_bits: int,
    euclidean: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group every size-kk combination instance by exact key.

    blocks holds (l, ID matrix, size-(kk-1) record IDs, size-kk record-ID
    block) per title length l >= kk, ascending. A sorted key is its prefix's
    key plus the largest ID, so ranking (prefix rank << id_bits) | largest ID
    ranks the keys lexicographically. Only keys with f_c >= 2 become records;
    the cells of a unique key hold -1, and so do those of an instance whose
    prefix holds -1, since a superset of a unique subset is unique too.
    Returns the records' keys, from prev_keys, with their f_c and d_acc;
    record IDs are offset + rank among the records. The packed column is
    ranked where it lies and scattered back to positions once, as int32.
    """
    bounds = np.cumsum([0] + [block.size for *_, block in blocks])
    packed = np.empty(bounds[-1], dtype=np.int64)
    # past every packed prefix rank, so no instance of a unique prefix repeats a key
    no_record = len(prev_keys) << id_bits
    for (l, ids, prev, block), start in zip(blocks, bounds):
        part = packed[start : start + block.size].reshape(block.shape)
        _pack(part, l, kk, ids, prev - prev_offset, id_bits, no_record + start)
    distinct, starts, f_c, ranks = _rank_values(packed, offset)
    # packed now holds the permutation. One int32 buffer takes each cell's
    # record ID, for its block, and then its squared distance.
    cell = np.empty(len(packed), dtype=np.int32)
    cell[packed] = ranks
    for (l, *_, block), start in zip(blocks, bounds):
        part = cell[start : start + block.size].reshape(block.shape)
        block[:] = part
        part[:] = pattern_distances(l, kk)
    # d_acc's term for each squared distance; the longest titles reach the largest
    weight = np.arange(pattern_distances(blocks[-1][0], kk).max() + 1, dtype=np.float64)
    if euclidean:
        np.sqrt(weight, out=weight)
    d_acc = _sum_distances(packed, ranks, starts, f_c, cell, weight)
    del packed, ranks, starts, cell
    keys = np.empty((len(distinct), kk), dtype=np.int32)
    keys[:, :-1] = prev_keys.take(distinct >> id_bits, axis=0)
    keys[:, -1] = distinct & ((1 << id_bits) - 1)
    return keys, f_c, d_acc


def _index_combinations(
    forward: ForwardIndex, k_max: int, euclidean: bool
) -> CombinationLexicon:
    """Group every 2..K combination instance by exact key, one pass per k,
    each extending the ranks the pass below wrote (Apriori's prefix join).

    Fills forward.combo_blocks (each product's record IDs in enumeration
    order, -1 for a unique combination) and returns the lexicon.
    """
    offsets = forward.tok_offsets
    n_tokens = int(forward.tok_flat.max(initial=-1)) + 1
    _check_int32(n_tokens, "distinct tokens")
    id_bits = max(n_tokens - 1, 0).bit_length()
    forward.combo_blocks, columns = [], []
    for l, members in forward.buckets:
        ids = forward.tok_flat[offsets[members][:, None] + np.arange(l)].astype(np.int32)
        out = np.empty((len(members), count_combinations(l, k_max)), dtype=np.int32)
        forward.combo_blocks.append(out)
        # the record-ID columns of each size; token IDs stand in for size 1
        cuts = [count_combinations(l, kk) for kk in range(2, min(l, k_max))]
        columns.append((l, ids, [ids] + np.split(out, cuts, axis=1)))

    keys, f_c, d_acc = [np.arange(n_tokens, dtype=np.int32)[:, None]], [], []
    prev_offset = offset = 0
    for kk in range(2, k_max + 1):
        blocks = [(l, ids, cols[kk - 2], cols[kk - 1]) for l, ids, cols in columns if l >= kk]
        if not blocks:
            break
        table, f, d = _group_size(kk, blocks, keys[-1], prev_offset, offset, id_bits, euclidean)
        keys.append(table)
        f_c.append(f)
        d_acc.append(d)
        prev_offset, offset = offset, offset + len(f)

    if not f_c:
        return CombinationLexicon()
    # the size-1 table is the token IDs themselves
    return CombinationLexicon(f_c=np.concatenate(f_c), d_acc=np.concatenate(d_acc), keys=keys[1:])


def build_index(
    dataset: Dataset,
    k: Optional[int] = None,
    variant: str = "upm",
    distance_mode: str = "squared",
    units: Optional[UnitLexicon] = None,
    analyzed: Optional[TitleCorpus] = None,
    with_combinations: bool = True,
) -> ProductIndex:
    """Build lexicons and forward index for a dataset.

    k=None resolves the combination cap from the average analyzed title
    length. The pruning variant clips each title to its first 2k tokens
    before indexing (TitleCorpus.clip). with_combinations=False stops after
    the token pass; pairwise baselines only need token sets and idf.
    """
    if distance_mode not in DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {distance_mode!r}")
    product_ids = [p.product_id for p in dataset.products]
    for pid, count in Counter(product_ids).items():
        if count > 1:
            raise ValueError(f"duplicate product_id {pid}")
    if analyzed is None:
        analyzed = analyze_dataset(dataset, units)
    k_resolved = resolve_k(analyzed.mean_length) if k is None else int(k)
    if k_resolved < 2:
        raise ValueError(f"K must be >= 2, got {k_resolved}")

    corpus = analyzed.clip(variant, k_resolved)
    tok_flat = corpus.tok_flat
    # IDs are in first-encounter order, so first occurrences come out ascending
    first = np.unique(tok_flat, return_index=True)[1]
    # analyzed titles hold no duplicate tokens, so occurrences are products
    tokens = TokenLexicon(
        surfaces=corpus.surfaces,
        f_w=np.bincount(tok_flat, minlength=len(corpus.surfaces)),
        s_w=corpus.sem_flat[first],
    )
    forward = ForwardIndex(
        product_ids=product_ids,
        vendor_ids=[p.vendor_id for p in dataset.products],
        tok_flat=tok_flat,
        sem_flat=corpus.sem_flat,
        tok_offsets=corpus.offsets,
    )

    if with_combinations:
        combos = _index_combinations(forward, k_resolved, distance_mode == "euclidean")
    else:
        combos = CombinationLexicon()
    return ProductIndex(
        dataset=dataset,
        tokens=tokens,
        combos=combos,
        forward=forward,
        k=k_resolved,
        variant=variant,
        distance_mode=distance_mode,
    )


def save_index(index: ProductIndex, path) -> None:
    """Write a versioned binary snapshot of a built index to exactly path.

    The snapshot holds the columns as the index holds them: keys_<k> is the
    size-k key table and block_<b> the record-ID block of forward.buckets[b].
    """
    fw = index.forward
    products = index.dataset.products
    truth = [-1 if p.truth_cluster_id is None else p.truth_cluster_id for p in products]
    meta = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "k": index.k,
        "variant": index.variant,
        "distance_mode": index.distance_mode,
    }
    # numpy appends .npz to a path without it, so it is handed the open file
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            product_ids=np.asarray(fw.product_ids, dtype=np.int64),
            vendor_ids=np.asarray(fw.vendor_ids, dtype=np.int64),
            truth=np.asarray(truth, dtype=np.int64),
            truth_known=np.asarray([p.truth_cluster_id is not None for p in products], dtype=bool),
            titles=np.asarray([p.title for p in products], dtype=np.str_),
            token_surfaces=np.asarray(index.tokens.surfaces, dtype=np.str_),
            token_f=index.tokens.f_w,
            token_sem=index.tokens.s_w,
            tok_flat=fw.tok_flat,
            tok_offsets=fw.tok_offsets,
            sem_flat=fw.sem_flat,
            combo_f=index.combos.f_c,
            combo_d=index.combos.d_acc,
            **{f"keys_{k}": table for k, table in enumerate(index.combos.keys, start=2)},
            **{f"block_{b}": block for b, block in enumerate(fw.combo_blocks)},
        )


def _flat_combinations(z, forward: ForwardIndex, k: int) -> Tuple[List, List]:
    """The blocks and key tables of a v1 or v2 snapshot, which stores record
    IDs in product order (combo_flat, combo_offsets) and keys as one column
    (key_flat) with each record's size (combo_k)."""
    combo_flat = z["combo_flat"].astype(np.int32)
    combo_offsets = z["combo_offsets"]
    blocks = [
        combo_flat[combo_offsets[members][:, None] + np.arange(count_combinations(l, k))]
        for l, members in forward.buckets
        if len(combo_flat)
    ]
    # records are ordered by size, so each size's keys are one run of key_flat
    sizes, counts = np.unique(z["combo_k"], return_counts=True)
    runs = np.split(z["key_flat"].astype(np.int32), np.cumsum(sizes * counts)[:-1])
    return blocks, [run.reshape(-1, kk) for run, kk in zip(runs, sizes.tolist())]


def _drop_unique(combos: CombinationLexicon, blocks: List) -> Tuple[CombinationLexicon, List]:
    """The lexicon and blocks of a snapshot before v4, which keeps a record
    for every key, without the f_c = 1 records: their cells become -1 and the
    other records are renumbered in order."""
    shared = combos.f_c > 1
    record = np.where(shared, np.cumsum(shared) - 1, -1).astype(np.int32)
    keys = [
        table[shared[start : start + len(table)]]
        for table, start in zip(combos.keys, combos.size_starts.tolist())
    ]
    lexicon = CombinationLexicon(f_c=combos.f_c[shared], d_acc=combos.d_acc[shared], keys=keys)
    return lexicon, [record[block] for block in blocks]


def load_index(path) -> ProductIndex:
    """Reload a snapshot of any version in SNAPSHOT_VERSIONS. A file that is
    not an .npz with this format's meta, or of another version, raises
    ValueError."""
    with open(path, "rb") as fh:
        # numpy would read a file that is not a zip archive as a pickle
        if not zipfile.is_zipfile(fh):
            raise ValueError(f"not a {SNAPSHOT_FORMAT} snapshot: {path}")
        fh.seek(0)
        with np.load(fh, allow_pickle=False) as z:
            return _read_snapshot(z, path)


def _read_meta(z) -> dict:
    """The snapshot's meta object, or {} when it is missing or not a JSON object."""
    try:
        meta = json.loads(bytes(z["meta"]).decode("utf-8"))
    except (KeyError, ValueError):  # also UnicodeDecodeError and JSONDecodeError
        return {}
    return meta if isinstance(meta, dict) else {}


def _read_snapshot(z, path) -> ProductIndex:
    meta = _read_meta(z)
    required = {"k", "variant", "distance_mode"}
    if meta.get("format") != SNAPSHOT_FORMAT or not required <= meta.keys():
        raise ValueError(f"not a {SNAPSHOT_FORMAT} snapshot: {path}")
    version = meta.get("version")
    # true == 1 and 1.0 == 1 in Python: only a JSON integer names a version
    if type(version) is not int or version not in SNAPSHOT_VERSIONS:
        raise ValueError(
            f"snapshot version {version!r} unsupported"
            f" (expected one of {SNAPSHOT_VERSIONS}): {path}"
        )
    k, distance_mode = meta["k"], meta["distance_mode"]
    # like the version, K must be a JSON integer: true == 1 and "3" is text
    if type(k) is not int or k < 2:
        raise ValueError(f"snapshot k {k!r} is not an integer >= 2: {path}")
    if distance_mode not in DISTANCE_MODES:
        raise ValueError(
            f"snapshot distance_mode {distance_mode!r} unknown"
            f" (expected one of {DISTANCE_MODES}): {path}"
        )
    product_ids = z["product_ids"].tolist()
    vendor_ids = z["vendor_ids"].tolist()
    truth = z["truth"]
    # snapshots without truth_known wrote -1 for an unknown truth cluster
    known = z["truth_known"] if "truth_known" in z.files else truth >= 0
    products = [
        RawProduct(pid, title, vid, t if ok else None)
        for pid, title, vid, t, ok in zip(
            product_ids, z["titles"].tolist(), vendor_ids, truth.tolist(), known.tolist()
        )
    ]
    forward = ForwardIndex(product_ids, vendor_ids, z["tok_flat"], z["sem_flat"], z["tok_offsets"])
    if version < 3:
        blocks, keys = _flat_combinations(z, forward, k)
    else:
        # the sizes past the longest title and, without combinations, all blocks are absent
        keys = [z[f"keys_{kk}"] for kk in range(2, k + 1) if f"keys_{kk}" in z.files]
        names = [f"block_{b}" for b in range(len(forward.buckets))]
        blocks = [z[name] for name in names if name in z.files]
    combos = CombinationLexicon(f_c=z["combo_f"], d_acc=z["combo_d"], keys=keys)
    if version < 4:
        combos, blocks = _drop_unique(combos, blocks)
    forward.combo_blocks = blocks
    return ProductIndex(
        dataset=Dataset(products=products),
        tokens=TokenLexicon(z["token_surfaces"].tolist(), z["token_f"], z["token_sem"]),
        combos=combos,
        forward=forward,
        k=k,
        variant=meta["variant"],
        distance_mode=distance_mode,
    )
