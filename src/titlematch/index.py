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
largest ID, which takes as many bits as the largest token ID. Only keys
that occur at least twice become records: I(c) is 0 at f_c = 1, so a unique
key's cells hold -1 instead. Support is downward-closed, so an instance any
of whose k size-(k-1) subsets holds -1 is unique too: its cell holds -1 and
it is never ranked (Apriori's candidate pruning). Each kept instance packs
its key above its position in the size's whole column, and one in-place
value sort (_rank_values) ranks them inside the compacted column, which it
leaves holding the sorted positions. Records are ordered by (k, key) and
each size's records form one run. f_c is counted and the int32 record IDs
numbered in the sorted column, before one scatter back to positions; the
positional distance accumulator d_acc is summed there too, by one
np.bincount per batch of whole runs (_sum_distances). Each size's keys stay
one (records, k) int32 table, which the pass above extends and the lexicon
keeps. Equality never rests on a hash, and the index stores none: scoring
computes the FNV-1a signature of a key only when a tie reaches it.

Titles are bucketed by length (ForwardIndex.buckets), ascending, file order
within a length. A bucket's record IDs form one block with a row per title,
which scoring slices as it is. Within one k, instances follow the bucket
order and enumeration order within a title. A run of the sorted column
lists its instances' positions ascending, so each record's d_acc adds them in
that order and the accumulators are reproducible run to run, whatever the
batches. With the default squared distance the accumulator is integral and
therefore exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .combinatorics import count_combinations, drop_patterns, pattern_distances, position_patterns
from .ingest import Dataset
from .textprep import TitleCorpus, TitleNormalizationError, UnitLexicon, analyze_titles

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
    l: int, kk: int, ids: np.ndarray, prev_ranks: np.ndarray, id_bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The key of every size-kk instance of a length-l bucket, and whether it
    is kept, as two (titles, C(l, kk)) matrices.

    prev_ranks holds each title's size-(kk-1) subset ranks in
    position_patterns(l, kk - 1) order, negative for a subset without a
    record, and drop_patterns(l, kk) finds an instance's kk subsets in it. An
    instance is kept when all of them have a record; any other is unique,
    since support is downward-closed. A kept instance's key is
    (prefix rank << id_bits) | largest ID, its prefix being the subset without
    the largest member; every token ID is below 2**id_bits.
    """
    patterns, drops = position_patterns(l, kk), drop_patterns(l, kk)
    # a running maximum over the members beats argmax along an axis of length
    # kk; take gathers columns faster than indexing, several times faster from
    # the wide subset matrix
    largest = ids.take(patterns[:, 0], axis=1)
    prefix = prev_ranks.take(drops[:, 0], axis=1)
    lowest = prefix.copy()
    for j in range(1, kk):
        member = ids.take(patterns[:, j], axis=1)
        subset = prev_ranks.take(drops[:, j], axis=1)
        np.copyto(prefix, subset, where=member > largest)
        np.maximum(largest, member, out=largest)
        np.minimum(lowest, subset, out=lowest)
    key = prefix.astype(np.int64)
    key <<= id_bits
    key |= largest
    return key, lowest >= 0


# sorted cells per chunk of the neighbour comparison and per d_acc batch
_BATCH = 1 << 16
# bits a key and its position may share in one non-negative int64
_BITS = 63


def _rank_values(
    values: np.ndarray, pos_bits: int, offset: int = 0, positions: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rank, inside the column, the keys that occur more than once in a 1-D
    int64 column of non-negative keys at distinct positions.

    Each value holds its key shifted up by pos_bits and its position in the
    low bits, so every value is distinct and one in-place sort orders them
    by key, then position. Two neighbours then share a key when their XOR is
    below 2**pos_bits, and masking the high bits off leaves the positions.
    Where key and position bits would pass _BITS, the values are the bare
    keys instead (pos_bits 0), positions holds their positions, and a stable
    argsort orders them.

    Returns the sorted repeated keys, the sorted index where each one's run
    starts, how often each occurs, and the rank of every sorted index as
    int32: offset plus the index of its key among the repeated ones, -1 where
    its key occurs once. The column is left holding each sorted value's
    position, ascending within a run.
    """
    n = len(values)
    if positions is None:
        values.sort()
    else:
        order = values.argsort(kind="stable")
        values[:] = values[order]
    # same[i]: sorted values i - 1 and i share a key; both ends read False
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
    if positions is None:
        values &= (1 << pos_bits) - 1
    else:
        positions.take(order, out=values)
        del order
    _check_int32(offset + len(starts), "combination records")
    np.cumsum(ranks, out=ranks)
    ranks += offset - 1
    # a key that occurs once is in no run
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
    ranks the keys lexicographically. Only keys with f_c >= 2 become records,
    and only the instances whose every size-(kk-1) subset has a record are
    ranked (_pack): the cells of the others hold -1, as do those of a key
    ranked once. Returns the records' keys, from prev_keys, with their f_c
    and d_acc; record IDs are offset + rank among the records.

    The ranked column holds the kept instances in position order, each
    packed with its position in the size's whole column, so the sorted
    column's low bits scatter the int32 ranks straight back to positions.
    """
    bounds = np.cumsum([0] + [block.size for *_, block in blocks])
    pos_bits = max(int(bounds[-1]) - 1, 0).bit_length()
    # keys and positions past _BITS are ranked beside a position column
    wide = ((len(prev_keys) << id_bits) - 1).bit_length() + pos_bits > _BITS
    parts, where = [], []
    for (l, ids, prev, block), start in zip(blocks, bounds):
        key, kept = _pack(l, kk, ids, prev - prev_offset, id_bits)
        position = np.arange(start, start + block.size).reshape(block.shape)
        if wide:
            where.append(position[kept])
        else:
            key <<= pos_bits
            key |= position
        parts.append(key[kept])
        # the matrices of the largest bucket are not held through the ranking
        del key, kept, position
    packed = np.concatenate(parts)
    positions = np.concatenate(where) if wide else None
    del parts, where
    distinct, starts, f_c, ranks = _rank_values(packed, 0 if wide else pos_bits, offset, positions)
    del positions
    # packed now holds the sorted positions. One int32 buffer takes each
    # cell's record ID, for its block, and then its squared distance.
    cell = np.full(bounds[-1], -1, dtype=np.int32)
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
