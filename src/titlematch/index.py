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
its key above its position in the size's record-ID column, and one
in-place value sort (_rank_values) ranks them inside the compacted column,
which it leaves holding the sorted positions. Records are ordered by
(k, key) and each size's records form one run. f_c is counted and the
int32 record IDs numbered in the sorted column, and one scatter writes
them straight into the column at those positions. The lexicon keeps only
f_c, d_acc and the record count of each size. A record's member IDs are
read back only on request (CombinationLexicon.ids_of, key_rows): one scan
of the views writes every kept cell's sorted tokens to its record's row.
Equality never rests on a hash, and the index stores none: scoring computes
the FNV-1a signature of a key only when a tie reaches it.

Titles are bucketed by length (ForwardIndex.buckets), ascending, file order
within a length. Each size's record IDs are one int32 column, bucket-major
and row-major within a bucket, so a bucket's (titles, C(l, k)) matrix is a
view of it (ForwardIndex.combo_views), which scoring reads as it is.
Within a title, instances follow enumeration order. The positional
distance accumulator d_acc is summed by scanning the column in that order
with np.add.at, which adds in the order given (_sum_distances), so each
record's terms are added in position order and the accumulators are
reproducible run to run, whatever the batches. With the default squared
distance the accumulator is integral and therefore exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .combinatorics import drop_patterns, pattern_distances, position_patterns
from .ingest import Dataset
from .textprep import TitleCorpus, TitleNormalizationError, UnitLexicon, analyze_titles

DISTANCE_MODES = ("squared", "euclidean")


def _empty(dtype) -> np.ndarray:
    return np.empty(0, dtype=dtype)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated ranges [starts[i], starts[i] + lens[i])."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(int(ends[-1]) if len(ends) else 0)


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

    Record i has int32 frequency f_c[i] and distance accumulator d_acc[i].
    size_counts[k - 2] records have size k: the IDs from size_starts[k - 2].
    The build keeps no member IDs. key_rows and ids_of read them, for tests
    and demos, from per-size key tables that the first lookup fills in one
    scan of forward.combo_views, the index's per-size record-ID views.
    """

    f_c: np.ndarray = field(default_factory=lambda: _empty(np.int32))
    d_acc: np.ndarray = field(default_factory=lambda: _empty(np.float64))
    size_counts: List[int] = field(default_factory=list)
    forward: Optional[ForwardIndex] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.f_c)

    @cached_property
    def size_starts(self) -> np.ndarray:
        """The first record ID of each size, from the per-size counts."""
        return np.cumsum([0] + self.size_counts)[:-1]

    def sizes(self, recs: np.ndarray) -> np.ndarray:
        """The size k of each record in recs."""
        return self.size_starts.searchsorted(recs, side="right") + 1

    def records(self, k: int) -> np.ndarray:
        """The IDs of the records of size k, ascending."""
        if k - 2 not in range(len(self.size_counts)):
            return np.arange(0)
        start = self.size_starts[k - 2]
        return np.arange(start, start + self.size_counts[k - 2])

    @cached_property
    def _key_tables(self) -> List[np.ndarray]:
        """Per size k, one int32 row of sorted member IDs per record. One scan
        of the views writes each kept cell's sorted tokens to its record's row:
        a record's instances all share its key, so any write may land last."""
        fw = self.forward
        tables = [np.empty((n, kk), dtype=np.int32) for kk, n in enumerate(self.size_counts, 2)]
        for (l, members), views in zip(fw.buckets, fw.combo_views):
            for kk, view in enumerate(views, start=2):
                step = max(1, _BATCH // view.shape[1])
                for r0 in range(0, len(view), step):
                    part = view[r0 : r0 + step]
                    rows, cols = np.nonzero(part >= 0)
                    starts = fw.tok_offsets[members[r0 + rows]]
                    keys = fw.tok_flat[starts[:, None] + position_patterns(l, kk)[cols]]
                    keys.sort(axis=1)
                    tables[kk - 2][part[rows, cols] - self.size_starts[kk - 2]] = keys
        return tables

    def key_rows(self, recs: np.ndarray, k: int) -> np.ndarray:
        """The sorted member IDs of records recs, all of size k, one int64 row each."""
        recs = np.ravel(recs)
        wrong = (recs < 0) | (recs >= len(self)) | (self.sizes(recs) != k)
        if wrong.any():
            raise ValueError(f"combination record {recs[wrong][0]} is not of size {k}")
        if not len(recs):
            return np.empty((0, k), dtype=np.int64)
        return self._key_tables[k - 2][recs - self.size_starts[k - 2]].astype(np.int64)

    def ids_of(self, idx: int) -> List[int]:
        """The sorted member IDs of record idx."""
        if not 0 <= idx < len(self):
            raise IndexError(f"combination record {idx} out of range for {len(self)} records")
        k = int(self.sizes(idx))
        return self._key_tables[k - 2][idx - self.size_starts[k - 2]].tolist()


@dataclass
class ForwardIndex:
    """Per-product references into the lexicons, as columns.

    Product p's token IDs, in title order, are
    tok_flat[tok_offsets[p] : tok_offsets[p + 1]] and their semantics the
    same slice of sem_flat. combo_columns[k - 2] holds the record ID of every
    size-k combination instance as one int32 column, -1 for a combination
    unique in the corpus. It runs over the length buckets with l >= k in
    order, and within a bucket title by title, each title's C(l, k) cells in
    enumeration order. combo_views[b] holds the views of bucket b of length
    l: its (titles, C(l, k)) matrix of each size k = 2, ..., min(K, l), a row
    per title. Both are empty when the index was built without combinations.
    """

    product_ids: List[int] = field(default_factory=list)
    vendor_ids: List[int] = field(default_factory=list)
    tok_flat: np.ndarray = field(default_factory=lambda: _empty(np.int64))
    sem_flat: np.ndarray = field(default_factory=lambda: _empty(np.int64))
    tok_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    combo_columns: List[np.ndarray] = field(default_factory=list)
    combo_views: List[List[np.ndarray]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.product_ids)

    def tokens_of(self, p: int) -> np.ndarray:
        return self.tok_flat[self.tok_offsets[p] : self.tok_offsets[p + 1]]

    @cached_property
    def buckets(self) -> List[Tuple[int, np.ndarray]]:
        """(length, products) per title length >= 2, ascending, products in
        file order: the layout of the columns and of scoring."""
        lengths = np.diff(self.tok_offsets)
        order = np.argsort(lengths, kind="stable")
        cuts = np.flatnonzero(np.diff(lengths[order])) + 1
        return [
            (int(lengths[group[0]]), group)
            for group in np.split(order, cuts)
            if len(group) and lengths[group[0]] >= 2
        ]

    def bucket_rows(self, values: np.ndarray) -> List[np.ndarray]:
        """values, one per token occurrence in tok_flat order, as each
        bucket's (titles, l) matrix, a row per title: one gather into bucket
        order, then a view per bucket."""
        if not self.buckets:
            return []
        products = np.concatenate([members for _, members in self.buckets])
        starts = self.tok_offsets[products]
        flat = values[_ranges(starts, self.tok_offsets[products + 1] - starts)]
        rows, start = [], 0
        for l, members in self.buckets:
            rows.append(flat[start : start + l * len(members)].reshape(len(members), l))
            start += l * len(members)
        return rows


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
        """Title, token and combination counts, from the columns. A size-k
        column holds every size-k instance; those its records' f_c do not
        count are unique, one distinct combination each."""
        n = len(self.forward)
        combos = self.combos
        instances = members = unique = 0
        for kk, column in enumerate(self.forward.combo_columns, start=2):
            instances += len(column)
            members += kk * len(column)
            unique += len(column) - int(combos.f_c[combos.records(kk)].sum(dtype=np.int64))
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
    that normalizes to nothing names its product. units=None reads the
    default lexicon; an empty lexicon fuses nothing."""
    products = dataset.products
    if units is None:
        units = UnitLexicon.default()
    try:
        return analyze_titles([p.title for p in products], units)
    except TitleNormalizationError as exc:
        product = products[exc.position]
        raise TitleNormalizationError(f"product {product.product_id}: {exc}") from None


def _check_int32(count: int, what: str) -> None:
    if count > 2**31:
        raise OverflowError(f"{count} {what} overflow the index's int32 IDs")


def _pack(blocks: list, kk: int, id_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """The key of every size-kk instance of the buckets in blocks, and
    whether it is kept, as two flat columns over their cells: bucket after
    bucket, a row of C(l, kk) cells per title.

    blocks holds (l, ID matrix, size-(kk-1) record-ID view) per bucket: each
    title's subset record IDs in position_patterns(l, kk - 1) order, -1 for
    a subset without a record, and drop_patterns(l, kk) finds an instance's
    kk subsets in it. An instance is kept when all of them have a record;
    any other is unique, since support is downward-closed. A kept
    instance's key is (prefix record ID << id_bits) | largest ID, its prefix
    being the subset without the largest member; every token ID is below
    2**id_bits. Each bucket costs only its gathers: every other step runs
    once over all the blocks' cells.
    """
    shapes = [(len(ids), math.comb(l, kk)) for l, ids, _ in blocks]
    cuts = np.cumsum([0] + [rows * width for rows, width in shapes]).tolist()

    def gather(j: int, member: np.ndarray, subset: np.ndarray) -> None:
        # member j of every instance and the subset without it; take gathers
        # columns faster than indexing, several times faster from the wide
        # subset matrix, and mode="clip" writes to out unbuffered
        for (l, ids, prev), shape, a, b in zip(blocks, shapes, cuts, cuts[1:]):
            pattern, drop = position_patterns(l, kk)[:, j], drop_patterns(l, kk)[:, j]
            ids.take(pattern, axis=1, out=member[a:b].reshape(shape), mode="clip")
            prev.take(drop, axis=1, out=subset[a:b].reshape(shape), mode="clip")

    # a running maximum over the members beats argmax along an axis of length kk
    largest, prefix = np.empty(cuts[-1], dtype=np.int32), np.empty(cuts[-1], dtype=np.int32)
    gather(0, largest, prefix)
    lowest = prefix.copy()
    member, subset = np.empty_like(largest), np.empty_like(prefix)
    for j in range(1, kk):
        gather(j, member, subset)
        np.copyto(prefix, subset, where=member > largest)
        np.maximum(largest, member, out=largest)
        np.minimum(lowest, subset, out=lowest)
    del member, subset
    key = prefix.astype(np.int64)
    key <<= id_bits
    key |= largest
    return key, lowest >= 0


# cells per run of packed buckets, per chunk of the neighbour comparison and
# of the d_acc scan
_BATCH = 1 << 16
# bits a key and its position may share in one non-negative int64
_BITS = 63


def _rank_values(
    values: np.ndarray, pos_bits: int, offset: int = 0, positions: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Rank, inside the column, the keys that occur more than once in a 1-D
    int64 column of non-negative keys at distinct positions.

    Each value holds its key shifted up by pos_bits and its position in the
    low bits, so every value is distinct and one in-place sort orders them
    by key, then position. Two neighbours then share a key when their XOR is
    below 2**pos_bits, and masking the high bits off leaves the positions.
    Where key and position bits would pass _BITS, the values are the bare
    keys instead (pos_bits 0), positions holds their positions, and a stable
    argsort orders them.

    Returns how often each repeated key occurs, in key order, and the rank
    of every sorted index as int32: offset plus the index of its key among
    the repeated ones, -1 where its key occurs once. The column is left
    holding each sorted value's position.
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
    del starts
    if positions is None:
        values &= (1 << pos_bits) - 1
    else:
        positions.take(order, out=values)
        del order
    _check_int32(offset + len(counts), "combination records")
    np.cumsum(ranks, out=ranks)
    ranks += offset - 1
    # a key that occurs once is in no run
    ranks[~(same[1:] | same[:-1])] = -1
    return counts, ranks


def _sum_distances(
    column: np.ndarray,
    bounds: np.ndarray,
    lengths: List[int],
    kk: int,
    euclidean: bool,
    offset: int,
    n: int,
) -> np.ndarray:
    """The d_acc of the n size-kk records from offset: the sum of their
    instances' distance terms, added in position order, as np.bincount over
    the whole column would add them.

    column is the size's record-ID column, -1 for a unique instance; bucket
    b of title length lengths[b] spans column[bounds[b] : bounds[b + 1]], a
    row of C(l, kk) cells per title. A term is a pattern's squared distance,
    or its root. np.add.at adds its values in the order given, so scanning
    the column in order, _BATCH cells at a time across bucket boundaries,
    adds each record's terms in position order.
    """
    widths = np.array([math.comb(l, kk) for l in lengths])
    # every bucket's pattern terms, one table; bucket b's start at term_starts[b]
    term_starts = np.cumsum(widths) - widths
    # float64 terms keep np.add.at on its fast, uncast path
    terms = np.concatenate([pattern_distances(l, kk) for l in lengths]).astype(np.float64)
    if euclidean:
        np.sqrt(terms, out=terms)
    d_acc = np.zeros(n)
    for a in range(0, len(column), _BATCH):
        pos = np.flatnonzero(column[a : a + _BATCH] >= 0)
        pos += a
        # the positions ascend, so each bucket's are one run of them
        runs = np.diff(pos.searchsorted(bounds))
        col = pos - np.repeat(bounds[:-1], runs)
        col %= np.repeat(widths, runs)
        col += np.repeat(term_starts, runs)
        np.add.at(d_acc, column[pos] - offset, terms[col])
    return d_acc


def _group_size(
    kk: int,
    blocks: list,
    prev_end: int,
    offset: int,
    id_bits: int,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], np.ndarray]:
    """Group every size-kk combination instance by exact key.

    blocks holds (l, ID matrix, size-(kk-1) record-ID view) per title length
    l >= kk, ascending; every record ID of the size below is below prev_end.
    Those IDs follow their keys' order, and a sorted key is its prefix's key
    plus the largest ID, so ranking (prefix record ID << id_bits) | largest
    ID ranks the keys lexicographically. Only keys with f_c >= 2 become
    records, and only the instances whose every size-(kk-1) subset has a
    record are ranked (_pack, over runs of buckets of at most _BATCH cells,
    or one bucket): the cells of the others hold -1, as do those of a key
    ranked once. Returns the size's record-ID column, the bounds of each
    bucket's cells in it, its view of each bucket and its records' int32
    f_c; record IDs are offset + rank among the records.

    The ranked column holds the kept instances in position order, each
    packed with its position in the size's column, so the sorted column's
    low bits scatter the int32 ranks straight into it. Positions are packed
    for the kept cells only.
    """
    bounds = np.cumsum([0] + [len(ids) * math.comb(l, kk) for l, ids, _ in blocks])
    pos_bits = max(int(bounds[-1]) - 1, 0).bit_length()
    # keys and positions past _BITS are ranked beside a position column
    wide = ((prev_end << id_bits) - 1).bit_length() + pos_bits > _BITS
    parts, where = [], []
    lo = 0
    while lo < len(blocks):
        # the buckets from lo whose cells fit in _BATCH, or bucket lo alone
        hi = max(lo + 1, int(bounds.searchsorted(bounds[lo] + _BATCH, side="right")) - 1)
        key, kept = _pack(blocks[lo:hi], kk, id_bits)
        position = kept.nonzero()[0]
        position += bounds[lo]
        key = key[kept]
        if wide:
            where.append(position)
        else:
            key <<= pos_bits
            key |= position
        parts.append(key)
        # the columns of the largest bucket are not held through the ranking
        del key, kept, position
        lo = hi
    packed = np.concatenate(parts)
    positions = np.concatenate(where) if wide else None
    del parts, where
    f_c, ranks = _rank_values(packed, 0 if wide else pos_bits, offset, positions)
    del positions
    # packed now holds the sorted positions
    column = np.full(bounds[-1], -1, dtype=np.int32)
    column[packed] = ranks
    del packed, ranks
    views = [
        column[a:b].reshape(len(ids), math.comb(l, kk))
        for (l, ids, _), a, b in zip(blocks, bounds[:-1], bounds[1:])
    ]
    return column, bounds, views, f_c.astype(np.int32)


def _index_combinations(
    forward: ForwardIndex, k_max: int, euclidean: bool
) -> CombinationLexicon:
    """Group every 2..K combination instance by exact key, one pass per k,
    each extending the ranks the pass below wrote (Apriori's prefix join).

    Fills forward.combo_columns (every instance's record ID, -1 for a unique
    combination) and combo_views, and returns the lexicon.
    """
    n_tokens = int(forward.tok_flat.max(initial=-1)) + 1
    _check_int32(n_tokens, "distinct tokens")
    id_bits = max(n_tokens - 1, 0).bit_length()
    buckets = forward.buckets
    lengths = [l for l, _ in buckets]
    ids = forward.bucket_rows(forward.tok_flat.astype(np.int32))
    # token IDs stand in for the records of size 1
    prev, prev_end = ids, n_tokens
    forward.combo_columns, forward.combo_views = [], [[] for _ in buckets]
    f_c, d_acc, size_counts = [], [], []
    offset = 0
    for kk in range(2, k_max + 1):
        # the buckets with l >= kk are the last ones
        n = sum(l >= kk for l in lengths)
        if not n:
            break
        blocks = list(zip(lengths[-n:], ids[-n:], prev[-n:]))
        column, bounds, views, f = _group_size(kk, blocks, prev_end, offset, id_bits)
        forward.combo_columns.append(column)
        for bucket, view in zip(forward.combo_views[-n:], views):
            bucket.append(view)
        f_c.append(f)
        d_acc.append(_sum_distances(column, bounds, lengths[-n:], kk, euclidean, offset, len(f)))
        size_counts.append(len(f))
        offset += len(f)
        prev, prev_end = views, offset

    if not f_c:
        return CombinationLexicon(forward=forward)
    return CombinationLexicon(
        f_c=np.concatenate(f_c),
        d_acc=np.concatenate(d_acc),
        size_counts=size_counts,
        forward=forward,
    )


def build_index(
    dataset: Dataset,
    k: Optional[int] = None,
    variant: str = "upm",
    distance_mode: str = "squared",
    analyzed: Optional[TitleCorpus] = None,
    with_combinations: bool = True,
) -> ProductIndex:
    """Build lexicons and forward index for a dataset.

    analyzed=None analyzes the titles with the default unit lexicon. k=None
    resolves the combination cap from the average analyzed title length.
    The pruning variant clips each title to its first 2k tokens before
    indexing (TitleCorpus.clip). with_combinations=False stops after the
    token pass; pairwise baselines only need token sets and idf.
    """
    if distance_mode not in DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {distance_mode!r}")
    product_ids = [p.product_id for p in dataset.products]
    vendor_ids = [p.vendor_id for p in dataset.products]
    # the loops below only name the offender
    if len(set(product_ids)) != len(product_ids):
        for pid, count in Counter(product_ids).items():
            if count > 1:
                raise ValueError(f"duplicate product_id {pid}")
    # scoring holds vendor IDs as int64
    if vendor_ids and not (-(2**63) <= min(vendor_ids) and max(vendor_ids) < 2**63):
        for p in dataset.products:
            if not -(2**63) <= p.vendor_id < 2**63:
                raise ValueError(
                    f"product {p.product_id}: vendor_id {p.vendor_id} is outside int64"
                )
    if analyzed is None:
        analyzed = analyze_dataset(dataset)
    k_resolved = resolve_k(analyzed.mean_length) if k is None else int(k)
    if k_resolved < 2:
        raise ValueError(f"K must be >= 2, got {k_resolved}")

    corpus = analyzed.clip(variant, k_resolved)
    tok_flat = corpus.tok_flat
    # IDs are in first-encounter order, so a token's first occurrence is
    # where the running maximum rises to its ID
    first = np.flatnonzero(np.diff(np.maximum.accumulate(tok_flat), prepend=-1))
    # analyzed titles hold no duplicate tokens, so occurrences are products
    tokens = TokenLexicon(
        surfaces=corpus.surfaces,
        f_w=np.bincount(tok_flat, minlength=len(corpus.surfaces)),
        s_w=corpus.sem_flat[first],
    )
    forward = ForwardIndex(
        product_ids=product_ids,
        vendor_ids=vendor_ids,
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
