"""One-pass construction of the token lexicon, combination lexicon and
forward index.

Tokens are interned in first-encounter order and carry a product frequency
f_w plus the semantics seen at first encounter. Combinations are grouped by
their exact key, the sorted member-ID sequence, in one whole-array pass per
combination size k: every instance's key row is gathered, the rows are
dense-ranked lexicographically, and the frequency f_c and the positional
distance accumulator d_acc of each distinct key come from np.bincount.
Records are therefore ordered by (k, key). Equality never rests on a hash;
the 64-bit FNV-1a signature is computed once per distinct key and serves
scoring tie-breaks and snapshots only.

Within one k, instances are laid out by ascending title length, file order
within a length and enumeration order within a title; bincount sums d_acc in
that order, so the accumulators are reproducible run to run. With the
default squared distance the accumulator is integral and therefore exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .combinatorics import (
    Combination,
    canonical_key,
    count_combinations,
    pattern_distances,
    position_patterns,
    signature_rows,
)
from .ingest import Dataset, RawProduct
from .textprep import (
    AnalyzedTitle,
    Semantics,
    TitleNormalizationError,
    Token,
    UnitLexicon,
    analyze_title,
    truncate_for_variant,
)

SNAPSHOT_FORMAT = "titlematch-index"
SNAPSHOT_VERSION = 1

DISTANCE_MODES = ("squared", "euclidean")


@dataclass
class TokenRecord:
    token_id: int
    surface: str
    f_w: int
    s_w: Semantics


class TokenLexicon:
    """Interned title tokens with product frequencies."""

    def __init__(self) -> None:
        self.records: List[TokenRecord] = []
        self._by_surface: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.records)

    def id_of(self, surface: str) -> int:
        return self._by_surface[surface]

    def intern(self, surface: str, semantics: Semantics) -> int:
        idx = self._by_surface.get(surface)
        if idx is None:
            idx = len(self.records)
            self.records.append(TokenRecord(idx, surface, 1, semantics))
            self._by_surface[surface] = idx
        else:
            self.records[idx].f_w += 1
        return idx

    def idf_table(self, title_count: int) -> np.ndarray:
        """idf(w) = ln(|P| / f_w) for every token, as a dense array."""
        f = np.array([r.f_w for r in self.records], dtype=np.float64)
        if len(f) == 0:
            return f
        return np.log(float(title_count) / f)


@dataclass(frozen=True)
class CombinationRecord:
    """Read-only view over one combination lexicon slot."""

    index: int
    signature: int
    key_ids: Tuple[int, ...]
    f_c: int
    d_acc: float
    k: int

    @property
    def canonical_key(self) -> str:
        return canonical_key(self.key_ids)


def _empty(dtype) -> np.ndarray:
    return np.empty(0, dtype=dtype)


@dataclass
class CombinationLexicon:
    """Combination records as numpy columns, ordered by (k, key).

    Record i has signature sigs[i], frequency f_c[i], distance accumulator
    d_acc[i] and size k[i]; its sorted member IDs are
    key_flat[key_offsets[i] : key_offsets[i + 1]].
    """

    sigs: np.ndarray = field(default_factory=lambda: _empty(np.uint64))
    f_c: np.ndarray = field(default_factory=lambda: _empty(np.int64))
    d_acc: np.ndarray = field(default_factory=lambda: _empty(np.float64))
    k: np.ndarray = field(default_factory=lambda: _empty(np.int64))
    key_flat: np.ndarray = field(default_factory=lambda: _empty(np.int32))
    key_offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.f_c)

    def ids_of(self, idx: int) -> List[int]:
        return self.key_flat[self.key_offsets[idx] : self.key_offsets[idx + 1]].tolist()

    def record(self, idx: int) -> CombinationRecord:
        return CombinationRecord(
            index=idx,
            signature=int(self.sigs[idx]),
            key_ids=tuple(self.ids_of(idx)),
            f_c=int(self.f_c[idx]),
            d_acc=float(self.d_acc[idx]),
            k=int(self.k[idx]),
        )


@dataclass
class ForwardIndex:
    """Per-product references into the lexicons."""

    product_ids: List[int] = field(default_factory=list)
    vendor_ids: List[int] = field(default_factory=list)
    token_rows: List[np.ndarray] = field(default_factory=list)
    sem_rows: List[np.ndarray] = field(default_factory=list)
    combo_rows: List[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.product_ids)

    def length_of(self, p: int) -> int:
        return len(self.token_rows[p])


@dataclass(frozen=True)
class IndexStats:
    title_count: int
    distinct_tokens: int
    avg_title_len: float
    avg_combination_len: float
    combination_instances: int
    distinct_combinations: int
    collisions_resolved: int


@dataclass
class ProductIndex:
    dataset: Dataset
    analyzed: List[AnalyzedTitle]
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
        if self._idf is None:
            self._idf = self.tokens.idf_table(self.stats.title_count)
        return self._idf

    def token_set(self, p: int) -> frozenset:
        return frozenset(self.forward.token_rows[p].tolist())


def resolve_k(avg_title_len: float) -> int:
    """Default combination size cap: half the average title length."""
    # combinations need k >= 2, so very short corpora are clamped
    return max(2, int(avg_title_len / 2))


def distance(c: Combination, t: AnalyzedTitle, mode: str = "squared") -> float:
    """Positional distance of a combination from the head of a title.

    Sums (rank - title_position)^2 over members; "euclidean" takes the root.
    """
    if mode not in DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {mode!r}")
    if not c.surfaces:
        raise ValueError("combination carries no surfaces to resolve against the title")
    pos = {tok.surface: tok.position for tok in t.tokens}
    total = 0
    for rank, surface in enumerate(c.surfaces):
        if surface not in pos:
            raise ValueError(f"token {surface!r} does not occur in the title")
        total += (rank - pos[surface]) ** 2
    return float(np.sqrt(total)) if mode == "euclidean" else float(total)


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


def _group_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group the rows of an (n, k) matrix of non-negative int32 IDs, k >= 2.

    Iterated dense-rank: the rank of the first j columns, shifted up 32 bits
    and joined with column j, ranks the first j + 1 columns, so the packed
    value always fits in 64 bits. Returns (first, rank): the first row of
    each distinct key, keys in lexicographic order, and each row's key rank.
    """
    rank = rows[:, 0].astype(np.int64)
    for j in range(1, rows.shape[1] - 1):
        rank = np.unique((rank << 32) | rows[:, j], return_inverse=True)[1]
    _, first, rank = np.unique(
        (rank << 32) | rows[:, -1], return_index=True, return_inverse=True
    )
    return first, rank


def _shared_signatures(sigs: np.ndarray) -> int:
    """Distinct keys that share a signature with an earlier key."""
    # a sort, not np.unique: numpy's hash-based unique is slow on millions of keys
    ordered = np.sort(sigs)
    return int(np.count_nonzero(ordered[1:] == ordered[:-1]))


def _group_size(
    kk: int, buckets: List[Tuple[np.ndarray, np.ndarray]], offset: int, euclidean: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group every size-kk combination instance by exact key.

    buckets pairs each title length's (titles, length) ID matrix with the
    (titles, C(length, kk)) block that receives the record IDs, ascending by
    length. Returns the distinct keys in lexicographic order with their f_c
    and d_acc; record IDs are offset + key rank.
    """
    rows = np.concatenate(
        [
            np.sort(ids[:, position_patterns(ids.shape[1], kk)], axis=2).reshape(-1, kk)
            for ids, _ in buckets
        ]
    )
    dist = np.concatenate(
        [np.tile(pattern_distances(ids.shape[1], kk), len(ids)) for ids, _ in buckets]
    ).astype(np.float64)
    if euclidean:
        dist = np.sqrt(dist)
    first, rank = _group_rows(rows)
    start = 0
    for _, block in buckets:
        block[:] = rank[start : start + block.size].reshape(block.shape) + offset
        start += block.size
    return rows[first], np.bincount(rank), np.bincount(rank, weights=dist)


def _index_combinations(
    forward: ForwardIndex, k_max: int, euclidean: bool
) -> Tuple[CombinationLexicon, int, int]:
    """Group every 2..K combination instance by exact key, one pass per k.

    Instances of one k are laid out by ascending title length, file order
    within a length and enumeration order within a title. Fills
    forward.combo_rows (each product's record IDs in enumeration order) and
    returns the lexicon, the instance count and the summed member count.
    """
    by_length: Dict[int, List[int]] = {}
    for p in range(len(forward)):
        by_length.setdefault(forward.length_of(p), []).append(p)
    # (length, ID matrix, record-ID matrix) per title length >= 2
    buckets = [
        (
            l,
            np.vstack([forward.token_rows[p] for p in by_length[l]]).astype(np.int32),
            np.empty((len(by_length[l]), count_combinations(l, k_max)), dtype=np.int32),
        )
        for l in sorted(by_length)
        if l >= 2
    ]
    forward.combo_rows = [_empty(np.int32)] * len(forward)
    for l, _, out in buckets:
        for p, row in zip(by_length[l], out):
            forward.combo_rows[p] = row

    keys, f_c, d_acc = [], [], []
    n_records = instances = members = 0
    for kk in range(2, k_max + 1):
        blocks = []
        for l, ids, out in buckets:
            if l >= kk:
                # a title's size-kk records follow those of its smaller sizes
                end = count_combinations(l, kk)
                blocks.append((ids, out[:, end - math.comb(l, kk) : end]))
        if not blocks:
            break
        key_rows, f, d = _group_size(kk, blocks, n_records, euclidean)
        keys.append(key_rows)
        f_c.append(f)
        d_acc.append(d)
        n_records += len(f)
        instances += int(f.sum())
        members += int(f.sum()) * kk

    if not n_records:
        return CombinationLexicon(), 0, 0
    k_col = np.repeat(np.arange(2, 2 + len(keys)), [len(key) for key in keys])
    combos = CombinationLexicon(
        sigs=np.concatenate([signature_rows(key) for key in keys]),
        f_c=np.concatenate(f_c),
        d_acc=np.concatenate(d_acc),
        k=k_col,
        key_flat=np.concatenate([key.ravel() for key in keys]),
        key_offsets=np.concatenate([[0], np.cumsum(k_col)]),
    )
    return combos, instances, members


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

    tokens = TokenLexicon()
    forward = ForwardIndex()
    for p, title in zip(dataset.products, titles):
        ids = [tokens.intern(tok.surface, tok.semantics) for tok in title.tokens]
        forward.product_ids.append(p.product_id)
        forward.vendor_ids.append(p.vendor_id)
        forward.token_rows.append(np.asarray(ids, dtype=np.int64))
        forward.sem_rows.append(
            np.asarray([int(tok.semantics) for tok in title.tokens], dtype=np.int64)
        )

    if with_combinations:
        combos, total_instances, total_member_count = _index_combinations(
            forward, k_resolved, distance_mode == "euclidean"
        )
    else:
        combos, total_instances, total_member_count = CombinationLexicon(), 0, 0
        forward.combo_rows = [_empty(np.int32)] * n

    indexed_avg_len = sum(t.length for t in titles) / n if n else 0.0
    stats = IndexStats(
        title_count=n,
        distinct_tokens=len(tokens),
        avg_title_len=indexed_avg_len,
        avg_combination_len=(total_member_count / total_instances) if total_instances else 0.0,
        combination_instances=total_instances,
        distinct_combinations=len(combos),
        collisions_resolved=_shared_signatures(combos.sigs),
    )
    return ProductIndex(
        dataset=dataset,
        analyzed=titles,
        tokens=tokens,
        combos=combos,
        forward=forward,
        stats=stats,
        k=k_resolved,
        variant=variant,
        distance_mode=distance_mode,
    )


def save_index(index: ProductIndex, path) -> None:
    """Write a versioned binary snapshot of a built index."""
    fw = index.forward
    tok_offsets = np.cumsum([0] + [len(r) for r in fw.token_rows])
    combo_offsets = np.cumsum([0] + [len(r) for r in fw.combo_rows])
    combos = index.combos
    truth = np.asarray(
        [
            -1 if p.truth_cluster_id is None else p.truth_cluster_id
            for p in index.dataset.products
        ],
        dtype=np.int64,
    )
    meta = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "k": index.k,
        "variant": index.variant,
        "distance_mode": index.distance_mode,
        "stats": {
            "title_count": index.stats.title_count,
            "distinct_tokens": index.stats.distinct_tokens,
            "avg_title_len": index.stats.avg_title_len,
            "avg_combination_len": index.stats.avg_combination_len,
            "combination_instances": index.stats.combination_instances,
            "distinct_combinations": index.stats.distinct_combinations,
            "collisions_resolved": index.stats.collisions_resolved,
        },
    }
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        product_ids=np.asarray(fw.product_ids, dtype=np.int64),
        vendor_ids=np.asarray(fw.vendor_ids, dtype=np.int64),
        truth=truth,
        titles=np.asarray([p.title for p in index.dataset.products], dtype=np.str_),
        token_surfaces=np.asarray([r.surface for r in index.tokens.records], dtype=np.str_),
        token_f=np.asarray([r.f_w for r in index.tokens.records], dtype=np.int64),
        token_sem=np.asarray([int(r.s_w) for r in index.tokens.records], dtype=np.int64),
        tok_flat=(
            np.concatenate(fw.token_rows) if fw.token_rows else np.empty(0, dtype=np.int64)
        ),
        tok_offsets=tok_offsets,
        sem_flat=(
            np.concatenate(fw.sem_rows) if fw.sem_rows else np.empty(0, dtype=np.int64)
        ),
        combo_flat=np.concatenate(fw.combo_rows) if fw.combo_rows else _empty(np.int32),
        combo_offsets=combo_offsets,
        combo_sigs=combos.sigs,
        combo_f=combos.f_c,
        combo_d=combos.d_acc,
        combo_k=combos.k,
        key_flat=combos.key_flat,
        key_offsets=combos.key_offsets,
    )


def load_index(path) -> ProductIndex:
    """Reload a snapshot written by save_index; verifies format and version."""
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(bytes(z["meta"]).decode("utf-8"))
        if meta.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(f"not a {SNAPSHOT_FORMAT} snapshot: {path}")
        if meta.get("version") != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {meta.get('version')} unsupported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        product_ids = z["product_ids"].tolist()
        vendor_ids = z["vendor_ids"].tolist()
        truth = z["truth"].tolist()
        titles_raw = z["titles"].tolist()
        products = [
            RawProduct(
                product_id=pid,
                title=title,
                vendor_id=vid,
                truth_cluster_id=None if t < 0 else t,
            )
            for pid, title, vid, t in zip(product_ids, titles_raw, vendor_ids, truth)
        ]
        dataset = Dataset(products=products)

        tokens = TokenLexicon()
        for i, (surface, f_w, sem) in enumerate(
            zip(z["token_surfaces"].tolist(), z["token_f"].tolist(), z["token_sem"].tolist())
        ):
            tokens.records.append(TokenRecord(i, surface, f_w, Semantics(sem)))
            tokens._by_surface[surface] = i

        tok_flat = z["tok_flat"]
        tok_offsets = z["tok_offsets"]
        sem_flat = z["sem_flat"]
        combo_flat = z["combo_flat"].astype(np.int32)
        combo_offsets = z["combo_offsets"]
        forward = ForwardIndex(product_ids=product_ids, vendor_ids=vendor_ids)
        analyzed: List[AnalyzedTitle] = []
        for p in range(len(product_ids)):
            t0, t1 = int(tok_offsets[p]), int(tok_offsets[p + 1])
            ids = tok_flat[t0:t1]
            sems = sem_flat[t0:t1]
            forward.token_rows.append(ids.copy())
            forward.sem_rows.append(sems.copy())
            c0, c1 = int(combo_offsets[p]), int(combo_offsets[p + 1])
            forward.combo_rows.append(combo_flat[c0:c1])
            analyzed.append(
                AnalyzedTitle(
                    tokens=tuple(
                        Token(
                            surface=tokens.records[int(i)].surface,
                            semantics=Semantics(int(s)),
                            position=pos,
                        )
                        for pos, (i, s) in enumerate(zip(ids.tolist(), sems.tolist()))
                    )
                )
            )

        combos = CombinationLexicon(
            sigs=z["combo_sigs"],
            f_c=z["combo_f"],
            d_acc=z["combo_d"],
            k=z["combo_k"],
            key_flat=z["key_flat"].astype(np.int32),
            key_offsets=z["key_offsets"],
        )
        stats = IndexStats(**meta["stats"])
        return ProductIndex(
            dataset=dataset,
            analyzed=analyzed,
            tokens=tokens,
            combos=combos,
            forward=forward,
            stats=stats,
            k=meta["k"],
            variant=meta["variant"],
            distance_mode=meta["distance_mode"],
        )
