"""Dataset builders, CSV writers and scalar reference implementations
shared across test modules."""

from __future__ import annotations

import csv
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from titlematch import scoring
from titlematch.baseline import cs, cs_idf
from titlematch.combinatorics import FNV_OFFSET_BASIS, FNV_PRIME, signature_rows
from titlematch.index import DISTANCE_MODES, CombinationLexicon, ForwardIndex
from titlematch.ingest import Dataset, RawProduct
from titlematch.scoring import VERIFY_METRICS, ScoringConfig, select_clusters
from titlematch.textprep import (
    AnalyzedTitle,
    Semantics,
    TitleNormalizationError,
    UnitLexicon,
    is_numeric,
)


def token_rows(fw: ForwardIndex) -> List[List[int]]:
    """Each product's token IDs in title order, from the forward CSR."""
    return [fw.tokens_of(p).tolist() for p in range(len(fw))]


def combo_rows(fw: ForwardIndex) -> List[List[int]]:
    """Each product's record IDs in enumeration order, from the length blocks."""
    rows: List[List[int]] = [[] for _ in range(len(fw))]
    for (_, members), block in zip(fw.buckets, fw.combo_blocks):
        for p, row in zip(members.tolist(), block.tolist()):
            rows[p] = row
    return rows


def unique_instances(fw: ForwardIndex) -> Counter:
    """The -1 cells of each size k's block columns: its instances of a
    combination unique in the corpus, which has no record."""
    counts: Counter = Counter()
    for (l, _), block in zip(fw.buckets, fw.combo_blocks):
        start, k = 0, 2
        while start < block.shape[1]:
            stop = start + math.comb(l, k)
            counts[k] += int(np.count_nonzero(block[:, start:stop] < 0))
            start, k = stop, k + 1
    return counts


def lone_title_choice(index, monkeypatch) -> Tuple[int, ...]:
    """The sorted token IDs of the combination select_clusters picks for an
    index of one title, read from the title's own tokens: each of its
    combinations is unique, so it has no record, and the product founds its
    own cluster with key -1."""
    picks = []
    resolve = scoring._resolve_row

    def spy(i_row, y_row, recs, tokens, patterns, combos):
        col = resolve(i_row, y_row, recs, tokens, patterns, combos)
        rows = [row for pat in patterns for row in pat.tolist()]
        picks.append(tuple(sorted(tokens[rows[col]].tolist())))
        return col

    with monkeypatch.context() as patch:
        patch.setattr(scoring, "_resolve_row", spy)
        universe = select_clusters(index, ScoringConfig())
    assert len(index.forward) == 1 and universe.key.tolist() == [-1] and len(picks) == 1
    return picks[0]


def assert_key_signatures(combos: CombinationLexicon, recs: np.ndarray) -> None:
    """signature_rows over the key rows of records recs, one call per k, as
    scoring hashes tied keys, equals the scalar signature() of each key."""
    sizes = combos.sizes(recs)
    for kk in np.unique(sizes).tolist():
        group = recs[sizes == kk]
        rows = combos.key_rows(group, kk)
        for i, value in zip(group.tolist(), signature_rows(rows).tolist()):
            assert signature(combos.ids_of(i)).value == value, combos.ids_of(i)


def assert_same_columns(a, b) -> None:
    """Every column of two indexes, plus their settings, stats and products."""
    assert (a.k, a.variant, a.distance_mode) == (b.k, b.variant, b.distance_mode)
    assert a.stats == b.stats
    assert a.dataset.products == b.dataset.products
    assert a.tokens.surfaces == b.tokens.surfaces
    for name in ("f_w", "s_w"):
        assert np.array_equal(getattr(a.tokens, name), getattr(b.tokens, name)), name
    for name in ("f_c", "d_acc"):
        assert np.array_equal(getattr(a.combos, name), getattr(b.combos, name)), name
    assert len(a.combos.keys) == len(b.combos.keys)
    for k, (ta, tb) in enumerate(zip(a.combos.keys, b.combos.keys), start=2):
        assert ta.dtype == tb.dtype == np.int32, k
        assert ta.shape == tb.shape and ta.shape[1] == k and np.array_equal(ta, tb), k
    assert a.forward.product_ids == b.forward.product_ids
    assert a.forward.vendor_ids == b.forward.vendor_ids
    for name in ("tok_flat", "sem_flat", "tok_offsets"):
        assert np.array_equal(getattr(a.forward, name), getattr(b.forward, name)), name
    assert len(a.forward.combo_blocks) == len(b.forward.combo_blocks)
    for ba, bb in zip(a.forward.combo_blocks, b.forward.combo_blocks):
        assert ba.shape == bb.shape and np.array_equal(ba, bb)


def make_ablation_dataset() -> Dataset:
    """Two same-vendor product variants that merge under their shared
    combination, plus unrelated fillers.

    Every vendor 0..7 lists both the 4gb/silver and the 8gb/black variant of
    the same model, so the merged cluster violates the one-per-vendor rule
    eight times over; verification must split it back apart. Vendor 0's
    silver listing carries a rare extra token so it becomes the
    representative.
    """
    rows = []
    pid = 1
    a_titles = [
        "zenix kx500 mixer silver 4gb prox9",
        "zenix kx500 mixer silver 4gb",
        "zenix kx500 mixer 4gb silver",
        "zenix kx500 mixer silver 4gb home",
        "zenix kx500 mixer silver 4gb set",
        "zenix kx500 mixer 4gb silver new",
        "zenix kx500 mixer silver 4gb eco",
        "zenix kx500 mixer silver 4gb plus",
    ]
    b_titles = [
        "zenix kx500 mixer black 8gb",
        "zenix kx500 mixer black 8gb home",
        "zenix kx500 mixer 8gb black",
        "zenix kx500 mixer black 8gb set",
        "zenix kx500 mixer black 8gb new",
        "zenix kx500 mixer 8gb black eco",
        "zenix kx500 mixer black 8gb plus",
        "zenix kx500 mixer black 8gb top",
    ]
    for v, title in enumerate(a_titles):
        rows.append(RawProduct(pid, title, v, 0))
        pid += 1
    for v, title in enumerate(b_titles):
        rows.append(RawProduct(pid, title, v, 1))
        pid += 1
    fillers = [
        "tavor wd12 grill steam rack",
        "corda pl77 lamp glow arm",
        "ermis vt3 pump flow tube",
        "okapi rz9 fan blade ring",
        "lurex mn44 scale body case",
        "vanta qs2 clock dial face",
        "howin bf6 torch beam grip",
        "sopra kt8 iron plate cord",
        "nimbu xc5 mouse wheel pad",
        "ostra gv7 kettle spout lid",
        "pluma jd21 stand base bar",
        "tegra hw33 brush wire head",
    ]
    for i, title in enumerate(fillers):
        rows.append(RawProduct(pid, title, i % 8, 2 + i))
        pid += 1
    return Dataset(products=rows)


def write_feed_csv(path, dataset: Dataset, fmt: str = "published") -> None:
    """Write a dataset in one of the supported feed layouts."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if fmt == "simple":
            writer.writerow(["id", "title", "vendor"])
            for p in dataset.products:
                writer.writerow([p.product_id, p.title, p.vendor_id])
        else:
            writer.writerow(
                [
                    "product_id",
                    "title",
                    "vendor_id",
                    "cluster_id",
                    "cluster_label",
                    "category_id",
                    "category_label",
                ]
            )
            for p in dataset.products:
                writer.writerow(
                    [
                        p.product_id,
                        p.title,
                        p.vendor_id,
                        p.truth_cluster_id if p.truth_cluster_id is not None else "",
                        f"cluster {p.truth_cluster_id}",
                        0,
                        "category",
                    ]
                )


def write_truth_csv(path, dataset: Dataset) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["product_id", "cluster_id"])
        for p in dataset.products:
            writer.writerow([p.product_id, p.truth_cluster_id])


# ---------------------------------------------------------------------------
# scalar combinations, signatures and scores: the reference for the
# vectorised paths in titlematch.index, .combinatorics and .scoring
# ---------------------------------------------------------------------------

_U64_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class Combination:
    """k distinct tokens in title order.

    token_ids carry the numeric identity used for signatures; surfaces, when
    present, carry the spelled-out tokens so title-level operations can
    resolve positions without a lexicon. Within-combination offsets are the
    ranks 0..k-1 implied by the stored order.
    """

    token_ids: tuple
    surfaces: tuple = ()

    @property
    def k(self) -> int:
        return len(self.token_ids)


@dataclass(frozen=True)
class Signature:
    value: int
    canonical_key: str


def fnv1a_64(data: bytes) -> int:
    """Reference scalar FNV-1a over a byte string."""
    h = FNV_OFFSET_BASIS
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _U64_MASK
    return h


def canonical_key(token_ids: Sequence[int]) -> str:
    return " ".join(str(i) for i in sorted(token_ids))


def signature(c) -> Signature:
    """Order-invariant signature of a combination (or bare ID sequence)."""
    ids = c.token_ids if isinstance(c, Combination) else c
    key = canonical_key(ids)
    return Signature(value=fnv1a_64(key.encode("ascii")), canonical_key=key)


def generate_combinations(title: AnalyzedTitle, K: int) -> List[Combination]:
    """All 2..K combinations of a title, lexicographic over title positions.

    Token IDs default to the title positions; the index rebuilds the same
    enumeration over lexicon IDs via the batched array path.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    l = title.length
    surfaces = title.surfaces
    out: List[Combination] = []
    for k in range(2, min(K, l) + 1):
        for combo in itertools.combinations(range(l), k):
            out.append(
                Combination(
                    token_ids=combo,
                    surfaces=tuple(surfaces[p] for p in combo),
                )
            )
    return out


def distance(c: Combination, t: AnalyzedTitle, mode: str = "squared") -> float:
    """Positional distance of a combination from the head of a title.

    Sums (rank - title_position)^2 over members; "euclidean" takes the root.
    """
    if mode not in DISTANCE_MODES:
        raise ValueError(f"unknown distance mode {mode!r}")
    if not c.surfaces:
        raise ValueError("combination carries no surfaces to resolve against the title")
    pos = {surface: i for i, surface in enumerate(t.surfaces)}
    total = 0
    for rank, surface in enumerate(c.surfaces):
        if surface not in pos:
            raise ValueError(f"token {surface!r} does not occur in the title")
        total += (rank - pos[surface]) ** 2
    return float(np.sqrt(total)) if mode == "euclidean" else float(total)


@dataclass(frozen=True)
class CombinationRecord:
    """One combination record's fields, for the scalar scoring functions."""

    index: int
    key_ids: Tuple[int, ...]
    f_c: int
    d_acc: float
    k: int


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


# ---------------------------------------------------------------------------
# object universe: the reference for the columnar ClusterUniverse
# ---------------------------------------------------------------------------


@dataclass
class Cluster:
    """A dominating combination with its member products, grouped by vendor."""

    key: Hashable
    vendors: List[int] = field(default_factory=list)
    members: Dict[int, List[int]] = field(default_factory=dict)
    pi: int = -1
    max_s1: float = float("-inf")


class ObjectUniverse:
    """All clusters in creation order plus the product-to-cluster map, kept
    in step by insert, remove and add_member."""

    def __init__(self, n_products: int) -> None:
        self.clusters: List[Cluster] = []
        self.by_key: Dict[Hashable, int] = {}
        self.assignment: List[int] = [-1] * n_products
        self.s1: List[float] = [0.0] * n_products

    def __len__(self) -> int:
        return len(self.clusters)

    def insert(self, key: Hashable, product: int, vendor: int, s1: float) -> int:
        """File a product under key, creating the cluster when unseen; a
        strictly larger s1 takes over as representative."""
        idx = self.by_key.get(key)
        if idx is None:
            idx = len(self.clusters)
            self.clusters.append(Cluster(key=key))
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


def object_universe(chosen, token, vendor, s1) -> ObjectUniverse:
    """The insert loop that select_clusters once ran, over the same
    per-product inputs as ClusterUniverse.from_choices: a product with
    neither a chosen record nor a token (both -1) gets a key of its own."""
    u = ObjectUniverse(len(chosen))
    for p, (c, t, v, s) in enumerate(zip(chosen, token, vendor, s1)):
        key = int(c) if c >= 0 else ("token", int(t)) if t >= 0 else ("own", p)
        u.insert(key, p, int(v), float(s))
    return u


def cluster_state(universe) -> Tuple[List[int], List[Tuple[int, Dict[int, List[int]]]]]:
    """Assignment plus each cluster's (representative, {vendor: sorted
    members}), for either universe; vendor order is left out."""
    return [int(c) for c in universe.assignment], [
        (int(c.pi), {v: sorted(m) for v, m in c.members.items()}) for c in universe.clusters
    ]


def scan_violators_scalar(universe: ObjectUniverse) -> List[Tuple[int, int]]:
    return [
        (ci, v)
        for ci, cluster in enumerate(universe.clusters)
        for v, members in cluster.members.items()
        if len(members) > 1
    ]


# ---------------------------------------------------------------------------
# scalar verification reference
# ---------------------------------------------------------------------------


def find_candidates(
    p: int,
    vendor: int,
    universe: ObjectUniverse,
    token_sets: List[frozenset],
    token_map: Dict[int, List[int]],
) -> List[int]:
    """Clusters sharing at least one token with p and free of p's vendor."""
    seen: Set[int] = set()
    for w in token_sets[p]:
        for ci in token_map.get(w, ()):
            seen.add(ci)
    out = []
    for ci in sorted(seen):
        if vendor not in universe.clusters[ci].members:
            out.append(ci)
    return out


def verify_universe_scalar(
    universe: ObjectUniverse, index, tau: float = 0.4, metric: str = "cs"
) -> ObjectUniverse:
    """Reference for titlematch.verify.verify_universe: one pass over the
    live object universe, scoring every token-sharing candidate pair by
    pair."""
    if metric not in VERIFY_METRICS:
        raise ValueError(f"unknown verify metric {metric!r}")
    fw = index.forward
    n = len(fw)
    token_sets = [index.token_set(p) for p in range(n)]
    if metric == "cs-idf":
        idf = index.idf.tolist()

        def sim(p: int, q: int) -> float:
            return cs_idf(token_sets[p], token_sets[q], idf)

    else:

        def sim(p: int, q: int) -> float:
            return cs(token_sets[p], token_sets[q])

    token_map: Dict[int, List[int]] = {}

    def register(ci: int) -> None:
        for w in token_sets[universe.clusters[ci].pi]:
            token_map.setdefault(w, []).append(ci)

    for ci in range(len(universe.clusters)):
        register(ci)

    pids = fw.product_ids
    ci = 0
    while ci < len(universe.clusters):
        cluster = universe.clusters[ci]
        for vendor in list(cluster.vendors):
            members = cluster.members.get(vendor, [])
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
            for p in evicted:
                universe.remove(p, ci)
                best: Optional[int] = None
                best_sim = 0.0
                for cand in find_candidates(p, vendor, universe, token_sets, token_map):
                    s = sim(p, universe.clusters[cand].pi)
                    if s > best_sim:
                        best_sim = s
                        best = cand
                if best is not None and best_sim > tau:
                    universe.add_member(p, vendor, best)
                else:
                    new_ci = universe.insert(("new", pids[p]), p, vendor, float(universe.s1[p]))
                    register(new_ci)
        ci += 1

    leftovers = scan_violators_scalar(universe)
    if leftovers:
        raise RuntimeError(f"verification left violators: {leftovers[:5]}")
    return universe


# ---------------------------------------------------------------------------
# character-loop text preparation: the reference for titlematch.textprep
# ---------------------------------------------------------------------------


def normalize_title_scalar(raw: str) -> List[str]:
    """Reference for titlematch.textprep.normalize_title: one character at a
    time over the lowered title."""
    lowered = raw.lower()
    n = len(lowered)
    chars = []
    for i, ch in enumerate(lowered):
        if ch.isalnum():
            chars.append(ch)
        elif ch in ".,":
            if 0 < i < n - 1 and lowered[i - 1].isdigit() and lowered[i + 1].isdigit():
                chars.append(ch)
            else:
                chars.append(" ")
        elif ch in "-/":
            chars.append(ch)
        else:
            chars.append(" ")

    base: List[str] = []
    appended: List[str] = []
    for tok in "".join(chars).split():
        tok = tok.strip("-/")
        if not tok:
            continue
        base.append(tok)
        if "-" in tok or "/" in tok:
            appended.extend(p for p in re.split(r"[-/]+", tok) if p)

    seen = set()
    result: List[str] = []
    for tok in base + appended:
        if tok not in seen:
            seen.add(tok)
            result.append(tok)
    if not result:
        raise TitleNormalizationError(f"title normalizes to zero tokens: {raw!r}")
    return result


def _is_mixed_scalar(surface: str) -> bool:
    return any(c.isdigit() for c in surface) and any(c.isalpha() for c in surface)


def _attribute_split_scalar(surface: str, units: UnitLexicon) -> bool:
    for cut in range(1, len(surface)):
        if surface[cut:] in units and is_numeric(surface[:cut]):
            return True
    return False


def classify_tokens_scalar(
    tokens: Sequence[str], units: UnitLexicon
) -> List[Tuple[str, Semantics]]:
    """Reference for titlematch.textprep.classify_tokens as (surface,
    semantics) pairs: merge (number, unit) pairs, dedup, then classify in a
    three-branch loop with every cut of every mixed token tried."""
    merged: List[Tuple[str, Optional[Semantics]]] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if i + 1 < len(tokens) and is_numeric(tok) and tokens[i + 1] in units:
            merged.append((tok + tokens[i + 1], Semantics.ATTRIBUTE))
            i += 2
            continue
        merged.append((tok, None))
        i += 1

    seen = set()
    deduped: List[Tuple[str, Optional[Semantics]]] = []
    for surface, sem in merged:
        if surface not in seen:
            seen.add(surface)
            deduped.append((surface, sem))

    out: List[Tuple[str, Semantics]] = []
    first_mixed_taken = False
    for surface, sem in deduped:
        if sem is None:
            if _is_mixed_scalar(surface):
                if _attribute_split_scalar(surface, units):
                    sem = Semantics.ATTRIBUTE
                elif not first_mixed_taken:
                    sem = Semantics.MODEL_FIRST
                    first_mixed_taken = True
                else:
                    sem = Semantics.MODEL_OTHER
            elif is_numeric(surface):
                sem = Semantics.MODEL_NUMERIC
            else:
                sem = Semantics.NORMAL
        out.append((surface, sem))
    return out
