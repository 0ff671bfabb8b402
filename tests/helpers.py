"""Dataset builders and CSV writers shared across test modules."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from titlematch.combinatorics import signature, signature_rows
from titlematch.index import CombinationLexicon, ForwardIndex, length_buckets
from titlematch.ingest import Dataset, RawProduct
from titlematch.scoring import VERIFY_METRICS
from titlematch.verify import binary_cosine, idf_cosine


def token_rows(fw: ForwardIndex) -> List[List[int]]:
    """Each product's token IDs in title order, from the forward CSR."""
    return [fw.tokens_of(p).tolist() for p in range(len(fw))]


def combo_rows(fw: ForwardIndex) -> List[List[int]]:
    """Each product's record IDs in enumeration order, from the length blocks."""
    rows: List[List[int]] = [[] for _ in range(len(fw))]
    for (_, members), block in zip(length_buckets(np.diff(fw.tok_offsets)), fw.combo_blocks):
        for p, row in zip(members.tolist(), block.tolist()):
            rows[p] = row
    return rows


def assert_key_signatures(combos: CombinationLexicon, recs: np.ndarray) -> None:
    """signature_rows over the key rows of records recs, one call per k, as
    scoring hashes tied keys, equals the scalar signature() of each key."""
    for kk in np.unique(combos.k[recs]).tolist():
        group = recs[combos.k[recs] == kk]
        rows = combos.key_flat[combos.key_offsets[group][:, None] + np.arange(kk)]
        for i, value in zip(group.tolist(), signature_rows(rows).tolist()):
            assert signature(combos.ids_of(i)).value == value, combos.ids_of(i)


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
    per-product inputs as ClusterUniverse.from_choices."""
    u = ObjectUniverse(len(chosen))
    for p, (c, t, v, s) in enumerate(zip(chosen, token, vendor, s1)):
        u.insert(("token", int(t)) if c < 0 else int(c), p, int(v), float(s))
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
        idf_sq = (index.idf * index.idf).tolist()

        def sim(p: int, q: int) -> float:
            return idf_cosine(token_sets[p], token_sets[q], idf_sq)

    else:

        def sim(p: int, q: int) -> float:
            return binary_cosine(token_sets[p], token_sets[q])

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
