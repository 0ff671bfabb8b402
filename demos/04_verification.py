"""The verification stage: one product per vendor per cluster.

A vendor almost never lists the same product twice, so a cluster holding two
products of one vendor must be wrong. This demo plants the classic confusion:
every vendor sells both the 4gb/silver and the 8gb/black variant of the same
model. Amid enough unrelated products the shared head combination outscores
the variant-specific ones, the two variants merge, and verification pulls
them back apart.
"""

from titlematch import ScoringConfig, build_index, select_clusters, verify_universe
from titlematch.evaluation import expand_cluster_pairs, prf1
from titlematch.ingest import Dataset, RawProduct, load_ground_truth


def variant_dataset() -> Dataset:
    rows = []
    pid = 1
    silver = [
        "zenix kx500 mixer silver 4gb prox9",
        "zenix kx500 mixer silver 4gb",
        "zenix kx500 mixer 4gb silver",
        "zenix kx500 mixer silver 4gb home",
        "zenix kx500 mixer silver 4gb set",
        "zenix kx500 mixer 4gb silver new",
    ]
    black = [
        "zenix kx500 mixer black 8gb",
        "zenix kx500 mixer black 8gb home",
        "zenix kx500 mixer 8gb black",
        "zenix kx500 mixer black 8gb set",
        "zenix kx500 mixer black 8gb new",
        "zenix kx500 mixer 8gb black eco",
    ]
    for v, t in enumerate(silver):
        rows.append(RawProduct(pid, t, v, 0))
        pid += 1
    for v, t in enumerate(black):
        rows.append(RawProduct(pid, t, v, 1))
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
    ]
    for i, t in enumerate(fillers):
        rows.append(RawProduct(pid, t, i % 6, 2 + i))
        pid += 1
    return Dataset(products=rows)


dataset = variant_dataset()
truth = load_ground_truth(dataset)
index = build_index(dataset)
universe = select_clusters(index, ScoringConfig())

print("before verification:")
for ci, cluster in enumerate(universe.clusters):
    if len(cluster.products) < 2:
        continue
    vendors = {v: len(m) for v, m in cluster.members.items()}
    print(f"  cluster {ci}: {len(cluster.products)} products, per-vendor counts {vendors}")
scores = prf1(expand_cluster_pairs(universe, index), truth)
print(f"  F1 = {scores['f1']:.4f}")

verify_universe(universe, index, tau=0.4)

print("\nafter verification:")
for ci, cluster in enumerate(universe.clusters):
    if len(cluster.products) < 2:
        continue
    titles = [dataset.products[p].title for p in cluster.products]
    print(f"  cluster {ci}:")
    for t in titles:
        print(f"    {t}")
scores = prf1(expand_cluster_pairs(universe, index), truth)
print(f"  F1 = {scores['f1']:.4f}")
