"""Build the lexicons and forward index, then pick dominating clusters.

Each product scores every combination of its title: frequent combinations
that sit near the title head and contain rare, model-like tokens score
highest. All products selecting the same winning combination are declared
matching.
"""

from titlematch import ScoringConfig, build_index, select_clusters
from titlematch.synth import planted_dataset

dataset = planted_dataset(n_clusters=12, n_vendors=6, seed=7)
print(f"{dataset.title_count} listings from {dataset.vendor_count} vendors\n")

index = build_index(dataset)
stats = index.stats
print(f"K resolved to {index.k} (half the {stats.avg_title_len:.2f}-token average)")
print(f"distinct tokens:        {stats.distinct_tokens}")
print(f"combination instances:  {stats.combination_instances}")
print(f"distinct combinations:  {stats.distinct_combinations}")

universe = select_clusters(index, ScoringConfig())
print(f"\n{len(universe)} clusters for {dataset.title_count} products")

largest = max(universe.clusters, key=lambda c: len(c.products))
print(f"\nlargest cluster ({len(largest.products)} products):")
surfaces = [index.tokens.surfaces[i] for i in index.combos.ids_of(largest.key)]
print(f"  winning combination: {surfaces}")
for p in largest.products:
    marker = "*" if p == largest.pi else " "
    print(f"  {marker} v{index.forward.vendor_ids[p]}: {dataset.products[p].title}")
print("  (* = representative, the highest summed-idf title)")
