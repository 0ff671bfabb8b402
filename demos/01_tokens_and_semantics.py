"""Walk through title normalization and token semantics.

Raw vendor titles become ordered, duplicate-free token lists; each token is
then assigned one of five semantics classes (attribute, three model flavours,
normal) that later drive the field weighting of the scorer.
"""

from titlematch import UnitLexicon, analyze_title, normalize_title

units = UnitLexicon.default()

titles = [
    "nVidia GeForce GTX1050 4GB",
    "Intel Core i7-7700K 4.2GHz (Boxed)",
    "Bosch WAN-2823 Washing Machine 8KG, 1400rpm",
    "Playstation 4 Pro 1TB black",
    "32 GB Kingston HyperX FURY",
]

for raw in titles:
    tokens = normalize_title(raw)
    analyzed = analyze_title(raw, units)
    print(f"\n{raw}")
    print(f"  tokens:   {tokens}")
    for position, (surface, sem) in enumerate(zip(analyzed.surfaces, analyzed.semantics)):
        print(f"  {position}: {surface:<12} {sem.name}")
