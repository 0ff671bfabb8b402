"""Token combinations and their order-invariant signatures.

A title of l tokens contributes every 2..K subset of its tokens, which is
what lets non-adjacent identifying tokens ("geforce" and "4gb" with "gtx1050"
in between) land in the same group. The index keys a combination by its
sorted member IDs, so two vendors writing the same tokens in different orders
share one record, and its signature hashes that sorted key.
"""

from titlematch import (
    Dataset,
    RawProduct,
    UnitLexicon,
    analyze_title,
    build_index,
    count_combinations,
)
from titlematch.combinatorics import position_patterns, signature_rows

units = UnitLexicon.default()
title = analyze_title("nVidia GeForce GTX1050 4GB", units)

print(f"title tokens: {title.surfaces}")
for K in (2, 3, 4):
    print(f"K={K}: {count_combinations(title.length, K)} combinations")

print("\nall 2..3-combinations (lexicographic over title positions):")
for k in (2, 3):
    for pattern in position_patterns(title.length, k).tolist():
        print(f"  {' + '.join(title.surfaces[p] for p in pattern)}")

print("\ntwo vendors, same tokens in different orders, one record per key:")
feed = Dataset(
    products=[RawProduct(1, "geforce gtx1050 4gb", 0), RawProduct(2, "4gb geforce gtx1050", 1)]
)
index = build_index(feed, k=3)
combos, surfaces = index.combos, index.tokens.surfaces
for k in (2, 3):
    recs = combos.records(k)
    rows = combos.key_rows(recs, k)
    for i, ids, sig in zip(recs, rows.tolist(), signature_rows(rows).tolist()):
        names, key = " + ".join(surfaces[t] for t in ids), " ".join(map(str, ids))
        print(f"  {names:<24} key {key!r:<8} f_c={combos.f_c[i]}  sig {sig:#018x}")
assert len(combos) == 4 and (combos.f_c == 2).all()
