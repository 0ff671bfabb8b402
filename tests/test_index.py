"""Lexicon and forward-index construction."""

from __future__ import annotations

import gc
import itertools
import math
import random
import string
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from titlematch import index as index_module
from titlematch.combinatorics import (
    count_combinations,
    drop_patterns,
    pattern_distances,
    position_patterns,
)
from titlematch.index import analyze_dataset, build_index, resolve_k
from titlematch.ingest import Dataset, RawProduct
from titlematch.pipeline import run_match
from titlematch.synth import efficiency_dataset, long_title_dataset, planted_dataset
from titlematch.textprep import AnalyzedTitle, UnitLexicon, analyze_title

from helpers import (
    Combination,
    assert_key_signatures,
    assert_same_columns,
    classify_tokens_scalar,
    combo_rows,
    distance,
    generate_combinations,
    normalize_title_scalar,
    token_rows,
    unique_instances,
)


def tiny_dataset(titles, vendors=None):
    vendors = vendors or list(range(len(titles)))
    return Dataset(
        products=[
            RawProduct(i + 1, t, vendors[i], None) for i, t in enumerate(titles)
        ]
    )


def test_signature_dedupe_across_orderings():
    ds = tiny_dataset(["alpha beta", "beta alpha"])
    idx = build_index(ds, k=2)
    assert len(idx.combos) == 1
    assert idx.combos.f_c[0] == 2


def test_single_product_counts():
    # a lone title's combinations are all unique: no records, three -1 cells
    ds = tiny_dataset(["aa bb cc"])
    idx = build_index(ds, k=2)
    assert len(idx.tokens) == 3
    assert idx.tokens.f_w.tolist() == [1, 1, 1]
    assert len(idx.combos) == 0
    assert combo_rows(idx.forward) == [[-1, -1, -1]]
    assert unique_instances(idx.forward) == {2: 3}
    assert idx.stats.distinct_combinations == idx.stats.combination_instances == 3


def test_empty_dataset():
    idx = build_index(Dataset(products=[]), k=2)
    assert idx.stats.title_count == 0
    assert len(idx.tokens) == 0
    assert len(idx.combos) == 0


def test_distance_title_prefix_is_zero(units):
    t = analyze_title("geforce gtx1050 4gb", units)
    c = Combination(token_ids=(0, 1), surfaces=("geforce", "gtx1050"))
    assert distance(c, t) == 0.0


def test_distance_gpu_tail_pair(units):
    t = analyze_title("geforce gtx1050 4gb", units)
    c = Combination(token_ids=(1, 2), surfaces=("gtx1050", "4gb"))
    assert distance(c, t) == 2.0


def test_distance_single_displaced_token(units):
    t = analyze_title("lead mid1 mid2 far", units)
    c = Combination(token_ids=(0, 3), surfaces=("lead", "far"))
    # lead contributes 0, far contributes (1-3)^2
    assert distance(c, t) == 4.0


def test_distance_euclidean_mode(units):
    t = analyze_title("geforce gtx1050 4gb", units)
    c = Combination(token_ids=(1, 2), surfaces=("gtx1050", "4gb"))
    assert distance(c, t, mode="euclidean") == pytest.approx(math.sqrt(2.0))


def test_distance_missing_token_raises(units):
    t = analyze_title("geforce gtx1050", units)
    c = Combination(token_ids=(0,), surfaces=("radeon",))
    with pytest.raises(ValueError, match="radeon"):
        distance(c, t)


@pytest.mark.parametrize(
    "titles, k",
    [
        # a lone title: no size has a record
        (["aa bb cc"], 2),
        (["aa bb cc"], 3),
        # size 2 has the record {aa, bb}; every size-3 instance is unique
        (["aa bb cc", "aa bb dd", "ee ff"], 3),
        # the sizes with records are followed by one without
        (["aa bb cc dd", "aa bb cc ee", "ff gg"], 4),
    ],
    ids=["lone-k2", "lone-k3", "unique-k3", "unique-k4"],
)
def test_stats_count_unique_instances(titles, k):
    idx = build_index(tiny_dataset(titles), k=k)
    assert 0 in idx.combos.size_counts
    counts = Counter()
    for ids in token_rows(idx.forward):
        for kk in range(2, min(k, len(ids)) + 1):
            counts.update(tuple(sorted(c)) for c in itertools.combinations(ids, kk))
    instances = sum(counts.values())
    members = sum(len(key) * n for key, n in counts.items())
    assert idx.stats.combination_instances == instances
    assert idx.stats.distinct_combinations == len(counts)
    assert idx.stats.avg_combination_len == members / instances


def test_forward_list_lengths_match_counts():
    ds = planted_dataset(n_clusters=8, n_vendors=5, seed=2)
    idx = build_index(ds)
    lengths = np.diff(idx.forward.tok_offsets).tolist()
    for l_t, row in zip(lengths, combo_rows(idx.forward)):
        assert len(row) == count_combinations(l_t, idx.k)


def test_token_frequency_balance():
    ds = planted_dataset(n_clusters=8, n_vendors=5, seed=3)
    idx = build_index(ds)
    assert len(idx.forward.tok_flat) == idx.tokens.f_w.sum()


def brute_force_accumulators(index):
    """Oracle: recompute f_c and d_acc per combination with plain loops,
    unique ones included."""
    expected = {}
    for ids in token_rows(index.forward):
        for k in range(2, min(index.k, len(ids)) + 1):
            for positions in itertools.combinations(range(len(ids)), k):
                key = tuple(sorted(ids[j] for j in positions))
                d = sum((rank - pos) ** 2 for rank, pos in enumerate(positions))
                f, acc = expected.get(key, (0, 0))
                expected[key] = (f + 1, acc + d)
    return expected


def test_accumulators_match_brute_force():
    ds = planted_dataset(n_clusters=20, n_vendors=8, seed=5)
    assert ds.title_count <= 500
    idx = build_index(ds)
    expected = brute_force_accumulators(idx)
    # records are the keys with f_c >= 2; the unique ones are -1 cells
    assert len(idx.combos) == sum(f > 1 for f, _ in expected.values())
    for i in range(len(idx.combos)):
        key = tuple(idx.combos.ids_of(i))
        f, acc = expected[key]
        assert idx.combos.f_c[i] == f
        assert idx.combos.d_acc[i] == acc
    unique = Counter(len(key) for key, (f, _) in expected.items() if f == 1)
    assert unique_instances(idx.forward) == unique
    assert idx.stats.distinct_combinations == len(expected)


def test_key_signatures_match_scalar():
    # the index stores no signatures; scoring hashes key rows on demand
    ds = planted_dataset(n_clusters=10, n_vendors=6, seed=6)
    idx = build_index(ds)
    assert idx.stats.collisions_resolved == 0
    assert_key_signatures(idx.combos, np.arange(len(idx.combos)))


def test_build_is_deterministic():
    ds = planted_dataset(n_clusters=12, n_vendors=6, seed=7)
    a = build_index(ds)
    b = build_index(ds)
    assert_same_columns(a, b)


def test_k_resolution():
    assert resolve_k(8.56) == 4
    assert resolve_k(11.285) == 5
    assert resolve_k(6.819) == 3
    assert resolve_k(1.0) == 2  # clamped; combinations need k >= 2
    ds = planted_dataset(n_clusters=10, n_vendors=6, seed=8)
    idx = build_index(ds)
    analyzed = analyze_dataset(ds)
    analyzed_avg = sum(t.length for t in analyzed) / len(analyzed)
    assert idx.k == max(2, int(analyzed_avg / 2))


def test_variant_truncates_titles():
    ds = planted_dataset(n_clusters=10, n_vendors=6, noise_per_listing=(5, 9), seed=9)
    base = build_index(ds, k=3, variant="upm")
    pruned = build_index(ds, k=3, variant="upm+")
    assert np.diff(pruned.forward.tok_offsets).max() <= 6
    assert pruned.stats.combination_instances < base.stats.combination_instances


def test_avg_combination_len_in_range():
    ds = planted_dataset(n_clusters=10, n_vendors=6, seed=10)
    idx = build_index(ds)
    assert 2.0 <= idx.stats.avg_combination_len <= idx.k


def test_ids_of_rejects_records_out_of_range():
    # -1 is the key of one-token clusters, unique choices and verification
    # singletons; {beta, gamma} is unique and has no record
    titles = ["alpha beta", "alpha beta gamma", "alpha gamma"]
    ds = Dataset(products=[RawProduct(i, t, i) for i, t in enumerate(titles)])
    index = build_index(ds, k=2)
    combos = index.combos
    assert [combos.ids_of(i) for i in range(len(combos))] == [[0, 1], [0, 2]]
    assert unique_instances(index.forward) == {2: 1}
    for idx in (-1, -len(combos), len(combos)):
        message = f"^combination record {idx} out of range for 2 records$"
        with pytest.raises(IndexError, match=message):
            combos.ids_of(idx)
    with pytest.raises(IndexError, match="^combination record 0 out of range for 0 records$"):
        build_index(ds, k=2, with_combinations=False).combos.ids_of(0)


def test_key_rows_of_a_size_without_records_are_empty():
    # one-token titles have no combinations, so the index has no records;
    # the pair titles below have size-2 records and none of size 3
    for titles, k in ((["alpha", "beta"], 2), (["alpha beta", "beta alpha"], 3)):
        combos = build_index(tiny_dataset(titles), k=k).combos
        rows = combos.key_rows(combos.records(k), k)
        assert rows.dtype == np.int64 and rows.shape == (0, k)


def test_key_rows_rejects_records_of_another_size():
    titles = ["alpha beta gamma", "gamma beta alpha"]
    combos = build_index(tiny_dataset(titles), k=3).combos
    assert combos.size_counts == [3, 1]
    assert combos.key_rows([3], 3).tolist() == [[0, 1, 2]]
    for recs, k, wrong in (([2, 3], 3, 2), ([3], 2, 3), ([-1], 2, -1), ([4], 3, 4)):
        with pytest.raises(ValueError, match=f"^combination record {wrong} is not of size {k}$"):
            combos.key_rows(recs, k)


def test_build_index_rejects_vendor_ids_outside_int64():
    titles = ["alpha beta", "alpha beta gamma"]
    for vendor in (-(2**63) - 1, 2**63):
        ds = tiny_dataset(titles, vendors=[0, vendor])
        with pytest.raises(ValueError, match=f"^product 2: vendor_id {vendor} is outside int64$"):
            build_index(ds, k=2, with_combinations=False)
    # scoring converts the vendor IDs to int64, which holds both ends
    assert len(run_match(tiny_dataset(titles, vendors=[-(2**63), 2**63 - 1])).universe) == 2


def test_build_index_rejects_repeated_product_ids():
    # ingest rejects repeats in a feed; a library-built Dataset reaches build_index
    titles = ["alpha beta gamma", "alpha beta delta", "beta gamma delta"]
    products = [RawProduct(pid, t, v, 0) for v, (pid, t) in enumerate(zip([1, 1, 2], titles))]
    ds = Dataset(products=products)
    for build in (lambda: build_index(ds, k=2), lambda: run_match(ds)):
        with pytest.raises(ValueError, match="^duplicate product_id 1$"):
            build()
    ds = Dataset(products=[RawProduct(pid, t, 0) for pid, t in zip([5, 7, 7], titles)])
    with pytest.raises(ValueError, match="^duplicate product_id 7$"):
        build_index(ds, k=2, with_combinations=False)


def test_euclidean_accumulation(units):
    ds = tiny_dataset(["alpha beta gamma", "gamma alpha beta"])
    sq = build_index(ds, k=2, distance_mode="squared")
    eu = build_index(ds, k=2, distance_mode="euclidean")
    eu_record = {tuple(eu.combos.ids_of(j)): j for j in range(len(eu.combos))}
    for i in range(len(sq.combos)):
        j = eu_record[tuple(sq.combos.ids_of(i))]
        assert eu.combos.f_c[j] == sq.combos.f_c[i]
        assert eu.combos.d_acc[j] <= sq.combos.d_acc[i] or sq.combos.d_acc[i] <= 1.0


# ---------------------------------------------------------------------------
# differential checks against the scalar reference path
# ---------------------------------------------------------------------------


def scalar_reference(index):
    """Oracle over generate_combinations + distance.

    Titles come from normalize_title_scalar and classify_tokens_scalar, cut
    to 2K tokens under upm+; token IDs from interning their surfaces in
    first-encounter order. Titles are visited by ascending length, file
    order within a length: the order the index sums d_acc in, so even
    euclidean sums compare exactly. Returns (the titles,
    the token IDs, {key: (f_c, d_acc)}, each product's keys in
    enumeration order).
    """
    units = UnitLexicon.default()
    cut = 2 * index.k if index.variant == "upm+" else None
    titles = []
    for p in index.dataset.products:
        pairs = classify_tokens_scalar(normalize_title_scalar(p.title), units)[:cut]
        titles.append(AnalyzedTitle(*map(tuple, zip(*pairs))))
    token_ids = {}
    for title in titles:
        for surface in title.surfaces:
            token_ids.setdefault(surface, len(token_ids))
    records = {}
    keys_of = [[] for _ in titles]
    order = sorted(range(len(titles)), key=lambda p: titles[p].length)
    for p in order:
        title = titles[p]
        if title.length < 2:
            continue
        for c in generate_combinations(title, index.k):
            ids = [token_ids[surface] for surface in c.surfaces]
            key = tuple(sorted(ids))
            f, d = records.get(key, (0, 0.0))
            records[key] = (f + 1, d + distance(c, title, index.distance_mode))
            keys_of[p].append(key)
    return titles, token_ids, records, keys_of


def assert_matches_reference(index):
    titles, token_ids, expected, keys_of = scalar_reference(index)
    tok_flat = [token_ids[surface] for t in titles for surface in t.surfaces]
    first_sem = {}
    for t in titles:
        for surface, sem in zip(t.surfaces, t.semantics):
            first_sem.setdefault(surface, int(sem))
    assert index.tokens.surfaces == list(token_ids)
    counts = Counter(tok_flat)
    assert index.tokens.f_w.tolist() == [counts[i] for i in range(len(token_ids))]
    assert index.tokens.s_w.tolist() == list(first_sem.values())
    assert index.forward.tok_flat.tolist() == tok_flat
    assert index.forward.sem_flat.tolist() == [int(x) for t in titles for x in t.semantics]
    assert index.forward.tok_offsets.tolist() == [0] + list(
        itertools.accumulate(t.length for t in titles)
    )
    combos = index.combos
    # the keys with f_c >= 2 are the records; a unique key's cells hold -1.
    # The lexicon keeps no member IDs: records, key_rows and ids_of derive
    # them from each record's first instance.
    keys = [tuple(combos.ids_of(i)) for i in range(len(combos))]
    shared = [key for key, (f, _) in expected.items() if f > 1]
    assert keys == sorted(shared, key=lambda key: (len(key), key))
    assert combos.sizes(np.arange(len(combos))).tolist() == [len(key) for key in keys]
    for kk in range(2, index.k + 1):
        recs = combos.records(kk).tolist()
        assert recs == [i for i, key in enumerate(keys) if len(key) == kk], kk
        assert combos.key_rows(recs, kk).tolist() == [list(keys[i]) for i in recs], kk
    assert_key_signatures(combos, np.arange(len(combos)))
    for i, key in enumerate(keys):
        f, d = expected[key]
        assert combos.f_c[i] == f, key
        assert combos.d_acc[i] == d, key
    for p, row in enumerate(combo_rows(index.forward)):
        want = [key if expected[key][0] > 1 else None for key in keys_of[p]]
        assert [keys[r] if r >= 0 else None for r in row] == want, f"product {p}"
    unique = Counter(len(key) for key, (f, _) in expected.items() if f == 1)
    assert unique_instances(index.forward) == unique
    assert index.stats.distinct_combinations == len(expected)
    assert index.stats.combination_instances == sum(len(k) for k in keys_of)


_WORDS = [a + b for a in "bcdfghjklm" for b in "aeiou"]


@st.composite
def corpora(draw):
    """Long, duplicate-heavy, one-token or many-vendor title lists."""
    shape = draw(st.sampled_from(("long", "duplicates", "one_token", "many_vendors")))
    if shape == "long":
        words = st.sampled_from(_WORDS)
        titles = draw(st.lists(st.lists(words, min_size=8, max_size=12), min_size=1, max_size=6))
        vendors = draw(st.lists(st.integers(0, 3), min_size=len(titles), max_size=len(titles)))
    elif shape == "duplicates":
        words = st.sampled_from(_WORDS[: draw(st.integers(2, 6))])
        base = draw(st.lists(st.lists(words, min_size=2, max_size=6), min_size=1, max_size=4))
        picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=2, max_size=30))
        rng = random.Random(len(picks))
        titles = [rng.sample(base[i], len(base[i])) for i in picks]
        vendors = list(range(len(titles)))
    elif shape == "one_token":
        words = st.sampled_from(_WORDS[:8])
        titles = draw(st.lists(st.lists(words, min_size=1, max_size=3), min_size=1, max_size=20))
        vendors = [0] * len(titles)
    else:
        words = st.sampled_from(_WORDS)
        titles = draw(st.lists(st.lists(words, min_size=2, max_size=7), min_size=20, max_size=60))
        vendors = list(range(len(titles)))
    return tiny_dataset([" ".join(t) for t in titles], vendors)


@settings(max_examples=60, deadline=None)
@given(
    corpora(),
    st.integers(min_value=2, max_value=5),
    st.sampled_from(("squared", "euclidean")),
    st.sampled_from(("upm", "upm+")),
)
def test_index_matches_scalar_reference(ds, k, mode, variant):
    assert_matches_reference(build_index(ds, k=k, variant=variant, distance_mode=mode))


@settings(max_examples=40, deadline=None)
@given(corpora(), st.integers(min_value=2, max_value=5), st.sampled_from((1, 2, 3, 7)))
def test_small_batches_build_the_same_index(ds, k, batch):
    # batches cut the neighbour comparison and d_acc's scan; np.add.at adds
    # in the order given, so every euclidean sum keeps its position order
    default = build_index(ds, k=k, distance_mode="euclidean")
    assume(len(default.forward.buckets) > 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "_BATCH", batch)
        small = build_index(ds, k=k, distance_mode="euclidean")
    assert_same_columns(small, default)
    assert small.combos.d_acc.tobytes() == default.combos.d_acc.tobytes()


@settings(max_examples=30, deadline=None)
@given(corpora(), st.integers(min_value=2, max_value=5))
def test_wide_keys_build_the_same_index(ds, k):
    # keys and positions past the bit budget are argsorted beside a position
    # column; a budget of 0 sends every size there
    for mode in ("squared", "euclidean"):
        default = build_index(ds, k=k, distance_mode=mode)
        assume(len(default.forward.buckets) > 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(index_module, "_BITS", 0)
            wide = build_index(ds, k=k, distance_mode=mode)
        assert_same_columns(wide, default)
        assert wide.combos.d_acc.tobytes() == default.combos.d_acc.tobytes()


def _word(i):
    """The i-th four-letter lower-case word."""
    letters = []
    for _ in range(4):
        i, r = divmod(i, 26)
        letters.append(string.ascii_lowercase[r])
    return "".join(letters)


def test_index_matches_reference_past_64_bit_keys():
    # more than 8192 distinct tokens: five 14-bit IDs need 70 bits
    rng = random.Random(13)
    shared = [_word(i) for i in range(40)]
    fresh = iter(_word(i) for i in range(40, 40 + 4 * 2300))
    titles = [rng.sample(shared, 2) + [next(fresh) for _ in range(4)] for _ in range(2300)]
    # repeats in shuffled word order, so high-ID five-token keys recur
    titles += [rng.sample(t, len(t)) for t in rng.sample(titles, 300)]
    ds = tiny_dataset([" ".join(t) for t in titles])
    idx = build_index(ds, k=5)
    assert len(idx.tokens) > 8192
    five = idx.combos.records(5)
    five = five[idx.combos.f_c[five] > 1]
    assert max(max(idx.combos.ids_of(i)) for i in five) >= 8192
    assert_matches_reference(idx)


def test_index_memory_per_instance_is_bounded():
    # 2.4M instances at K=5 peak at 10.6 bytes each, when the last size
    # scatters its ranks: its kept instances' compacted int64 column of
    # sorted positions and their int32 ranks, beside the int32 record-ID
    # columns of every size
    ds = long_title_dataset(1000, seed=5)
    analyzed = analyze_dataset(ds)
    for table in (position_patterns, drop_patterns, pattern_distances):
        table.cache_clear()
    tracemalloc.start()
    try:
        idx = build_index(ds, k=5, analyzed=analyzed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / idx.stats.combination_instances <= 11


def test_first_lookup_memory_per_instance_is_bounded():
    # the first ids_of fills every size's int32 key table in one batched scan
    # of the views: 2.4M instances at K=5 peak at 4.9 bytes each, 2.7 of
    # them the tables, which stay
    idx = build_index(long_title_dataset(1000, seed=5), k=5)
    tracemalloc.start()
    try:
        idx.combos.ids_of(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / idx.stats.combination_instances <= 5.2


def test_only_instances_whose_every_subset_repeats_are_ranked():
    # support is downward-closed: an instance with a unique size-(k-1) subset
    # is unique, so it is never ranked. Outputs alone would not show a build
    # that ranks such instances, so the ranked column lengths are pinned.
    ds = long_title_dataset(1000, seed=5)
    ranked = []
    rank_values = index_module._rank_values

    def spy(values, *args):
        ranked.append(len(values))
        return rank_values(values, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "_rank_values", spy)
        idx = build_index(ds, k=5)
    kept, instances = [], []
    for kk in range(2, 6):
        instances.append(len(idx.forward.combo_columns[kk - 2]))
        if kk == 2:
            # a size-1 subset is a token, which always has an ID
            kept.append(instances[-1])
            continue
        count = 0
        for (l, _), views in zip(idx.forward.buckets, idx.forward.combo_views):
            if l >= kk:
                # the size-(kk-1) view of the bucket
                subsets = views[kk - 3][:, drop_patterns(l, kk)]
                count += int((subsets.min(axis=2) >= 0).sum())
        kept.append(count)
    assert ranked == kept
    # every size above 2 prunes
    assert all(k < n for k, n in zip(kept[1:], instances[1:])), (kept, instances)


def test_analyze_dataset_leaves_no_per_title_objects():
    # the corpus is columns: a handful of GC-tracked objects, not a few per title
    ds = efficiency_dataset(5000, seed=5)
    gc.collect()
    before = len(gc.get_objects())
    corpus = analyze_dataset(ds)
    added = len(gc.get_objects()) - before
    assert len(corpus) == ds.title_count
    assert added < 1000


def test_id_overflow_error_gives_the_count():
    with pytest.raises(OverflowError, match="^2147483649 combination records overflow"):
        index_module._check_int32(2**31 + 1, "combination records")
    index_module._check_int32(2**31, "combination records")


def _assert_ranks_like_unique(values, positions, offset=0):
    # numpy's unique, restricted to the keys that occur more than once; the
    # keys sit at ascending positions, with gaps where instances were pruned
    pos_bits = int(positions.max(initial=0)).bit_length()
    column = values.copy()
    if int(values.max(initial=0)).bit_length() + pos_bits <= index_module._BITS:
        column <<= pos_bits
        column |= positions
        counts, ranks = index_module._rank_values(column, pos_bits, offset)
    else:
        counts, ranks = index_module._rank_values(column, 0, offset, positions)
    _, want_inverse, want_counts = np.unique(values, return_inverse=True, return_counts=True)
    repeated = want_counts > 1
    want_index = np.where(repeated, np.cumsum(repeated) - 1 + offset, -1)[want_inverse.ravel()]
    assert counts.dtype == np.int64
    assert ranks.dtype == np.int32
    assert np.array_equal(counts, want_counts[repeated])
    # the column is left holding the sorted positions, ascending within a run
    assert np.array_equal(column, positions[np.argsort(values, kind="stable")])
    index = np.full(int(positions.max(initial=-1)) + 1, -2, dtype=np.int32)
    index[column] = ranks
    assert np.array_equal(index[positions], want_index)


# (7, 7) makes every value equal and (0, 1), (0, 3) repeat heavily; from
# 2**60 the key bits plus the position bits can pass 63, and from 2**62
# they always do once there are two positions, which argsorts instead
_RANK_RANGES = ((7, 7), (0, 1), (0, 3), (0, 2**31), (2**60, 2**61), (2**62, 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_RANK_RANGES).flatmap(
        lambda bounds: st.lists(
            st.tuples(st.integers(*bounds), st.integers(1, 4)), max_size=300
        )
    ),
    st.integers(0, 2**20),
    st.sampled_from((1, 3, index_module._BATCH)),
)
def test_rank_values_matches_unique(cells, offset, batch):
    # each cell is a key and the gap to its position from the one before
    values = np.array([key for key, _ in cells], dtype=np.int64)
    positions = np.cumsum([gap for _, gap in cells], dtype=np.int64) - 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "_BATCH", batch)
        _assert_ranks_like_unique(values, positions, offset)


@pytest.mark.parametrize("width", [61, 62])
def test_rank_values_on_both_sides_of_the_63_bit_budget(width):
    # positions up to 3 need two bits: 61 + 2 bits sort in place, 62 + 2 argsort
    values = np.array([2**width - 1, 5, 2**width - 1, 0], dtype=np.int64)
    positions = np.arange(4)
    assert int(values.max()).bit_length() + int(positions.max()).bit_length() == width + 2
    _assert_ranks_like_unique(values, positions)
