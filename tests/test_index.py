"""Lexicon and forward-index construction."""

from __future__ import annotations

import itertools
import json
import math
import random
import string
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from titlematch import index as index_module
from titlematch.combinatorics import (
    count_combinations,
    drop_patterns,
    pattern_distances,
    position_patterns,
)
from titlematch.index import analyze_dataset, build_index, load_index, resolve_k, save_index
from titlematch.ingest import Dataset, RawProduct
from titlematch.scoring import ScoringConfig, select_clusters
from titlematch.synth import long_title_dataset, planted_dataset
from titlematch.textprep import analyze_title, truncate_for_variant

from helpers import (
    Combination,
    assert_key_signatures,
    combo_rows,
    distance,
    generate_combinations,
    token_rows,
)

DATA = Path(__file__).parent / "data"


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
    ds = tiny_dataset(["aa bb cc"])
    idx = build_index(ds, k=2)
    assert len(idx.tokens) == 3
    assert idx.tokens.f_w.tolist() == [1, 1, 1]
    assert len(idx.combos) == 3


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
    """Oracle: recompute f_c and d_acc per combination with plain loops."""
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
    assert len(expected) == len(idx.combos)
    for i in range(len(idx.combos)):
        key = tuple(idx.combos.ids_of(i))
        f, acc = expected[key]
        assert idx.combos.f_c[i] == f
        assert idx.combos.d_acc[i] == acc


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


def assert_same_columns(a, b):
    """Every column of two indexes, plus their settings, stats and products."""
    assert (a.k, a.variant, a.distance_mode) == (b.k, b.variant, b.distance_mode)
    assert a.stats == b.stats
    assert a.dataset.products == b.dataset.products
    assert a.tokens.surfaces == b.tokens.surfaces
    for name in ("f_w", "s_w"):
        assert np.array_equal(getattr(a.tokens, name), getattr(b.tokens, name)), name
    for name in ("f_c", "d_acc", "k", "key_flat", "key_offsets"):
        assert np.array_equal(getattr(a.combos, name), getattr(b.combos, name)), name
    assert a.forward.product_ids == b.forward.product_ids
    assert a.forward.vendor_ids == b.forward.vendor_ids
    for name in ("tok_flat", "sem_flat", "tok_offsets"):
        assert np.array_equal(getattr(a.forward, name), getattr(b.forward, name)), name
    assert len(a.forward.combo_blocks) == len(b.forward.combo_blocks)
    for ba, bb in zip(a.forward.combo_blocks, b.forward.combo_blocks):
        assert ba.shape == bb.shape and np.array_equal(ba, bb)


def test_snapshot_round_trip(tmp_path):
    ds = planted_dataset(n_clusters=8, n_vendors=5, seed=11)
    ds.products.append(RawProduct(999, "widget", 0, None))
    for variant, mode in [("upm", "squared"), ("upm+", "euclidean")]:
        idx = build_index(ds, variant=variant, distance_mode=mode)
        path = tmp_path / f"{variant}.npz"
        save_index(idx, path)
        assert_same_columns(load_index(path), idx)


def snapshot_corpus():
    """The corpus of tests/data/index_v1.npz: 40 planted titles and one
    one-token title, indexed with k=3."""
    ds = planted_dataset(n_clusters=9, n_vendors=4, seed=21)
    return Dataset(products=ds.products + [RawProduct(9001, "widget", 0, 999)])


def test_v1_snapshot_loads_as_fresh_build():
    # written by the release that stored per-product forward lists
    loaded = load_index(DATA / "index_v1.npz")
    fresh = build_index(snapshot_corpus(), k=3)
    assert loaded.stats.title_count == 41
    assert_same_columns(loaded, fresh)
    got, want = (select_clusters(idx, ScoringConfig()) for idx in (loaded, fresh))
    for name in ("assignment", "pi", "key", "s1"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_snapshot_v2_stores_no_signatures(tmp_path):
    path = tmp_path / "index.npz"
    save_index(build_index(snapshot_corpus(), k=3), path)
    with np.load(path) as z:
        assert json.loads(bytes(z["meta"]).decode("utf-8"))["version"] == 2
        assert "combo_sigs" not in z.files
    with np.load(DATA / "index_v1.npz") as z:
        assert "combo_sigs" in z.files


def test_snapshot_rejects_unsupported_version(tmp_path):
    path = tmp_path / "index.npz"
    save_index(build_index(snapshot_corpus(), k=3), path)
    with np.load(path) as z:
        arrays = dict(z)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["version"] = 3
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="snapshot version 3 unsupported"):
        load_index(path)


def test_snapshot_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, meta=np.frombuffer(b'{"format": "something-else"}', dtype=np.uint8))
    with pytest.raises(ValueError, match="snapshot"):
        load_index(path)


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

    Titles come from analyze_dataset and truncate_for_variant, token IDs from
    interning their surfaces in first-encounter order. Titles are visited by
    ascending length, file order within a length: the order the index sums
    d_acc in, so even euclidean sums compare exactly. Returns (the titles,
    the token IDs, {key: (f_c, d_acc)}, each product's keys in
    enumeration order).
    """
    titles = [
        truncate_for_variant(t, index.variant, index.k) for t in analyze_dataset(index.dataset)
    ]
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
    keys = [tuple(combos.ids_of(i)) for i in range(len(combos))]
    assert keys == sorted(expected, key=lambda key: (len(key), key))
    for i, key in enumerate(keys):
        f, d = expected[key]
        assert combos.k[i] == len(key)
        assert combos.f_c[i] == f, key
        assert combos.d_acc[i] == d, key
    for p, row in enumerate(combo_rows(index.forward)):
        assert [keys[r] for r in row] == keys_of[p], f"product {p}"
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
    five = np.flatnonzero((idx.combos.k == 5) & (idx.combos.f_c > 1))
    assert max(max(idx.combos.ids_of(i)) for i in five) >= 8192
    assert_matches_reference(idx)


def test_index_memory_per_instance_is_bounded():
    # 2.4M instances at K=5 peak at about 50 bytes each, while the last size
    # is grouped; parts of a size kept alive past it push that to about 60
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
    assert peak / idx.stats.combination_instances <= 56


def test_id_overflow_error_gives_the_count():
    with pytest.raises(OverflowError, match="^2147483649 combination records overflow"):
        index_module._check_int32(2**31 + 1, "combination records")
    index_module._check_int32(2**31, "combination records")
