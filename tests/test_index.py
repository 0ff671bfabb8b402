"""Lexicon and forward-index construction."""

from __future__ import annotations

import itertools
import math
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from titlematch.combinatorics import (
    Combination,
    count_combinations,
    generate_combinations,
    signature,
)
from titlematch.index import build_index, distance, load_index, resolve_k, save_index
from titlematch.ingest import Dataset, RawProduct
from titlematch.synth import planted_dataset
from titlematch.textprep import analyze_title


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
    assert all(r.f_w == 1 for r in idx.tokens.records)
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
    for p in range(len(idx.forward)):
        l_t = idx.forward.length_of(p)
        assert len(idx.forward.combo_rows[p]) == count_combinations(l_t, idx.k)


def test_token_frequency_balance():
    ds = planted_dataset(n_clusters=8, n_vendors=5, seed=3)
    idx = build_index(ds)
    total_refs = sum(len(r) for r in idx.forward.token_rows)
    assert total_refs == sum(r.f_w for r in idx.tokens.records)


def brute_force_accumulators(index):
    """Oracle: recompute f_c and d_acc per combination with plain loops."""
    expected = {}
    for p in range(len(index.forward)):
        ids = index.forward.token_rows[p].tolist()
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


def test_stored_signatures_match_keys():
    ds = planted_dataset(n_clusters=10, n_vendors=6, seed=6)
    idx = build_index(ds)
    for i in range(len(idx.combos)):
        assert signature(idx.combos.ids_of(i)).value == idx.combos.sigs[i]
    assert idx.stats.collisions_resolved == 0


def test_build_is_deterministic():
    ds = planted_dataset(n_clusters=12, n_vendors=6, seed=7)
    a = build_index(ds)
    b = build_index(ds)
    assert [r.surface for r in a.tokens.records] == [r.surface for r in b.tokens.records]
    assert [r.f_w for r in a.tokens.records] == [r.f_w for r in b.tokens.records]
    assert np.array_equal(a.combos.sigs, b.combos.sigs)
    assert np.array_equal(a.combos.f_c, b.combos.f_c)
    assert np.array_equal(a.combos.d_acc, b.combos.d_acc)
    for ra, rb in zip(a.forward.combo_rows, b.forward.combo_rows):
        assert np.array_equal(ra, rb)


def test_k_resolution():
    assert resolve_k(8.56) == 4
    assert resolve_k(11.285) == 5
    assert resolve_k(6.819) == 3
    assert resolve_k(1.0) == 2  # clamped; combinations need k >= 2
    ds = planted_dataset(n_clusters=10, n_vendors=6, seed=8)
    idx = build_index(ds)
    analyzed_avg = sum(t.length for t in idx.analyzed) / len(idx.analyzed)
    assert idx.k == max(2, int(analyzed_avg / 2))


def test_variant_truncates_titles():
    ds = planted_dataset(n_clusters=10, n_vendors=6, noise_per_listing=(5, 9), seed=9)
    base = build_index(ds, k=3, variant="upm")
    pruned = build_index(ds, k=3, variant="upm+")
    assert all(t.length <= 6 for t in pruned.analyzed)
    assert pruned.stats.combination_instances < base.stats.combination_instances


def test_avg_combination_len_in_range():
    ds = planted_dataset(n_clusters=10, n_vendors=6, seed=10)
    idx = build_index(ds)
    assert 2.0 <= idx.stats.avg_combination_len <= idx.k


def test_snapshot_round_trip(tmp_path):
    ds = planted_dataset(n_clusters=8, n_vendors=5, seed=11)
    idx = build_index(ds)
    path = tmp_path / "index.npz"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded.k == idx.k and loaded.variant == idx.variant
    assert loaded.stats == idx.stats
    assert [r.surface for r in loaded.tokens.records] == [
        r.surface for r in idx.tokens.records
    ]
    for name in ("sigs", "f_c", "d_acc", "k", "key_flat", "key_offsets"):
        assert np.array_equal(getattr(loaded.combos, name), getattr(idx.combos, name)), name
    for ra, rb in zip(loaded.forward.combo_rows, idx.forward.combo_rows):
        assert np.array_equal(ra, rb)
    assert [p.title for p in loaded.dataset.products] == [
        p.title for p in idx.dataset.products
    ]
    assert loaded.analyzed == idx.analyzed


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
    """Oracle over generate_combinations + signature + distance.

    Titles are visited by ascending length, file order within a length: the
    order the index sums d_acc in, so even euclidean sums compare exactly.
    Returns ({key: (f_c, d_acc, signature)}, each product's keys in
    enumeration order).
    """
    records = {}
    keys_of = [[] for _ in index.analyzed]
    order = sorted(range(len(index.analyzed)), key=lambda p: index.analyzed[p].length)
    for p in order:
        title = index.analyzed[p]
        if title.length < 2:
            continue
        for c in generate_combinations(title, index.k):
            ids = [index.tokens.id_of(surface) for surface in c.surfaces]
            key = tuple(sorted(ids))
            f, d, _ = records.get(key, (0, 0.0, None))
            records[key] = (
                f + 1,
                d + distance(c, title, index.distance_mode),
                signature(ids).value,
            )
            keys_of[p].append(key)
    return records, keys_of


def assert_matches_reference(index):
    expected, keys_of = scalar_reference(index)
    combos = index.combos
    keys = [tuple(combos.ids_of(i)) for i in range(len(combos))]
    assert keys == sorted(expected, key=lambda key: (len(key), key))
    for i, key in enumerate(keys):
        f, d, sig = expected[key]
        assert combos.k[i] == len(key)
        assert combos.f_c[i] == f, key
        assert combos.d_acc[i] == d, key
        assert combos.sigs[i] == sig, key
    for p, row in enumerate(index.forward.combo_rows):
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
