"""Lexicon and forward-index construction."""

from __future__ import annotations

import gc
import itertools
import json
import math
import random
import re
import string
import tracemalloc
from collections import Counter
from dataclasses import asdict
from pathlib import Path

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
from titlematch.index import analyze_dataset, build_index, load_index, resolve_k, save_index
from titlematch.ingest import Dataset, RawProduct
from titlematch.pipeline import run_match
from titlematch.scoring import ScoringConfig, select_clusters
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
    assert any(len(table) == 0 for table in idx.combos.keys)
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


def test_snapshot_round_trip(tmp_path):
    ds = planted_dataset(n_clusters=8, n_vendors=5, seed=11)
    ds.products.append(RawProduct(999, "widget", 0, None))
    # K=5 keeps key tables of three widths or more, each stored as its own member
    cases = [("upm", "squared", None), ("upm+", "euclidean", None), ("upm", "squared", 5)]
    for variant, mode, k in cases:
        idx = build_index(ds, k=k, variant=variant, distance_mode=mode)
        path = tmp_path / f"{variant}-{k}.npz"
        save_index(idx, path)
        assert_same_columns(load_index(path), idx)


def snapshot_corpus():
    """The corpus of tests/data/index_v1.npz, index_v2.npz and index_v3.npz:
    40 planted titles and one one-token title, indexed with k=3."""
    ds = planted_dataset(n_clusters=9, n_vendors=4, seed=21)
    return Dataset(products=ds.products + [RawProduct(9001, "widget", 0, 999)])


def stored_stats(name):
    """The stats a v1 or v2 snapshot stored in its meta, without the
    always-0 collisions_resolved; None for a later version."""
    with np.load(DATA / name) as z:
        stats = json.loads(bytes(z["meta"]).decode("utf-8")).get("stats")
    if stats is not None:
        stats.pop("collisions_resolved", None)
    return stats


def assert_legacy_snapshot_loads_as_fresh_build(name):
    path = DATA / name
    loaded = load_index(path)
    fresh = build_index(snapshot_corpus(), k=3)
    assert loaded.stats.title_count == 41
    assert_same_columns(loaded, fresh)
    # v3 stores no stats; index_v2.npz stored those of the same corpus
    assert asdict(loaded.stats) == (stored_stats(name) or stored_stats("index_v2.npz"))
    got, want = (select_clusters(idx, ScoringConfig()) for idx in (loaded, fresh))
    for name in ("assignment", "pi", "key", "s1"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_v1_snapshot_loads_as_fresh_build():
    # written by the release that stored per-product forward lists
    assert_legacy_snapshot_loads_as_fresh_build("index_v1.npz")


def test_v2_snapshot_loads_as_fresh_build():
    # written by the release that stored flat combo and key columns
    assert_legacy_snapshot_loads_as_fresh_build("index_v2.npz")


def test_v3_snapshot_loads_as_fresh_build():
    # written by the release that kept a record for every key, unique ones too
    with np.load(DATA / "index_v3.npz") as z:
        assert (z["combo_f"] == 1).any()
    assert_legacy_snapshot_loads_as_fresh_build("index_v3.npz")


def test_snapshot_stores_the_held_columns(tmp_path):
    path = tmp_path / "index.npz"
    idx = build_index(snapshot_corpus(), k=3)
    assert (np.concatenate(idx.forward.combo_blocks, axis=None) < 0).any()
    save_index(idx, path)
    with np.load(path) as z:
        meta = json.loads(bytes(z["meta"]).decode("utf-8"))
        assert meta["version"] == 4 and "stats" not in meta
        legacy = ("combo_sigs", "combo_flat", "combo_offsets", "combo_k", "key_flat", "key_offsets")
        assert not set(legacy) & set(z.files)
        assert sorted(n for n in z.files if n.startswith("keys_")) == ["keys_2", "keys_3"]
        for k, table in enumerate(idx.combos.keys, start=2):
            assert z[f"keys_{k}"].dtype == np.int32 and np.array_equal(z[f"keys_{k}"], table)
        blocks = [n for n in z.files if n.startswith("block_")]
        assert len(blocks) == len(idx.forward.buckets) == len(idx.forward.combo_blocks)
        for b, block in enumerate(idx.forward.combo_blocks):
            assert z[f"block_{b}"].dtype == np.int32 and np.array_equal(z[f"block_{b}"], block)


def test_snapshot_writes_exactly_the_given_path(tmp_path):
    # numpy's savez appends .npz to a path without that suffix
    idx = build_index(snapshot_corpus(), k=3)
    path = tmp_path / "snap"
    save_index(idx, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap"]
    assert_same_columns(load_index(path), idx)
    assert_same_columns(load_index(str(path)), idx)


def test_snapshot_rejects_unsupported_version(tmp_path):
    path = tmp_path / "index.npz"
    save_index(build_index(snapshot_corpus(), k=3), path)
    with np.load(path) as z:
        arrays = dict(z)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["version"] = 5
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="snapshot version 5 unsupported"):
        load_index(path)


def _rewrite_meta(path, edit) -> None:
    """Save index.npz again with edit applied to its meta object."""
    with np.load(path) as z:
        arrays = dict(z)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


@pytest.mark.parametrize(
    "version, shown", [(True, "True"), (1.0, "1.0"), ("4", "'4'")], ids=["true", "float", "string"]
)
def test_snapshot_version_must_be_an_int(tmp_path, version, shown):
    # true == 1 and 1.0 == 1 in Python, yet neither is a version number
    path = tmp_path / "index.npz"
    save_index(build_index(snapshot_corpus(), k=3), path)
    _rewrite_meta(path, lambda meta: meta.update(version=version))
    expected = f"snapshot version {shown} unsupported (expected one of (1, 2, 3, 4)): {path}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        load_index(path)


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("k", "3", "snapshot k '3' is not an integer >= 2"),
        ("k", 1, "snapshot k 1 is not an integer >= 2"),
        ("k", True, "snapshot k True is not an integer >= 2"),
        ("k", 2.0, "snapshot k 2.0 is not an integer >= 2"),
        (
            "distance_mode",
            "manhattan",
            "snapshot distance_mode 'manhattan' unknown (expected one of ('squared', 'euclidean'))",
        ),
    ],
    ids=["k-string", "k-one", "k-true", "k-float", "distance-mode"],
)
def test_snapshot_meta_fields_are_checked(tmp_path, field, value, shown):
    # a meta value of the wrong type or out of range names the file
    path = tmp_path / "index.npz"
    save_index(build_index(snapshot_corpus(), k=3), path)
    _rewrite_meta(path, lambda meta: meta.update({field: value}))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{shown}: {path}')}$"):
        load_index(path)


@pytest.mark.parametrize("field", ["k", "variant", "distance_mode"])
def test_snapshot_meta_without_a_field_is_foreign(tmp_path, field):
    path = tmp_path / "index.npz"
    save_index(build_index(snapshot_corpus(), k=3), path)
    _rewrite_meta(path, lambda meta: meta.pop(field))
    with pytest.raises(ValueError, match=f"^not a titlematch-index snapshot: {re.escape(str(path))}$"):
        load_index(path)


def test_snapshot_keeps_negative_truth_clusters(tmp_path):
    # feeds may name negative cluster IDs; only None means no truth cluster
    titles = ["alpha beta gamma", "beta gamma delta", "gamma delta epsilon"]
    path = tmp_path / "index.npz"
    for truth in ([-1, -1, 4], [None, -1, 4]):
        products = [RawProduct(i, t, i, c) for i, (t, c) in enumerate(zip(titles, truth))]
        ds = Dataset(products=products)
        idx = build_index(ds, k=2)
        save_index(idx, path)
        loaded = load_index(path)
        assert [p.truth_cluster_id for p in loaded.dataset.products] == truth
        assert loaded.dataset.has_truth == ds.has_truth
        assert_same_columns(loaded, idx)
    # a snapshot without truth_known wrote -1 for an unknown truth cluster
    with np.load(path) as z:
        arrays = {name: z[name] for name in z.files if name != "truth_known"}
    np.savez(path, **arrays)
    assert [p.truth_cluster_id for p in load_index(path).dataset.products] == [None, None, 4]


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


def test_snapshot_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, meta=np.frombuffer(b'{"format": "something-else"}', dtype=np.uint8))
    with pytest.raises(ValueError, match="snapshot"):
        load_index(path)
    # an .npz without meta, a feed, an .npy array and an empty file
    np.savez(tmp_path / "bare.npz", product_ids=np.arange(3))
    (tmp_path / "feed.csv").write_text("product_id,title,vendor_id\n1,acme toaster,0\n")
    np.save(tmp_path / "array.npy", np.arange(3))
    (tmp_path / "empty").write_bytes(b"")
    for name in ("bare.npz", "feed.csv", "array.npy", "empty"):
        path = tmp_path / name
        with pytest.raises(ValueError, match=f"^not a titlematch-index snapshot: {re.escape(str(path))}$"):
            load_index(path)
    with pytest.raises(FileNotFoundError):
        load_index(tmp_path / "missing.npz")


@pytest.mark.parametrize("meta", [b"[1]", b"\xff\xfe"], ids=["json-list", "not-utf8"])
def test_snapshot_rejects_malformed_meta(tmp_path, meta):
    # JSON that is not an object, and bytes that are not UTF-8
    path = tmp_path / "index.npz"
    np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8))
    with pytest.raises(ValueError, match=f"^not a titlematch-index snapshot: {re.escape(str(path))}$"):
        load_index(path)


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
    # the keys with f_c >= 2 are the records; a unique key's cells hold -1
    keys = [tuple(combos.ids_of(i)) for i in range(len(combos))]
    shared = [key for key, (f, _) in expected.items() if f > 1]
    assert keys == sorted(shared, key=lambda key: (len(key), key))
    assert combos.sizes(np.arange(len(combos))).tolist() == [len(key) for key in keys]
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
    # batches cut the neighbour comparison and d_acc's bincounts; each batch
    # holds whole runs, so every euclidean sum keeps its position order
    default = build_index(ds, k=k, distance_mode="euclidean")
    assume(len(default.forward.buckets) > 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "_BATCH", batch)
        small = build_index(ds, k=k, distance_mode="euclidean")
    assert_same_columns(small, default)
    assert small.combos.d_acc.tobytes() == default.combos.d_acc.tobytes()


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
    # 2.4M instances at K=5 peak at 20.9 bytes each, while the last size sums
    # d_acc: its packed column holds the permutation (8 bytes a cell), beside
    # the int32 ranks and the int32 cell buffer, plus the blocks of every size
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
    assert peak / idx.stats.combination_instances <= 24


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


def _assert_ranks_like_unique(values, offset=0):
    # numpy's unique, restricted to the values that occur more than once
    column = values.copy()
    distinct, starts, counts, ranks = index_module._rank_values(column, offset)
    want_distinct, want_inverse, want_counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    repeated = want_counts > 1
    want_index = np.where(repeated, np.cumsum(repeated) - 1 + offset, -1)[want_inverse.ravel()]
    assert distinct.dtype == starts.dtype == counts.dtype == np.int64
    assert ranks.dtype == np.int32
    assert np.array_equal(distinct, want_distinct[repeated])
    assert np.array_equal(counts, want_counts[repeated])
    # the column is left holding the permutation, ascending within a run,
    # and each run's head has its record's rank
    assert np.array_equal(column, np.argsort(values, kind="stable"))
    assert np.array_equal(ranks[starts], offset + np.arange(len(starts)))
    index = np.empty(len(values), dtype=np.int32)
    index[column] = ranks
    assert np.array_equal(index, want_index)


# (7, 7) makes every value equal and (0, 1), (0, 3) repeat heavily; from
# 2**60 the value bits plus the position bits can pass 63, and from 2**62
# they always do once there are two values, which argsorts instead
_RANK_RANGES = ((7, 7), (0, 1), (0, 3), (0, 2**31), (2**60, 2**61), (2**62, 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_RANK_RANGES).flatmap(
        lambda bounds: st.lists(st.integers(*bounds), max_size=300)
    ),
    st.integers(0, 2**20),
    st.sampled_from((1, 3, index_module._BATCH)),
)
def test_rank_values_matches_unique(values, offset, batch):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "_BATCH", batch)
        _assert_ranks_like_unique(np.array(values, dtype=np.int64), offset)


@pytest.mark.parametrize("width", [61, 62])
def test_rank_values_on_both_sides_of_the_63_bit_budget(width):
    # four values need two position bits: 61 + 2 bits sort in place, 62 + 2 argsort
    values = np.array([2**width - 1, 5, 2**width - 1, 0], dtype=np.int64)
    assert int(values.max()).bit_length() + (len(values) - 1).bit_length() == width + 2
    _assert_ranks_like_unique(values)
