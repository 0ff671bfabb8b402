"""Combination scoring, cluster selection, and universe grouping."""

from __future__ import annotations

import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from titlematch import scoring as scoring_module
from titlematch.combinatorics import drop_patterns, pattern_distances, position_patterns
from titlematch.index import analyze_dataset, build_index
from titlematch.ingest import Dataset, RawProduct
from titlematch.pipeline import run_match
from titlematch.scoring import ClusterUniverse, ScoringConfig, select_clusters
from titlematch.synth import long_title_dataset, planted_dataset
from titlematch.textprep import Semantics

from helpers import (
    CombinationRecord,
    assert_same_columns,
    avg_distance,
    cluster_state,
    combination_score,
    field_population,
    field_weight,
    ir_score,
    lone_title_choice,
    object_universe,
    signature,
    token_rows,
)


def record(f_c=1, d_acc=0.0, k=2, ids=(0, 1)):
    return CombinationRecord(index=0, key_ids=tuple(ids), f_c=f_c, d_acc=d_acc, k=k)


def tiny_dataset(titles, vendors=None):
    vendors = vendors or list(range(len(titles)))
    return Dataset(
        products=[RawProduct(i + 1, t, vendors[i], None) for i, t in enumerate(titles)]
    )


# ---------------------------------------------------------------------------
# scalar scoring pieces
# ---------------------------------------------------------------------------


def test_avg_distance_zero():
    assert avg_distance(record(f_c=3, d_acc=0.0)) == 0.0


def test_avg_distance_division():
    assert avg_distance(record(f_c=2, d_acc=6.0)) == 3.0


def test_avg_distance_accumulate_then_divide():
    r = record(f_c=2, d_acc=2.0 + 4.0)
    assert avg_distance(r) == 3.0


def test_field_weight_substitution():
    x = [2, 0, 0, 0, 0]
    assert field_weight(Semantics.ATTRIBUTE, x, 100) == 50.0


def test_field_weight_ratio_of_equals():
    x = [0, 0, 0, 0, 7]
    assert field_weight(Semantics.NORMAL, x, 7) == 1.0


def test_field_weight_monotone_in_population():
    w_small = field_weight(Semantics.NORMAL, [0, 0, 0, 0, 2], 100)
    w_large = field_weight(Semantics.NORMAL, [0, 0, 0, 0, 5], 100)
    assert w_small > w_large


def test_field_weight_empty_field_is_error():
    with pytest.raises(ValueError):
        field_weight(Semantics.ATTRIBUTE, [0, 1, 1, 1, 1], 10)


def test_field_population_counts():
    x = field_population([1, 5, 5, 2, 4])
    assert x.tolist() == [1, 1, 0, 1, 2]


def test_ir_score_denominator_cancels():
    # b=1 and k equal to the average combination length
    y = ir_score([1.0, 2.0], [3.0, 4.0], k=3, avg_combination_len=3.0, b=1.0)
    assert y == 1.0 * 3.0 + 2.0 * 4.0


def test_ir_score_ubiquitous_token_contributes_nothing():
    idf = math.log(10 / 10)
    y = ir_score([idf], [5.0], k=2, avg_combination_len=2.0, b=1.0)
    assert y == 0.0


def test_ir_score_b_zero_removes_length_normalization():
    y2 = ir_score([1.0], [1.0], k=2, avg_combination_len=3.0, b=0.0)
    y5 = ir_score([1.0], [1.0], k=5, avg_combination_len=3.0, b=0.0)
    assert y2 == y5 == 1.0


def test_combination_score_unique_combination_is_zero():
    assert combination_score(record(f_c=1, d_acc=0.0), y_c=7.0) == 0.0


def test_combination_score_head_combination():
    r = record(f_c=4, d_acc=0.0)
    assert combination_score(r, y_c=2.0, alpha=1.0) == 4.0 * math.log(4)


def test_combination_score_monotone_in_frequency():
    lo = combination_score(record(f_c=2, d_acc=4.0), y_c=1.5)
    hi = combination_score(record(f_c=4, d_acc=8.0), y_c=1.5)  # same mean distance
    assert hi > lo


def test_combination_score_finite_for_positive_alpha():
    r = record(f_c=1000, d_acc=0.0)
    assert math.isfinite(combination_score(r, y_c=1e9, alpha=1e-6))


# ---------------------------------------------------------------------------
# universe grouping
# ---------------------------------------------------------------------------


def universe_of(chosen, vendor, s1, token=None):
    token = [0] * len(chosen) if token is None else token
    return ClusterUniverse.from_choices(
        np.array(chosen, dtype=np.int64),
        np.array(token, dtype=np.int64),
        np.array(vendor, dtype=np.int64),
        np.array(s1, dtype=np.float64),
    )


def test_universe_first_insert_sets_representative():
    u = universe_of([7], vendor=[4], s1=[1.5])
    assert len(u) == 1
    assert u.clusters[0].pi == 0
    assert list(u.clusters[0].members) == [4]


def test_universe_lower_s1_keeps_representative():
    u = universe_of([7, 7], vendor=[4, 5], s1=[1.5, 1.0])
    assert u.clusters[0].pi == 0
    assert len(u.clusters[0].products) == 2


def test_universe_equal_s1_keeps_earlier():
    u = universe_of([7, 7], vendor=[4, 5], s1=[1.5, 1.5])
    assert u.clusters[0].pi == 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-1, max_value=5),  # chosen record, -1: none
            st.integers(min_value=-1, max_value=3),  # token, -1: none
            st.integers(min_value=0, max_value=3),  # vendor
            st.sampled_from([0.0, 0.5, 1.5, 2.0]),  # s1, ties likely
        ),
        max_size=40,
    )
)
def test_grouping_matches_insert_loop(rows):
    chosen, token, vendor, s1 = (list(col) for col in zip(*rows)) if rows else ([],) * 4
    u = universe_of(chosen, vendor, s1, token)
    ref = object_universe(chosen, token, vendor, s1)
    assert cluster_state(u) == cluster_state(ref)
    assert u.pi.tolist() == [c.pi for c in ref.clusters]
    assert u.key.tolist() == [-1 if isinstance(c.key, tuple) else c.key for c in ref.clusters]
    assert u.s1.tolist() == ref.s1


def test_s1_is_the_summed_idf_of_each_title_bit_for_bit():
    ds = long_title_dataset(300, seed=2)
    idx = build_index(ds, k=2)
    lengths = np.diff(idx.forward.tok_offsets)
    assert lengths.max() - lengths.min() >= 10
    universe = select_clusters(idx, ScoringConfig())
    fw = idx.forward
    expected = [float(idx.idf[fw.tokens_of(p)].sum()) for p in range(len(fw))]
    assert universe.s1.tolist() == expected


def test_s1_zero_when_every_token_everywhere():
    ds = tiny_dataset(["common words", "common words"])
    idx = build_index(ds, k=2)
    universe = select_clusters(idx, ScoringConfig())
    assert universe.s1.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# cluster selection
# ---------------------------------------------------------------------------


def test_shared_top_combination_matches_products():
    ds = tiny_dataset(
        [
            "acme kx900 grill 500w",
            "acme kx900 grill steel",
            "other thing entirely unrelated",
        ]
    )
    universe = select_clusters(build_index(ds, k=2), ScoringConfig())
    assert universe.assignment[0] == universe.assignment[1]
    assert universe.assignment[2] != universe.assignment[0]


def test_all_unique_corpus_yields_singletons():
    ds = tiny_dataset(["alpha beta gamma", "delta epsilon zeta", "eta theta iota"])
    universe = select_clusters(build_index(ds, k=2), ScoringConfig())
    assert len(universe) == 3
    assert sorted(universe.assignment) == [0, 1, 2]


def test_single_combination_product(monkeypatch):
    ds = tiny_dataset(["left right"])
    idx = build_index(ds, k=2)
    universe = select_clusters(idx, ScoringConfig())
    assert len(universe) == 1
    assert lone_title_choice(idx, monkeypatch) == (0, 1)


def test_all_zero_row_prefers_larger_k_then_smaller_signature(monkeypatch):
    # a lone title: every combination is unique and every idf is 0, so every
    # score and every Y is 0
    ds = tiny_dataset(["aa bb cc dd"])
    for k in (2, 3):
        idx = build_index(ds, k=k)
        keys = list(itertools.combinations(sorted(idx.forward.tokens_of(0).tolist()), k))
        want = min(keys, key=lambda ids: signature(ids).value)
        assert lone_title_choice(idx, monkeypatch) == want


def test_positive_tie_prefers_smaller_signature():
    # {aa, bb} and {aa, cc} tie on I(c), k and mean distance (0 + 1 over two
    # titles each); {bb, cc} sits farther from the head. The tied pair is
    # enumerated in opposite orders by the two titles, so only the signature
    # rule lets both pick the same key.
    ds = tiny_dataset(["aa bb cc", "aa cc bb", "xx yy", "zz ww"])
    idx = build_index(ds, k=2)
    universe = select_clusters(idx, ScoringConfig())
    ids = {s: i for i, s in enumerate(idx.tokens.surfaces)}
    tied = [(ids["aa"], ids["bb"]), (ids["aa"], ids["cc"])]
    assert signature(tied[0]).value != signature(tied[1]).value
    want = min(tied, key=lambda key: signature(key).value)
    for p in (0, 1):
        assert tuple(idx.combos.ids_of(universe.key[universe.assignment[p]])) == want


def test_unique_choices_found_their_own_clusters():
    # every combination of "aa bb" and of "cc dd" is unique, so each product's
    # all-zero choice has no record: it shares a cluster neither with the
    # one-token title of its first token nor with the other; the two "ee ff"
    # share record 0
    ds = tiny_dataset(["aa bb", "aa", "cc dd", "ee ff", "ee ff"])
    idx = build_index(ds, k=2)
    assert len(idx.combos) == 1 and idx.combos.ids_of(0) == [4, 5]
    for universe in (select_clusters(idx, ScoringConfig()), run_match(ds).universe):
        assert universe.assignment.tolist() == [0, 1, 2, 3, 3]
        assert universe.key.tolist() == [-1, -1, -1, 0]


def test_one_token_titles_cluster_by_token():
    ds = tiny_dataset(["ps4", "ps4", "ps5"], vendors=[0, 1, 2])
    universe = select_clusters(build_index(ds, k=2), ScoringConfig())
    assert universe.assignment[0] == universe.assignment[1]
    assert universe.assignment[2] != universe.assignment[0]


def test_every_product_assigned_exactly_once(fixture_200):
    idx = build_index(fixture_200)
    universe = select_clusters(idx, ScoringConfig())
    assert all(c >= 0 for c in universe.assignment)
    assert sum(len(c.products) for c in universe.clusters) == fixture_200.title_count
    seen = set()
    for cluster in universe.clusters:
        for p in cluster.products:
            assert p not in seen
            seen.add(p)
    assert len(seen) == fixture_200.title_count


def test_selection_leaves_index_unchanged():
    ds = planted_dataset(n_clusters=6, n_vendors=5, seed=3)
    idx = build_index(ds)
    assert len(idx.combos) > 0 and len(idx.forward.combo_columns) > 0
    before = copy.deepcopy(idx)
    select_clusters(idx, ScoringConfig())
    assert_same_columns(idx, before)


def test_scale_invariance_of_argmax():
    # multiplying every relevance score by a constant rescales every
    # combination score by its square, so the winner cannot change
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = rng.uniform(0.1, 5.0, size=8)
        f = rng.integers(1, 30, size=8).astype(float)
        d = rng.uniform(0.0, 10.0, size=8)
        base = (y**2) * np.log(f) / (1.0 + d / f)
        scaled = ((17.0 * y) ** 2) * np.log(f) / (1.0 + d / f)
        assert np.argmax(base) == np.argmax(scaled)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_relevance_is_a_left_to_right_sum(length, k_max, titles, data):
    # float addition is not associative: Y is pinned to one summation order
    values = st.lists(st.floats(0.0, 1e6), min_size=length, max_size=length)
    a = np.array(data.draw(st.lists(values, min_size=titles, max_size=titles)))
    b = data.draw(st.floats(0.0, 1.0))
    l_avg_c = data.draw(st.floats(2.0, 6.0))
    want = []
    for row in a.tolist():
        cols = []
        for k in range(2, min(k_max, length) + 1):
            den = 1.0 - b + b * k / l_avg_c
            for positions in itertools.combinations(range(length), k):
                y = row[positions[0]]
                for p in positions[1:]:
                    y += row[p]
                cols.append(y / den)
        want.append(cols)
    got = scoring_module._relevance(a, k_max, b, l_avg_c)
    assert got.shape == (titles, len(want[0]))
    assert got.tobytes() == np.array(want).tobytes()


def test_selection_memory_per_instance_is_bounded():
    # 2.4M instances at K=5: the quality column of the f_c >= 2 records, one
    # batch's Y, score and quality matrices and the pattern tables, above
    # the built index
    idx = build_index(long_title_dataset(1000, seed=5), k=5)
    for table in (position_patterns, drop_patterns):
        table.cache_clear()
    tracemalloc.start()
    try:
        select_clusters(idx, ScoringConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / idx.stats.combination_instances <= 3.9


def test_scoring_sets_no_memory_peak():
    # scoring's batches and quality column, on top of the built index, stay
    # below the peak of the build itself, which so sets a run's peak
    ds = long_title_dataset(1000, seed=5)
    analyzed = analyze_dataset(ds)
    for table in (position_patterns, drop_patterns, pattern_distances):
        table.cache_clear()
    tracemalloc.start()
    try:
        idx = build_index(ds, k=5, analyzed=analyzed)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        select_clusters(idx, ScoringConfig())
        scoring_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scoring_peak < build_peak


def test_config_validation():
    with pytest.raises(ValueError):
        ScoringConfig(alpha=0.0)
    for bad_alpha in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="alpha"):
            ScoringConfig(alpha=bad_alpha)
    with pytest.raises(ValueError):
        ScoringConfig(b=1.5)
    with pytest.raises(ValueError):
        ScoringConfig(tau=2.0)
    with pytest.raises(ValueError):
        ScoringConfig(variant="fast")
    with pytest.raises(ValueError):
        ScoringConfig(verify_metric="bogus")
    with pytest.raises(ValueError):
        ScoringConfig(distance_mode="manhattan")
    for bad_k in (2.7, 1, 0, True, "3"):
        with pytest.raises(ValueError):
            ScoringConfig(k=bad_k)
    assert ScoringConfig(k=2).k == 2
    assert ScoringConfig(k=np.int64(3)).k == 3


# ---------------------------------------------------------------------------
# brute-force selection oracle
# ---------------------------------------------------------------------------


def oracle_selection(index, config):
    """Score every combination of every product with independent arithmetic.

    Rebuilds frequencies and accumulators from the analyzed titles with plain
    dictionaries, then scores each combination with the scalar reference
    formulas (field_weight, ir_score, combination_score) and applies the
    documented tie-breaking. Returns one canonical key per product, or None
    where the decision margin is below float noise (those products are
    skipped by the comparison).
    """
    fw = index.forward
    n = len(fw)
    rows = token_rows(fw)
    sems = [fw.sem_flat[fw.tok_offsets[p] : fw.tok_offsets[p + 1]].tolist() for p in range(n)]

    f_w = {}
    for ids in rows:
        for w in ids:
            f_w[w] = f_w.get(w, 0) + 1
    total_tokens = len(f_w)
    idf = {w: math.log(n / f) for w, f in f_w.items()}

    acc = {}
    instances = 0
    member_count = 0
    per_product = []
    for ids in rows:
        l = len(ids)
        combos = []
        for k in range(2, min(index.k, l) + 1):
            for pos in itertools.combinations(range(l), k):
                key = tuple(sorted(ids[j] for j in pos))
                d = float(sum((rank - p) ** 2 for rank, p in enumerate(pos)))
                f, dacc = acc.get(key, (0, 0.0))
                acc[key] = (f + 1, dacc + d)
                combos.append(key)
                instances += 1
                member_count += k
        per_product.append(combos)

    avg_comb_len = member_count / instances if instances else 0.0

    chosen = []
    for p in range(n):
        ids, sem = rows[p], sems[p]
        if not per_product[p]:
            chosen.append(tuple(sorted(ids)))
            continue
        x = field_population(sem).tolist()
        weight = {w: field_weight(s, x, total_tokens) for w, s in zip(ids, sem)}
        scored = []
        for key in per_product[p]:
            f, dacc = acc[key]
            rec = CombinationRecord(index=0, key_ids=key, f_c=f, d_acc=dacc, k=len(key))
            y = ir_score(
                [idf[w] for w in key], [weight[w] for w in key], rec.k, avg_comb_len, config.b
            )
            i_score = combination_score(rec, y, config.alpha)
            scored.append((i_score, y, rec.k, signature(key).value, rec))
        best_i = max(s[0] for s in scored)
        if best_i == 0.0:
            pick = min(scored, key=lambda s: (-s[1], -s[2], s[3]))[4]
            ranked = sorted({round(s[1], 15) for s in scored}, reverse=True)
        else:
            ties = [s for s in scored if s[0] == best_i]
            pick = min(ties, key=lambda s: (-s[2], avg_distance(s[4]), s[3]))[4]
            ranked = sorted({s[0] for s in scored}, reverse=True)
        # near-ties are legitimate either-way decisions across summation orders
        if len(ranked) > 1 and abs(ranked[0] - ranked[1]) <= 1e-9 * max(1.0, abs(ranked[0])):
            chosen.append(None)
        else:
            chosen.append(pick.key_ids)
    return chosen


def test_selection_matches_brute_force_oracle():
    ds = planted_dataset(n_clusters=30, n_vendors=9, seed=17)
    assert ds.title_count <= 200
    idx = build_index(ds)
    config = ScoringConfig()
    expected = oracle_selection(idx, config)
    universe = select_clusters(idx, config)
    skipped = 0
    for p, key in enumerate(expected):
        if key is None:
            skipped += 1
            continue
        ci = universe.assignment[p]
        got = (
            tuple(idx.combos.ids_of(universe.key[ci]))
            if universe.key[ci] >= 0
            else tuple(sorted(idx.forward.tokens_of(p).tolist()))
        )
        assert got == key, f"product {p}"
    assert skipped <= ds.title_count * 0.05
