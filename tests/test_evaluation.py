"""Pair expansion, P/R/F1 and report emission."""

from __future__ import annotations

import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from titlematch.baseline import pairwise_sweep
from titlematch.evaluation import (
    cluster_size_histogram,
    expand_cluster_pairs,
    pair_scores,
    prf1,
    run_report,
    strip_timings,
)
from titlematch.index import build_index
from titlematch.ingest import (
    Dataset,
    RawProduct,
    load_ground_truth,
    pairs_from_assignment,
    truth_labels,
)
from titlematch.pipeline import run_baseline, run_match
from titlematch.scoring import ClusterUniverse, ScoringConfig, select_clusters


def universe_with_groups(groups):
    """Build a universe holding the given product-ordinal groups."""
    n = sum(len(g) for g in groups)
    chosen = np.empty(n, dtype=np.int64)
    for gi, group in enumerate(groups):
        chosen[group] = gi
    return ClusterUniverse.from_choices(
        chosen, np.zeros(n, dtype=np.int64), np.arange(n), np.zeros(n)
    )


def index_for(n):
    ds = Dataset(
        products=[RawProduct(i + 1, f"tok{i} other{i}", i, None) for i in range(n)]
    )
    return build_index(ds, k=2)


def brute_force_prf(predicted, truth):
    tp = sum(1 for p in predicted if p in truth)
    precision = tp / len(predicted) if predicted else 0.0
    recall = tp / len(truth)
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def test_four_product_cluster_expands_to_six():
    u = universe_with_groups([[0, 1, 2, 3]])
    pairs = expand_cluster_pairs(u, index_for(4))
    assert len(pairs) == 6
    assert pairs == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}


def test_singletons_expand_to_nothing():
    u = universe_with_groups([[0], [1], [2]])
    assert expand_cluster_pairs(u, index_for(3)) == set()


def test_mixed_groups_expand():
    u = universe_with_groups([[0, 1, 2], [3, 4]])
    assert len(expand_cluster_pairs(u, index_for(5))) == 4


def test_prf1_perfect():
    truth = {(1, 2), (3, 4)}
    scores = prf1(set(truth), truth)
    assert scores == {"precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_prf1_no_overlap():
    scores = prf1({(1, 3)}, {(1, 2)})
    assert scores["f1"] == 0.0


def test_prf1_equal_p_and_r():
    predicted = {(1, 2), (3, 4)}
    truth = {(1, 2), (5, 6)}
    scores = prf1(predicted, truth)
    assert scores["precision"] == scores["recall"] == 0.5
    assert scores["f1"] == pytest.approx(0.5)


def test_prf1_empty_prediction():
    scores = prf1(set(), {(1, 2)})
    assert scores == {"precision": 0.0, "recall": 0.0, "f1": 0.0}


def test_prf1_empty_truth_is_error():
    with pytest.raises(ValueError):
        prf1({(1, 2)}, set())


@given(
    st.sets(
        st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
            lambda t: (min(t), max(t) + 1)
        ),
        max_size=60,
    ),
    st.sets(
        st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
            lambda t: (min(t), max(t) + 1)
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_prf1_matches_confusion_matrix(predicted, truth):
    scores = prf1(predicted, truth)
    p, r, f1 = brute_force_prf(predicted, truth)
    assert scores["precision"] == pytest.approx(p)
    assert scores["recall"] == pytest.approx(r)
    assert scores["f1"] == pytest.approx(f1)


def test_prf1_large_random_sets_match_brute_force():
    rng = random.Random(9)
    universe_pairs = [(i, j) for i in range(1, 150) for j in range(i + 1, 150)]
    predicted = set(rng.sample(universe_pairs, 5000))
    truth = set(rng.sample(universe_pairs, 5000))
    scores = prf1(predicted, truth)
    p, r, f1 = brute_force_prf(predicted, truth)
    assert (scores["precision"], scores["recall"], scores["f1"]) == (p, r, f1)


# cluster IDs as files and callers give them: negative, sparse, at both ends
# of int64, and too wide for it
_LABELS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-(2**63), 2**63 - 1, 2**63, 10**30, 123_456_789_012]),
)


@given(st.lists(st.tuples(_LABELS, _LABELS), max_size=40))
@example([])
@example([(i, i) for i in range(6)])
@example([(i, 0) for i in range(6)])
@example([(-1, i) for i in range(6)])
@example([(2**70, -1)] * 6)
def test_pair_scores_match_pair_sets(labels):
    """Counts from the contingency table against the pair sets and prf1,
    bit for bit."""
    predicted = [a for a, _ in labels]
    truth = [b for _, b in labels]
    predicted_pairs = pairs_from_assignment(dict(enumerate(predicted)))
    truth_pairs = pairs_from_assignment(dict(enumerate(truth)))
    row = pair_scores(predicted, truth)
    assert (row["predicted_pairs"], row["truth_pairs"]) == (len(predicted_pairs), len(truth_pairs))
    expected = {"precision": None, "recall": None, "f1": None}
    if truth_pairs:
        expected = prf1(predicted_pairs, truth_pairs)
    assert {key: row[key] for key in expected} == expected
    assert list(row) == ["precision", "recall", "f1", "predicted_pairs", "truth_pairs"]
    without_truth = pair_scores(predicted, None)
    assert without_truth == {
        **dict.fromkeys(expected),
        "predicted_pairs": len(predicted_pairs),
        "truth_pairs": None,
    }


_WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
_TAUS = [0.05, 0.2, 0.3, 0.45, 0.5, 0.6, 0.75, 0.9]
_BASELINE_ROW_KEYS = [
    "command",
    "dataset",
    "method",
    "params",
    "k",
    "clusters",
    "precision",
    "recall",
    "f1",
    "predicted_pairs",
    "truth_pairs",
    "timings_ms",
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=9,
    ),
    st.lists(st.sampled_from(_TAUS), min_size=1, max_size=4, unique=True).map(sorted),
    st.sampled_from(["labels", "none", "pairless"]),
    st.data(),
)
def test_baseline_rows_match_prf1_of_sweep_sets(word_lists, taus, truth_kind, data):
    """Each run_baseline row, counted without listing a pair, against prf1
    of pairwise_sweep's pair set for that threshold, over sparse product
    IDs, bit for bit: with truth, without it, and with a truth that holds
    no pair."""
    n = len(word_lists)
    ids = [7 * i - 20 for i in range(n)]
    truth = {
        "labels": data.draw(st.lists(_LABELS, min_size=n, max_size=n)),
        "none": [None] * n,
        "pairless": list(range(n)),
    }[truth_kind]
    ds = Dataset(
        products=[
            RawProduct(pid, " ".join(words), i, label)
            for i, (pid, words, label) in enumerate(zip(ids, word_lists, truth))
        ]
    )
    truth_pairs = None if truth_kind == "none" else pairs_from_assignment(dict(zip(ids, truth)))
    index = build_index(ds, with_combinations=False)
    for metric in ("cs", "cs-idf", "j", "j-idf"):
        swept = pairwise_sweep(index, metric, taus)
        rows = run_baseline(ds, metric, taus)
        assert [row["params"]["tau"] for row in rows] == taus
        for row in rows:
            pairs = swept[row["params"]["tau"]]
            expected = {"precision": None, "recall": None, "f1": None}
            if truth_pairs:
                expected = prf1(pairs, truth_pairs)
            expected["predicted_pairs"] = len(pairs)
            expected["truth_pairs"] = None if truth_pairs is None else len(truth_pairs)
            assert {key: row[key] for key in expected} == expected, (metric, row)
            assert list(row) == _BASELINE_ROW_KEYS


def _traced(call):
    """call()'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_baseline_one_truth_cluster_in_bounded_memory():
    """A baseline's few pairs against one 800-product truth cluster: listing
    its 319 600 truth pairs as a set of tuples would take over 30 MB."""
    n = 800
    # products 2m and 2m + 1 share the token x{m}: cs 0.5
    ds = Dataset(products=[RawProduct(i, f"t{i} x{i // 2}", i, 7) for i in range(n)])
    rows, peak = _traced(lambda: run_baseline(ds, "cs", [0.3, 0.6]))
    assert peak < 4 * 2**20
    n_truth = n * (n - 1) // 2
    assert [(row["predicted_pairs"], row["truth_pairs"]) for row in rows] == [
        (n // 2, n_truth),
        (0, n_truth),
    ]
    assert (rows[0]["precision"], rows[0]["recall"]) == (1.0, (n // 2) / n_truth)
    assert (rows[1]["precision"], rows[1]["recall"], rows[1]["f1"]) == (0.0, 0.0, 0.0)


def test_baseline_sweep_where_most_pairs_match_in_bounded_memory():
    """All 179 700 pairs of 600 titles sharing one token clear 0.3; they
    are counted, not held. Keeping each threshold's pair set peaked at
    21.6 MB; counting them peaks at 0.245 MB (Python 3.11)."""
    n = 600
    products = [RawProduct(10 + 3 * i, f"common a{i}", i % 5, i % 7) for i in range(n)]
    # the unit lexicon loads on a first call; keep it out of the peak
    run_baseline(Dataset(products=products[:2]), "cs", [0.3])
    rows, peak = _traced(lambda: run_baseline(Dataset(products=products), "cs", [0.3]))
    assert peak < 258_000
    assert rows[0]["predicted_pairs"] == n * (n - 1) // 2


def test_evaluate_one_giant_cluster_in_bounded_memory():
    """One 20k-product cluster is 200M pairs, which as a set of tuples would
    take gigabytes; the contingency counts stay within a few megabytes."""
    n = 20_000
    ds = Dataset(products=[RawProduct(i, f"t{i}", i, 7 if i % 4 else -1) for i in range(n)])
    tracemalloc.start()
    try:
        row = pair_scores(np.zeros(n, dtype=np.int64), truth_labels(ds))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    big, small = 15_000, 5_000
    assert row["predicted_pairs"] == n * (n - 1) // 2
    assert row["truth_pairs"] == big * (big - 1) // 2 + small * (small - 1) // 2
    assert row["precision"] == row["truth_pairs"] / row["predicted_pairs"]
    assert row["recall"] == 1.0


def test_expand_size_is_sum_of_binomials(fixture_200):
    idx = build_index(fixture_200)
    universe = select_clusters(idx, ScoringConfig())
    pairs = expand_cluster_pairs(universe, idx)
    expected = sum(
        len(c.products) * (len(c.products) - 1) // 2 for c in universe.clusters
    )
    assert len(pairs) == expected


def test_cluster_size_histogram():
    u = universe_with_groups([[0, 1, 2], [3, 4], [5], [6]])
    assert cluster_size_histogram(u) == {"1": 2, "2": 1, "3": 1}


def test_report_written_as_json_lines(tmp_path, fixture_200):
    result = run_match(fixture_200, dataset_path="fixture")
    report_path = tmp_path / "report.jsonl"
    summary_path = tmp_path / "summary.csv"
    run_report([result.report], report_path, summary_path)
    lines = report_path.read_text().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["k"] == result.index.k
    assert row["dataset"]["titles"] == fixture_200.title_count
    header = summary_path.read_text().splitlines()[0]
    assert header.startswith("dataset,method,variant,k,tau")


def test_reports_identical_modulo_timings(fixture_200):
    a = run_match(fixture_200, dataset_path="fixture").report
    b = run_match(fixture_200, dataset_path="fixture").report
    assert a["timings_ms"].keys() == b["timings_ms"].keys()
    assert strip_timings(a) == strip_timings(b)


def test_report_f1_matches_direct_prf1(fixture_200):
    result = run_match(fixture_200)
    truth = load_ground_truth(fixture_200)
    predicted = expand_cluster_pairs(result.universe, result.index)
    scores = prf1(predicted, truth)
    assert result.report["f1"] == scores["f1"]
    assert result.report["predicted_pairs"] == len(predicted)
    assert result.report["truth_pairs"] == len(truth)


def test_sweep_emits_nine_rows(fixture_200):
    taus = [round(0.1 * i, 1) for i in range(1, 10)]
    rows = run_baseline(fixture_200, "cs", taus)
    assert len(rows) == 9
    assert [r["params"]["tau"] for r in rows] == taus
    assert all(r["f1"] is not None for r in rows)
