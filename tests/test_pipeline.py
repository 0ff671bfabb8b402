"""Pipeline orchestration and the synthetic corpus generator."""

from __future__ import annotations

import csv
import io
import itertools
from collections import Counter

import titlematch
import titlematch.combinatorics
import titlematch.index
import titlematch.scoring
from titlematch.evaluation import expand_cluster_pairs
from titlematch.ingest import CLUSTERS_HEADER, Dataset, RawProduct, pairs_from_assignment
from titlematch.pipeline import run_match, write_clusters
from titlematch.synth import efficiency_dataset, long_title_dataset, planted_dataset

PUBLIC_API = [
    "AnalyzedTitle",
    "ClusterUniverse",
    "Dataset",
    "IndexStats",
    "MatchResult",
    "ProductIndex",
    "RawProduct",
    "ScoringConfig",
    "Semantics",
    "UnitLexicon",
    "analyze_title",
    "build_index",
    "classify_tokens",
    "count_combinations",
    "cs",
    "cs_idf",
    "expand_cluster_pairs",
    "jaccard",
    "jaccard_idf",
    "load_ground_truth",
    "load_products",
    "load_truth_file",
    "normalize_title",
    "pairwise_match",
    "pairwise_sweep",
    "prf1",
    "product_similarity",
    "resolve_k",
    "run_baseline",
    "run_match",
    "run_report",
    "scan_violators",
    "select_clusters",
    "verify_universe",
]

# scalar reference formulas that live in tests/helpers.py, not in the package
SCALAR_REFERENCES = [
    "Combination",
    "CombinationRecord",
    "Signature",
    "avg_distance",
    "canonical_key",
    "combination_score",
    "distance",
    "field_population",
    "field_weight",
    "fnv1a_64",
    "generate_combinations",
    "ir_score",
    "signature",
]


def test_public_api_is_pinned():
    assert sorted(titlematch.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(titlematch, name), name
    modules = (titlematch, titlematch.index, titlematch.scoring, titlematch.combinatorics)
    for module in modules:
        for name in SCALAR_REFERENCES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_generator_is_deterministic():
    a = planted_dataset(n_clusters=12, n_vendors=6, seed=31)
    b = planted_dataset(n_clusters=12, n_vendors=6, seed=31)
    assert a.products == b.products
    c = planted_dataset(n_clusters=12, n_vendors=6, seed=32)
    assert a.products != c.products


def test_generator_never_repeats_vendor_within_cluster():
    ds = planted_dataset(n_clusters=30, n_vendors=8, seed=33)
    seen = Counter()
    for p in ds.products:
        key = (p.truth_cluster_id, p.vendor_id)
        seen[key] += 1
    assert all(v == 1 for v in seen.values())


def test_sized_variants_have_expected_shape():
    eff = efficiency_dataset(800, seed=1)
    assert 600 <= eff.title_count <= 1000
    long = long_title_dataset(300, seed=1)
    avg_words = sum(len(p.title.split()) for p in long.products) / long.title_count
    assert avg_words >= 9.0


def test_run_match_without_truth():
    ds = planted_dataset(n_clusters=6, n_vendors=5, seed=34)
    stripped = type(ds)(
        products=[
            type(p)(p.product_id, p.title, p.vendor_id, None) for p in ds.products
        ]
    )
    result = run_match(stripped)
    assert result.report["f1"] is None
    assert result.report["truth_pairs"] is None
    predicted = expand_cluster_pairs(result.universe, result.index)
    assert result.report["predicted_pairs"] == len(predicted)


def test_pairs_from_assignment_matches_expansion():
    ds = planted_dataset(n_clusters=6, n_vendors=5, seed=35)
    result = run_match(ds)
    assignment = {
        result.index.forward.product_ids[p]: c
        for p, c in enumerate(result.universe.assignment)
    }
    pids = result.index.forward.product_ids
    members = [sorted(pids[p] for p in c.products) for c in result.universe.clusters]
    expected = {pair for m in members for pair in itertools.combinations(m, 2)}
    predicted = expand_cluster_pairs(result.universe, result.index)
    assert pairs_from_assignment(assignment) == predicted == expected


def test_stage_timings_reported():
    ds = planted_dataset(n_clusters=6, n_vendors=5, seed=36)
    result = run_match(ds)
    timings = result.report["timings_ms"]
    for stage in ("textprep", "index", "scoring", "verify", "evaluate", "total"):
        assert stage in timings
        assert timings[stage] >= 0.0


def test_empty_dataset_end_to_end():
    from titlematch.ingest import Dataset

    result = run_match(Dataset(products=[]))
    assert result.report["clusters"] == 0
    assert result.report["f1"] is None


def test_one_token_titles_end_to_end():
    from titlematch.ingest import Dataset, RawProduct

    ds = Dataset(
        products=[
            RawProduct(1, "ps4", 0, 0),
            RawProduct(2, "PS4", 1, 0),
            RawProduct(3, "ps5", 0, 1),
            RawProduct(4, "xbox", 2, 2),
        ]
    )
    result = run_match(ds)
    assert result.report["f1"] == 1.0
    assert result.report["clusters"] == 3


def test_unicode_titles_end_to_end():
    from titlematch.ingest import Dataset, RawProduct

    ds = Dataset(
        products=[
            RawProduct(1, "Ψυγείο Bosch KGN-39 ελεύθερο 39L", 0, 0),
            RawProduct(2, "BOSCH KGN-39 Ψυγείο 39 L inox", 1, 0),
            RawProduct(3, "Πλυντήριο AEG L6FBI48 8kg", 0, 1),
        ]
    )
    result = run_match(ds)
    assert result.report["f1"] == 1.0


def test_k_above_title_length_end_to_end():
    from titlematch.ingest import Dataset, RawProduct
    from titlematch.scoring import ScoringConfig

    ds = Dataset(
        products=[RawProduct(1, "a b c", 0, 0), RawProduct(2, "a b c", 1, 0)]
    )
    result = run_match(ds, ScoringConfig(k=6))
    assert result.report["f1"] == 1.0


def test_write_clusters_writes_what_csv_writer_writes(tmp_path):
    # negative product IDs, and IDs past int64, which only Python ints hold
    pids = [-(2**70), -5, 0, 7, 2**64 + 3, 2**70]
    titles = ["acme kf310 toaster black", "acme kf310 toaster steel", "zenit rw55 fridge"]
    ds = Dataset(
        products=[RawProduct(pid, titles[i // 2], i % 2, i // 2) for i, pid in enumerate(pids)]
    )
    result = run_match(ds)
    path = tmp_path / "clusters.csv"
    write_clusters(path, result)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(CLUSTERS_HEADER)
    writer.writerows(zip(pids, result.universe.assignment.tolist()))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    assert result.report["clusters"] == 3
