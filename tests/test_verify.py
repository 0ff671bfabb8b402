"""Vendor-consistency verification."""

from __future__ import annotations

import copy
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from titlematch.index import build_index
from titlematch.ingest import Dataset, RawProduct
from titlematch.scoring import ClusterUniverse, ScoringConfig, select_clusters
from titlematch.synth import planted_dataset
from titlematch.verify import (
    binary_cosine,
    product_similarity,
    scan_violators,
    verify_universe,
)

from helpers import make_ablation_dataset, verify_universe_scalar


def tiny_dataset(titles, vendors):
    return Dataset(
        products=[RawProduct(i + 1, t, vendors[i], None) for i, t in enumerate(titles)]
    )


def built(titles, vendors):
    ds = tiny_dataset(titles, vendors)
    idx = build_index(ds, k=2)
    universe = select_clusters(idx, ScoringConfig())
    return idx, universe


def hand_built(rows):
    """Index over (title, vendor) rows and a universe placed by hand.

    rows: (title, vendor, cluster key, s1); the highest s1 in a cluster
    becomes its representative and clusters are numbered by first key seen.
    """
    idx = build_index(tiny_dataset([r[0] for r in rows], [r[1] for r in rows]), k=2)
    universe = ClusterUniverse(len(rows))
    for p, (_, vendor, key, s1) in enumerate(rows):
        universe.insert(key, p, vendor, s1)
    return idx, universe


def cluster_state(universe):
    return list(universe.assignment), [
        (c.pi, list(c.vendors), {v: list(m) for v, m in c.members.items()})
        for c in universe.clusters
    ]


def verify_both(idx, universe, tau=0.4, metric="cs"):
    """Run verify_universe and the scalar reference; return the verified
    universe after checking that both agree exactly."""
    ref = copy.deepcopy(universe)
    verify_universe(universe, idx, tau=tau, metric=metric)
    verify_universe_scalar(ref, idx, tau=tau, metric=metric)
    assert cluster_state(universe) == cluster_state(ref)
    return universe


def members_by_product_id(universe, index):
    pids = index.forward.product_ids
    return [
        sorted(pids[p] for p in cluster.product_ordinals())
        for cluster in universe.clusters
        if cluster.size
    ]


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------


def test_similarity_identical_sets():
    idx, _ = built(["alpha beta gamma", "alpha beta gamma"], [0, 1])
    assert product_similarity(idx, 0, 1) == 1.0


def test_similarity_disjoint_sets():
    idx, _ = built(["alpha beta", "gamma delta"], [0, 1])
    assert product_similarity(idx, 0, 1) == 0.0


def test_similarity_two_of_three():
    idx, _ = built(["aa bb cc", "bb cc dd"], [0, 1])
    assert product_similarity(idx, 0, 1) == pytest.approx(2.0 / 3.0)


def test_similarity_idf_weighted_in_range():
    idx, _ = built(["aa bb cc", "bb cc dd", "aa xx yy"], [0, 1, 2])
    s = product_similarity(idx, 0, 1, metric="cs-idf")
    assert 0.0 <= s <= 1.0


def test_binary_cosine_empty_set():
    assert binary_cosine(frozenset(), frozenset({1})) == 0.0


def test_unknown_metric_rejected():
    idx, universe = built(["aa bb", "bb cc"], [0, 1])
    with pytest.raises(ValueError):
        product_similarity(idx, 0, 1, metric="dice")
    with pytest.raises(ValueError):
        verify_universe(universe, idx, metric="dice")


# ---------------------------------------------------------------------------
# eviction and migration
# ---------------------------------------------------------------------------


def test_eviction_keeps_most_similar_to_representative():
    # p1, p2 from vendor 0 land in one cluster; p3 (vendor 1) is the
    # representative via its rare extra token. p1 shares more tokens with p3
    # than p2 does, so p2 is evicted into its own cluster. Fillers keep the
    # shared tokens from having zero idf.
    idx, universe = built(
        [
            "acme kw12 grill steel front",
            "acme kw12 grill rear lid",
            "acme kw12 grill steel front rarexq",
            "corda pl77 lamp glow arm",
            "ermis vt3 pump flow tube",
        ],
        [0, 0, 1, 2, 3],
    )
    merged = universe.assignment[0]
    assert universe.assignment[1] == universe.assignment[2] == merged
    assert universe.clusters[merged].pi == 2
    verify_universe(universe, idx, tau=0.4)
    groups = members_by_product_id(universe, idx)
    assert [1, 3] in groups and [2] in groups


def test_distinct_vendors_unchanged():
    idx, universe = built(
        ["acme kw12 grill", "acme kw12 grill steel", "acme kw12 grill lid"],
        [0, 1, 2],
    )
    before = members_by_product_id(universe, idx)
    verify_universe(universe, idx, tau=0.4)
    assert members_by_product_id(universe, idx) == before


def test_low_similarity_eviction_founds_new_cluster():
    # the evicted product shares one of three tokens with every candidate
    # representative: cosine 1/3 < 0.4, so it gets its own cluster
    idx, universe = built(
        [
            "acme kw12 grill",
            "acme kw12 grill",
            "acme zz99 lamp",
        ],
        [0, 0, 1],
    )
    n_before = universe.clusters[universe.assignment[0]].size
    assert n_before == 2
    verify_universe(universe, idx, tau=0.4)
    assert scan_violators(universe) == []
    groups = members_by_product_id(universe, idx)
    assert [1] in groups or [2] in groups


def test_migration_above_threshold():
    # vendor 0 lists the black and silver variant; the evicted black listing
    # migrates to the cluster formed by the other vendors' black listings
    ds = make_ablation_dataset()
    idx = build_index(ds)
    universe = select_clusters(idx, ScoringConfig())
    assert len(scan_violators(universe)) > 0
    verify_universe(universe, idx, tau=0.4)
    groups = members_by_product_id(universe, idx)
    assert sorted(range(1, 9)) in groups
    assert sorted(range(9, 17)) in groups


def test_migration_skips_cluster_holding_the_vendor():
    # product 1 (vendor 0) is evicted from cluster 0. Cluster 1's
    # representative is identical to it but holds vendor 0 already, so the
    # product goes to cluster 2 (similarity 2/3) instead.
    idx, universe = hand_built(
        [
            ("alpha beta gamma", 0, "a", 9.0),
            ("delta epsilon zeta", 0, "a", 1.0),
            ("delta epsilon zeta", 0, "b", 9.0),
            ("delta epsilon eta", 1, "c", 9.0),
        ]
    )
    verify_both(idx, universe)
    assert universe.assignment[1] == 2
    assert len(universe.clusters) == 3


def test_token_disjoint_cluster_is_no_candidate():
    # at tau 0 any shared token clears the threshold, but cluster 1 shares
    # none with the evicted product, so it founds a singleton
    idx, universe = hand_built(
        [
            ("alpha beta gamma", 0, "a", 9.0),
            ("delta epsilon zeta", 0, "a", 1.0),
            ("theta iota kappa", 1, "b", 9.0),
        ]
    )
    verify_both(idx, universe, tau=0.0)
    assert universe.assignment[1] == 2
    assert universe.clusters[2].pi == 1


@pytest.mark.parametrize("metric, target", [("cs", 1), ("cs-idf", 2)])
def test_zero_similarity_never_migrates(metric, target):
    # "acme" is in every title, so its idf is 0: under cs-idf the only
    # shared token weighs nothing and the evicted product founds cluster 2,
    # while plain cs scores 1/3 > 0 and migrates it to cluster 1
    idx, universe = hand_built(
        [
            ("acme alpha beta", 0, "a", 9.0),
            ("acme delta epsilon", 0, "a", 1.0),
            ("acme theta iota", 1, "b", 9.0),
        ]
    )
    verify_both(idx, universe, tau=0.0, metric=metric)
    assert universe.assignment[1] == target


def test_migration_into_singleton_founded_in_same_pass():
    # cluster 0 holds two violating vendor groups. Product 1 (vendor 0) is
    # evicted first and shares no token with any representative, so it
    # founds cluster 1. Product 3 (vendor 1) is evicted next; its best
    # candidate is product 1's new cluster (3 / sqrt(12) > 0.4).
    idx, universe = hand_built(
        [
            ("alpha beta gamma", 0, "a", 9.0),
            ("delta epsilon zeta", 0, "a", 1.0),
            ("alpha beta gamma", 1, "a", 2.0),
            ("delta epsilon zeta eta", 1, "a", 1.0),
        ]
    )
    verify_both(idx, universe)
    assert len(universe.clusters) == 2
    assert universe.clusters[1].pi == 1
    assert universe.clusters[1].members == {0: [1], 1: [3]}
    assert universe.assignment[3] == 1


def test_equal_similarity_goes_to_lower_cluster_index():
    # the evicted product 1 scores 2/3 against clusters 1 and 2 alike, and
    # the lower cluster index wins
    idx, universe = hand_built(
        [
            ("alpha beta gamma", 0, "a", 9.0),
            ("delta epsilon zeta", 0, "a", 1.0),
            ("delta epsilon theta", 1, "b", 9.0),
            ("delta epsilon iota", 2, "c", 9.0),
        ]
    )
    verify_both(idx, universe)
    assert universe.assignment[1] == 1


@pytest.mark.parametrize("tau, target", [(0.5, 2), (0.49, 1)])
def test_similarity_equal_to_tau_is_not_taken(tau, target):
    # the evicted product shares one of two tokens with cluster 1's
    # representative: similarity exactly 0.5, which must exceed tau
    idx, universe = hand_built(
        [
            ("alpha beta", 0, "a", 9.0),
            ("gamma delta", 0, "a", 1.0),
            ("gamma zeta", 1, "b", 9.0),
        ]
    )
    assert product_similarity(idx, 1, 2) == 0.5
    verify_both(idx, universe, tau=tau)
    assert universe.assignment[1] == target


# ---------------------------------------------------------------------------
# global properties
# ---------------------------------------------------------------------------


def _check_invariants(ds):
    idx = build_index(ds)
    universe = select_clusters(idx, ScoringConfig())
    before_products = Counter(
        p for cluster in universe.clusters for p in cluster.product_ordinals()
    )
    before_pis = [c.pi for c in universe.clusters]
    n_before = len(universe.clusters)

    verify_universe(universe, idx, tau=0.4)
    assert scan_violators(universe) == []
    after_products = Counter(
        p for cluster in universe.clusters for p in cluster.product_ordinals()
    )
    assert after_products == before_products
    assert all(v == 1 for v in after_products.values())
    assert [c.pi for c in universe.clusters[:n_before]] == before_pis

    snapshot = [sorted(c.product_ordinals()) for c in universe.clusters]
    verify_universe(universe, idx, tau=0.4)
    assert [sorted(c.product_ordinals()) for c in universe.clusters] == snapshot


def test_invariants_on_planted_corpora():
    for seed in (0, 5, 9):
        _check_invariants(planted_dataset(n_clusters=18, n_vendors=8, seed=seed))


def test_invariants_on_ablation_fixture():
    _check_invariants(make_ablation_dataset())


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_invariants_on_random_corpora(seed):
    ds = planted_dataset(
        n_clusters=8,
        n_vendors=5,
        sibling_rate=0.3,
        family_rate=0.2,
        seed=seed,
    )
    _check_invariants(ds)


def test_assignment_map_consistent_after_verify(ablation_dataset):
    idx = build_index(ablation_dataset)
    universe = select_clusters(idx, ScoringConfig())
    verify_universe(universe, idx, tau=0.4)
    for ci, cluster in enumerate(universe.clusters):
        for p in cluster.product_ordinals():
            assert universe.assignment[p] == ci


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_verify_matches_scalar_reference(seed):
    # many siblings and families over few vendors make evictions, new
    # singletons and migrations into them common
    ds = planted_dataset(
        n_clusters=12,
        n_vendors=4,
        sibling_rate=0.6,
        family_rate=0.7,
        seed=seed,
    )
    idx = build_index(ds)
    initial = select_clusters(idx, ScoringConfig())
    for metric in ("cs", "cs-idf"):
        for tau in (0.0, 0.4, 1.0):
            verify_both(idx, copy.deepcopy(initial), tau=tau, metric=metric)
