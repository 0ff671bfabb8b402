"""Pairwise similarity baselines."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from titlematch.baseline import cs, cs_idf, jaccard, jaccard_idf, pairwise_match, pairwise_sweep
from titlematch.index import build_index
from titlematch.ingest import Dataset, RawProduct
from titlematch.synth import planted_dataset

TAUS = [round(0.1 * i, 1) for i in range(1, 10)]


def tiny_dataset(titles):
    return Dataset(
        products=[RawProduct(i + 1, t, i, None) for i, t in enumerate(titles)]
    )


def brute_force_metrics(index):
    """Oracle: recompute all four metrics per pair with plain arithmetic."""
    n = len(index.forward)
    titles = [set(index.forward.tokens_of(p).tolist()) for p in range(n)]
    f = {}
    for t in titles:
        for w in t:
            f[w] = f.get(w, 0) + 1
    idf = {w: math.log(n / c) for w, c in f.items()}

    def one_pair(a, b):
        inter = a & b
        union = a | b
        cs_v = len(inter) / (math.sqrt(len(a)) * math.sqrt(len(b)))
        j_v = len(inter) / len(union)
        num = sum(idf[w] ** 2 for w in inter)
        na = sum(idf[w] ** 2 for w in a)
        nb = sum(idf[w] ** 2 for w in b)
        cs_i = num / (math.sqrt(na) * math.sqrt(nb)) if na > 0 and nb > 0 else 0.0
        nu = sum(idf[w] ** 2 for w in union)
        j_i = num / nu if nu > 0 else 0.0
        return {"cs": cs_v, "j": j_v, "cs-idf": cs_i, "j-idf": j_i}

    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            out[(i, j)] = one_pair(titles[i], titles[j])
    return out


def test_identical_titles_have_unit_similarity():
    a = frozenset({1, 2, 3})
    idf = {1: 0.5, 2: 1.0, 3: 2.0}
    assert cs(a, a) == 1.0
    assert jaccard(a, a) == 1.0
    assert cs_idf(a, a, idf) == pytest.approx(1.0)
    assert jaccard_idf(a, a, idf) == pytest.approx(1.0)


def test_hand_arithmetic_pair():
    a, b = frozenset({1, 2}), frozenset({2, 3})
    assert cs(a, b) == pytest.approx(0.5)
    assert jaccard(a, b) == pytest.approx(1.0 / 3.0)


def test_disjoint_titles_are_zero():
    a, b = frozenset({1, 2}), frozenset({3, 4})
    idf = {w: 1.0 for w in range(5)}
    assert cs(a, b) == 0.0
    assert jaccard(a, b) == 0.0
    assert cs_idf(a, b, idf) == 0.0
    assert jaccard_idf(a, b, idf) == 0.0


def test_empty_title_is_error():
    with pytest.raises(ValueError):
        cs(frozenset(), frozenset({1}))
    with pytest.raises(ValueError):
        jaccard(frozenset({1}), frozenset())
    with pytest.raises(ValueError):
        cs_idf(frozenset(), frozenset({1}), {1: 1.0})
    with pytest.raises(ValueError):
        jaccard_idf(frozenset(), frozenset({1}), {1: 1.0})


def test_zero_weight_titles_similarity_zero():
    a = frozenset({1}), frozenset({1})
    assert cs_idf(a[0], a[1], {1: 0.0}) == 0.0
    assert jaccard_idf(a[0], a[1], {1: 0.0}) == 0.0


def test_high_threshold_no_duplicates_empty():
    ds = tiny_dataset(["aa bb cc", "aa dd ee", "ff gg hh"])
    idx = build_index(ds, with_combinations=False)
    assert pairwise_match(idx, "cs", 0.99) == set()


def test_low_threshold_includes_every_sharing_pair():
    ds = tiny_dataset(["aa bb cc", "aa dd ee", "ff gg hh"])
    idx = build_index(ds, with_combinations=False)
    assert pairwise_match(idx, "cs", 0.01) == {(1, 2)}


def test_five_title_corpus_matches_oracle():
    ds = tiny_dataset(
        [
            "acme kx1 mixer silver",
            "acme kx1 mixer black",
            "acme kx2 blender",
            "nordex yy9 lamp glow",
            "nordex yy9 lamp",
        ]
    )
    idx = build_index(ds, with_combinations=False)
    oracle = brute_force_metrics(idx)
    pids = idx.forward.product_ids
    for metric in ("cs", "cs-idf", "j", "j-idf"):
        for tau in TAUS:
            expected = {
                (min(pids[i], pids[j]), max(pids[i], pids[j]))
                for (i, j), sims in oracle.items()
                if sims[metric] > tau
            }
            assert pairwise_match(idx, metric, tau) == expected, (metric, tau)


def test_sweep_equals_individual_thresholds():
    ds = planted_dataset(n_clusters=8, n_vendors=5, seed=21)
    idx = build_index(ds, with_combinations=False)
    for metric in ("cs", "j-idf"):
        swept = pairwise_sweep(idx, metric, TAUS)
        for tau in (0.2, 0.5, 0.8):
            assert swept[tau] == pairwise_match(idx, metric, tau)


def test_matches_shrink_as_threshold_grows():
    ds = planted_dataset(n_clusters=10, n_vendors=6, seed=22)
    idx = build_index(ds, with_combinations=False)
    for metric in ("cs", "cs-idf", "j", "j-idf"):
        swept = pairwise_sweep(idx, metric, TAUS)
        sizes = [len(swept[t]) for t in TAUS]
        assert sizes == sorted(sizes, reverse=True)


def test_invalid_inputs_rejected():
    ds = tiny_dataset(["aa bb", "bb cc"])
    idx = build_index(ds, with_combinations=False)
    with pytest.raises(ValueError):
        pairwise_match(idx, "levenshtein", 0.5)
    with pytest.raises(ValueError):
        pairwise_match(idx, "cs", 0.0)
    with pytest.raises(ValueError):
        pairwise_match(idx, "cs", 1.0)
    with pytest.raises(ValueError):
        pairwise_sweep(idx, "cs", [0.5, 0.3])


_sets = st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=10)


@given(_sets, _sets)
def test_symmetry_and_range(a, b):
    fa, fb = frozenset(a), frozenset(b)
    idf = {w: 0.1 + (w % 7) * 0.3 for w in fa | fb}
    for fn in (cs, jaccard):
        assert fn(fa, fb) == fn(fb, fa)
        assert 0.0 <= fn(fa, fb) <= 1.0
    for fn in (cs_idf, jaccard_idf):
        assert fn(fa, fb, idf) == fn(fb, fa, idf)
        assert 0.0 <= fn(fa, fb, idf) <= 1.0 + 1e-12


def test_pairs_all_evaluated_count():
    # every unordered pair is considered: with a threshold below every
    # nonzero similarity, the result is exactly the sharing pairs
    ds = planted_dataset(n_clusters=6, n_vendors=4, seed=24)
    idx = build_index(ds, with_combinations=False)
    n = len(idx.forward)
    sets = [idx.token_set(p) for p in range(n)]
    pids = idx.forward.product_ids
    sharing = {
        (min(pids[i], pids[j]), max(pids[i], pids[j]))
        for i, j in itertools.combinations(range(n), 2)
        if sets[i] & sets[j]
    }
    assert pairwise_match(idx, "j", 1e-9) == sharing
