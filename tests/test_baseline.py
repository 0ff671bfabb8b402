"""Pairwise similarity baselines."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from titlematch.baseline import cs, cs_idf, jaccard, jaccard_idf, pairwise_match, pairwise_sweep
from titlematch.index import build_index
from titlematch.ingest import Dataset, RawProduct
from titlematch.pipeline import run_baseline
from titlematch.synth import planted_dataset
from titlematch.verify import product_similarity

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
        cs_v = len(inter) / math.sqrt(len(a) * len(b))
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


@pytest.mark.parametrize("n_tokens, shared, tau", [(6, 3, 0.5), (10, 7, 0.7)])
def test_similarity_exactly_tau_does_not_match(n_tokens, shared, tau):
    # shared / sqrt(n * n) is exactly tau; a product of two rounded inverse
    # square roots lands one bit above it
    a = [f"a{i}" for i in range(n_tokens)]
    b = a[:shared] + [f"b{i}" for i in range(n_tokens - shared)]
    idx = build_index(tiny_dataset([" ".join(a), " ".join(b)]), with_combinations=False)
    assert cs(idx.token_set(0), idx.token_set(1)) == tau
    assert pairwise_match(idx, "cs", tau) == set()
    assert pairwise_match(idx, "cs", tau - 0.01) == {(1, 2)}


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=10, max_value=30))
def test_sweep_equals_scalar_definitions(seed, n_clusters):
    idx = build_index(
        planted_dataset(n_clusters=n_clusters, n_vendors=5, seed=seed), with_combinations=False
    )
    n = len(idx.forward)
    sets = [idx.token_set(p) for p in range(n)]
    pids = idx.forward.product_ids
    idf = idx.idf
    scalar = {
        "cs": cs,
        "j": jaccard,
        "cs-idf": lambda a, b: cs_idf(a, b, idf),
        "j-idf": lambda a, b: jaccard_idf(a, b, idf),
    }
    for metric, fn in scalar.items():
        sims = {
            (pids[i], pids[j]): fn(sets[i], sets[j]) for i, j in itertools.combinations(range(n), 2)
        }
        swept = pairwise_sweep(idx, metric, TAUS)
        for tau in TAUS:
            assert swept[tau] == {pair for pair, sim in sims.items() if sim > tau}, (metric, tau)


WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=6, unique=True),
        min_size=1,
        max_size=9,
    ),
    st.data(),
)
def test_sweep_at_exact_scores(word_lists, data):
    # either "common" is in every title, so its idf is 0 and the title holding
    # it alone weighs 0, or "solo" shares no token with any other title
    if data.draw(st.booleans()):
        titles = [" ".join(["common"] + words) for words in word_lists] + ["common"]
    else:
        titles = [" ".join(words) for words in word_lists] + ["solo"]
    idx = build_index(tiny_dataset(titles), with_combinations=False)
    n = len(idx.forward)
    sets = [idx.token_set(p) for p in range(n)]
    pids = idx.forward.product_ids
    scalar = {
        "cs": cs,
        "j": jaccard,
        "cs-idf": lambda a, b: cs_idf(a, b, idx.idf),
        "j-idf": lambda a, b: jaccard_idf(a, b, idx.idf),
    }
    for metric, fn in scalar.items():
        pairs = itertools.combinations(range(n), 2)
        sims = {(pids[i], pids[j]): fn(sets[i], sets[j]) for i, j in pairs}
        # ascending thresholds that include pairs' exact scores, which do not match
        exact = sorted({x for x in sims.values() if 0.0 < x < 1.0})
        drawn = data.draw(st.lists(st.sampled_from(exact + [0.05, 0.5, 0.95]), min_size=1))
        taus = sorted(set(drawn))
        swept = pairwise_sweep(idx, metric, taus)
        for tau in taus:
            assert swept[tau] == {pair for pair, x in sims.items() if x > tau}, (metric, tau)


def test_idf_similarity_ignores_set_iteration_order():
    # small ints hash to themselves, so IDs 3, 11, 19 and 27 collide in a
    # frozenset's eight-slot table and iterate in insertion order
    ids = (3, 11, 19, 27)
    perms = list(itertools.permutations(ids))
    assert len({tuple(frozenset(p)) for p in perms}) > 1
    idf = [0.1 + 0.37 * w for w in range(28)]
    other = frozenset((3, 11, 19, 5))
    for fn in (cs_idf, jaccard_idf):
        assert len({fn(frozenset(p), other, idf) for p in perms}) == 1
        assert len({fn(other, frozenset(p), idf) for p in perms}) == 1

    # tokens are numbered by first appearance, so the words of the first
    # title get IDs 0..27; the filler titles spread the four words' idf
    words = [f"w{i}x" for i in range(28)]
    fillers = [f"{words[19]} pad"] + [f"{words[27]} pad{r}" for r in range(2)]
    cores = [" ".join(words[w] for w in p) for p in perms]
    query = " ".join(words[w] for w in ids[:3]) + " other"
    idx = build_index(
        tiny_dataset([" ".join(words)] + fillers + cores + [query]), with_combinations=False
    )
    first, q = 1 + len(fillers), len(idx.forward) - 1
    products = range(first, first + len(perms))
    assert len({idx.token_set(p) for p in products}) == 1
    assert len({tuple(idx.token_set(p)) for p in products}) > 1
    assert len({product_similarity(idx, p, q, "cs-idf") for p in products}) == 1
    assert len({product_similarity(idx, q, p, "cs-idf") for p in products}) == 1


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


def test_run_baseline_checks_before_analyzing():
    # "!!!" normalizes to nothing, which analysis would report first
    ds = tiny_dataset(["aa bb", "!!!"])
    with pytest.raises(ValueError, match="^product 2: title normalizes to zero tokens"):
        run_baseline(ds, "cs", [0.4])
    for metric, taus, message in (
        ("cs", [1.5], r"^thresholds must lie in \(0, 1\): \[1.5\]$"),
        ("nope", [0.4], "^unknown metric 'nope'"),
        ("cs", [0.7, 0.3], "^thresholds must be ascending$"),
    ):
        with pytest.raises(ValueError, match=message):
            run_baseline(ds, metric, taus)


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
