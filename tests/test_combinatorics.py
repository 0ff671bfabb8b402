"""Combination enumeration and order-invariant signatures."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from titlematch.combinatorics import (
    count_combinations,
    drop_patterns,
    pattern_distances,
    position_patterns,
    signature_rows,
)
import titlematch.scoring as scoring_module
from titlematch.index import build_index
from titlematch.ingest import Dataset, RawProduct
from titlematch.scoring import ScoringConfig, select_clusters
from titlematch.synth import planted_dataset
from titlematch.textprep import UnitLexicon, classify_tokens

from helpers import (
    Combination,
    canonical_key,
    fnv1a_64,
    generate_combinations,
    lone_title_choice,
    signature,
)

_UNITS = UnitLexicon.default()


def brute_force_count(l: int, K: int) -> int:
    """Oracle: enumerate every subset and count sizes 2..K."""
    items = list(range(l))
    total = 0
    for k in range(2, K + 1):
        total += sum(1 for _ in itertools.combinations(items, k))
    return total


def title_of(tokens):
    return classify_tokens(list(tokens), _UNITS)


def test_count_examples_against_oracle():
    assert brute_force_count(3, 2) == 3
    assert brute_force_count(3, 3) == 4
    assert brute_force_count(5, 3) == 20
    assert count_combinations(3, 2) == 3
    assert count_combinations(3, 3) == 4
    assert count_combinations(5, 3) == 20


def test_count_truncates_at_title_length():
    assert count_combinations(2, 6) == 1
    assert count_combinations(1, 4) == 0
    assert count_combinations(0, 2) == 0


def test_count_validates_arguments():
    with pytest.raises(ValueError):
        count_combinations(-1, 3)
    with pytest.raises(ValueError):
        count_combinations(5, 1)


def test_count_exhaustive_small_domain():
    for l in range(13):
        for K in range(2, 7):
            assert count_combinations(l, K) == brute_force_count(l, K), (l, K)


def test_generate_three_tokens_pairs():
    combos = generate_combinations(title_of(["w1", "w2", "w3"]), 2)
    assert [c.surfaces for c in combos] == [("w1", "w2"), ("w1", "w3"), ("w2", "w3")]


def test_generate_single_token_is_empty():
    assert generate_combinations(title_of(["solo"]), 3) == []


def test_generate_four_tokens_k3_unique():
    combos = generate_combinations(title_of(["a", "b", "c", "d"]), 3)
    assert len(combos) == count_combinations(4, 3) == 10
    assert len({c.token_ids for c in combos}) == 10


def test_generate_is_lexicographic_and_title_ordered():
    title = title_of(["a", "b", "c", "d", "e"])
    combos = generate_combinations(title, 3)
    for c in combos:
        assert list(c.token_ids) == sorted(c.token_ids)
    pairs = [c.token_ids for c in combos if c.k == 2]
    assert pairs == sorted(pairs)
    assert all(len(c.token_ids) == c.k for c in combos)


def test_generate_size_matches_count_exhaustively():
    for l in range(1, 9):
        title = title_of([f"t{i}" for i in range(l)])
        for K in range(2, 7):
            assert len(generate_combinations(title, K)) == count_combinations(l, K)


def test_signature_order_invariant_example():
    assert signature([5, 2, 9]).value == signature([9, 5, 2]).value
    assert signature([5, 2, 9]).canonical_key == "2 5 9"


def test_signature_hashes_canonical_key():
    sig = signature([41, 7, 1003])
    assert sig.canonical_key == "7 41 1003"
    assert sig.value == fnv1a_64(b"7 41 1003")


def test_fnv_reference_vectors():
    # the published FNV-1a 64-bit test vectors
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a_64(b"foobar") == 0x85944171F73967E8


def test_different_sizes_differ():
    assert signature([2, 5]).value != signature([2, 5, 9]).value


def test_signature_rows_matches_scalar():
    # every decimal width from 1 to 10 digits, both ends of each width
    edges = [0, 9, 2**31 - 1] + [10**w for w in range(1, 10)] + [10**w - 1 for w in range(2, 10)]
    rng = np.random.default_rng(11)
    pool = np.concatenate([edges, rng.integers(0, 2**31, size=200), rng.integers(0, 1000, 50)])
    assert sorted({len(str(v)) for v in pool.tolist()}) == list(range(1, 11))
    for k in (1, 2, 3, 5):
        for dtype in (np.int32, np.int64):
            ids = pool[:, None] if k == 1 else np.sort(rng.choice(pool, size=(400, k)), axis=1)
            ids = ids.astype(dtype)
            vec = signature_rows(ids)
            for row, value in zip(ids.tolist(), vec.tolist()):
                assert signature(row).value == value


def test_pattern_distance_is_squared_offset_gap():
    # title [geforce, gtx1050, 4gb], combination of the last two tokens
    m = position_patterns(3, 2)
    d = pattern_distances(3, 2)
    row = m.tolist().index([1, 2])
    assert d[row] == 2  # (0-1)^2 + (1-2)^2


def test_drop_table_names_the_subset_without_each_member():
    for l in range(2, 13):
        for k in range(2, min(l, 6) + 1):
            rows = {tuple(row): r for r, row in enumerate(position_patterns(l, k - 1).tolist())}
            assert list(rows) == list(itertools.combinations(range(l), k - 1))
            table = drop_patterns(l, k)
            assert table.shape == (math.comb(l, k), k)
            for r, pattern in enumerate(itertools.combinations(range(l), k)):
                for j in range(k):
                    assert table[r, j] == rows[pattern[:j] + pattern[j + 1 :]], (l, k, r, j)


def test_forced_signature_collision_keeps_keys_distinct(monkeypatch):
    ds = planted_dataset(n_clusters=12, n_vendors=6, seed=4)
    idx = build_index(ds)
    expected = select_clusters(idx, ScoringConfig())
    # every key now hashes to the same signature; the index never hashes,
    # so only scoring's last tie-break can see it
    monkeypatch.setattr(
        scoring_module, "signature_rows", lambda rows: np.zeros(len(rows), dtype=np.uint64)
    )
    assert len({tuple(idx.combos.ids_of(i)) for i in range(len(idx.combos))}) == len(idx.combos)
    universe = select_clusters(idx, ScoringConfig())
    assert np.array_equal(universe.assignment, expected.assignment)
    assert np.array_equal(universe.key, expected.key)
    # a lone title ties on every pair; equal signatures keep the first column
    lone = build_index(Dataset(products=[RawProduct(1, "aa bb cc dd", 0)]), k=2)
    assert lone_title_choice(lone, monkeypatch) == tuple(sorted(lone.forward.tokens_of(0).tolist()[:2]))


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=6, unique=True))
def test_signature_permutation_invariance(ids):
    rng = random.Random(sum(ids))
    shuffled = list(ids)
    rng.shuffle(shuffled)
    assert signature(ids).value == signature(shuffled).value
    assert signature(ids).canonical_key == signature(shuffled).canonical_key


@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=2, max_value=6),
)
def test_count_matches_oracle_prop(l, K):
    assert count_combinations(l, K) == brute_force_count(l, K)


def test_combination_dataclass():
    c = Combination(token_ids=(3, 9), surfaces=("a", "b"))
    assert c.k == 2
    assert canonical_key(c.token_ids) == "3 9"
