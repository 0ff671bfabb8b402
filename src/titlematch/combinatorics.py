"""Token combinations and order-invariant signatures.

A title of length l contributes every k-subset of its tokens for
2 <= k <= min(K, l), enumerated lexicographically over title positions.
Unlike n-grams, subsets need not be contiguous, so tokens scattered across
a title can still be brought together.

A combination's signature is a 64-bit FNV-1a hash of its canonical key: the
member token IDs sorted ascending and joined by single spaces in decimal.
Equal token multisets therefore hash identically regardless of token order.
The index groups records by the exact sorted-ID key and stores no hash.
Signatures serve only scoring's last tie-break, which hashes the still-tied
keys of one product with signature_rows when the tie occurs.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# FNV-1a, 64-bit. Fixed constants; no seed.
FNV_OFFSET_BASIS = 14695981039346656037
FNV_PRIME = 1099511628211

_FNV_OFFSET_NP = np.uint64(FNV_OFFSET_BASIS)
_FNV_PRIME_NP = np.uint64(FNV_PRIME)
_SPACE_NP = np.uint64(32)
_POW10 = np.array([10**e for e in range(19)], dtype=np.int64)


def count_combinations(l_t: int, K: int) -> int:
    """Number of k-subsets of an l_t-token title summed over k = 2..min(K, l_t)."""
    if l_t < 0:
        raise ValueError(f"l_t must be >= 0, got {l_t}")
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    return sum(math.comb(l_t, k) for k in range(2, min(K, l_t) + 1))


@lru_cache(maxsize=1024)
def position_patterns(l: int, k: int) -> np.ndarray:
    """(C(l,k), k) matrix of title-position subsets in lexicographic order."""
    c = math.comb(l, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(l), k))
    m = np.fromiter(flat, dtype=np.int64, count=c * k).reshape(c, k)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=1024)
def drop_patterns(l: int, k: int) -> np.ndarray:
    """(C(l,k), k) table: [r, j] is the row of position_patterns(l, k - 1)
    that is position_patterns(l, k)[r] without member j. Read as base-l
    numbers, patterns keep their lexicographic order, so searchsorted finds it."""
    pats, weights = position_patterns(l, k), l ** np.arange(k - 2, -1, -1, dtype=np.int64)
    codes = position_patterns(l, k - 1) @ weights
    drop = [np.searchsorted(codes, np.delete(pats, j, axis=1) @ weights) for j in range(k)]
    table = np.stack(drop, axis=1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=1024)
def pattern_distances(l: int, k: int) -> np.ndarray:
    """Squared positional distance of each (l, k) pattern from the title head.

    Row r holds sum_j (pattern[r, j] - j)^2: the squared Euclidean distance
    between a combination's within-combination offsets and its tokens' title
    positions. Depends only on (l, k), so it is cached globally.
    """
    m = position_patterns(l, k)
    d = ((m - np.arange(k, dtype=np.int64)) ** 2).sum(axis=1)
    d.setflags(write=False)
    return d


def _fnv_mix_decimal(h: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Advance row hashes over the decimal digits of vals (per row)."""
    ndig = np.maximum(np.searchsorted(_POW10, vals, side="right"), 1)
    for length in range(1, int(ndig.max(initial=1)) + 1):
        mask = ndig == length
        if not mask.any():
            continue
        v = vals[mask]
        hh = h[mask]
        for e in range(length - 1, -1, -1):
            digit = ((v // _POW10[e]) % 10).astype(np.uint64) + np.uint64(48)
            hh = (hh ^ digit) * _FNV_PRIME_NP
        h[mask] = hh
    return h


def signature_rows(sorted_ids: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a signatures for rows of ascending token IDs.

    Row r hashes the ASCII bytes of its canonical key,
    " ".join(str(i) for i in sorted_ids[r]), one decimal digit at a time.
    """
    n, k = sorted_ids.shape
    h = np.full(n, _FNV_OFFSET_NP, dtype=np.uint64)
    # uint64 FNV multiplication wraps modulo 2^64 by design
    with np.errstate(over="ignore"):
        for j in range(k):
            if j:
                h = (h ^ _SPACE_NP) * _FNV_PRIME_NP
            h = _fnv_mix_decimal(h, sorted_ids[:, j])
    return h
