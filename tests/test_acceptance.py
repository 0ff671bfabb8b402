"""Acceptance suite.

One test per criterion; each prints a single [acceptance] PASS/FAIL line
(run with -s to see them as they happen). The published crawl datasets are
not available offline, so the two criteria defined against them run in their
documented fallback form on planted synthetic corpora: the quality bar
becomes "the pipeline strictly beats the best pairwise baseline over its
whole threshold sweep", and the efficiency bar becomes "the runtime gap to
the quadratic baseline grows across 2.5k/5k/10k subsamples and reaches at
least 5x at the top size".
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from collections import Counter

import numpy as np

from titlematch.baseline import pairwise_sweep
from titlematch.combinatorics import count_combinations
from titlematch.evaluation import strip_timings
from titlematch.index import build_index
from titlematch.ingest import load_ground_truth
from titlematch.pipeline import run_match
from titlematch.scoring import ScoringConfig, select_clusters
from titlematch.synth import efficiency_dataset, long_title_dataset, sized_dataset
from titlematch.verify import scan_violators, verify_universe

from helpers import assert_key_signatures, make_ablation_dataset, signature, write_feed_csv
from titlematch.cli import main as cli_main

TAUS = [round(0.1 * i, 1) for i in range(1, 10)]


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def acceptance(tag):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException:
                print(f"\n[acceptance] {tag}: FAIL")
                raise
            print(f"\n[acceptance] {tag}: PASS {detail}".rstrip())

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. baseline oracle equivalence
# ---------------------------------------------------------------------------


def _oracle_similarities(index):
    n = len(index.forward)
    titles = [set(index.forward.tokens_of(p).tolist()) for p in range(n)]
    freq = Counter(w for t in titles for w in t)
    idf = {w: math.log(n / c) for w, c in freq.items()}

    def pair(i, j):
        a, b = titles[i], titles[j]
        inter, union = a & b, a | b
        num = sum(idf[w] ** 2 for w in sorted(inter))
        na = sum(idf[w] ** 2 for w in sorted(a))
        nb = sum(idf[w] ** 2 for w in sorted(b))
        nu = sum(idf[w] ** 2 for w in sorted(union))
        return {
            "cs": len(inter) / math.sqrt(len(a) * len(b)),
            "j": len(inter) / len(union),
            "cs-idf": num / (math.sqrt(na) * math.sqrt(nb)) if na and nb else 0.0,
            "j-idf": num / nu if nu else 0.0,
        }

    return titles, pair


@acceptance("1 baseline-oracle-equivalence")
def test_criterion_1_baseline_oracle(fixture_200):
    start = time.perf_counter()
    index = build_index(fixture_200, with_combinations=False)
    n = len(index.forward)
    titles, oracle_pair = _oracle_similarities(index)

    from titlematch.baseline import cs, cs_idf, jaccard, jaccard_idf

    idf_arr = index.idf
    rng = random.Random(1234)
    pairs = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(1000)
    ]
    checked = 0
    for i, j in pairs:
        if i == j:
            continue
        expected = oracle_pair(i, j)
        a, b = index.token_set(i), index.token_set(j)
        got = {
            "cs": cs(a, b),
            "j": jaccard(a, b),
            "cs-idf": cs_idf(a, b, idf_arr),
            "j-idf": jaccard_idf(a, b, idf_arr),
        }
        for metric in expected:
            e, g = expected[metric], got[metric]
            assert abs(g - e) <= 1e-12 * max(1.0, abs(e)), (metric, i, j, e, g)
        checked += 1

    pids = index.forward.product_ids
    all_sims = {
        (i, j): oracle_pair(i, j) for i in range(n) for j in range(i + 1, n)
    }
    for metric in ("cs", "cs-idf", "j", "j-idf"):
        swept = pairwise_sweep(index, metric, TAUS)
        for tau in TAUS:
            expected_set = set()
            for (i, j), sims in all_sims.items():
                if sims[metric] > tau:
                    a, b = pids[i], pids[j]
                    expected_set.add((min(a, b), max(a, b)))
            assert swept[tau] == expected_set, (metric, tau)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    return f"pairs={checked} sweep=4x9 elapsed={elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. combinatorial counts
# ---------------------------------------------------------------------------


@acceptance("2 combinatorial-counts")
def test_criterion_2_counts():
    start = time.perf_counter()
    for l in range(13):
        for K in range(2, 7):
            expected = sum(
                1
                for k in range(2, K + 1)
                for _ in itertools.combinations(range(l), k)
            )
            assert count_combinations(l, K) == expected, (l, K)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    return f"domain=l<=12,K<=6 elapsed={elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. signature invariance and collision handling
# ---------------------------------------------------------------------------


@acceptance("3 signature-invariance")
def test_criterion_3_signatures():
    start = time.perf_counter()
    rng = random.Random(99)
    for _ in range(100_000):
        k = rng.randint(2, 6)
        ids = rng.sample(range(1_000_000), k)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        assert signature(ids).value == signature(shuffled).value

    # a corpus at the scale of the largest single category (3862 titles)
    ds = sized_dataset(3862, seed=3)
    index = build_index(ds)
    # distinct id multisets never merged: every stored canonical key is unique
    keys = {tuple(index.combos.ids_of(i)) for i in range(len(index.combos))}
    assert len(keys) == len(index.combos)
    # scoring's on-demand signatures agree with the scalar path on sampled keys
    assert_key_signatures(index.combos, np.arange(0, len(index.combos), 997))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.1f}s"
    return (
        f"permutations=100000 corpus_titles={ds.title_count} "
        f"combos={len(index.combos)} elapsed={elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 4. verification postcondition
# ---------------------------------------------------------------------------


@acceptance("4 vendor-consistency-postcondition")
def test_criterion_4_verification(fixture_200):
    fixtures = {
        "planted-200": fixture_200,
        "ablation": make_ablation_dataset(),
        "efficiency-1200": efficiency_dataset(1200, seed=8),
        "long-titles-800": long_title_dataset(800, seed=8),
    }
    details = []
    for name, ds in fixtures.items():
        start = time.perf_counter()
        index = build_index(ds)
        universe = select_clusters(index, ScoringConfig())
        before = Counter(
            p for c in universe.clusters for p in c.products
        )
        verify_universe(universe, index, tau=0.4)
        assert scan_violators(universe) == [], name
        after = Counter(p for c in universe.clusters for p in c.products)
        assert after == before, name
        snapshot = [sorted(c.products) for c in universe.clusters]
        verify_universe(universe, index, tau=0.4)
        assert [sorted(c.products) for c in universe.clusters] == snapshot, name
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
        details.append(f"{name}={elapsed:.2f}s")
    return " ".join(details)


# ---------------------------------------------------------------------------
# 5. matching quality versus the baselines (offline fallback form)
# ---------------------------------------------------------------------------


@acceptance("5 quality-vs-baselines")
def test_criterion_5_quality(fixture_200):
    result = run_match(fixture_200, ScoringConfig())
    f1 = result.report["f1"]
    best = {}
    for metric in ("cs", "cs-idf", "j", "j-idf"):
        index = build_index(fixture_200, with_combinations=False)
        swept = pairwise_sweep(index, metric, TAUS)
        truth = load_ground_truth(fixture_200)
        from titlematch.evaluation import prf1

        best[metric] = max(prf1(swept[t], truth)["f1"] for t in TAUS)
    top = max(best.values())
    assert f1 > top, f"pipeline {f1:.4f} vs best baseline {top:.4f} ({best})"
    return (
        f"titles={fixture_200.title_count} f1={f1:.4f} "
        f"best_baseline={top:.4f} margin={f1 - top:+.4f}"
    )


# ---------------------------------------------------------------------------
# 6. relative efficiency (offline fallback form: growing gap)
# ---------------------------------------------------------------------------


@acceptance("6 relative-efficiency")
def test_criterion_6_efficiency():
    sizes = (2500, 5000, 10000)
    ratios = []
    details = []
    for n in sizes:
        ds = efficiency_dataset(n, seed=5)
        # min of two runs removes cache-warmup noise from the trend
        t_pipeline = min(
            _timed(lambda: run_match(ds)) for _ in range(2)
        )
        index = build_index(ds, with_combinations=False)
        t_pairs = _timed(lambda: pairwise_sweep(index, "cs-idf", [0.4]))
        ratios.append(t_pairs / t_pipeline)
        details.append(
            f"n={ds.title_count}:pipeline={t_pipeline:.2f}s,pairs={t_pairs:.2f}s,"
            f"ratio={t_pairs / t_pipeline:.1f}x"
        )
    assert ratios[0] < ratios[1] < ratios[2], f"gap not growing: {ratios}"
    assert ratios[2] >= 5.0, f"final ratio {ratios[2]:.1f}x below 5x"
    return " ".join(details)


# ---------------------------------------------------------------------------
# 7. pruning variant: never slower, nearly as accurate
#
# Asserted here on planted corpora whose identifying tokens sit near the
# title head. The known divergence case is documented, not asserted: on
# corpora where identifying tokens drift deep into long tails (huge
# fashion-style catalogs), pruning to the first 2K tokens can cut real
# signal and cost far more F1 than it does here.
# ---------------------------------------------------------------------------


def _best_of(fn, repeats=3):
    times = []
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return min(times), value


@acceptance("7 pruning-variant")
def test_criterion_7_variant(fixture_200):
    details = []
    for name, ds in (
        ("planted-200", fixture_200),
        ("long-titles-1200", long_title_dataset(1200, seed=6)),
    ):
        t_base, r_base = _best_of(lambda: run_match(ds, ScoringConfig(variant="upm")))
        t_plus, r_plus = _best_of(lambda: run_match(ds, ScoringConfig(variant="upm+")))
        f_base, f_plus = r_base.report["f1"], r_plus.report["f1"]
        assert t_plus <= t_base, f"{name}: pruning slower ({t_plus:.3f}s > {t_base:.3f}s)"
        assert abs(f_base - f_plus) <= 0.1, f"{name}: f1 gap {abs(f_base - f_plus):.3f}"
        details.append(
            f"{name}:base={t_base:.2f}s/{f_base:.3f},pruned={t_plus:.2f}s/{f_plus:.3f}"
        )
    return " ".join(details)


# ---------------------------------------------------------------------------
# 8. verification ablation direction
# ---------------------------------------------------------------------------


@acceptance("8 ablation-direction")
def test_criterion_8_ablation():
    ds = make_ablation_dataset()
    with_verify = run_match(ds, verify=True).report["f1"]
    without = run_match(ds, verify=False).report["f1"]
    assert with_verify > without, (with_verify, without)
    return f"f1_verify={with_verify:.4f} f1_no_verify={without:.4f}"


# ---------------------------------------------------------------------------
# 9. determinism across runs
# ---------------------------------------------------------------------------


@acceptance("9 determinism")
def test_criterion_9_determinism(fixture_200, tmp_path):
    import json

    feed = tmp_path / "feed.csv"
    write_feed_csv(feed, fixture_200, "published")

    outputs = []
    for run in ("a", "b", "c"):
        report = tmp_path / f"report_{run}.jsonl"
        clusters = tmp_path / f"clusters_{run}.csv"
        code = cli_main(
            [
                "match",
                "--input",
                str(feed),
                "--format",
                "published",
                "--report",
                str(report),
                "--clusters",
                str(clusters),
            ]
        )
        row = json.loads(report.read_text().splitlines()[0])
        row = strip_timings(row)
        outputs.append((code, row, clusters.read_text()))

    codes = {o[0] for o in outputs}
    assert codes == {0}
    assert outputs[0][1] == outputs[1][1] == outputs[2][1]
    assert outputs[0][2] == outputs[1][2] == outputs[2][2]

    rows = []
    for run in ("x", "y"):
        path = tmp_path / f"base_{run}.jsonl"
        code = cli_main(
            [
                "baseline",
                "--input",
                str(feed),
                "--format",
                "published",
                "--baseline",
                "j-idf",
                "--sweep",
                "0.1:0.9:0.1",
                "--report",
                str(path),
            ]
        )
        assert code == 0
        rows.append([strip_timings(json.loads(l)) for l in path.read_text().splitlines()])
    assert rows[0] == rows[1]
    return "match_runs=3 baseline_runs=2 identical"
