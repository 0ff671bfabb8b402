"""Feed generators for the benchmark workloads.

Each workload maps a seed to a list of (file name, Dataset) feeds, drawn from
`titlematch.synth`. The benchmark writes them as `published` CSV files; the
measured process sees only those files.

* short_titles: one 40k-title feed with short titles (K=3). Verify's
  candidate scan grows superlinearly with the title count and is the largest
  stage here.
* long_titles: one 4k-title feed with long titles, always K=5. The
  per-instance index loop and its memory dominate; verify idles. 10k titles
  take ~46 s a run and 40k titles are OOM-killed at ~7.9 GB, so 4k is the
  largest size that fits a run.
* many_feeds: 160 independent category-sized feeds of 30..350 titles with
  disjoint product IDs, matched one after another. Per-call and
  per-(length, k) bucket fixed costs show only here, and it is the only
  workload with enough feeds for a latency distribution.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from titlematch import synth
from titlematch.index import analyze_dataset, resolve_k
from titlematch.ingest import Dataset

Feed = Tuple[str, Dataset]

PUBLISHED_COLUMNS = (
    "product_id",
    "title",
    "vendor_id",
    "cluster_id",
    "cluster_label",
    "category_id",
    "category_label",
)

LONG_TITLES_DRAWS = 50
MANY_FEEDS = 160
MANY_FEEDS_TITLES = (30, 350)
# noise ranges that make K resolve to 2, 3 or 4
MANY_FEEDS_NOISE = ((1, 3), (2, 5), (3, 6))


def short_titles(seed: int) -> List[Feed]:
    return [("short_titles.csv", synth.efficiency_dataset(40000, seed=seed))]


def long_titles(seed: int) -> List[Feed]:
    """Titles average ~10.2 tokens, so about one seed in ten averages under 10
    and auto K resolves to 4: a third of the work and memory, another
    workload. Such a draw is replaced by the next derived seed, so the
    workload always has K=5."""
    for attempt in range(LONG_TITLES_DRAWS):
        dataset = synth.long_title_dataset(4000, seed=seed + attempt * 1_000_003)
        analyzed = analyze_dataset(dataset)
        if resolve_k(sum(t.length for t in analyzed) / len(analyzed)) == 5:
            return [("long_titles.csv", dataset)]
    raise RuntimeError(f"no K=5 long-title feed in {LONG_TITLES_DRAWS} draws from seed {seed}")


def many_feeds(seed: int) -> List[Feed]:
    """Feed sizes and noise ranges form a fixed grid; the seed draws each
    feed's content and the order they arrive in, so the size distribution
    (and with it the latency percentiles) does not drift with the seed."""
    rng = random.Random(seed)
    lo, hi = MANY_FEEDS_TITLES
    plan = [
        (lo + (hi - lo) * i // (MANY_FEEDS - 1), MANY_FEEDS_NOISE[i % len(MANY_FEEDS_NOISE)])
        for i in range(MANY_FEEDS)
    ]
    rng.shuffle(plan)
    feeds: List[Feed] = []
    next_pid = 1
    for j, (titles, noise) in enumerate(plan):
        dataset = synth.planted_dataset(
            n_clusters=max(1, round(titles / 5.6)),
            n_vendors=12,
            noise_per_listing=noise,
            seed=rng.randrange(2**32),
            first_product_id=next_pid,
        )
        next_pid += dataset.title_count
        feeds.append((f"feed_{j:03d}.csv", dataset))
    return feeds


WORKLOADS: Dict[str, Callable[[int], List[Feed]]] = {
    "short_titles": short_titles,
    "long_titles": long_titles,
    "many_feeds": many_feeds,
}


def tiny_feed() -> Dataset:
    """A few planted clusters, matched once to finish lazy set-up."""
    return synth.planted_dataset(n_clusters=6, n_vendors=5, seed=0)


def write_feed(dataset: Dataset, path: Path) -> None:
    """Write a dataset in the `published` layout, ground truth included."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PUBLISHED_COLUMNS)
        for p in dataset.products:
            writer.writerow(
                [
                    p.product_id,
                    p.title,
                    p.vendor_id,
                    p.truth_cluster_id,
                    f"cluster {p.truth_cluster_id}",
                    0,
                    "synthetic",
                ]
            )
