"""Vendor feed loading and ground-truth pair expansion.

Feeds are CSV files with a header row, UTF-8, comma-delimited, double-quote
escaped. Two layouts are supported:

    simple      id, title, vendor
    published   product_id, title, vendor_id, cluster_id, cluster_label,
                category_id, category_label

The published layout embeds the ground-truth cluster of every product; the
simple layout can be paired with a separate truth file (product_id,
cluster_id). Ground truth is kept as per-product cluster IDs and expanded to
unordered (min_id, max_id) pairs on demand.
"""

from __future__ import annotations

import csv
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

MatchSet = Set[Tuple[int, int]]

FORMATS = ("simple", "published")

CLUSTERS_HEADER = ("product_id", "cluster_id")


class FeedFormatError(ValueError):
    """Malformed feed content; message names the offending row when known."""


@dataclass(frozen=True)
class RawProduct:
    product_id: int
    title: str
    vendor_id: int
    truth_cluster_id: Optional[int] = None


@dataclass
class Dataset:
    products: List[RawProduct] = field(default_factory=list)

    @property
    def title_count(self) -> int:
        return len(self.products)

    @property
    def vendor_count(self) -> int:
        return len({p.vendor_id for p in self.products})

    @property
    def has_truth(self) -> bool:
        """Whether the dataset is non-empty and every product has a truth cluster."""
        return bool(self.products) and all(p.truth_cluster_id is not None for p in self.products)


@contextmanager
def _csv_reader(path, kind: str) -> Iterator:
    """A csv reader over a UTF-8 file. Errors raised while reading it become
    FeedFormatError naming the kind of file and its path; a csv parser error,
    such as a field over the csv module's size limit, also names the 1-based
    physical line."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{kind} file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except (FeedFormatError, UnicodeDecodeError) as exc:
            raise FeedFormatError(f"{kind} file {path}: {exc}") from None
        except csv.Error as exc:
            raise FeedFormatError(f"{kind} file {path}: line {reader.line_num}: {exc}") from None


def _parse_int(value: str, row_num: int, what: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise FeedFormatError(f"row {row_num}: {what} is not an integer: {value!r}") from None


def _checked_product(row: List[str], row_num: int, title: str, published: bool) -> RawProduct:
    """The row's product, checked field by field in order: product_id, the
    title, vendor_id, then cluster_id; the first bad one raises."""
    pid = _parse_int(row[0], row_num, "product_id")
    if not title:
        raise FeedFormatError(f"row {row_num}: empty title for product {pid}")
    vendor = _parse_int(row[2], row_num, "vendor_id")
    truth = _parse_int(row[3], row_num, "cluster_id") if published else None
    return RawProduct(pid, title, vendor, truth)


def load_products(path, fmt: str = "simple") -> Dataset:
    """Load a feed file into a Dataset, preserving file order.

    Errors name the file, and the 1-based row (counting the header) when a
    row is malformed.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    published = fmt == "published"
    min_cols = 7 if published else 3
    products: List[RawProduct] = []
    seen_ids: Set[int] = set()
    with _csv_reader(path, "feed") as reader:
        header = next(reader, None)
        if header is None:
            raise FeedFormatError("empty (missing header row)")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < min_cols:
                raise FeedFormatError(
                    f"row {row_num}: expected {min_cols} columns for format "
                    f"{fmt!r}, got {len(row)}"
                )
            title = row[1].strip()
            # int() takes most surrounding whitespace itself; a row it rejects,
            # or one without a title, goes through the ordered checks
            try:
                product = RawProduct(
                    int(row[0]), title, int(row[2]), int(row[3]) if published else None
                )
            except ValueError:
                product = None
            if product is None or not title:
                product = _checked_product(row, row_num, title, published)
            if product.product_id in seen_ids:
                raise FeedFormatError(f"row {row_num}: duplicate product_id {product.product_id}")
            seen_ids.add(product.product_id)
            products.append(product)
    return Dataset(products=products)


def read_clusters(path, kind: str = "clusters") -> Dict[int, int]:
    """Load a product_id,cluster_id CSV: a clusters file as written by
    pipeline.write_clusters, or a truth file.

    Errors name the file, and the 1-based row (counting the header) when a
    row is malformed.
    """
    out: Dict[int, int] = {}
    with _csv_reader(path, kind) as reader:
        header = [cell.strip() for cell in next(reader, [])]
        if header != list(CLUSTERS_HEADER):
            raise FeedFormatError(
                f"row 1: expected header {','.join(CLUSTERS_HEADER)}, got {','.join(header)!r}"
            )
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise FeedFormatError(f"row {row_num}: expected 2 columns, got {len(row)}")
            pid = _parse_int(row[0], row_num, "product_id")
            if pid in out:
                raise FeedFormatError(f"row {row_num}: duplicate product_id {pid}")
            out[pid] = _parse_int(row[1], row_num, "cluster_id")
    return out


def check_assignment(assignment: Mapping[int, int], dataset: Dataset, source: str) -> None:
    """Reject an assignment that names a product missing from the feed, or
    that leaves a feed product out; source names the file in the message."""
    feed_ids = {p.product_id for p in dataset.products}
    for pid in assignment:
        if pid not in feed_ids:
            raise FeedFormatError(f"product {pid} in {source} is not in the feed")
    for p in dataset.products:
        if p.product_id not in assignment:
            raise FeedFormatError(f"product {p.product_id} has no cluster in {source}")


def load_truth_file(path, dataset: Dataset) -> Dataset:
    """Attach cluster IDs from a (product_id, cluster_id) CSV to a dataset."""
    truth = read_clusters(path, "truth")
    check_assignment(truth, dataset, f"truth file {path}")
    return Dataset(
        products=[replace(p, truth_cluster_id=truth[p.product_id]) for p in dataset.products]
    )


def pairs_from_assignment(assignment: Mapping[int, int]) -> MatchSet:
    """Expand a product-to-cluster map into unordered (min_id, max_id) pairs."""
    groups: Dict[int, List[int]] = {}
    for pid, cid in assignment.items():
        groups.setdefault(cid, []).append(pid)
    pairs: MatchSet = set()
    for members in groups.values():
        pairs.update(itertools.combinations(sorted(members), 2))
    return pairs


def truth_labels(dataset: Dataset) -> List[int]:
    """Every product's ground-truth cluster ID, in product order."""
    for p in dataset.products:
        if p.truth_cluster_id is None:
            raise FeedFormatError(f"product {p.product_id} has no ground-truth cluster")
    return [p.truth_cluster_id for p in dataset.products]


def load_ground_truth(dataset: Dataset) -> MatchSet:
    """Expand per-product cluster IDs into all unordered matching pairs."""
    return pairs_from_assignment(
        dict(zip((p.product_id for p in dataset.products), truth_labels(dataset)))
    )
