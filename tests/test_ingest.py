"""Feed loading and ground-truth pair expansion."""

from __future__ import annotations

import random
import re

import pytest

from titlematch.ingest import (
    Dataset,
    FeedFormatError,
    RawProduct,
    load_ground_truth,
    load_products,
    load_truth_file,
)
from titlematch.synth import planted_dataset

from helpers import write_feed_csv, write_truth_csv


def brute_force_pairs(dataset: Dataset):
    """Oracle: quadratic scan comparing truth IDs directly."""
    pairs = set()
    products = dataset.products
    for i in range(len(products)):
        for j in range(i + 1, len(products)):
            if products[i].truth_cluster_id == products[j].truth_cluster_id:
                a, b = products[i].product_id, products[j].product_id
                pairs.add((min(a, b), max(a, b)))
    return pairs


def test_header_only_file(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("id,title,vendor\n", encoding="utf-8")
    ds = load_products(path, "simple")
    assert ds.title_count == 0


def test_two_rows_in_file_order(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("id,title,vendor\n7,intel cpu,1\n3,amd cpu,2\n", encoding="utf-8")
    ds = load_products(path, "simple")
    assert ds.title_count == 2
    assert [p.product_id for p in ds.products] == [7, 3]
    assert ds.products[0].title == "intel cpu"
    assert ds.vendor_count == 2


def test_empty_title_reports_row(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("id,title,vendor\n1,good title,1\n2,   ,1\n", encoding="utf-8")
    with pytest.raises(FeedFormatError, match="row 3"):
        load_products(path, "simple")


def test_duplicate_product_id_is_error(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("id,title,vendor\n1,a b,1\n1,c d,2\n", encoding="utf-8")
    with pytest.raises(FeedFormatError, match="duplicate product_id 1"):
        load_products(path, "simple")


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_products("/nonexistent/feed.csv", "simple")


def test_malformed_row_reports_number(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("id,title,vendor\nnotanint,foo,1\n", encoding="utf-8")
    with pytest.raises(FeedFormatError, match="row 2"):
        load_products(path, "simple")


def test_short_row_reports_number(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("id,title,vendor\n1,only-two-cols\n", encoding="utf-8")
    with pytest.raises(FeedFormatError, match="row 2"):
        load_products(path, "simple")


PUBLISHED_HEADER = "product_id,title,vendor_id,cluster_id,cluster_label,category_id,category_label"


@pytest.mark.parametrize(
    "row, message",
    [
        ("x2,acme kettle,3,9,k,1,c", "row 3: product_id is not an integer: 'x2'"),
        ("2,acme kettle,v3,9,k,1,c", "row 3: vendor_id is not an integer: 'v3'"),
        ("2,acme kettle,3,9.5,k,1,c", "row 3: cluster_id is not an integer: '9.5'"),
        # the checks run in order: product_id, title, vendor_id, cluster_id,
        # then the duplicate
        ("x2,  ,v3,9,k,1,c", "row 3: product_id is not an integer: 'x2'"),
        ("2,  ,v3,9,k,1,c", "row 3: empty title for product 2"),
        ("2,acme kettle,v3,x9,k,1,c", "row 3: vendor_id is not an integer: 'v3'"),
        ("1,acme kettle,3,x9,k,1,c", "row 3: cluster_id is not an integer: 'x9'"),
        ("1,acme kettle,3,9,k,1,c", "row 3: duplicate product_id 1"),
    ],
)
def test_published_row_errors_name_row_and_field(tmp_path, row, message):
    path = tmp_path / "feed.csv"
    path.write_text(f"{PUBLISHED_HEADER}\n1,acme toaster,1,0,t,1,c\n{row}\n", encoding="utf-8")
    with pytest.raises(FeedFormatError, match=re.escape(f"feed file {path}: {message}")):
        load_products(path, "published")


# int() takes " 7 " as it is; "\x1c" is whitespace to str.strip only
@pytest.mark.parametrize("pad", [" ", "\t", "\x1c"])
def test_integer_fields_may_carry_surrounding_whitespace(tmp_path, pad):
    path = tmp_path / "feed.csv"
    row = ",".join([f"{pad}7{pad}", "acme kettle", f"{pad}3{pad}", f"{pad}9{pad}", "k", "1", "c"])
    path.write_text(f"{PUBLISHED_HEADER}\n{row}\n", encoding="utf-8")
    assert load_products(path, "published").products == [RawProduct(7, "acme kettle", 3, 9)]


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "feed.csv"
    path.write_text("id,title,vendor\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown format"):
        load_products(path, "excel")


def test_published_layout_reads_truth(tmp_path):
    ds = planted_dataset(n_clusters=4, n_vendors=4, seed=9)
    path = tmp_path / "published.csv"
    write_feed_csv(path, ds, "published")
    loaded = load_products(path, "published")
    assert loaded.title_count == ds.title_count
    assert [p.truth_cluster_id for p in loaded.products] == [
        p.truth_cluster_id for p in ds.products
    ]


def test_truth_file_attaches_clusters(tmp_path):
    ds = planted_dataset(n_clusters=4, n_vendors=4, seed=9)
    feed = tmp_path / "feed.csv"
    truth = tmp_path / "truth.csv"
    write_feed_csv(feed, ds, "simple")
    write_truth_csv(truth, ds)
    loaded = load_truth_file(truth, load_products(feed, "simple"))
    assert load_ground_truth(loaded) == load_ground_truth(ds)


@pytest.mark.parametrize(
    "text, message",
    [
        ("id,cluster\n1,0\n2,0\n3,1\n", r"row 1: expected header product_id,cluster_id"),
        ("product_id,cluster_id\n1,0\n2,0\n2,5\n3,1\n", r"row 4: duplicate product_id 2"),
    ],
    ids=["bad_header", "repeated_product"],
)
def test_truth_file_rejects_bad_rows(tmp_path, text, message):
    feed = tmp_path / "feed.csv"
    feed.write_text("id,title,vendor\n1,a b,0\n2,a c,1\n3,d e,0\n", encoding="utf-8")
    truth = tmp_path / "truth.csv"
    truth.write_text(text, encoding="utf-8")
    with pytest.raises(FeedFormatError, match=f"truth file {re.escape(str(truth))}: {message}"):
        load_truth_file(truth, load_products(feed, "simple"))


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "product_id,cluster_id\n1,0\n2,0\n3,1\n99,1\n",
            "product 99 in truth file {path} is not in the feed",
        ),
        ("product_id,cluster_id\n1,0\n3,1\n", "product 2 has no cluster in truth file {path}"),
    ],
    ids=["not_in_feed", "no_cluster"],
)
def test_truth_file_must_cover_the_feed_exactly(tmp_path, text, message):
    feed = tmp_path / "feed.csv"
    feed.write_text("id,title,vendor\n1,a b,0\n2,a c,1\n3,d e,0\n", encoding="utf-8")
    truth = tmp_path / "truth.csv"
    truth.write_text(text, encoding="utf-8")
    with pytest.raises(FeedFormatError) as exc_info:
        load_truth_file(truth, load_products(feed, "simple"))
    assert str(exc_info.value) == message.format(path=truth)


def test_three_products_one_cluster():
    ds = Dataset(
        products=[
            RawProduct(1, "a b", 1, 5),
            RawProduct(2, "c d", 2, 5),
            RawProduct(3, "e f", 3, 5),
        ]
    )
    pairs = load_ground_truth(ds)
    assert pairs == brute_force_pairs(ds)
    assert pairs == {(1, 2), (1, 3), (2, 3)}


def test_singletons_give_no_pairs():
    ds = Dataset(
        products=[RawProduct(i, f"title {i}", i, i) for i in range(1, 6)]
    )
    assert load_ground_truth(ds) == set()


def test_two_pairs_from_two_doubletons():
    ds = Dataset(
        products=[
            RawProduct(1, "a", 1, 10),
            RawProduct(2, "b", 2, 10),
            RawProduct(3, "c", 3, 11),
            RawProduct(4, "d", 4, 11),
        ]
    )
    assert load_ground_truth(ds) == {(1, 2), (3, 4)}


def test_missing_truth_cluster_is_error():
    ds = Dataset(products=[RawProduct(1, "a b", 1, None)])
    with pytest.raises(FeedFormatError):
        load_ground_truth(ds)


def test_pair_count_matches_brute_force_on_random_assignments():
    rng = random.Random(123)
    products = [
        RawProduct(i, f"title {i}", rng.randrange(20), rng.randrange(60))
        for i in range(1, 801)
    ]
    ds = Dataset(products=products)
    assert load_ground_truth(ds) == brute_force_pairs(ds)


def test_reload_is_deterministic(tmp_path):
    ds = planted_dataset(n_clusters=6, n_vendors=5, seed=4)
    path = tmp_path / "feed.csv"
    write_feed_csv(path, ds, "published")
    first = load_products(path, "published")
    second = load_products(path, "published")
    assert first.products == second.products
