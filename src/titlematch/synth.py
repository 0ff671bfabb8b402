"""Synthetic multi-vendor feeds with planted ground-truth clusters.

Each planted product gets a distinctive model token plus a brand, a category
word and one or two attribute tokens; every vendor listing of that product
keeps the identifying head tokens but varies trailing noise, occasionally
drops an attribute, and sometimes leads with a filler word. Different
products share brands, categories, attribute values and noise vocabulary,
which is what makes flat set-similarity struggle while the identifying token
combinations stay intact.

Two kinds of confusable siblings can be planted, both distinct ground-truth
products sold by largely the same vendors:

* family siblings share everything except the model token itself, which
  differs by a trailing letter ("kx450" vs "kx450s"). Set-overlap metrics
  see near-identical titles; distinct combination keys keep them apart.
* attribute siblings share the model token but differ in one attribute value
  (the 32gb-vs-64gb situation). These tend to merge under the shared
  combination, which is the error mode the verification stage corrects.

Generation is driven by an explicit seed and is fully reproducible.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .ingest import Dataset, RawProduct

BRANDS = [
    "acme", "zenit", "orion", "nordex", "velta", "quasar",
    "lumen", "taurus", "helix", "corvus", "midas", "argon",
]

CATEGORIES = [
    "blender", "toaster", "fridge", "oven", "router",
    "monitor", "keyboard", "drill", "heater", "speaker",
]

NOISE = [
    "black", "white", "silver", "steel", "premium", "classic",
    "eco", "plus", "compact", "series", "edition", "home", "pro",
    "set", "new", "smart", "power", "mini", "max", "sale", "top",
    "basic", "deluxe", "turbo",
]

ATTR_UNITS = ["w", "ml", "gb", "hz", "cm", "l"]
ATTR_VALUES = [120, 250, 500, 750, 800, 1000, 1500, 2000]

_MODEL_LETTERS = "bcdfghjklmnpqrstvwxz"


def _model_token(rng: random.Random) -> str:
    letters = "".join(rng.choice(_MODEL_LETTERS) for _ in range(rng.randint(2, 3)))
    digits = rng.randint(10, 9999)
    return f"{letters}{digits}"


def _listing_words(
    rng: random.Random,
    brand: str,
    model: str,
    category: str,
    attrs: List[str],
    noise_per_listing: Tuple[int, int],
    split_model_rate: float,
) -> List[str]:
    if rng.random() < split_model_rate:
        # vendors sometimes write "kx 450" for "kx450"
        stem = model.rstrip("0123456789")
        head_model = [stem, model[len(stem):]] if stem and len(stem) < len(model) else [model]
    else:
        head_model = [model]
    head = [brand] + head_model
    if rng.random() < 0.1:
        head = head_model + [brand]

    # vendors disagree wildly on verbosity: some list bare identifiers,
    # others pad with marketing words
    style = rng.random()
    if style < 0.25:  # terse
        body = ([category] if rng.random() < 0.6 else []) + [
            a for a in attrs if rng.random() < 0.5
        ]
        tail = rng.sample(NOISE, rng.randint(0, 1))
    elif style < 0.85:  # normal
        body = ([category] if rng.random() < 0.9 else []) + [
            a for a in attrs if rng.random() < 0.85
        ]
        tail = rng.sample(NOISE, rng.randint(*noise_per_listing))
    else:  # verbose
        body = ([category] if rng.random() < 0.95 else []) + attrs
        lo, hi = noise_per_listing
        tail = rng.sample(NOISE, min(len(NOISE), hi + rng.randint(2, 4)))
    words = head + body + tail
    if rng.random() < 0.08:
        words = [rng.choice(NOISE)] + words
    return words


def planted_dataset(
    n_clusters: int = 50,
    n_vendors: int = 10,
    listings_per_cluster: Tuple[int, int] = (2, 6),
    noise_per_listing: Tuple[int, int] = (2, 5),
    family_rate: float = 0.40,
    sibling_rate: float = 0.04,
    split_model_rate: float = 0.04,
    seed: int = 0,
    first_product_id: int = 1,
) -> Dataset:
    """Generate a feed of planted clusters with per-product ground truth.

    n_clusters counts base products; family and attribute siblings come on
    top of that.
    """
    rng = random.Random(seed)
    products: List[RawProduct] = []
    pid = first_product_id
    truth_id = 0
    models_seen = set()

    def emit(brand, model, category, attrs, vendors, cluster_id):
        nonlocal pid
        for vendor in vendors:
            words = _listing_words(
                rng, brand, model, category, attrs, noise_per_listing, split_model_rate
            )
            products.append(
                RawProduct(
                    product_id=pid,
                    title=" ".join(words),
                    vendor_id=vendor,
                    truth_cluster_id=cluster_id,
                )
            )
            pid += 1

    def sibling_vendors(vendors):
        extra = [v for v in range(n_vendors) if v not in vendors]
        out = vendors[: max(2, len(vendors) - 1)]
        if extra and rng.random() < 0.5:
            out = out + [rng.choice(extra)]
        return out

    for _ in range(n_clusters):
        brand = rng.choice(BRANDS)
        category = rng.choice(CATEGORIES)
        model = _model_token(rng)
        while model in models_seen:
            model = _model_token(rng)
        models_seen.add(model)
        unit = rng.choice(ATTR_UNITS)
        value = rng.choice(ATTR_VALUES)
        attrs = [f"{value}{unit}"]
        if rng.random() < 0.5:
            attrs.append(f"{rng.choice(ATTR_VALUES)}{rng.choice(ATTR_UNITS)}")
        count = rng.randint(*listings_per_cluster)
        vendors = rng.sample(range(n_vendors), min(count, n_vendors))
        emit(brand, model, category, attrs, vendors, truth_id)
        truth_id += 1

        if rng.random() < family_rate:
            # same family, one letter apart: kx450 vs kx450s
            family_model = model + rng.choice("skxepro"[0:6])
            if family_model not in models_seen:
                models_seen.add(family_model)
                emit(brand, family_model, category, attrs, sibling_vendors(vendors), truth_id)
                truth_id += 1

        if rng.random() < sibling_rate:
            other_value = rng.choice([v for v in ATTR_VALUES if v != value])
            emit(brand, model, category, [f"{other_value}{unit}"],
                 sibling_vendors(vendors), truth_id)
            truth_id += 1

    return Dataset(products=products)


def sized_dataset(n_titles: int, seed: int = 0, n_vendors: Optional[int] = None) -> Dataset:
    """A planted corpus with approximately n_titles listings."""
    avg_listings = 5.6  # base listings plus the sibling share at default rates
    n_clusters = max(1, int(n_titles / avg_listings))
    vendors = n_vendors if n_vendors is not None else max(12, n_titles // 50)
    return planted_dataset(
        n_clusters=n_clusters,
        n_vendors=vendors,
        listings_per_cluster=(2, 6),
        noise_per_listing=(3, 6),
        seed=seed,
    )


def efficiency_dataset(n_titles: int, seed: int = 0) -> Dataset:
    """Short-titled corpus (K resolves to 3) for runtime comparisons."""
    return planted_dataset(
        n_clusters=max(1, int(n_titles / 5.6)),
        n_vendors=max(12, n_titles // 50),
        listings_per_cluster=(2, 6),
        noise_per_listing=(1, 3),
        seed=seed,
    )


def long_title_dataset(n_titles: int, seed: int = 0) -> Dataset:
    """Verbose corpus where title pruning has something to cut."""
    return planted_dataset(
        n_clusters=max(1, int(n_titles / 5.6)),
        n_vendors=max(12, n_titles // 50),
        listings_per_cluster=(2, 6),
        noise_per_listing=(5, 9),
        seed=seed,
    )
