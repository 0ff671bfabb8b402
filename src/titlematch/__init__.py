"""Unsupervised product-title matching via scored token combinations.

The pipeline clusters titles from multi-vendor feeds without training data:
titles are tokenized and morphologically analyzed, every 2..K token subset is
indexed under its sorted token-ID key, each product adopts its
highest-scoring combination as a cluster, and a verification pass enforces
that no vendor appears twice inside one cluster. Quadratic pairwise baselines
(cosine / Jaccard, plain and idf-weighted) and a pair-level F1 harness are
included for comparison.
"""

from .baseline import cs, cs_idf, jaccard, jaccard_idf, pairwise_match, pairwise_sweep
from .combinatorics import (
    Combination,
    Signature,
    count_combinations,
    generate_combinations,
    signature,
)
from .evaluation import expand_cluster_pairs, prf1, run_report
from .index import (
    IndexStats,
    ProductIndex,
    build_index,
    distance,
    load_index,
    resolve_k,
    save_index,
)
from .ingest import Dataset, RawProduct, load_ground_truth, load_products, load_truth_file
from .pipeline import MatchResult, run_baseline, run_match
from .scoring import (
    ClusterUniverse,
    ScoringConfig,
    avg_distance,
    combination_score,
    field_weight,
    ir_score,
    select_clusters,
)
from .textprep import (
    AnalyzedTitle,
    Semantics,
    Token,
    UnitLexicon,
    analyze_title,
    classify_tokens,
    normalize_title,
    truncate_for_variant,
)
from .verify import product_similarity, scan_violators, verify_universe

__version__ = "0.1.0"

__all__ = [
    "AnalyzedTitle",
    "ClusterUniverse",
    "Combination",
    "Dataset",
    "IndexStats",
    "MatchResult",
    "ProductIndex",
    "RawProduct",
    "ScoringConfig",
    "Semantics",
    "Signature",
    "Token",
    "UnitLexicon",
    "analyze_title",
    "avg_distance",
    "build_index",
    "classify_tokens",
    "combination_score",
    "count_combinations",
    "cs",
    "cs_idf",
    "distance",
    "expand_cluster_pairs",
    "field_weight",
    "generate_combinations",
    "ir_score",
    "jaccard",
    "jaccard_idf",
    "load_ground_truth",
    "load_index",
    "load_products",
    "load_truth_file",
    "normalize_title",
    "pairwise_match",
    "pairwise_sweep",
    "prf1",
    "product_similarity",
    "resolve_k",
    "run_baseline",
    "run_match",
    "run_report",
    "save_index",
    "scan_violators",
    "select_clusters",
    "signature",
    "truncate_for_variant",
    "verify_universe",
]
