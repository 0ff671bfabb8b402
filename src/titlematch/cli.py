"""Command-line interface.

Subcommands:

    match      run the combination-clustering pipeline and report P/R/F1
    baseline   run a pairwise similarity baseline (single tau or a sweep)
    eval       re-score an existing cluster assignment file
    inspect    dump dataset, lexicon and scoring statistics

Parameter precedence is defaults < config file < flags. The scoring flags
default to ScoringConfig's field defaults. `--config file.json` may preset
alpha, b, k, tau, variant, distance, verify_metric, format, units and
no_verify: its values become the chosen subcommand's defaults, so an explicit
flag on the command line wins over the file. A key the subcommand has no flag
for is ignored; any other key is an error.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from .baseline import METRICS
from .evaluation import pair_scores, run_report
from .index import DISTANCE_MODES, build_index
from .ingest import (
    FORMATS,
    check_assignment,
    load_products,
    load_truth_file,
    read_clusters,
    truth_labels,
)
from .pipeline import run_baseline, run_match, write_clusters
from .scoring import VARIANTS, VERIFY_METRICS, ScoringConfig
from .textprep import UnitLexicon


def _wide_formatter(prog: str) -> argparse.HelpFormatter:
    # fixed width keeps --help output independent of the terminal
    return argparse.HelpFormatter(prog, width=96)


def _parse_k(value: str) -> Optional[int]:
    if value == "auto":
        return None
    try:
        k = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer, got {value!r}")
    if k < 2:
        raise argparse.ArgumentTypeError(f"K must be >= 2, got {k}")
    return k


def _parse_top(value: str) -> int:
    try:
        top = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if top < 0:
        raise argparse.ArgumentTypeError(f"--top must be >= 0, got {top}")
    return top


# each threshold is one report row; a longer sweep is a typo, not an experiment
MAX_SWEEP_THRESHOLDS = 1000


def _parse_sweep(value: str) -> List[float]:
    try:
        start, stop, step = (float(x) for x in value.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {value!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"sweep bounds and step must be finite, got {value!r}")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad sweep range {value!r}")
    if not 0 < start <= stop < 1:
        raise argparse.ArgumentTypeError(f"sweep range must lie inside (0, 1), got {value!r}")
    if (stop - start) / step >= MAX_SWEEP_THRESHOLDS:
        raise argparse.ArgumentTypeError(
            f"sweep {value!r} yields more than {MAX_SWEEP_THRESHOLDS} thresholds"
        )
    taus: List[float] = []
    i = 0
    while True:
        tau = round(start + i * step, 10)
        if tau > stop + 1e-9:
            break
        taus.append(tau)
        i += 1
    return taus


# the keys a config file may preset, each the dest of a parameter flag
_CONFIG_KEYS = (
    "format", "units", "alpha", "b", "k", "variant", "tau", "verify_metric", "distance", "no_verify"
)

_CHOICE_KEYS = {
    "format": FORMATS,
    "variant": VARIANTS,
    "verify_metric": VERIFY_METRICS,
    "distance": DISTANCE_MODES,
}


def _config_value(key: str, value):
    """Check one config-file value against its flag's type; JSON types are
    taken as they are, never coerced."""
    if key in _CHOICE_KEYS:
        if value not in _CHOICE_KEYS[key]:
            raise ValueError(
                f"config key {key!r} must be one of {_CHOICE_KEYS[key]}, got {value!r}"
            )
    elif key in ("alpha", "b", "tau"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key {key!r} must be a number, got {value!r}")
        value = float(value)
    elif key == "k":
        if value == "auto":
            value = None
        elif isinstance(value, bool) or not isinstance(value, int) or value < 2:
            raise ValueError(f"config key 'k' must be 'auto' or an integer >= 2, got {value!r}")
    elif key == "no_verify":
        if not isinstance(value, bool):
            raise ValueError(f"config key 'no_verify' must be true or false, got {value!r}")
    elif not isinstance(value, str):
        raise ValueError(f"config key {key!r} must be a string, got {value!r}")
    return value


def _config_defaults(args) -> dict:
    """The checked values of the `--config` file for the flags the chosen
    subcommand has; keys it has no flag for are skipped unchecked."""
    path = Path(args.config)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config file must hold a JSON object: {path}")
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return {k: _config_value(k, data[k]) for k in _CONFIG_KEYS if k in data and hasattr(args, k)}


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="feed CSV file")
    p.add_argument(
        "--format", choices=FORMATS, default="simple", help="feed layout (default: %(default)s)"
    )
    p.add_argument(
        "--truth",
        default=None,
        help="truth CSV (product_id,cluster_id); optional when format=published",
    )
    p.add_argument("--units", default=None, help="measurement-unit lexicon file")
    p.add_argument(
        "--config",
        default=None,
        help="JSON file presetting parameter flags (flags still win)",
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", default=None, help="write a JSON-lines report here")
    p.add_argument("--summary", default=None, help="write a CSV summary here")


def build_parser(preset: Optional[dict] = None) -> argparse.ArgumentParser:
    """The titlematch parser; `preset` (a config file's values) replaces the
    flag defaults of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="titlematch",
        description="Cluster product titles from multi-vendor feeds without supervision.",
        formatter_class=_wide_formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tuned = ScoringConfig  # its field defaults are the flag defaults

    p_match = sub.add_parser(
        "match", help="run the combination-clustering pipeline", formatter_class=_wide_formatter
    )
    _add_input_args(p_match)
    p_match.add_argument(
        "--alpha", type=float, default=tuned.alpha, help="proximity constant (default: %(default)g)"
    )
    p_match.add_argument(
        "--b",
        type=float,
        default=tuned.b,
        help="length normalization in [0,1] (default: %(default)g)",
    )
    p_match.add_argument(
        "--k",
        type=_parse_k,
        default=tuned.k,
        metavar="auto|INT",
        help="max combination size; auto = half the average title length",
    )
    p_match.add_argument(
        "--variant", choices=VARIANTS, default=tuned.variant, help="title pruning variant"
    )
    p_match.add_argument(
        "--tau",
        type=float,
        default=tuned.tau,
        help="verification similarity threshold (default: %(default)g)",
    )
    p_match.add_argument("--no-verify", action="store_true", help="skip the verification stage")
    p_match.add_argument(
        "--verify-metric",
        choices=VERIFY_METRICS,
        default=tuned.verify_metric,
        help="similarity used during verification",
    )
    p_match.add_argument(
        "--distance",
        choices=DISTANCE_MODES,
        default=tuned.distance_mode,
        help="positional distance accumulation",
    )
    p_match.add_argument("--clusters", default=None, help="write product_id,cluster_id CSV here")
    _add_output_args(p_match)
    p_match.set_defaults(func=cmd_match)

    p_base = sub.add_parser(
        "baseline", help="run a pairwise similarity baseline", formatter_class=_wide_formatter
    )
    _add_input_args(p_base)
    p_base.add_argument("--baseline", choices=METRICS, required=True, help="similarity metric")
    p_base.add_argument(
        "--tau",
        type=float,
        default=tuned.tau,
        help="match threshold, strict > (default: %(default)g)",
    )
    p_base.add_argument(
        "--sweep",
        type=_parse_sweep,
        default=None,
        metavar="START:STOP:STEP",
        help="evaluate a whole threshold range, e.g. 0.1:0.9:0.1",
    )
    _add_output_args(p_base)
    p_base.set_defaults(func=cmd_baseline)

    p_eval = sub.add_parser(
        "eval", help="score an existing cluster assignment", formatter_class=_wide_formatter
    )
    _add_input_args(p_eval)
    p_eval.add_argument("--clusters", required=True, help="product_id,cluster_id CSV to score")
    _add_output_args(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_ins = sub.add_parser(
        "inspect", help="dump dataset and index statistics", formatter_class=_wide_formatter
    )
    _add_input_args(p_ins)
    p_ins.add_argument("--k", type=_parse_k, default=tuned.k, metavar="auto|INT")
    p_ins.add_argument("--variant", choices=VARIANTS, default=tuned.variant)
    p_ins.add_argument("--distance", choices=DISTANCE_MODES, default=tuned.distance_mode)
    p_ins.add_argument(
        "--top", type=_parse_top, default=10, help="how many frequent tokens to list"
    )
    p_ins.set_defaults(func=cmd_inspect)

    for p in sub.choices.values():
        p.set_defaults(**(preset or {}))
    return parser


def _load_dataset(args):
    dataset = load_products(args.input, args.format)
    if args.truth:
        dataset = load_truth_file(args.truth, dataset)
    return dataset


def _load_units(args) -> Optional[UnitLexicon]:
    return UnitLexicon.from_file(args.units) if args.units else None


def _scores_text(row: dict) -> str:
    """The printed precision/recall/F1 of a report row; empty when the row
    has no scores."""
    if row["f1"] is None:
        return ""
    return f" precision={row['precision']:.4f} recall={row['recall']:.4f} f1={row['f1']:.4f}"


def cmd_match(args) -> int:
    dataset = _load_dataset(args)
    config = ScoringConfig(
        alpha=args.alpha,
        b=args.b,
        k=args.k,
        tau=args.tau,
        variant=args.variant,
        distance_mode=args.distance,
        verify_metric=args.verify_metric,
    )
    result = run_match(
        dataset,
        config,
        units=_load_units(args),
        verify=not args.no_verify,
        dataset_path=str(args.input),
    )
    if args.clusters:
        write_clusters(args.clusters, result)
    run_report([result.report], args.report, args.summary)
    r = result.report
    print(f"titles={r['dataset']['titles']} clusters={r['clusters']} k={r['k']}" + _scores_text(r))
    return 0


def cmd_baseline(args) -> int:
    dataset = _load_dataset(args)
    taus = args.sweep if args.sweep else [args.tau]
    rows, _ = run_baseline(
        dataset,
        args.baseline,
        taus,
        units=_load_units(args),
        dataset_path=str(args.input),
    )
    run_report(rows, args.report, args.summary)
    for row in rows:
        line = f"metric={row['method']} tau={row['params']['tau']:.2f} pairs={row['predicted_pairs']}"
        print(line + _scores_text(row))
    return 0


def cmd_eval(args) -> int:
    dataset = _load_dataset(args)
    assignment = read_clusters(args.clusters)
    check_assignment(assignment, dataset, args.clusters)
    truth = truth_labels(dataset)
    predicted = [assignment[p.product_id] for p in dataset.products]
    row = {
        "command": "eval",
        "dataset": {"path": str(args.input), "titles": dataset.title_count},
        "method": "eval",
        "params": {"clusters": str(args.clusters)},
        "k": None,
        "clusters": len(set(assignment.values())),
        # a truth without pairs leaves the scores null, as in match
        **pair_scores(predicted, truth),
        "timings_ms": {},
    }
    run_report([row], args.report, args.summary)
    print(f"clusters={row['clusters']}" + _scores_text(row))
    return 0


def cmd_inspect(args) -> int:
    dataset = _load_dataset(args)
    index = build_index(
        dataset, k=args.k, variant=args.variant, distance_mode=args.distance, units=_load_units(args)
    )
    s = index.stats
    print(f"titles={s.title_count} vendors={dataset.vendor_count}")
    print(f"k={index.k} variant={index.variant} distance={index.distance_mode}")
    print(f"distinct_tokens={s.distinct_tokens} avg_title_len={s.avg_title_len:.3f}")
    print(
        f"combinations={s.distinct_combinations} instances={s.combination_instances} "
        f"avg_combination_len={s.avg_combination_len:.3f}"
    )
    tokens = index.tokens
    for i in np.argsort(-tokens.f_w, kind="stable")[: args.top].tolist():
        print(f"token id={i} f={tokens.f_w[i]} sem={tokens.s_w[i]} {tokens.surfaces[i]}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # FeedFormatError is a ValueError; a missing path, or a directory where a
    # file belongs, is an OSError
    try:
        if args.config:
            # parsing again with the file's values as defaults lets flags win
            args = build_parser(_config_defaults(args)).parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
