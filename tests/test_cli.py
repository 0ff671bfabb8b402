"""Command-line interface, end to end."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from titlematch.cli import MAX_SWEEP_THRESHOLDS, _parse_sweep, _plain_parser, build_parser, main
from titlematch.evaluation import prf1, strip_timings
from titlematch.ingest import (
    Dataset,
    RawProduct,
    load_ground_truth,
    pairs_from_assignment,
    read_clusters,
)
from titlematch.synth import efficiency_dataset

from helpers import make_ablation_dataset, write_feed_csv, write_truth_csv

DATA_DIR = Path(__file__).parent / "data"


def make_twenty_product_dataset() -> Dataset:
    """Five products, four vendors each; clusters are hand-verifiable.

    Every product keeps its brand+model head in all listings, noise varies in
    the tail, and no two products share a model token, so the expected
    partition is exactly the five truth clusters.
    """
    cores = [
        ("acme", "kf310", "toaster", "750w"),
        ("zenit", "rw55", "fridge", "300l"),
        ("orion", "px7200", "monitor", "27in"),
        ("nordex", "db920", "drill", "800w"),
        ("velta", "sm18", "scooter", "250w"),
    ]
    tails = ["black steel", "eco plus", "home set", "classic"]
    rows = []
    pid = 1
    for ci, (brand, model, cat, attr) in enumerate(cores):
        for v, tail in enumerate(tails):
            title = f"{brand} {model} {cat} {attr} {tail}"
            rows.append(RawProduct(pid, title, v, ci))
            pid += 1
    return Dataset(products=rows)


@pytest.fixture()
def feed(tmp_path):
    ds = make_twenty_product_dataset()
    path = tmp_path / "feed.csv"
    write_feed_csv(path, ds, "published")
    return path


@pytest.fixture()
def ablation_feed(tmp_path):
    ds = make_ablation_dataset()
    path = tmp_path / "ablation.csv"
    write_feed_csv(path, ds, "published")
    return path


def run_cli(args):
    return main(args)


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def test_match_end_to_end(feed, tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    clusters = tmp_path / "clusters.csv"
    code = run_cli(
        [
            "match",
            "--input",
            str(feed),
            "--format",
            "published",
            "--variant",
            "upm",
            "--report",
            str(report),
            "--clusters",
            str(clusters),
        ]
    )
    assert code == 0
    row = read_jsonl(report)[0]
    # hand-verified: the five planted products come back exactly
    assert row["precision"] == 1.0
    assert row["recall"] == 1.0
    assert row["f1"] == 1.0
    assert row["clusters"] == 5
    assignment = read_clusters(clusters)
    assert len(assignment) == 20
    groups = {}
    for pid, cid in assignment.items():
        groups.setdefault(cid, set()).add(pid)
    expected = [set(range(1 + 4 * i, 5 + 4 * i)) for i in range(5)]
    assert sorted(groups.values(), key=min) == expected
    out = capsys.readouterr().out
    assert "f1=1.0000" in out


def test_ablation_direction(ablation_feed, tmp_path):
    r_on = tmp_path / "on.jsonl"
    r_off = tmp_path / "off.jsonl"
    assert run_cli(
        ["match", "--input", str(ablation_feed), "--format", "published", "--report", str(r_on)]
    ) == 0
    assert run_cli(
        [
            "match",
            "--input",
            str(ablation_feed),
            "--format",
            "published",
            "--no-verify",
            "--report",
            str(r_off),
        ]
    ) == 0
    f1_on = read_jsonl(r_on)[0]["f1"]
    f1_off = read_jsonl(r_off)[0]["f1"]
    assert f1_off <= f1_on
    assert f1_on > f1_off  # verification strictly helps on this fixture


def test_explicit_k_differs_only_in_k(feed, tmp_path):
    r_auto = tmp_path / "auto.jsonl"
    r_k3 = tmp_path / "k3.jsonl"
    base = ["match", "--input", str(feed), "--format", "published"]
    assert run_cli(base + ["--report", str(r_auto)]) == 0
    assert run_cli(base + ["--k", "3", "--report", str(r_k3)]) == 0
    auto_row = read_jsonl(r_auto)[0]
    k3_row = read_jsonl(r_k3)[0]
    assert auto_row["k"] == 2  # half the 5.75-token average title length
    assert k3_row["k"] == 3
    assert auto_row["params"]["alpha"] == k3_row["params"]["alpha"]
    # rerunning either configuration reproduces it exactly
    r_again = tmp_path / "again.jsonl"
    assert run_cli(base + ["--k", "3", "--report", str(r_again)]) == 0
    assert strip_timings(read_jsonl(r_again)[0]) == strip_timings(k3_row)


def test_simple_format_with_truth_file(tmp_path):
    ds = make_twenty_product_dataset()
    feed = tmp_path / "feed.csv"
    truth = tmp_path / "truth.csv"
    write_feed_csv(feed, ds, "simple")
    write_truth_csv(truth, ds)
    report = tmp_path / "r.jsonl"
    code = run_cli(
        [
            "match",
            "--input",
            str(feed),
            "--format",
            "simple",
            "--truth",
            str(truth),
            "--report",
            str(report),
        ]
    )
    assert code == 0
    assert read_jsonl(report)[0]["f1"] == 1.0


def test_baseline_sweep_emits_nine_rows(feed, tmp_path, capsys):
    report = tmp_path / "sweep.jsonl"
    code = run_cli(
        [
            "baseline",
            "--input",
            str(feed),
            "--format",
            "published",
            "--baseline",
            "cs",
            "--sweep",
            "0.1:0.9:0.1",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    rows = read_jsonl(report)
    assert len(rows) == 9
    assert [r["params"]["tau"] for r in rows] == [round(0.1 * i, 1) for i in range(1, 10)]
    # the sweep is one pass: one set of stage times, one total
    assert all(r["timings_ms"] == rows[0]["timings_ms"] for r in rows)
    assert capsys.readouterr().out.count("metric=cs") == 9


@pytest.mark.parametrize(
    "sweep, error",
    [
        ("nan:0.9:0.1", "sweep bounds and step must be finite"),
        ("0.1:inf:0.1", "sweep bounds and step must be finite"),
        ("0.1:0.9:nan", "sweep bounds and step must be finite"),
        ("0:0.9:0.1", "sweep range must lie inside (0, 1)"),
        ("0.1:1.5:0.1", "sweep range must lie inside (0, 1)"),
        ("0.1:0.9:1e-9", f"yields more than {MAX_SWEEP_THRESHOLDS} thresholds"),
        # finer than the 10-digit rounding of each threshold, which would repeat them
        ("0.4:0.4:1e-11", "sweep step must be at least 1e-10"),
        ("0.4:0.4000000001:5e-11", "sweep step must be at least 1e-10"),
    ],
    ids=[
        "nan_start",
        "inf_stop",
        "nan_step",
        "zero_start",
        "stop_above_one",
        "too_many",
        "step_below_rounding",
        "step_below_rounding_in_range",
    ],
)
def test_bad_sweep_is_usage_error(feed, capsys, sweep, error):
    code = run_cli(["baseline", "--input", str(feed), "--baseline", "cs", "--sweep", sweep])
    assert code == 2
    assert error in capsys.readouterr().err


def test_sweep_stops_at_stop():
    assert _parse_sweep("0.4:0.4:0.1") == [0.4]
    # the rounded thresholds stop at STOP, not within 1e-9 past it
    assert _parse_sweep("0.4:0.4:1e-10") == [0.4]
    assert _parse_sweep("0.3:0.7:0.2") == [0.3, 0.5, 0.7]


def test_sweep_below_threshold_cap_is_accepted():
    taus = _parse_sweep("0.1:0.9:0.001")
    assert len(taus) == 801 < MAX_SWEEP_THRESHOLDS
    assert taus[0] == 0.1 and taus[-1] == 0.9


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_non_finite_alpha_is_rejected(feed, tmp_path, capsys, how, alpha):
    args = ["match", "--input", str(feed), "--format", "published"]
    if how == "flag":
        args += ["--alpha", alpha]
    else:
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"alpha": float(alpha)}))
        args += ["--config", str(config)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == f"error: alpha must be a finite number > 0, got {alpha}\n"


def test_baseline_single_tau_deterministic(feed, tmp_path):
    r1, r2 = tmp_path / "b1.jsonl", tmp_path / "b2.jsonl"
    base = [
        "baseline",
        "--input",
        str(feed),
        "--format",
        "published",
        "--baseline",
        "cs-idf",
        "--tau",
        "0.5",
    ]
    assert run_cli(base + ["--report", str(r1)]) == 0
    assert run_cli(base + ["--report", str(r2)]) == 0
    assert strip_timings(read_jsonl(r1)[0]) == strip_timings(read_jsonl(r2)[0])


def test_unknown_metric_is_usage_error(feed, capsys):
    code = run_cli(
        ["baseline", "--input", str(feed), "--baseline", "levenshtein"]
    )
    assert code != 0
    capsys.readouterr()


def test_eval_subcommand_round_trip(feed, tmp_path, capsys):
    clusters = tmp_path / "clusters.csv"
    assert run_cli(
        [
            "match",
            "--input",
            str(feed),
            "--format",
            "published",
            "--clusters",
            str(clusters),
        ]
    ) == 0
    report = tmp_path / "eval.jsonl"
    code = run_cli(
        [
            "eval",
            "--input",
            str(feed),
            "--format",
            "published",
            "--clusters",
            str(clusters),
            "--report",
            str(report),
        ]
    )
    assert code == 0
    assert read_jsonl(report)[0]["f1"] == 1.0


@pytest.mark.parametrize(
    "command, args, keys",
    [
        (
            "match",
            [],
            ["ingest", "textprep", "index", "scoring", "verify", "evaluate", "total"],
        ),
        (
            "baseline",
            ["--baseline", "cs"],
            ["ingest", "textprep", "index", "pairs", "evaluate", "total"],
        ),
        ("eval", ["--clusters", "clusters.csv"], ["ingest", "evaluate", "total"]),
    ],
)
def test_report_timing_keys(feed, tmp_path, monkeypatch, command, args, keys):
    monkeypatch.chdir(tmp_path)
    feed_args = ["--input", str(feed), "--format", "published"]
    assert run_cli(["match", *feed_args, "--clusters", "clusters.csv"]) == 0
    code = run_cli([command, *feed_args, *args, "--report", "r.jsonl", "--summary", "s.csv"])
    assert code == 0
    (row,) = read_jsonl("r.jsonl")
    timings = row["timings_ms"]
    assert list(timings) == keys
    # total runs from reading the feed to the scores, so it spans every stage
    assert all(0.0 <= ms <= timings["total"] for ms in timings.values())
    summary = Path("s.csv").read_text().splitlines()
    assert summary[0].endswith(",total_ms")
    assert float(summary[1].rsplit(",", 1)[1]) == timings["total"]


def test_inspect_prints_statistics(feed, capsys):
    code = run_cli(["inspect", "--input", str(feed), "--format", "published"])
    assert code == 0
    out = capsys.readouterr().out
    assert "titles=20" in out
    assert "distinct_tokens=" in out


def test_inspect_top_lists_most_frequent_tokens(feed, capsys):
    code = run_cli(["inspect", "--input", str(feed), "--format", "published", "--top", "3"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("token ")]
    assert len(lines) == 3
    freqs = [int(l.split()[2].removeprefix("f=")) for l in lines]
    assert freqs == sorted(freqs, reverse=True)
    assert run_cli(["inspect", "--input", str(feed), "--format", "published", "--top", "-4"]) == 2
    assert "--top must be >= 0, got -4" in capsys.readouterr().err


def test_units_file_without_entries_fuses_nothing(tmp_path, capsys):
    # an empty lexicon has length 0; it must not fall back to the built-in one
    ds = Dataset(products=[RawProduct(1, "acme 500 ml bottle", 0, None)])
    feed = tmp_path / "feed.csv"
    write_feed_csv(feed, ds, "simple")
    units = tmp_path / "units.txt"
    units.write_text("# no units yet\n")
    surfaces = {}
    for name, extra in (("default", []), ("empty", ["--units", str(units)])):
        assert run_cli(["inspect", "--input", str(feed), *extra]) == 0
        lines = capsys.readouterr().out.splitlines()
        surfaces[name] = {l.split()[-1] for l in lines if l.startswith("token ")}
    assert surfaces["default"] == {"acme", "500ml", "bottle"}
    assert surfaces["empty"] == {"acme", "500", "ml", "bottle"}


def test_one_parser_per_process_keeps_no_state_between_calls(feed, tmp_path):
    """main reuses one parser per process: neither a --config run nor a
    usage error leaves anything behind for a later call."""
    report = tmp_path / "row.jsonl"

    def match(*extra):
        args = ["match", "--input", str(feed), "--format", "published", "--report", str(report)]
        assert run_cli([*args, *extra]) == 0
        return strip_timings(read_jsonl(report)[0])

    _plain_parser.cache_clear()
    first = match()
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"k": 3, "distance": "euclidean"}))
    preset = match("--config", str(config))
    assert (preset["k"], preset["params"]["distance"]) == (3, "euclidean")
    assert (first["k"], first["params"]["distance"]) == (2, "squared")
    assert match() == first
    # no --input
    assert run_cli(["match", "--format", "published"]) == 2
    assert match() == first


def test_build_parser_returns_a_new_parser_each_call():
    assert build_parser() is not build_parser()


def test_missing_input_fails_cleanly(tmp_path, capsys):
    code = run_cli(["match", "--input", str(tmp_path / "nope.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--units", "--report", "--clusters"])
def test_directory_path_fails_cleanly(feed, tmp_path, flag, capsys):
    code = run_cli(["match", "--input", str(feed), flag, str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_empty_title_error_names_product(tmp_path, capsys):
    products = [RawProduct(16, "intel core i5 8400", 1, None), RawProduct(17, "!!!", 2, None)]
    feed = tmp_path / "bad.csv"
    write_feed_csv(feed, Dataset(products=products), "simple")
    assert run_cli(["match", "--input", str(feed)]) == 1
    err = capsys.readouterr().err
    assert err == "error: product 17: title normalizes to zero tokens: '!!!'\n"


def test_vendor_id_outside_int64_fails_cleanly(tmp_path):
    """Feeds parse vendor IDs as Python ints of any size; every subcommand
    that builds an index rejects one past int64 without a traceback."""
    products = [RawProduct(1, "acme kf310 toaster", 0, 0), RawProduct(2, "acme kf310", 10**20, 0)]
    feed = tmp_path / "feed.csv"
    write_feed_csv(feed, Dataset(products=products), "published")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for command in (["match"], ["baseline", "--baseline", "cs"], ["inspect"]):
        proc = subprocess.run(
            [sys.executable, "-m", "titlematch.cli", *command, "--input", str(feed)]
            + ["--format", "published"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, command
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.stderr == f"error: product 2: vendor_id {10**20} is outside int64\n", command


def test_threads_flag_changes_nothing(feed, tmp_path, capsys):
    """The flag is gone (a usage error now); repeated runs stay identical."""
    argv = ["match", "--input", str(feed), "--format", "published"]
    assert run_cli(argv + ["--threads", "1"]) == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
    outputs = []
    for run in ("a", "b"):
        report, clusters = tmp_path / f"r_{run}.jsonl", tmp_path / f"c_{run}.csv"
        assert run_cli(argv + ["--report", str(report), "--clusters", str(clusters)]) == 0
        outputs.append((strip_timings(read_jsonl(report)[0]), clusters.read_text()))
    assert outputs[0] == outputs[1]


def test_config_file_presets_parameters(feed, tmp_path):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"k": 3, "tau": 0.5, "variant": "upm+", "alpha": 2.0}))
    report = tmp_path / "cfg.jsonl"
    code = run_cli(
        [
            "match",
            "--input",
            str(feed),
            "--format",
            "published",
            "--config",
            str(config),
            "--report",
            str(report),
        ]
    )
    assert code == 0
    row = read_jsonl(report)[0]
    assert row["k"] == 3
    assert row["params"]["tau"] == 0.5
    assert row["params"]["variant"] == "upm+"
    assert row["params"]["alpha"] == 2.0


def test_flags_override_config_file(feed, tmp_path):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"k": 3, "alpha": 2.0}))
    report = tmp_path / "cfg.jsonl"
    code = run_cli(
        [
            "match",
            "--input",
            str(feed),
            "--format",
            "published",
            "--config",
            str(config),
            "--k",
            "2",
            "--report",
            str(report),
        ]
    )
    assert code == 0
    row = read_jsonl(report)[0]
    assert row["k"] == 2  # flag wins
    assert row["params"]["alpha"] == 2.0  # config still covers the rest


def test_config_file_rejects_unknown_keys(feed, tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"gamma": 1}))
    code = run_cli(
        ["match", "--input", str(feed), "--format", "published", "--config", str(config)]
    )
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_file_rejects_threads(feed, tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"threads": 2}))
    code = run_cli(
        ["match", "--input", str(feed), "--format", "published", "--config", str(config)]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: unknown config keys: ['threads']\n"


@pytest.mark.parametrize(
    "value, error",
    [
        ({"no_verify": "false"}, "config key 'no_verify' must be true or false, got 'false'"),
        ({"k": 1}, "config key 'k' must be 'auto' or an integer >= 2, got 1"),
        ({"k": 3.0}, "config key 'k' must be 'auto' or an integer >= 2, got 3.0"),
        ({"k": True}, "config key 'k' must be 'auto' or an integer >= 2, got True"),
        ({"tau": None}, "config key 'tau' must be a number, got None"),
        ({"alpha": "2"}, "config key 'alpha' must be a number, got '2'"),
        ({"b": True}, "config key 'b' must be a number, got True"),
        ({"units": 5}, "config key 'units' must be a string, got 5"),
    ],
    ids=[
        "no_verify_string",
        "k_1",
        "k_float",
        "k_bool",
        "tau_null",
        "alpha_string",
        "b_bool",
        "units_number",
    ],
)
def test_config_file_rejects_mistyped_values(feed, tmp_path, capsys, value, error):
    config = tmp_path / "params.json"
    config.write_text(json.dumps(value))
    code = run_cli(
        ["match", "--input", str(feed), "--format", "published", "--config", str(config)]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize(
    "content, error",
    [
        (b'{"k": 3', "Expecting ',' delimiter: line 1 column 8 (char 7)\n"),
        ('{"units": "café"}'.encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
    ],
    ids=["not_json", "not_utf8"],
)
def test_unreadable_config_file_names_the_file(feed, tmp_path, capsys, content, error):
    config = tmp_path / "params.json"
    config.write_bytes(content)
    code = run_cli(
        ["match", "--input", str(feed), "--format", "published", "--config", str(config)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: config file {config}: {error}")


def test_baseline_takes_tau_from_config_file_and_flag_wins(feed, tmp_path, capsys):
    config = tmp_path / "params.json"
    # format comes from the file too: the feed is in the published layout
    config.write_text(json.dumps({"tau": 0.7, "format": "published"}))
    base = ["baseline", "--input", str(feed), "--baseline", "cs", "--config", str(config)]
    r_file, r_flag = tmp_path / "file.jsonl", tmp_path / "flag.jsonl"
    assert run_cli(base + ["--report", str(r_file)]) == 0
    assert run_cli(base + ["--tau", "0.3", "--report", str(r_flag)]) == 0
    assert read_jsonl(r_file)[0]["params"]["tau"] == 0.7
    assert read_jsonl(r_flag)[0]["params"]["tau"] == 0.3
    assert capsys.readouterr().out.splitlines()[0].startswith("metric=cs tau=0.70 ")


def test_inspect_takes_parameters_from_config_file(feed, tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"k": 3, "variant": "upm+", "distance": "euclidean"}))
    code = run_cli(
        ["inspect", "--input", str(feed), "--format", "published", "--config", str(config)]
    )
    assert code == 0
    assert "\nk=3 variant=upm+ distance=euclidean\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "preset, flags",
    [(True, []), (False, ["--no-verify"])],
    ids=["config_true", "flag_over_config_false"],
)
def test_no_verify_from_config_file_or_flag(feed, tmp_path, preset, flags):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"no_verify": preset}))
    report = tmp_path / "r.jsonl"
    argv = ["match", "--input", str(feed), "--format", "published", "--config", str(config)]
    assert run_cli(argv + flags + ["--report", str(report)]) == 0
    assert read_jsonl(report)[0]["params"]["verify"] is False


def test_config_key_without_flag_in_subcommand_is_ignored(feed, tmp_path):
    # baseline has no --alpha, so the key is neither applied nor checked
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"alpha": "oops"}))
    argv = ["baseline", "--input", str(feed), "--format", "published", "--baseline", "cs"]
    assert run_cli(argv + ["--config", str(config)]) == 0


def twenty_product_clusters(extra_lines=()):
    rows = ["product_id,cluster_id"] + [f"{pid},{(pid - 1) // 4}" for pid in range(1, 21)]
    return "\n".join(rows + list(extra_lines)) + "\n"


@pytest.mark.parametrize(
    "clusters_text, error",
    [
        (
            twenty_product_clusters().replace("\n3,0\n", "\n3,x\n"),
            "clusters file {path}: row 4: cluster_id is not an integer: 'x'",
        ),
        (
            twenty_product_clusters().replace("product_id,cluster_id", "id,cluster"),
            "clusters file {path}: row 1: expected header product_id,cluster_id, got 'id,cluster'",
        ),
        (
            twenty_product_clusters(["7,4"]),
            "clusters file {path}: row 22: duplicate product_id 7",
        ),
        (twenty_product_clusters(["99,0"]), "product 99 in {path} is not in the feed"),
        (
            twenty_product_clusters().replace("\n12,2\n", "\n"),
            "product 12 has no cluster in {path}",
        ),
    ],
    ids=["non_integer_cell", "bad_header", "repeated_product", "not_in_feed", "no_cluster"],
)
def test_eval_rejects_bad_clusters_file(feed, tmp_path, capsys, clusters_text, error):
    path = tmp_path / "clusters.csv"
    path.write_text(clusters_text)
    code = run_cli(
        ["eval", "--input", str(feed), "--format", "published", "--clusters", str(path)]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: " + error.format(path=path) + "\n"


def test_bad_feed_row_names_the_feed(tmp_path, capsys):
    ds = make_twenty_product_dataset()
    feed, truth = tmp_path / "bad_feed.csv", tmp_path / "truth.csv"
    write_feed_csv(feed, ds, "simple")
    write_truth_csv(truth, ds)
    lines = feed.read_text().splitlines()
    lines[2] = "2,short row"
    feed.write_text("\n".join(lines) + "\n")
    assert run_cli(["match", "--input", str(feed), "--truth", str(truth)]) == 1
    error = f"feed file {feed}: row 3: expected 3 columns for format 'simple', got 2"
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("kind", ["feed", "truth", "clusters"])
def test_oversized_csv_field_fails_cleanly(tmp_path, capsys, kind):
    # the csv module refuses fields over 131 072 characters
    ds = make_twenty_product_dataset()
    paths = {name: tmp_path / f"{name}.csv" for name in ("feed", "truth", "clusters")}
    write_feed_csv(paths["feed"], ds, "simple")
    write_truth_csv(paths["truth"], ds)
    paths["clusters"].write_text(twenty_product_clusters())
    with paths[kind].open("a", encoding="utf-8") as fh:
        fh.write(f"21,{'9' * 140_000},0\n")
    args = ["eval", "--input", str(paths["feed"]), "--truth", str(paths["truth"])]
    assert run_cli(args + ["--clusters", str(paths["clusters"])]) == 1
    error = f"{kind} file {paths[kind]}: line 22: field larger than field limit (131072)"
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("kind", ["feed", "truth", "clusters", "units"])
def test_non_utf8_input_names_the_file(tmp_path, capsys, kind):
    ds = make_twenty_product_dataset()
    paths = {name: tmp_path / f"{name}.csv" for name in ("feed", "truth", "clusters")}
    paths["units"] = tmp_path / "units.txt"
    write_feed_csv(paths["feed"], ds, "simple")
    write_truth_csv(paths["truth"], ds)
    paths["clusters"].write_text(twenty_product_clusters())
    paths["units"].write_text("w\nkg\n")
    # a Latin-1 "é" is no valid UTF-8 sequence
    with paths[kind].open("ab") as fh:
        fh.write("21,café,0\n".encode("latin-1"))
    if kind == "units":
        args = ["inspect", "--input", str(paths["feed"]), "--units", str(paths["units"])]
    else:
        args = ["eval", "--input", str(paths["feed"]), "--truth", str(paths["truth"])]
        args += ["--clusters", str(paths["clusters"])]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} file {paths[kind]}: 'utf-8' codec can't decode byte 0xe9")


def test_eval_without_truth_pairs_reports_null_scores(tmp_path, capsys):
    # every truth cluster is a singleton, so there is no pair to score against
    ds = Dataset(products=[RawProduct(i, f"brand{i} model{i} case", i % 2, i) for i in range(1, 7)])
    feed = tmp_path / "feed.csv"
    write_feed_csv(feed, ds, "published")
    clusters = tmp_path / "clusters.csv"
    base = ["--input", str(feed), "--format", "published"]
    assert run_cli(["match", *base, "--clusters", str(clusters)]) == 0
    assert "precision" not in capsys.readouterr().out
    report = tmp_path / "eval.jsonl"
    assert run_cli(["eval", *base, "--clusters", str(clusters), "--report", str(report)]) == 0
    row = read_jsonl(report)[0]
    assert (row["precision"], row["recall"], row["f1"], row["truth_pairs"]) == (None, None, None, 0)
    assert capsys.readouterr().out == f"clusters={row['clusters']}\n"


def test_eval_without_truth_names_the_product(tmp_path, capsys):
    feed, clusters = tmp_path / "feed.csv", tmp_path / "clusters.csv"
    write_feed_csv(feed, make_twenty_product_dataset(), "simple")
    clusters.write_text(twenty_product_clusters())
    assert run_cli(["eval", "--input", str(feed), "--clusters", str(clusters)]) == 1
    assert capsys.readouterr().err == "error: product 1 has no ground-truth cluster\n"


def test_eval_cluster_ids_are_only_labels(feed, tmp_path, capsys):
    """Negative, sparse and wider-than-int64 cluster IDs score as 0..4 do,
    and the row equals prf1 over the pair sets."""
    # product 20 joins the first cluster, so the scores are not all 1
    cluster_of = {pid: (pid - 1) // 4 for pid in range(1, 21)} | {20: 0}
    rows = []
    for labels in ([0, 1, 2, 3, 4], [-(2**70), -1, 7, 2**63, 10**30]):
        path = tmp_path / "clusters.csv"
        lines = [f"{pid},{labels[c]}" for pid, c in cluster_of.items()]
        path.write_text("\n".join(["product_id,cluster_id", *lines]) + "\n")
        report = tmp_path / "eval.jsonl"
        args = ["eval", "--input", str(feed), "--format", "published", "--clusters", str(path)]
        assert run_cli(args + ["--report", str(report)]) == 0
        rows.append(read_jsonl(report)[0])
    capsys.readouterr()
    assert strip_timings(rows[0]) == {**strip_timings(rows[1]), "params": rows[0]["params"]}
    truth = load_ground_truth(make_twenty_product_dataset())
    expected = prf1(pairs_from_assignment(cluster_of), truth)
    assert {key: rows[1][key] for key in expected} == expected
    assert expected["precision"] < 1.0


@pytest.mark.parametrize("name", ["main", "match", "baseline", "eval", "inspect"])
def test_help_snapshots(name):
    parser = build_parser()
    if name == "main":
        text = parser.format_help()
    else:
        text = parser._subparsers._group_actions[0].choices[name].format_help()
    golden = (DATA_DIR / f"help_{name}.txt").read_text()
    assert text == golden


def test_match_output_does_not_depend_on_hash_seed(tmp_path):
    """Token interning keys dicts and sets by string; string hashes change
    with PYTHONHASHSEED, and nothing downstream may."""
    feed = tmp_path / "feed.csv"
    write_feed_csv(feed, efficiency_dataset(3000, seed=9), "published")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        report, clusters = tmp_path / f"r_{seed}.jsonl", tmp_path / f"c_{seed}.csv"
        argv = ["match", "--input", str(feed), "--format", "published"]
        argv += ["--report", str(report), "--clusters", str(clusters)]
        proc = subprocess.run(
            [sys.executable, "-m", "titlematch.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(([strip_timings(row) for row in read_jsonl(report)], clusters.read_bytes()))
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
