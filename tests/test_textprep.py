"""Normalization and token semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from titlematch.textprep import (
    AnalyzedTitle,
    Semantics,
    TitleNormalizationError,
    UnitLexicon,
    analyze_title,
    classify_tokens,
    is_numeric,
    normalize_title,
    surface_semantics,
    truncate_for_variant,
)

from helpers import classify_tokens_scalar, normalize_title_scalar


def reference_tokenize(raw: str):
    """Independent reference tokenizer for cross-checking normalize_title.

    Deliberately written with different string machinery (regex-free, char
    classes spelled out) so a shared bug is unlikely.
    """
    s = raw.lower()
    kept = []
    for i, ch in enumerate(s):
        if ch.isalnum() or ch in "-/":
            kept.append(ch)
        elif ch in ".," and 0 < i < len(s) - 1 and s[i - 1].isdigit() and s[i + 1].isdigit():
            kept.append(ch)
        else:
            kept.append(" ")
    words = [w.strip("-/") for w in "".join(kept).split()]
    words = [w for w in words if w]
    extras = []
    for w in words:
        if "-" in w or "/" in w:
            part = ""
            for ch in w:
                if ch in "-/":
                    if part:
                        extras.append(part)
                    part = ""
                else:
                    part += ch
            if part:
                extras.append(part)
    out, seen = [], set()
    for w in words + extras:
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


TRACED_TITLES = [
    "wi-fi router",
    "nVidia GeForce GTX1050 4GB",
    "A a A",
    "usb 2.0 hub, black/white",
    "12,5kg drum - front-load",
]


@pytest.mark.parametrize("raw", TRACED_TITLES)
def test_normalize_matches_reference(raw):
    assert normalize_title(raw) == reference_tokenize(raw)


def test_normalize_gpu_title():
    assert normalize_title("nVidia GeForce GTX1050 4GB") == [
        "nvidia",
        "geforce",
        "gtx1050",
        "4gb",
    ]


def test_normalize_case_fold_and_dedupe():
    assert normalize_title("A a A") == ["a"]


def test_hyphen_compound_kept_and_parts_appended():
    assert normalize_title("wi-fi router") == ["wi-fi", "router", "wi", "fi"]


def test_numeric_separators_survive():
    assert normalize_title("intel 3.2GHz, 12,5 kg.") == ["intel", "3.2ghz", "12,5", "kg"]


def test_all_punctuation_title_is_error():
    with pytest.raises(TitleNormalizationError):
        normalize_title("!!! ???")


def test_form_predicates(units):
    assert is_numeric("3.2") and is_numeric("12,5") and is_numeric("450")
    assert not is_numeric("4gb") and not is_numeric("kx") and not is_numeric("3\n")
    assert surface_semantics("gtx1050", units) == Semantics.MODEL_FIRST
    assert surface_semantics("4gb", units) == Semantics.ATTRIBUTE
    assert surface_semantics("450", units) == Semantics.MODEL_NUMERIC
    assert surface_semantics("cpu", units) == Semantics.NORMAL
    # digits in the middle of the unit part: mixed, not an attribute
    assert surface_semantics("4g5b", units) == Semantics.MODEL_FIRST


def test_pair_concatenation(units):
    t = classify_tokens(["cpu", "32", "gb"], units)
    assert t.surfaces == ("cpu", "32gb")
    assert t.semantics == (Semantics.NORMAL, Semantics.ATTRIBUTE)
    assert t.length == 2


def test_gpu_semantics(units):
    t = classify_tokens(["nvidia", "geforce", "gtx1050", "4gb"], units)
    sems = dict(zip(t.surfaces, t.semantics))
    assert sems["gtx1050"] == Semantics.MODEL_FIRST
    assert sems["4gb"] == Semantics.ATTRIBUTE
    assert sems["nvidia"] == sems["geforce"] == Semantics.NORMAL


def test_bare_number_is_model(units):
    t = classify_tokens(["playstation", "3"], units)
    assert t.semantics[1] == Semantics.MODEL_NUMERIC


def test_second_mixed_token_is_other_model(units):
    t = classify_tokens(["kx500", "mv200", "oven"], units)
    assert t.semantics[0] == Semantics.MODEL_FIRST
    assert t.semantics[1] == Semantics.MODEL_OTHER


def test_decimal_attribute_suffix(units):
    t = classify_tokens(["cpu", "3.2ghz"], units)
    assert t.semantics[1] == Semantics.ATTRIBUTE


def test_merged_pair_deduplicates(units):
    # the fused token collides with an existing copy; first occurrence wins
    t = classify_tokens(["32gb", "card", "32", "gb"], units)
    assert t.surfaces == ("32gb", "card")
    assert t.semantics == (Semantics.ATTRIBUTE, Semantics.NORMAL)


def test_unit_alone_is_normal(units):
    t = classify_tokens(["gb", "card"], units)
    assert t.semantics[0] == Semantics.NORMAL


def test_truncation_long_title(units):
    t = classify_tokens([f"tok{i}" for i in range(10)], units)
    cut = truncate_for_variant(t, "upm+", 3)
    assert cut.length == 6
    assert cut.surfaces == t.surfaces[:6]
    assert cut.semantics == t.semantics[:6]


def test_truncation_noop_below_bound(units):
    t = classify_tokens(["a", "b", "c", "d"], units)
    assert truncate_for_variant(t, "upm+", 3) is t


def test_base_variant_is_identity(units):
    t = classify_tokens(["a", "b", "c"], units)
    assert truncate_for_variant(t, "upm", 1) is t


def test_truncation_validates_k(units):
    t = classify_tokens(["a", "b"], units)
    with pytest.raises(ValueError):
        truncate_for_variant(t, "upm+", 0)


def test_unit_lexicon_families():
    units = UnitLexicon.default()
    for u in ("b", "kb", "mb", "gb", "tb", "hz", "khz", "mhz", "ghz", "w", "kg", "ml"):
        assert u in units


def test_unit_lexicon_from_lines_strips_comments():
    units = UnitLexicon.from_lines(["# heading", "GB  ", "", "hz # trailing"])
    assert "gb" in units and "hz" in units and len(units) == 2


_title_text = st.text(
    alphabet=st.sampled_from("abcXYZ0123 .,-/()!"),
    min_size=1,
    max_size=40,
)


@given(_title_text)
def test_normalize_is_idempotent(raw):
    try:
        tokens = normalize_title(raw)
    except TitleNormalizationError:
        return
    assert normalize_title(" ".join(tokens)) == tokens


@given(_title_text)
def test_normalized_tokens_are_unique_and_folded(raw):
    try:
        tokens = normalize_title(raw)
    except TitleNormalizationError:
        return
    assert len(set(tokens)) == len(tokens)
    assert all(t == t.lower() for t in tokens)


_UNITS = UnitLexicon.default()


@given(_title_text)
def test_at_most_one_first_model_token(raw):
    try:
        analyzed = analyze_title(raw, _UNITS)
    except TitleNormalizationError:
        return
    assert analyzed.semantics.count(Semantics.MODEL_FIRST) <= 1
    assert len(analyzed.semantics) == len(analyzed.surfaces) == analyzed.length


@given(st.lists(st.sampled_from(["cpu", "intel", "32", "gb", "x99", "fan"]), min_size=1, max_size=8))
def test_classify_is_total_and_deterministic(tokens):
    deduped = list(dict.fromkeys(tokens))
    first = classify_tokens(deduped, _UNITS)
    second = classify_tokens(deduped, _UNITS)
    assert first == second
    assert isinstance(first, AnalyzedTitle)


@given(
    st.lists(
        st.sampled_from(["cpu", "intel", "core", "32", "4", "gb", "hz", "x99", "fan"]),
        min_size=1,
        max_size=10,
    )
)
def test_pair_merge_preserves_relative_order(tokens):
    deduped = list(dict.fromkeys(tokens))
    analyzed = classify_tokens(deduped, _UNITS)
    # surviving tokens (merged pairs count at the position of their number)
    cursor = 0
    for probe in analyzed.surfaces:
        # a fused attribute starts with its numeric half
        while cursor < len(deduped) and not probe.startswith(deduped[cursor]):
            cursor += 1
        assert cursor < len(deduped), (deduped, analyzed.surfaces)


# Fragments where the regex path could drift from the character loop: digits
# that str.isdigit accepts but \d does not ("²", "①") or that are non-ASCII
# decimals ("٣"), a capital whose lower() is two characters ("İ"), a letter
# that lower() keeps but casefold() changes ("ß"), the underscore that \w
# matches but isalnum rejects, the kept punctuation, and numbers fused with or
# followed by units.
_FRAGMENTS = [
    "²", "①", "٣", "İ", "ß", "_", ".", ",", "-", "/", " ", "x", "Gb", "ghz", "kg", "ml",
    "mAh", "3", "32", "3.2", "12,5", "²,①", "٣.٣", "4g", "gtx1050", "wi-fi", "i7-7700k",
]
_unicode_titles = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=3)), min_size=1, max_size=16
).map("".join)


@given(_unicode_titles)
def test_textprep_matches_character_loop_reference(raw):
    try:
        expected = normalize_title_scalar(raw)
    except TitleNormalizationError:
        with pytest.raises(TitleNormalizationError):
            normalize_title(raw)
        return
    assert normalize_title(raw) == expected
    analyzed = classify_tokens(expected, _UNITS)
    expected_pairs = classify_tokens_scalar(expected, _UNITS)
    assert list(zip(analyzed.surfaces, analyzed.semantics)) == expected_pairs
    for k_star in (1, 2):
        cut = truncate_for_variant(analyzed, "upm+", k_star)
        assert cut.surfaces == analyzed.surfaces[: 2 * k_star]
        assert cut.semantics == analyzed.semantics[: 2 * k_star]


# units that start with a digit or a separator, so an attribute may split
# inside its numeric prefix ("125kg" as 1|25kg, "12,5l" as 12|,5l)
_ODD_UNITS = UnitLexicon.from_lines(["25kg", ",5l", "2ghz", "m2", "x"])
_TOKENS = ["125kg", "12,5l", "3.2ghz", "32ghz", "4m2", "1,2x", "m2", "25", "kg", "gb", "12,5"]


def test_attribute_may_split_inside_numeric_prefix():
    analyzed = classify_tokens(["125kg", "12,5l", "32ghz", "4m2"], _ODD_UNITS)
    assert analyzed.semantics == (Semantics.ATTRIBUTE,) * 4


@given(
    st.lists(st.one_of(st.sampled_from(_FRAGMENTS + _TOKENS), st.text(max_size=4)), max_size=10),
    st.sampled_from([_UNITS, _ODD_UNITS]),
)
def test_classify_matches_reference_on_any_tokens(tokens, units):
    analyzed = classify_tokens(tokens, units)
    expected_pairs = classify_tokens_scalar(tokens, units)
    assert list(zip(analyzed.surfaces, analyzed.semantics)) == expected_pairs
