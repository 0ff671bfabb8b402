"""Normalization and token semantics."""

from __future__ import annotations

import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from titlematch.index import analyze_dataset, build_index
from titlematch.ingest import Dataset, RawProduct
from titlematch.textprep import (
    _DROPPED_RE,
    AnalyzedTitle,
    Semantics,
    TitleNormalizationError,
    UnitLexicon,
    analyze_title,
    classify_corpus,
    classify_tokens,
    is_numeric,
    normalize_title,
    surface_semantics,
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
    corpus = classify_corpus([[f"tok{i}" for i in range(10)], ["tok9", "x", "tok0"]], units)
    cut = corpus.clip("upm+", 3)
    assert cut[0].surfaces == corpus[0].surfaces[:6]
    assert cut[0].semantics == corpus[0].semantics[:6]
    assert cut[1] == corpus[1]
    # tok6..tok8 are gone; the survivors are re-interned in first-encounter order
    assert cut.surfaces == [f"tok{i}" for i in range(6)] + ["tok9", "x"]
    assert cut.tok_flat.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 0]
    assert cut.offsets.tolist() == [0, 6, 9]


def test_truncation_noop_below_bound(units):
    corpus = classify_corpus([["a", "b", "c", "d"]], units)
    cut = corpus.clip("upm+", 3)
    assert cut.surfaces == corpus.surfaces
    assert cut.tok_flat.tolist() == corpus.tok_flat.tolist()
    assert cut.offsets.tolist() == corpus.offsets.tolist()


def test_base_variant_is_identity(units):
    corpus = classify_corpus([["a", "b", "c"]], units)
    assert corpus.clip("upm", 1) is corpus


def test_truncation_validates_k(units):
    corpus = classify_corpus([["a", "b"]], units)
    with pytest.raises(ValueError, match="k_star must be >= 1"):
        corpus.clip("upm+", 0)
    with pytest.raises(ValueError, match="unknown variant"):
        corpus.clip("upm++", 2)


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
# that lower() keeps but casefold() changes ("ß"), a capital sigma whose
# lower() depends on what follows it ("ΟΔΟΣ", and the soft hyphen that
# lower() skips over), the underscore that \w matches but isalnum rejects,
# whitespace other than a space (the newline that also joins a batch's
# titles), the kept punctuation, and numbers fused with or followed by units.
_FRAGMENTS = [
    "²", "①", "٣", "İ", "ß", "ΟΔΟΣ", "\xad", "_", ".", ",", "-", "/", " ", "\n", "\u00a0",
    "\u2028", "\x1c", "\u3000", "x", "Gb", "ghz", "kg", "ml", "mAh", "3", "32", "3.2", "12,5",
    "²,①", "٣.٣", "4g", "gtx1050", "wi-fi", "i7-7700k",
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
        cut = classify_corpus([expected], _UNITS).clip("upm+", k_star)[0]
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


# a unit made of digits: "1 2" fuses into the ATTRIBUTE "12", which standing
# alone is MODEL_NUMERIC, so one surface carries two semantics in a corpus
_DIGIT_UNITS = UnitLexicon.from_lines(["2", "gb", "m2"])


def _interned_reference(titles, units, k_star=None):
    """The corpus columns from the oracles: each title through
    normalize_title_scalar and classify_tokens_scalar, cut to 2*k_star
    tokens when k_star is given, its surfaces interned in first-encounter
    order. Returns (surfaces, token IDs, semantics, offsets, s_w, f_w)."""
    ids, tok, sem, offsets, first_sem = {}, [], [], [0], {}
    for raw in titles:
        pairs = classify_tokens_scalar(normalize_title_scalar(raw), units)
        for surface, s in pairs[: None if k_star is None else 2 * k_star]:
            tok.append(ids.setdefault(surface, len(ids)))
            sem.append(int(s))
            first_sem.setdefault(surface, int(s))
        offsets.append(len(tok))
    counts = Counter(tok)
    return list(ids), tok, sem, offsets, list(first_sem.values()), [counts[i] for i in range(len(ids))]


def _normalizes(raw):
    try:
        normalize_title_scalar(raw)
    except TitleNormalizationError:
        return False
    return True


_corpus_titles = st.lists(
    st.lists(st.sampled_from(_FRAGMENTS + _TOKENS + ["1", "2", "12"]), min_size=1, max_size=8).map(
        " ".join
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60)
@given(_corpus_titles, st.sampled_from([_UNITS, _ODD_UNITS, _DIGIT_UNITS]))
@example(["1 2 x", "12 y"], _DIGIT_UNITS)
@example(["12 y", "1 2 x"], _DIGIT_UNITS)
def test_corpus_matches_per_title_reference(titles, units):
    titles = [raw for raw in titles if _normalizes(raw)]
    ds = Dataset(products=[RawProduct(p + 1, raw, p, None) for p, raw in enumerate(titles)])
    corpus = analyze_dataset(ds, units)
    for variant, k_star in [("upm", None), ("upm+", 2), ("upm+", 3), ("upm+", 4)]:
        surfaces, tok, sem, offsets, s_w, f_w = _interned_reference(titles, units, k_star)
        cut = corpus if k_star is None else corpus.clip(variant, k_star)
        assert cut.surfaces == surfaces
        assert cut.tok_flat.tolist() == tok
        assert cut.sem_flat.tolist() == sem
        assert cut.offsets.tolist() == offsets
        idx = build_index(ds, k=k_star or 2, variant=variant, analyzed=corpus, with_combinations=False)
        assert idx.tokens.surfaces == surfaces
        assert idx.tokens.s_w.tolist() == s_w
        assert idx.tokens.f_w.tolist() == f_w


def test_fused_and_bare_surface_keep_their_own_semantics():
    corpus = classify_corpus([["1", "2", "x"], ["12", "y"]], _DIGIT_UNITS)
    assert corpus.surfaces == ["12", "x", "y"]
    assert corpus[0].semantics == (Semantics.ATTRIBUTE, Semantics.NORMAL)
    assert corpus[1].semantics == (Semantics.MODEL_NUMERIC, Semantics.NORMAL)


def _feed(titles):
    return Dataset(products=[RawProduct(p + 1, raw, p, None) for p, raw in enumerate(titles)])


@settings(max_examples=150)
@given(st.lists(_unicode_titles, min_size=1, max_size=6))
# the newline joiner keeps a separator from reading a digit in the title before
@example(["model 3", ".5 inch"])
@example(["3", ",5", "4.", "5"])
# a final sigma is decided by what follows it within its own title
@example(["οδοσ\xad", "ΟΔΟΣ Bag"])
@example(["ΟΔΟΣ\xad", "Bag"])
def test_feed_matches_per_title_reference(titles):
    """A whole feed, normalized as one string, against the character-loop
    oracles run title by title; a title that normalizes to nothing, wherever
    it sits, names its product."""
    good = [raw for raw in titles if _normalizes(raw)]
    if len(good) < len(titles):
        first_bad = next(p for p, raw in enumerate(titles) if not _normalizes(raw))
        message = f"product {first_bad + 1}: title normalizes to zero tokens: {titles[first_bad]!r}"
        with pytest.raises(TitleNormalizationError) as caught:
            analyze_dataset(_feed(titles), _UNITS)
        assert str(caught.value) == message
    corpus = analyze_dataset(_feed(good), _UNITS)
    surfaces, tok, sem, offsets, _, _ = _interned_reference(good, _UNITS)
    assert corpus.surfaces == surfaces
    assert corpus.tok_flat.tolist() == tok
    assert corpus.sem_flat.tolist() == sem
    assert corpus.offsets.tolist() == offsets


def test_empty_title_mid_feed_names_product():
    titles = ["intel core i5", "!!! ???", "amd ryzen 5"]
    ds = Dataset(products=[RawProduct(16 + p, raw, p, None) for p, raw in enumerate(titles)])
    with pytest.raises(TitleNormalizationError) as caught:
        analyze_dataset(ds, _UNITS)
    assert str(caught.value) == "product 17: title normalizes to zero tokens: '!!! ???'"


def test_drop_pass_keeps_alnum_whitespace_and_separators():
    """Over every code point, the drop pass keeps exactly what the character
    loop keeps or splits on: str.isalnum, str.isspace and ".,/-". The pass
    leaves the regex whitespace class alone, and str.split splits on
    str.isspace; the two agree on every code point in Python 3.11, and this
    pins that agreement on every interpreter the suite runs on."""
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    kept = "".join(c for c in text if c.isalnum() or c.isspace() or c in ".,/-")
    assert _DROPPED_RE.sub("", text) == kept
