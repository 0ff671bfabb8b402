"""Title normalization and token semantics.

A raw vendor title is turned into an ordered list of lower-case tokens, then
each token is assigned one of five semantics classes that drive the virtual
field weighting used by the scorer:

    1 attribute       numeric value fused with a measurement unit ("32gb")
    2 model (first)   first mixed digits+letters token that is not an attribute
    3 model (other)   remaining mixed tokens that are not attributes
    4 model (numeric) bare number not followed by a measurement unit
    5 normal          everything else

Normalization keeps dots and commas only when they act as numeric separators,
keeps hyphen/slash compounds while appending their parts at the end of the
title, and drops exact duplicate tokens. It works on whole strings with
compiled regexes, never character by character.

An AnalyzedTitle is two parallel tuples, surfaces and semantics; a token's
position is its index. Every semantics class but the model split is a
function of the surface alone (surface_semantics); only MODEL_FIRST versus
MODEL_OTHER depends on where the token sits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple


class Semantics(IntEnum):
    ATTRIBUTE = 1
    MODEL_FIRST = 2
    MODEL_OTHER = 3
    MODEL_NUMERIC = 4
    NORMAL = 5


class TitleNormalizationError(ValueError):
    """Raised when a title produces no usable tokens."""


@dataclass(frozen=True)
class AnalyzedTitle:
    """Parallel tuples: token i has surface surfaces[i] and semantics
    semantics[i]; its position in the title is i."""

    surfaces: Tuple[str, ...]
    semantics: Tuple[Semantics, ...]

    @property
    def length(self) -> int:
        return len(self.surfaces)


@dataclass(frozen=True)
class UnitLexicon:
    """Measurement units (with multiples and sub-multiples), all lower-case."""

    units: frozenset

    def __contains__(self, surface: str) -> bool:
        return surface in self.units

    def __len__(self) -> int:
        return len(self.units)

    @cached_property
    def attribute_re(self) -> re.Pattern:
        """Full-matches a numeric prefix fused with a unit suffix ("3.2ghz");
        backtracking tries every numeric prefix against every unit."""
        alternatives = "|".join(map(re.escape, sorted(self.units))) or "(?!)"
        return re.compile(rf"[0-9]+(?:[.,][0-9]+)*(?:{alternatives})")

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "UnitLexicon":
        units = set()
        for line in lines:
            entry = line.split("#", 1)[0].strip().lower()
            if entry:
                units.add(entry)
        return cls(units=frozenset(units))

    @classmethod
    def from_file(cls, path) -> "UnitLexicon":
        text = Path(path).read_text(encoding="utf-8")
        return cls.from_lines(text.splitlines())

    @classmethod
    def default(cls) -> "UnitLexicon":
        text = resources.files("titlematch").joinpath("data/units.txt").read_text("utf-8")
        return cls.from_lines(text.splitlines())


_NUMERIC_RE = re.compile(r"[0-9]+(?:[.,][0-9]+)*")
_SEPARATOR_RE = re.compile(r"[.,]")
# everything but alphanumerics ([^\W_] is exactly str.isalnum) and ".,-/"
_DROPPED_RE = re.compile(r"[^\w.,/-]|_")
_COMPOUND_SPLIT_RE = re.compile(r"[-/]+")


def is_numeric(surface: str) -> bool:
    """Digits only, allowing interior thousands/decimal separators."""
    # fullmatch: "$" would also accept a trailing newline
    return _NUMERIC_RE.fullmatch(surface) is not None


def _keep_digit_separator(m: re.Match) -> str:
    # str.isdigit, which is wider than \d ("²", "①"); a dropped neighbour is
    # already a space and never a digit
    s, i = m.string, m.start()
    if 0 < i < len(s) - 1 and s[i - 1].isdigit() and s[i + 1].isdigit():
        return m.group()
    return " "


def normalize_title(raw: str) -> List[str]:
    """Normalize a raw title into an ordered, duplicate-free token list.

    Case folds, strips punctuation (keeping dots/commas flanked by digits),
    keeps hyphen/slash compounds and appends their parts at the end of the
    token list, then removes exact duplicates keeping the first occurrence.
    Raises TitleNormalizationError if nothing survives.
    """
    text = _DROPPED_RE.sub(" ", raw.lower())
    text = _SEPARATOR_RE.sub(_keep_digit_separator, text)
    base = [tok for tok in (w.strip("-/") for w in text.split()) if tok]
    compounds = [tok for tok in base if "-" in tok or "/" in tok]
    appended = [p for tok in compounds for p in _COMPOUND_SPLIT_RE.split(tok) if p]
    result = list(dict.fromkeys(base + appended))
    if not result:
        raise TitleNormalizationError(f"title normalizes to zero tokens: {raw!r}")
    return result


def surface_semantics(surface: str, units: UnitLexicon) -> Semantics:
    """Semantics of a token that depend on its surface alone.

    ATTRIBUTE: a numeric prefix fused with a unit suffix ("3.2ghz").
    MODEL_FIRST: any other token holding a digit and a letter; whether it
    stays first or becomes MODEL_OTHER depends on its position.
    MODEL_NUMERIC: digits with interior separators only. NORMAL: the rest.
    """
    if is_numeric(surface):
        return Semantics.MODEL_NUMERIC
    if not (any(map(str.isdigit, surface)) and any(map(str.isalpha, surface))):
        return Semantics.NORMAL
    if units.attribute_re.fullmatch(surface):
        return Semantics.ATTRIBUTE
    return Semantics.MODEL_FIRST


def classify_tokens(tokens: Sequence[str], units: UnitLexicon) -> AnalyzedTitle:
    """Assign semantics to normalized tokens.

    Adjacent (numeric, unit) pairs are concatenated into a single attribute
    token; the fused surface may duplicate an existing token, in which case
    the first occurrence wins. Only the first model token is MODEL_FIRST.
    """
    out: Dict[str, Semantics] = {}
    model_seen = False
    i = 0
    while i < len(tokens):
        surface = tokens[i]
        if i + 1 < len(tokens) and tokens[i + 1] in units and is_numeric(surface):
            surface += tokens[i + 1]
            sem = Semantics.ATTRIBUTE
            i += 2
        else:
            sem = None
            i += 1
        if surface in out:
            continue
        if sem is None:
            sem = surface_semantics(surface, units)
        if sem == Semantics.MODEL_FIRST:
            if model_seen:
                sem = Semantics.MODEL_OTHER
            model_seen = True
        out[surface] = sem
    return AnalyzedTitle(surfaces=tuple(out), semantics=tuple(out.values()))


def analyze_title(raw: str, units: UnitLexicon) -> AnalyzedTitle:
    """normalize_title followed by classify_tokens."""
    return classify_tokens(normalize_title(raw), units)


def truncate_for_variant(title: AnalyzedTitle, variant: str, k_star: int) -> AnalyzedTitle:
    """Apply the title-pruning variant: keep only the first 2*k_star tokens.

    The base variant returns the title unchanged.
    """
    if k_star < 1:
        raise ValueError(f"k_star must be >= 1, got {k_star}")
    if variant == "upm":
        return title
    if variant == "upm+":
        limit = 2 * k_star
        if title.length <= limit:
            return title
        return AnalyzedTitle(surfaces=title.surfaces[:limit], semantics=title.semantics[:limit])
    raise ValueError(f"unknown variant: {variant!r}")
