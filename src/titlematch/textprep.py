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
title, and drops exact duplicate tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple


class Semantics(IntEnum):
    ATTRIBUTE = 1
    MODEL_FIRST = 2
    MODEL_OTHER = 3
    MODEL_NUMERIC = 4
    NORMAL = 5


class TitleNormalizationError(ValueError):
    """Raised when a title produces no usable tokens."""


@dataclass(frozen=True)
class Token:
    surface: str
    semantics: Semantics
    position: int


@dataclass(frozen=True)
class AnalyzedTitle:
    tokens: Tuple[Token, ...]

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def surfaces(self) -> List[str]:
        return [t.surface for t in self.tokens]

    @property
    def semantics(self) -> List[Semantics]:
        return [t.semantics for t in self.tokens]


@dataclass(frozen=True)
class UnitLexicon:
    """Measurement units (with multiples and sub-multiples), all lower-case."""

    units: frozenset

    def __contains__(self, surface: str) -> bool:
        return surface in self.units

    def __len__(self) -> int:
        return len(self.units)

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


_NUMERIC_RE = re.compile(r"^[0-9]+(?:[.,][0-9]+)*$")
_COMPOUND_SPLIT_RE = re.compile(r"[-/]+")


def is_numeric(surface: str) -> bool:
    """Digits only, allowing interior thousands/decimal separators."""
    return _NUMERIC_RE.match(surface) is not None


def is_mixed(surface: str) -> bool:
    """Contains at least one digit and at least one letter."""
    return any(c.isdigit() for c in surface) and any(c.isalpha() for c in surface)


def normalize_title(raw: str) -> List[str]:
    """Normalize a raw title into an ordered, duplicate-free token list.

    Case folds, strips punctuation (keeping dots/commas flanked by digits),
    keeps hyphen/slash compounds and appends their parts at the end of the
    token list, then removes exact duplicates keeping the first occurrence.
    Raises TitleNormalizationError if nothing survives.
    """
    lowered = raw.lower()
    n = len(lowered)
    chars = []
    for i, ch in enumerate(lowered):
        if ch.isalnum():
            chars.append(ch)
        elif ch in ".,":
            if 0 < i < n - 1 and lowered[i - 1].isdigit() and lowered[i + 1].isdigit():
                chars.append(ch)
            else:
                chars.append(" ")
        elif ch in "-/":
            chars.append(ch)
        else:
            chars.append(" ")

    base: List[str] = []
    appended: List[str] = []
    for tok in "".join(chars).split():
        tok = tok.strip("-/")
        if not tok:
            continue
        base.append(tok)
        if "-" in tok or "/" in tok:
            appended.extend(p for p in _COMPOUND_SPLIT_RE.split(tok) if p)

    seen = set()
    result: List[str] = []
    for tok in base + appended:
        if tok not in seen:
            seen.add(tok)
            result.append(tok)
    if not result:
        raise TitleNormalizationError(f"title normalizes to zero tokens: {raw!r}")
    return result


def _attribute_split(surface: str, units: UnitLexicon) -> bool:
    """True when the token is a numeric prefix fused with a unit suffix."""
    for cut in range(1, len(surface)):
        suffix = surface[cut:]
        if suffix in units and is_numeric(surface[:cut]):
            return True
    return False


def classify_tokens(tokens: Sequence[str], units: UnitLexicon) -> AnalyzedTitle:
    """Assign semantics to normalized tokens.

    Adjacent (numeric, unit) pairs are concatenated into a single attribute
    token first; the fused surface may duplicate an existing token, in which
    case the first occurrence wins. Positions are reassigned consecutively.
    """
    merged: List[Tuple[str, Semantics | None]] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if i + 1 < len(tokens) and is_numeric(tok) and tokens[i + 1] in units:
            merged.append((tok + tokens[i + 1], Semantics.ATTRIBUTE))
            i += 2
            continue
        merged.append((tok, None))
        i += 1

    seen = set()
    deduped: List[Tuple[str, Semantics | None]] = []
    for surface, sem in merged:
        if surface not in seen:
            seen.add(surface)
            deduped.append((surface, sem))

    out: List[Token] = []
    first_mixed_taken = False
    for pos, (surface, sem) in enumerate(deduped):
        if sem is None:
            if is_mixed(surface):
                if _attribute_split(surface, units):
                    sem = Semantics.ATTRIBUTE
                elif not first_mixed_taken:
                    sem = Semantics.MODEL_FIRST
                    first_mixed_taken = True
                else:
                    sem = Semantics.MODEL_OTHER
            elif is_numeric(surface):
                sem = Semantics.MODEL_NUMERIC
            else:
                sem = Semantics.NORMAL
        out.append(Token(surface=surface, semantics=sem, position=pos))
    return AnalyzedTitle(tokens=tuple(out))


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
        return AnalyzedTitle(tokens=title.tokens[:limit])
    raise ValueError(f"unknown variant: {variant!r}")
