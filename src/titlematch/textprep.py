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
title, and drops exact duplicate tokens. A batch of titles is normalized as
one string: each title is lowered on its own, the lowered titles are joined
with newlines, and two compiled regex passes run over the joined text, never
character by character. Each pass replaces a match by one character, so
every title is sliced back out at its own offsets, and a newline, which is
never a digit, keeps the separator rule from reading across titles. Only then
does a loop over titles split, strip and deduplicate; normalize_title is
this path on a batch of one.

A corpus of titles is analyzed in one pass into columns (TitleCorpus): the
distinct surfaces in first-encounter order, every occurrence's token ID and
semantics, and per-title offsets. Fusing (number, unit) pairs and dropping
repeats depend on neighbours, so they run per title (_fuse), in the same loop
over titles as the split. Every other semantics class is a function of the
surface alone (surface_semantics) and is computed once per distinct surface;
only MODEL_FIRST versus MODEL_OTHER depends on where the token sits, and that
is one array pass over the semantics column. An AnalyzedTitle, two parallel
tuples of surfaces and semantics, is the one-title view that classify_tokens
and analyze_title return; the pipeline never builds one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np


class Semantics(IntEnum):
    ATTRIBUTE = 1
    MODEL_FIRST = 2
    MODEL_OTHER = 3
    MODEL_NUMERIC = 4
    NORMAL = 5


class TitleNormalizationError(ValueError):
    """Raised when a title produces no usable tokens; position is the title's
    index in the batch being normalized."""

    def __init__(self, message: str, position: int = 0) -> None:
        super().__init__(message)
        self.position = position


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
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"units file {path}: {exc}") from None
        return cls.from_lines(text.splitlines())

    @classmethod
    def default(cls) -> "UnitLexicon":
        text = resources.files("titlematch").joinpath("data/units.txt").read_text("utf-8")
        return cls.from_lines(text.splitlines())


_NUMERIC_RE = re.compile(r"[0-9]+(?:[.,][0-9]+)*")
_SEPARATOR_RE = re.compile(r"[.,]")
# everything but alphanumerics ([^\W_] is exactly str.isalnum), whitespace
# (\s is exactly str.isspace, so str.split still splits there) and ".,-/"
_DROPPED_RE = re.compile(r"[^\w\s.,/-]|_")
_COMPOUND_SPLIT_RE = re.compile(r"[-/]+")


def is_numeric(surface: str) -> bool:
    """Digits only, allowing interior thousands/decimal separators."""
    # fullmatch: "$" would also accept a trailing newline
    return _NUMERIC_RE.fullmatch(surface) is not None


def _keep_digit_separator(m: re.Match) -> str:
    # str.isdigit, which is wider than \d ("²", "①"); a dropped neighbour is
    # already a space, and a title's edge a newline, and neither is a digit
    s, i = m.string, m.start()
    if 0 < i < len(s) - 1 and s[i - 1].isdigit() and s[i + 1].isdigit():
        return m.group()
    return " "


def _words(raws: Sequence[str]) -> Iterator[List[str]]:
    """Each title's words before the duplicates are dropped: its
    whitespace-split tokens with "-/" stripped from their ends, then the
    parts of its hyphen/slash compounds. Raises TitleNormalizationError,
    with the title's position, for a title without words."""
    # each title is lowered on its own, so its lowered length, which lower()
    # may change ("İ"), places it in the joined text
    lowered = [raw.lower() for raw in raws]
    text = _SEPARATOR_RE.sub(_keep_digit_separator, _DROPPED_RE.sub(" ", "\n".join(lowered)))
    end = -1
    for p, title in enumerate(lowered):
        start = end + 1
        end = start + len(title)
        piece = text[start:end]
        words = piece.split()
        if "-" in piece or "/" in piece:
            words = [tok for tok in (w.strip("-/") for w in words) if tok]
            compounds = [tok for tok in words if "-" in tok or "/" in tok]
            words += [part for tok in compounds for part in _COMPOUND_SPLIT_RE.split(tok) if part]
        if not words:
            raise TitleNormalizationError(f"title normalizes to zero tokens: {raws[p]!r}", p)
        yield words


def normalize_title(raw: str) -> List[str]:
    """Normalize a raw title into an ordered, duplicate-free token list.

    Case folds, strips punctuation (keeping dots/commas flanked by digits),
    keeps hyphen/slash compounds and appends their parts at the end of the
    token list, then removes exact duplicates keeping the first occurrence.
    Raises TitleNormalizationError if nothing survives.
    """
    return list(dict.fromkeys(next(_words([raw]))))


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


def _fuse(tokens: Sequence[str], units: UnitLexicon) -> Dict[str, bool]:
    """The per-title rule: concatenate each adjacent (numeric, unit) pair into
    one surface, then drop repeated surfaces, keeping the first occurrence.
    Maps every surviving surface, in title order, to whether it was fused."""
    if units.units.isdisjoint(tokens[1:]):
        # no token after the first is a unit, so nothing fuses
        return dict.fromkeys(tokens, False)
    out: Dict[str, bool] = {}
    i = 0
    while i < len(tokens):
        surface = tokens[i]
        if i + 1 < len(tokens) and tokens[i + 1] in units and is_numeric(surface):
            out.setdefault(surface + tokens[i + 1], True)
            i += 2
        else:
            out.setdefault(surface, False)
            i += 1
    return out


_SEMANTICS = (None,) + tuple(Semantics)


@dataclass(frozen=True, eq=False)
class TitleCorpus:
    """Analyzed titles as columns, title after title.

    Token IDs are interned in first-encounter order: ID i has surface
    surfaces[i]. Title p's token IDs are tok_flat[offsets[p] : offsets[p + 1]]
    in title order, and sem_flat holds each occurrence's semantics as an int.
    Indexing or iterating yields AnalyzedTitle views, built on demand.
    """

    surfaces: List[str]
    tok_flat: np.ndarray
    sem_flat: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, p: int) -> AnalyzedTitle:
        if not 0 <= p < len(self):
            raise IndexError(f"title {p} out of range for {len(self)} titles")
        lo, hi = self.offsets[p], self.offsets[p + 1]
        return AnalyzedTitle(
            surfaces=tuple(map(self.surfaces.__getitem__, self.tok_flat[lo:hi].tolist())),
            semantics=tuple(map(_SEMANTICS.__getitem__, self.sem_flat[lo:hi].tolist())),
        )

    def __iter__(self) -> Iterator[AnalyzedTitle]:
        return map(self.__getitem__, range(len(self)))

    @property
    def mean_length(self) -> float:
        """Mean tokens per title; 0.0 for no titles."""
        return int(self.offsets[-1]) / len(self) if len(self) else 0.0

    def clip(self, variant: str, k_star: int) -> "TitleCorpus":
        """Apply the title-pruning variant. upm returns the corpus as it is;
        upm+ keeps each title's first 2*k_star tokens and re-interns the
        surviving surfaces in first-encounter order."""
        if k_star < 1:
            raise ValueError(f"k_star must be >= 1, got {k_star}")
        if variant == "upm":
            return self
        if variant != "upm+":
            raise ValueError(f"unknown variant: {variant!r}")
        lengths = np.diff(self.offsets)
        position = np.arange(len(self.tok_flat)) - np.repeat(self.offsets[:-1], lengths)
        keep = position < 2 * k_star
        ids = self.tok_flat[keep]
        old, first = np.unique(ids, return_index=True)
        old = old[np.argsort(first)]
        new_id = np.empty(len(self.surfaces), dtype=np.int64)
        new_id[old] = np.arange(len(old))
        return TitleCorpus(
            surfaces=list(map(self.surfaces.__getitem__, old.tolist())),
            tok_flat=new_id[ids],
            sem_flat=self.sem_flat[keep],
            offsets=np.concatenate([[0], np.cumsum(np.minimum(lengths, 2 * k_star))]),
        )


def _intern(titles: Iterable[Dict[str, bool]], units: UnitLexicon) -> TitleCorpus:
    """The TitleCorpus of _fuse's per-title outputs, in order.

    surface_semantics runs once per distinct surface; a fused occurrence is
    an ATTRIBUTE whatever its bare surface would be. Only the first
    MODEL_FIRST occurrence of each title keeps that class, the rest become
    MODEL_OTHER.
    """
    flat: List[str] = []
    lengths: List[int] = []
    fused_at: List[int] = []
    for title in titles:
        if any(title.values()):
            fused_at.extend(len(flat) + j for j, fused in enumerate(title.values()) if fused)
        flat.extend(title)
        lengths.append(len(title))
    surfaces = list(dict.fromkeys(flat))
    token_id = dict(zip(surfaces, range(len(surfaces))))
    tok_flat = np.fromiter(map(token_id.__getitem__, flat), dtype=np.int64, count=len(flat))
    bare = np.fromiter(
        (surface_semantics(s, units) for s in surfaces), dtype=np.int64, count=len(surfaces)
    )
    sem_flat = bare[tok_flat]
    sem_flat[fused_at] = Semantics.ATTRIBUTE
    offsets = np.cumsum([0] + lengths, dtype=np.int64)
    model = np.flatnonzero(sem_flat == Semantics.MODEL_FIRST)
    title_of = np.searchsorted(offsets, model, side="right")
    sem_flat[model[1:][title_of[1:] == title_of[:-1]]] = Semantics.MODEL_OTHER
    return TitleCorpus(surfaces=surfaces, tok_flat=tok_flat, sem_flat=sem_flat, offsets=offsets)


def classify_corpus(titles: Iterable[Sequence[str]], units: UnitLexicon) -> TitleCorpus:
    """Analyze token lists, which need not be normalized, into one
    TitleCorpus: per title, fuse (number, unit) pairs and drop repeats
    (_fuse), then intern."""
    return _intern((_fuse(tokens, units) for tokens in titles), units)


def analyze_titles(raws: Sequence[str], units: UnitLexicon) -> TitleCorpus:
    """normalize_title and then classify_tokens on every raw title, as one
    TitleCorpus in title order; one loop over the titles."""
    # normalize_title drops repeats before _fuse runs; unless a unit follows
    # the first word nothing fuses, and that one dedup is the whole of _fuse
    no_unit_after_first = units.units.isdisjoint
    return _intern(
        (
            dict.fromkeys(words, False)
            if no_unit_after_first(words[1:])
            else _fuse(list(dict.fromkeys(words)), units)
            for words in _words(raws)
        ),
        units,
    )


def classify_tokens(tokens: Sequence[str], units: UnitLexicon) -> AnalyzedTitle:
    """Assign semantics to normalized tokens: classify_corpus on one title.

    Adjacent (numeric, unit) pairs are concatenated into a single attribute
    token; the fused surface may duplicate an existing token, in which case
    the first occurrence wins. Only the first model token is MODEL_FIRST.
    """
    return classify_corpus([tokens], units)[0]


def analyze_title(raw: str, units: UnitLexicon) -> AnalyzedTitle:
    """normalize_title followed by classify_tokens."""
    return analyze_titles([raw], units)[0]
