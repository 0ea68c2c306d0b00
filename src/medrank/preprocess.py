"""Text normalization: sentence splitting, trailer removal, abbreviation expansion.

All functions here are pure and deterministic; they are safe to call from
multiple threads.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Mapping

from .errors import SchemaError, read_lines

# Abbreviations that end with '.' but do not terminate a sentence.
DEFAULT_GUARDS = frozenset(
    {
        "Dr.",
        "Mr.",
        "Mrs.",
        "Ms.",
        "Prof.",
        "St.",
        "Jr.",
        "Sr.",
        "e.g.",
        "i.e.",
        "etc.",
        "vs.",
        "cf.",
        "Fig.",
        "No.",
        "approx.",
    }
)

_TERMINATORS = ".?!"
# Characters that may open a token without breaking a guard match ("(e.g.").
_OPENERS = "([{\"'"


def load_guard_list(path: str | Path) -> frozenset[str]:
    """Read a splitter guard list: one abbreviation per line, blanks ignored."""
    return frozenset(line.strip() for _, line in read_lines(path))


def split_sentences(text: str, guards: frozenset[str] = DEFAULT_GUARDS) -> list[str]:
    """Split text into sentences on '.', '?', '!'.

    A terminator ends a sentence when it is the last non-space character of
    the text, or when it is followed by whitespace and then an uppercase
    letter. A '.' whose trailing token (e.g. "Dr.", "e.g.") is in the guard
    set never splits. The produced sentences are stripped and non-empty;
    joining them with single spaces reproduces the input up to whitespace.
    """
    sentences: list[str] = []
    start = 0
    n = len(text)
    for i, ch in enumerate(text):
        if ch not in _TERMINATORS:
            continue
        j = i + 1
        while j < n and text[j].isspace():
            j += 1
        at_end = j >= n
        # Require at least one whitespace character before the capital.
        next_cap = (not at_end) and j > i + 1 and text[j].isupper()
        boundary = at_end or next_cap
        if boundary and ch == ".":
            k = i
            while k > 0 and not text[k - 1].isspace():
                k -= 1
            token = text[k : i + 1].lstrip(_OPENERS)
            if token in guards:
                boundary = False
        if boundary:
            sentence = text[start : i + 1].strip()
            if sentence:
                sentences.append(sentence)
            start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def strip_trailing_updated_by(sentences: list[str]) -> list[str]:
    """Drop the maximal trailing run of sentences containing "updated by:".

    Matching is a case-insensitive substring test; interior matches are kept.
    Idempotent.
    """
    end = len(sentences)
    while end > 0 and "updated by:" in sentences[end - 1].lower():
        end -= 1
    return list(sentences[:end])


class AbbreviationDict:
    """Whole-token abbreviation expansions, applied longest-key-first.

    Token boundaries are non-alphanumeric characters; keys are matched
    case-sensitively as loaded. Expansion is a single left-to-right pass and
    never re-expands produced text.
    """

    def __init__(self, entries: Mapping[str, str]):
        for key in entries:
            if not key:
                raise SchemaError("abbreviation keys must be non-empty")
        self.entries = dict(entries)
        self._pattern = self._compile()

    def _compile(self) -> re.Pattern | None:
        if not self.entries:
            return None
        keys = sorted(self.entries, key=lambda k: (-len(k), k))
        alternation = "|".join(re.escape(k) for k in keys)
        return re.compile(
            r"(?<![A-Za-z0-9])(?:" + alternation + r")(?![A-Za-z0-9])"
        )

    @classmethod
    def from_tsv(cls, path: str | Path) -> "AbbreviationDict":
        """Load a two-column TSV file: abbreviation TAB expansion."""
        entries: dict[str, str] = {}
        for where, line in read_lines(path):
            parts = line.split("\t")
            if len(parts) != 2:
                raise SchemaError(f"{where}: expected two tab-separated columns")
            abbrev, expansion = parts[0].strip(), parts[1].strip()
            if not abbrev:
                raise SchemaError(f"{where}: empty abbreviation")
            entries[abbrev] = expansion
        return cls(entries)

    def expand(self, text: str) -> str:
        if self._pattern is None:
            return text
        return self._pattern.sub(lambda m: self.entries[m.group(0)], text)


def expand_abbreviations(text: str, abbreviations: AbbreviationDict) -> str:
    """Expand whole-token abbreviations in text."""
    return abbreviations.expand(text)


def normalize_answer(
    text: str,
    abbreviations: AbbreviationDict | None = None,
    guards: frozenset[str] = DEFAULT_GUARDS,
) -> str:
    """Full answer-side pipeline: trailer removal, then expansion.

    Returns the cleaned answer as one string (sentences joined by spaces).
    """
    sentences = strip_trailing_updated_by(split_sentences(text, guards))
    joined = " ".join(sentences)
    if abbreviations is not None:
        joined = expand_abbreviations(joined, abbreviations)
    return joined
