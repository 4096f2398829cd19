"""Canonical tokenizer and sentence splitter.

Every statistic in this package is computed over the token stream produced
by one grammar, so absolute token counts are only comparable between corpora
processed by the same rules:

- lower-case, split on whitespace
- characters other than letters and digits, ``_`` included, are stripped from
  each chunk's ends
- internal hyphens and apostrophes kept ("c-shaped" and "it's" are one token)
- pure digit runs kept as tokens

The grammar has two entry points. ``tokenize`` adds the count of letters and
digits that readability reports; the stages that read only the tokens call
``_words``, which skips that count. ``_check_word`` is the one test of a word
from a rule, keyword or index file: it must be a token the grammar can produce.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .exceptions import ValidationError

_SENTENCE_END = re.compile(r"[.!?]+(?:\s+|$)")
# One whitespace-delimited chunk from its first to its last letter or digit:
# [^\W_] accepts exactly what str.isalnum does, \s exactly what str.isspace does.
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?")


@dataclass(frozen=True)
class TokenizedSentence:
    """Token sequence plus the count of letters/digits in the source text."""

    tokens: tuple[str, ...]
    char_count: int


def _words(text: str) -> tuple[str, ...]:
    """The grammar itself: ``tokenize(text).tokens`` without the character count."""
    return tuple(_TOKEN.findall(text.lower()))


def _check_word(word: str, what: str, error: type[Exception] = ValidationError) -> None:
    """Raise ``error`` unless the grammar reads ``word`` as exactly itself, one token."""
    if _words(word) != (word,):
        raise error(f"{what} must be one lower-case token as the tokenizer reads it, got {word!r}")


def tokenize(text: str) -> TokenizedSentence:
    """Tokenize one caption (or any text) into lower-case tokens.

    Empty or whitespace-only text yields an empty token sequence.
    """
    return TokenizedSentence(_words(text), sum(map(str.isalnum, text)))


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!' or '?' followed by whitespace or end of text.

    Text without a terminator is a single sentence; empty segments are dropped.
    """
    return [part.strip() for part in _SENTENCE_END.split(text) if part.strip()]
