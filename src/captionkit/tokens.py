"""Canonical tokenizer and sentence splitter.

Every statistic in this package is computed over the token stream produced
here, so absolute token counts are only comparable between corpora processed
by the same rules:

- lower-case, split on whitespace
- characters other than letters and digits, ``_`` included, are stripped from
  each chunk's ends
- internal hyphens and apostrophes kept ("c-shaped" and "it's" are one token)
- pure digit runs kept as tokens
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_SENTENCE_END = re.compile(r"[.!?]+(?:\s+|$)")
# One whitespace-delimited chunk from its first to its last letter or digit:
# [^\W_] accepts exactly what str.isalnum does, \s exactly what str.isspace does.
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?")


@dataclass(frozen=True)
class TokenizedSentence:
    """Token sequence plus the count of letters/digits in the source text."""

    tokens: tuple[str, ...]
    char_count: int


def tokenize(text: str) -> TokenizedSentence:
    """Tokenize one caption (or any text) into lower-case tokens.

    Empty or whitespace-only text yields an empty token sequence.
    """
    return TokenizedSentence(tuple(_TOKEN.findall(text.lower())), sum(map(str.isalnum, text)))


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!' or '?' followed by whitespace or end of text.

    Text without a terminator is a single sentence; empty segments are dropped.
    """
    return [part.strip() for part in _SENTENCE_END.split(text) if part.strip()]
