"""Canonical tokenizer and sentence splitter.

Every statistic in this package is computed over the token stream produced
here, so absolute token counts are only comparable between corpora processed
by the same rules:

- lower-case, split on whitespace
- leading/trailing punctuation stripped per token
- internal hyphens and apostrophes kept ("c-shaped" and "it's" are one token)
- pure digit runs kept as tokens
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_SENTENCE_END = re.compile(r"[.!?]+(?:\s+|$)")


@dataclass(frozen=True)
class TokenizedSentence:
    """Token sequence plus the count of letters/digits in the source text."""

    tokens: tuple[str, ...]
    char_count: int


def _strip_edges(chunk: str) -> str:
    start, end = 0, len(chunk)
    while start < end and not chunk[start].isalnum():
        start += 1
    while end > start and not chunk[end - 1].isalnum():
        end -= 1
    return chunk[start:end]


def tokenize(text: str) -> TokenizedSentence:
    """Tokenize one caption (or any text) into lower-case tokens.

    Empty or whitespace-only text yields an empty token sequence.
    """
    toks = []
    for chunk in text.lower().split():
        tok = _strip_edges(chunk)
        if tok:
            toks.append(tok)
    return TokenizedSentence(tuple(toks), sum(map(str.isalnum, text)))


def split_sentences(text: str) -> list[str]:
    """Split on '.', '!' or '?' followed by whitespace or end of text.

    Text without a terminator is a single sentence; empty segments are dropped.
    """
    return [part.strip() for part in _SENTENCE_END.split(text) if part.strip()]
