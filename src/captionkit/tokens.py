"""Canonical tokenizer and sentence splitter.

Every statistic in this package is computed over the token stream produced
by one grammar, so absolute token counts are only comparable between corpora
processed by the same rules:

- lower-case, split on whitespace
- characters other than letters and digits, ``_`` included, are stripped from
  each chunk's ends
- internal hyphens and apostrophes kept ("c-shaped" and "it's" are one token)
- pure digit runs kept as tokens

The grammar has two paths, and each lower-cases the text first. ASCII text,
every caption of an RSICD-style corpus, loses its trailing run of characters
that are not letters or digits (``_ASCII_TAIL``, whitespace included). If what
is left holds no ``_ASCII_EDGE`` character (neither letter, digit nor
whitespace), as in a caption whose only punctuation ends it, ``str.split``
alone gives the tokens: the plain path. All other text goes through the regex
``_TOKEN``, whose classes ``[^\\W_]`` and ``\\s`` accept exactly what
``str.isalnum`` and ``str.isspace`` do on every code point, so no strip set
has to list the non-ASCII characters.

The grammar has two entry points: ``tokenize`` adds the count of letters and
digits, and the stages, which read only tokens, call ``_words``. Each rule the
stages share is written once: a rule, keyword or index word must be a token
(``_check_word``), a container argument has its shape and is no string
(``_check_container``, kept in :mod:`captionkit.corpus` for the model types),
a count argument is an ``int`` in its range (``_check_count``), which captions
are the same (``_first``), the phrase-table rewrite (``_rewrite``).
"""

from __future__ import annotations

import re
from collections.abc import Collection, Mapping, Sequence

from .corpus import Record, _check_container
from .exceptions import ConfigurationError, ValidationError

_SENTENCE_END = re.compile(r"[.!?]+(?:\s+|$)")
# One whitespace-delimited chunk from its first to its last letter or digit:
# [^\W_] accepts exactly what str.isalnum does, \s exactly what str.isspace does.
_TOKEN = re.compile(r"[^\W_](?:\S*[^\W_])?")
_ASCII_EDGE = "".join(ch for ch in map(chr, range(128)) if not ch.isalnum() and not ch.isspace())
_ASCII_TAIL = "".join(ch for ch in map(chr, range(128)) if not ch.isalnum())
_has_edge = re.compile(f"[{re.escape(_ASCII_EDGE)}]").search


class TokenizedSentence(Record):
    """Token sequence plus the count of letters/digits in the source text."""

    __slots__ = ("tokens", "char_count")

    def __init__(self, tokens: tuple[str, ...], char_count: int) -> None:
        self._set(tokens, char_count)


def _words(text: str) -> tuple[str, ...]:
    """The grammar itself: ``tokenize(text).tokens`` without the character count."""
    text = text.lower().rstrip(_ASCII_TAIL)  # no token ends in what is stripped
    if text.isascii() and not _has_edge(text):
        return tuple(text.split())
    return tuple(_TOKEN.findall(text))


def _check_word(word: str, what: str, error: type[Exception] = ValidationError) -> None:
    """Raise ``error`` unless ``word`` is a string the grammar reads as exactly itself, one token."""
    if not isinstance(word, str) or _words(word) != (word,):
        raise error(f"{what} must be one lower-case token as the tokenizer reads it, got {word!r}")


def _check_count(value: object, what: str, low: int | None = None, high: int | None = None,
                 error: type[Exception] = ConfigurationError) -> None:
    """Raise ``error`` unless ``value`` is an ``int``, and no ``bool``, from ``low`` to ``high`` where given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise error(f"{what} must be <= {high}, got {value}")


def _check_words(words: Collection[str], what: str, error: type[Exception] = ValidationError) -> None:
    """``_check_word`` on each of ``words``, which must be a collection and no string."""
    _check_container(words, Collection, f"{what}: expected a collection of words", error)
    for word in words:
        _check_word(word, what, error)


def _first(norm: str, seen: set[str]) -> bool:
    """Whether caption token join ``norm`` is new to ``seen``, which records it; ``""`` is always new, never kept."""
    return not norm or not (norm in seen or seen.add(norm))


def _rewrite(keys: Sequence[str], words: Sequence[str], table: Mapping, widths: Sequence[int]) -> list[str]:
    """``words`` rewritten left to right by ``table``, each run matched as its run of ``keys``, widest
    of ``widths`` first: a hit emits the table's value and skips the run, a miss keeps the word."""
    keys = tuple(keys)
    out: list[str] = []
    i = 0
    while i < len(keys):
        for width in widths:
            value = table.get(keys[i : i + width])
            if value is not None:
                out.extend(value)
                i += width
                break
        else:
            out.append(words[i])
            i += 1
    return out


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
