"""Readability panel: counts, complex-word share, Fog, Flesch, Flesch-Kincaid.

Syllables come from a frozen heuristic (contiguous vowel groups with a silent
trailing-e rule), so all syllable-dependent numbers are heuristic-relative.
Syllables, letters and digits are counted once per token type and weighted
by the type's count. A "complex" word is any token of three or more heuristic
syllables; the complex-word share still counts occurrences.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import NamedTuple

from .corpus import Corpus, Record
from .exceptions import ConfigurationError, DegenerateInputError
from .tokens import _words, split_sentences

_VOWELS = frozenset("aeiouy")

COMPLEX_SYLLABLES = 3


def count_syllables(word: str) -> int:
    """Heuristic syllable count: contiguous vowel groups (a,e,i,o,u,y), minus
    one for a silent trailing 'e' unless the word ends in consonant+'le',
    floored at 1."""
    w = word.lower()
    groups = 0
    in_group = False
    for ch in w:
        is_vowel = ch in _VOWELS
        if is_vowel and not in_group:
            groups += 1
        in_group = is_vowel
    if w.endswith("e"):
        consonant_le = len(w) >= 3 and w.endswith("le") and w[-3] not in _VOWELS
        if not consonant_le:
            groups -= 1
    return max(groups, 1)


# One row per panel field: report attribute, JSON key, table label, table format.
PANEL = (
    ("characters", "characters", "Characters", "{:,}"),
    ("words", "words", "Words", "{:,}"),
    ("unique_words", "unique_words", "Unique Words", "{:,}"),
    ("complex_pct", "complex_word_pct", "Complex Word %", "{:.2f}"),
    ("syllables_per_word", "avg_syllables_per_word", "Avg. Syllables / Word", "{:.2f}"),
    ("sentences", "sentences", "Sentences", "{:,}"),
    ("words_per_sentence", "avg_words_per_sentence", "Avg. Words / Sentence", "{:.2f}"),
    ("fog", "fog_grade_level", "Fog grade level", "{:.2f}"),
    ("flesch", "flesch_reading_ease", "Flesch reading ease", "{:.2f}"),
    ("fk", "flesch_kincaid_grade", "Flesch-Kincaid level", "{:.2f}"),
)


class IndexScores(NamedTuple):
    fog: float
    flesch: float
    fk: float


class ReadabilityReport(Record):
    """The aggregate metric panel for one corpus."""

    __slots__ = tuple(attr for attr, _, _, _ in PANEL)

    def __init__(self, characters: int, words: int, unique_words: int, complex_pct: float, syllables_per_word: float,
                 sentences: int, words_per_sentence: float, fog: float, flesch: float, fk: float) -> None:
        self._set(characters, words, unique_words, complex_pct, syllables_per_word, sentences, words_per_sentence,
                  fog, flesch, fk)

    def to_dict(self) -> dict:
        return {key: getattr(self, attr) for attr, key, _, _ in PANEL}


def report_from_aggregates(
    words_per_sentence: float, syllables_per_word: float, complex_pct: float
) -> IndexScores:
    """Apply the three index formulas directly to pre-computed ratios.

    ``complex_pct`` is a percentage (0..100) and may be zero; the two ratios
    must be positive.
    """
    if words_per_sentence <= 0 or syllables_per_word <= 0 or complex_pct < 0:
        raise ConfigurationError("ratios must be positive and complex_pct non-negative")
    fog = 0.4 * (words_per_sentence + complex_pct)
    flesch = 206.835 - 1.015 * words_per_sentence - 84.6 * syllables_per_word
    fk = 0.39 * words_per_sentence + 11.8 * syllables_per_word - 15.59
    return IndexScores(fog, flesch, fk)


def _sentences(text: str) -> int:
    """``len(split_sentences(text))``; text whose only terminators are its last run is not split."""
    core = text.rstrip().rstrip(".!?")
    if "." in core or "!" in core or "?" in core:
        return len(split_sentences(text))
    return 1 if core.strip() else 0


def report(corpus: Corpus) -> ReadabilityReport:
    """Compute the full readability panel over every caption in the corpus."""
    texts = list(corpus.texts())
    counts = Counter(chain.from_iterable(map(_words, texts)))
    sentences = sum(map(_sentences, texts))
    words = counts.total()
    characters = syllables = complex_words = 0
    for tok, count in counts.items():  # each letter or digit of a caption lies in one token
        characters += count * sum(map(str.isalnum, tok))
        n = count_syllables(tok)
        syllables += n * count
        if n >= COMPLEX_SYLLABLES:
            complex_words += count
    if words == 0 or sentences == 0:
        raise DegenerateInputError("corpus has no words or no sentences")
    words_per_sentence = words / sentences
    syllables_per_word = syllables / words
    complex_pct = 100.0 * complex_words / words
    fog, flesch, fk = report_from_aggregates(words_per_sentence, syllables_per_word, complex_pct)
    return ReadabilityReport(
        characters=characters,
        words=words,
        unique_words=len(counts),
        complex_pct=complex_pct,
        syllables_per_word=syllables_per_word,
        sentences=sentences,
        words_per_sentence=words_per_sentence,
        fog=fog,
        flesch=flesch,
        fk=fk,
    )
