"""Readability panel: counts, complex-word share, Fog, Flesch, Flesch-Kincaid.

Syllables come from a frozen heuristic (contiguous vowel groups with a silent
trailing-e rule), so all syllable-dependent numbers are heuristic-relative.
Syllables are counted once per token type and weighted by the type's count.
A "complex" word is any token of three or more heuristic syllables; the
complex-word share still counts occurrences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .corpus import Corpus
from .exceptions import DegenerateInputError
from .tokens import split_sentences, tokenize

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


class IndexScores(NamedTuple):
    fog: float
    flesch: float
    fk: float


@dataclass(frozen=True)
class ReadabilityReport:
    """The aggregate metric panel for one corpus."""

    characters: int
    words: int
    unique_words: int
    complex_pct: float
    syllables_per_word: float
    sentences: int
    words_per_sentence: float
    fog: float
    flesch: float
    fk: float

    def to_dict(self) -> dict:
        return {
            "characters": self.characters,
            "words": self.words,
            "unique_words": self.unique_words,
            "complex_word_pct": self.complex_pct,
            "avg_syllables_per_word": self.syllables_per_word,
            "sentences": self.sentences,
            "avg_words_per_sentence": self.words_per_sentence,
            "fog_grade_level": self.fog,
            "flesch_reading_ease": self.flesch,
            "flesch_kincaid_grade": self.fk,
        }


def report_from_aggregates(
    words_per_sentence: float, syllables_per_word: float, complex_pct: float
) -> IndexScores:
    """Apply the three index formulas directly to pre-computed ratios.

    ``complex_pct`` is a percentage (0..100) and may be zero; the two ratios
    must be positive.
    """
    if words_per_sentence <= 0 or syllables_per_word <= 0 or complex_pct < 0:
        raise ValueError("ratios must be positive and complex_pct non-negative")
    fog = 0.4 * (words_per_sentence + complex_pct)
    flesch = 206.835 - 1.015 * words_per_sentence - 84.6 * syllables_per_word
    fk = 0.39 * words_per_sentence + 11.8 * syllables_per_word - 15.59
    return IndexScores(fog, flesch, fk)


def report(corpus: Corpus) -> ReadabilityReport:
    """Compute the full readability panel over every caption in the corpus."""
    characters = sentences = 0
    counts: Counter[str] = Counter()
    for cap in corpus.captions():
        sentence = tokenize(cap.raw)
        characters += sentence.char_count
        counts.update(sentence.tokens)
        sentences += len(split_sentences(cap.raw))
    words = counts.total()
    syllables = complex_words = 0
    for tok, count in counts.items():
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
