"""Vocabulary diagnostics: frequency distribution, coverage, hapax and duplicate rates.

Caption uniqueness is judged on the normalized token join, so case and
punctuation variants of the same sentence count as duplicates. Duplicates are
counted corpus-wide; a per-image breakdown is kept as well because annotators
tend to copy within one image's caption group.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from pathlib import Path
from typing import Mapping, NamedTuple

from .corpus import Corpus, Record, write_csv
from .exceptions import DegenerateInputError
from .tokens import _check_count, _first, _words


class VocabularyProfile(Record):
    """Token frequency table plus caption-duplication statistics."""

    __slots__ = ("freq", "total_tokens", "unique_tokens", "hapax_count", "total_captions", "unique_captions",
                 "duplicate_captions", "within_image_duplicate_captions")

    def __init__(self, freq: Mapping[str, int], total_tokens: int, unique_tokens: int, hapax_count: int,
                 total_captions: int, unique_captions: int, duplicate_captions: int,
                 within_image_duplicate_captions: int) -> None:
        self._set(freq, total_tokens, unique_tokens, hapax_count, total_captions, unique_captions,
                  duplicate_captions, within_image_duplicate_captions)

    def ranked(self) -> list[tuple[str, int]]:
        """Tokens by descending count, ties broken lexicographically."""
        return sorted(self.freq.items(), key=lambda item: (-item[1], item[0]))

    def to_dict(self) -> dict:
        return {**self._dict(), "freq": dict(self.freq)}


class Coverage(NamedTuple):
    fraction: float
    covered_tokens: int


def profile(corpus: Corpus) -> VocabularyProfile:
    """Compute the vocabulary profile over every caption in the corpus."""
    if not corpus.records:
        raise DegenerateInputError("cannot profile an empty corpus")
    freq: Counter[str] = Counter()
    norms_seen: set[str] = set()
    total_captions = corpus.caption_count()
    unique_captions = within_image_duplicates = 0
    for record in corpus.records:
        record_norms: set[str] = set()
        for text in record.texts:
            toks = _words(text)
            freq.update(toks)
            norm = " ".join(toks)
            unique_captions += _first(norm, norms_seen)
            within_image_duplicates += not _first(norm, record_norms)
    return VocabularyProfile(
        freq=dict(freq),
        total_tokens=sum(freq.values()),
        unique_tokens=len(freq),
        hapax_count=sum(1 for count in freq.values() if count == 1),
        total_captions=total_captions,
        unique_captions=unique_captions,
        duplicate_captions=total_captions - unique_captions,
        within_image_duplicate_captions=within_image_duplicates,
    )


def top_k_coverage(prof: VocabularyProfile, k: int) -> Coverage:
    """Fraction of all token occurrences covered by the k most frequent tokens.

    ``k`` is an ``int`` of at least 1 (else ``ConfigurationError``); beyond the
    vocabulary size it simply covers everything.
    """
    _check_count(k, "k", 1)
    covered = sum(count for _, count in prof.ranked()[:k])
    fraction = covered / prof.total_tokens if prof.total_tokens else 0.0
    return Coverage(fraction, covered)


def hapax_ratio(prof: VocabularyProfile) -> float:
    """Share of vocabulary entries occurring exactly once."""
    if prof.unique_tokens < 1:
        raise DegenerateInputError("profile has no tokens")
    return prof.hapax_count / prof.unique_tokens


def frequency_export(prof: VocabularyProfile, path: str | Path) -> None:
    """Write rank,token,count,cumulative_fraction rows in rank order (CSV)."""
    ranked = prof.ranked()
    cumulative = accumulate(count for _, count in ranked)
    rows = (
        [rank, token, count, running / prof.total_tokens]
        for rank, ((token, count), running) in enumerate(zip(ranked, cumulative), start=1)
    )
    write_csv(path, ["rank", "token", "count", "cumulative_fraction"], rows)
