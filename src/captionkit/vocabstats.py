"""Vocabulary diagnostics: frequency distribution, coverage, hapax and duplicate rates.

Caption uniqueness is judged on the normalized token join, so case and
punctuation variants of the same sentence count as duplicates. Duplicates are
counted corpus-wide; a per-image breakdown is kept as well because annotators
tend to copy within one image's caption group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path
from typing import Mapping, NamedTuple

from .corpus import Corpus, write_csv
from .exceptions import DegenerateInputError
from .tokens import tokenize


@dataclass(frozen=True)
class VocabularyProfile:
    """Token frequency table plus caption-duplication statistics."""

    freq: Mapping[str, int]
    total_tokens: int
    unique_tokens: int
    hapax_count: int
    total_captions: int
    unique_captions: int
    duplicate_captions: int
    within_image_duplicate_captions: int

    def ranked(self) -> list[tuple[str, int]]:
        """Tokens by descending count, ties broken lexicographically."""
        return sorted(self.freq.items(), key=lambda item: (-item[1], item[0]))

    def to_dict(self) -> dict:
        return asdict(self)


class Coverage(NamedTuple):
    fraction: float
    covered_tokens: int


def profile(corpus: Corpus) -> VocabularyProfile:
    """Compute the vocabulary profile over every caption in the corpus."""
    if not corpus.records:
        raise DegenerateInputError("cannot profile an empty corpus")
    freq: Counter[str] = Counter()
    norms_seen: set[str] = set()
    total_captions = 0
    within_image_duplicates = 0
    for record in corpus.records:
        record_norms: set[str] = set()
        for cap in record.captions:
            toks = tokenize(cap.raw).tokens
            freq.update(toks)
            norm = " ".join(toks)
            norms_seen.add(norm)
            if norm in record_norms:
                within_image_duplicates += 1
            record_norms.add(norm)
            total_captions += 1
    unique_captions = len(norms_seen)
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

    ``k`` beyond the vocabulary size simply covers everything.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
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
