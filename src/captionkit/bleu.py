"""Corpus- and sentence-level BLEU-1..4 with multiple references.

Corpus-level aggregation sums clipped-match numerators and candidate n-gram
denominators over all sentences before dividing. No smoothing is applied
anywhere: a vanished precision zeroes every score of that order and above,
and the result records which orders vanished.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import Corpus, PredictionSet
from .exceptions import DegenerateInputError
from .tokens import tokenize

logger = logging.getLogger(__name__)

MAX_ORDER = 4

TokenSeq = Sequence[str]


@dataclass(frozen=True)
class BleuResult:
    """Modified precisions, brevity penalty, and BLEU-1..4."""

    precisions: tuple[float, ...]
    brevity_penalty: float
    candidate_len: int
    effective_ref_len: int
    bleu: Mapping[int, float]
    zero_precision_orders: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        out: dict = {f"bleu{k}": self.bleu[k] for k in sorted(self.bleu)}
        out.update({f"p{n}": p for n, p in enumerate(self.precisions, start=1)})
        out["bp"] = self.brevity_penalty
        out["c"] = self.candidate_len
        out["r"] = self.effective_ref_len
        return out


def ngram_counts(tokens: TokenSeq, n: int) -> Counter:
    """Multiset of contiguous n-grams; empty when the sequence is shorter than n."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _check_shapes(candidates: Sequence[TokenSeq], references: Sequence[Sequence[TokenSeq]]) -> None:
    if not candidates:
        raise DegenerateInputError("no candidates to score")
    if len(candidates) != len(references):
        raise ValueError(
            f"{len(candidates)} candidates but {len(references)} reference lists"
        )
    for i, (cand, refs) in enumerate(zip(candidates, references)):
        if not cand:
            raise DegenerateInputError(f"candidate {i} has no tokens")
        if not refs:
            raise ValueError(f"candidate {i} has no references")


def modified_precision(
    candidates: Sequence[TokenSeq],
    references: Sequence[Sequence[TokenSeq]],
    n: int,
) -> tuple[int, int]:
    """Corpus-pooled clipped matches and total candidate n-grams at order n.

    Each candidate n-gram count is clipped at the maximum count seen in any of
    that candidate's references; numerator and denominator are summed over the
    corpus before any ratio is taken.
    """
    _check_shapes(candidates, references)
    matched = total = 0
    for cand, refs in zip(candidates, references):
        counts = ngram_counts(cand, n)
        if not counts:
            continue
        max_ref: dict = {}
        for ref in refs:
            for gram, count in ngram_counts(ref, n).items():
                if count > max_ref.get(gram, 0):
                    max_ref[gram] = count
        matched += sum(min(count, max_ref.get(gram, 0)) for gram, count in counts.items())
        total += sum(counts.values())
    return matched, total


def _effective_ref_len(candidate: TokenSeq, refs: Sequence[TokenSeq]) -> int:
    # closest reference length, ties broken toward the shorter reference
    c = len(candidate)
    return min((len(ref) for ref in refs), key=lambda r: (abs(r - c), r))


def bleu_score(
    candidates: Sequence[TokenSeq],
    references: Sequence[Sequence[TokenSeq]],
    max_order: int = MAX_ORDER,
) -> BleuResult:
    """Corpus-level BLEU over token sequences, one reference list per candidate."""
    _check_shapes(candidates, references)
    c = sum(len(cand) for cand in candidates)
    r = sum(_effective_ref_len(cand, refs) for cand, refs in zip(candidates, references))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    precisions = []
    for n in range(1, max_order + 1):
        matched, total = modified_precision(candidates, references, n)
        precisions.append(matched / total if total else 0.0)
    zero_orders = tuple(n for n, p in enumerate(precisions, start=1) if p == 0.0)
    bleu: dict[int, float] = {}
    for k in range(1, max_order + 1):
        if any(p == 0.0 for p in precisions[:k]):
            bleu[k] = 0.0
        else:
            bleu[k] = bp * math.exp(sum(math.log(p) for p in precisions[:k]) / k)
    return BleuResult(
        precisions=tuple(precisions),
        brevity_penalty=bp,
        candidate_len=c,
        effective_ref_len=r,
        bleu=bleu,
        zero_precision_orders=zero_orders,
    )


def sentence_bleu(candidate: TokenSeq, references: Sequence[TokenSeq]) -> BleuResult:
    """Per-sentence BLEU, unsmoothed; zero orders are flagged on the result."""
    return bleu_score([candidate], [references])


def score_predictions(
    predictions: PredictionSet, corpus: Corpus
) -> tuple[BleuResult, list[tuple[str, BleuResult]], list[str]]:
    """Score generated captions against a reference corpus.

    Each image's captions serve as that candidate's reference set. Returns the
    corpus-level result, per-image sentence-level results in prediction order,
    and the prediction ids missing from the reference corpus (skipped).
    Predictions with no tokens, such as ``"..."``, are skipped as well and
    appear in neither the scores nor the missing ids.
    """
    by_id = corpus.by_id()
    candidates: list[TokenSeq] = []
    references: list[list[TokenSeq]] = []
    scored_ids: list[str] = []
    missing: list[str] = []
    for image_id, caption in predictions.entries.items():
        record = by_id.get(image_id)
        if record is None:
            missing.append(image_id)
            continue
        tokens = tokenize(caption).tokens
        if not tokens:
            continue
        candidates.append(tokens)
        references.append([tokenize(cap.raw).tokens for cap in record.captions])
        scored_ids.append(image_id)
    if len(scored_ids) < len(predictions):
        logger.warning("%d predictions skipped: %d ids missing from reference corpus, the rest empty",
                       len(predictions) - len(scored_ids), len(missing))
    if not candidates:
        empty = BleuResult(
            precisions=(0.0,) * MAX_ORDER,
            brevity_penalty=1.0,
            candidate_len=0,
            effective_ref_len=0,
            bleu={k: 0.0 for k in range(1, MAX_ORDER + 1)},
            zero_precision_orders=tuple(range(1, MAX_ORDER + 1)),
        )
        return empty, [], missing
    overall = bleu_score(candidates, references)
    per_image = [
        (image_id, bleu_score([cand], [refs]))
        for image_id, cand, refs in zip(scored_ids, candidates, references)
    ]
    return overall, per_image, missing
