"""Corpus- and sentence-level BLEU-1..4 with multiple references.

Each sentence yields one vector of sufficient statistics: clipped matches and
totals per order, candidate length, closest reference length. A corpus score
comes from the sum of its sentences' vectors, so per-image rows and the
corpus score are computed from the same vectors. No smoothing is applied
anywhere: a vanished precision zeroes every score of that order and above,
and the result records which orders vanished.

Matches are counted on text, not on gram tuples. The references are joined,
each padded with a space at both ends and one per line, so that no gram spans
two; each candidate gram, a space-padded slice of the candidate joined the
same way, matches if it is a substring there. At each start position the
orders are tried in turn, and the first miss ends them, since a gram that
holds a missed one misses too. A distinct gram counts once at its first
occurrence, and each repeat only up to the gram's largest count in any one
reference, counted on token tuples. This is exact only for tokens that are
non-empty and hold no whitespace, as the tokenizer's are, so ``bleu_score``
and ``modified_precision`` (and so ``sentence_bleu``), which take any ``str``
token, first rename every distinct token of the call to its own number.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate
from typing import Mapping, Sequence

from .corpus import Corpus, PredictionSet, Record
from .exceptions import ConfigurationError, DegenerateInputError
from .tokens import _check_container, _check_count, _words

MAX_ORDER = 4

TokenSeq = Sequence[str]


class BleuResult(Record):
    """Modified precisions, brevity penalty, and BLEU-1..4."""

    __slots__ = ("precisions", "brevity_penalty", "candidate_len", "effective_ref_len", "bleu",
                 "zero_precision_orders")

    def __init__(self, precisions: tuple[float, ...], brevity_penalty: float, candidate_len: int,
                 effective_ref_len: int, bleu: Mapping[int, float],
                 zero_precision_orders: tuple[int, ...] = ()) -> None:
        self._set(precisions, brevity_penalty, candidate_len, effective_ref_len, bleu, zero_precision_orders)

    def to_dict(self) -> dict:
        out: dict = {f"bleu{k}": self.bleu[k] for k in sorted(self.bleu)}
        out.update({f"p{n}": p for n, p in enumerate(self.precisions, start=1)})
        out["bp"] = self.brevity_penalty
        out["c"] = self.candidate_len
        out["r"] = self.effective_ref_len
        return out


def ngram_counts(tokens: TokenSeq, n: int) -> Counter:
    """Multiset of contiguous n-grams; empty when the sequence is shorter than n."""
    _check_container(tokens, Sequence, "n-gram tokens: expected a sequence of tokens", ConfigurationError, str)
    _check_count(n, "n-gram order", 1)
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _check_shapes(candidates: Sequence[TokenSeq], references: Sequence[Sequence[TokenSeq]]) -> None:
    _check_container(candidates, Sequence, "candidates: expected a sequence of token sequences", ConfigurationError)
    _check_container(references, Sequence, "references: expected a sequence of reference lists", ConfigurationError)
    if not candidates:
        raise DegenerateInputError("no candidates to score")
    if len(candidates) != len(references):
        raise ConfigurationError(f"{len(candidates)} candidates but {len(references)} reference lists")
    for i, (cand, refs) in enumerate(zip(candidates, references)):
        _check_container(cand, Sequence, f"candidate {i}: expected a sequence of tokens", ConfigurationError, str)
        _check_container(refs, Sequence, f"candidate {i}: expected a sequence of references", ConfigurationError)
        for ref in refs:
            _check_container(ref, Sequence, f"candidate {i}: expected references of tokens", ConfigurationError, str)
        if not cand:
            raise DegenerateInputError(f"candidate {i} has no tokens")
        if not refs:
            raise ConfigurationError(f"candidate {i} has no references")


def _stats(cand: TokenSeq, refs: Sequence[TokenSeq], max_order: int) -> list[int]:
    """One sentence's vector: matches and totals for orders 1..max_order, then c and r. Every token
    must be non-empty and hold no whitespace, so that a gram matches as a space-padded substring."""
    # matched as the module docstring says; bounds[k] is the space before token k in line
    text = "\n".join(" " + " ".join(ref) + " " for ref in refs)
    line = " " + " ".join(cand) + " "
    bounds = list(accumulate([len(tok) + 1 for tok in cand], initial=0))
    c = len(cand)
    matches = [0] * (max_order + 1)
    seen: dict[str, int] = {}
    for i in range(c):
        start = bounds[i]
        for n in range(1, min(max_order, c - i) + 1):
            gram = line[start : bounds[i + n] + 1]
            k = seen.get(gram, 0)
            if not k and gram not in text:
                break
            seen[gram] = k + 1
            if not k or k < max(list(zip(*(ref[j:] for j in range(n)))).count(tuple(cand[i : i + n]))
                                for ref in refs):
                matches[n] += 1
    stats: list[int] = []
    for n in range(1, max_order + 1):
        stats += [matches[n], max(0, c - n + 1)]
    # closest reference length, ties broken toward the shorter reference
    stats += [c, min((len(ref) for ref in refs), key=lambda r: (abs(r - c), r))]
    return stats


def _result(stats: Sequence[int]) -> BleuResult:
    """BLEU from one statistics vector, a sentence's own or a corpus sum."""
    *counts, c, r = stats
    precisions = tuple(m / t if t else 0.0 for m, t in zip(counts[0::2], counts[1::2]))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    bleu = {
        k: bp * math.exp(sum(map(math.log, precisions[:k])) / k) if all(precisions[:k]) else 0.0
        for k in range(1, len(precisions) + 1)
    }
    zero_orders = tuple(n for n, p in enumerate(precisions, start=1) if p == 0.0)
    return BleuResult(precisions, bp, c, r, bleu, zero_orders)


def _vectors(candidates: Sequence[TokenSeq], references: Sequence[Sequence[TokenSeq]],
             max_order: int) -> list[list[int]]:
    """Each sentence's ``_stats``, every distinct token of the call first renamed to its own number,
    so that any ``str`` token, ``""`` or ``"a b"`` too, is one non-empty name without whitespace."""
    names: dict[str, str] = {}

    def rename(tokens: TokenSeq) -> list[str]:
        return [names.setdefault(tok, str(len(names))) for tok in tokens]

    return [_stats(rename(cand), list(map(rename, refs)), max_order) for cand, refs in zip(candidates, references)]


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
    _check_count(n, "n-gram order", 1)
    pairs = [stats[2 * n - 2 : 2 * n] for stats in _vectors(candidates, references, n)]
    return sum(m for m, _ in pairs), sum(t for _, t in pairs)


def bleu_score(
    candidates: Sequence[TokenSeq],
    references: Sequence[Sequence[TokenSeq]],
    max_order: int = MAX_ORDER,
) -> BleuResult:
    """Corpus-level BLEU-1..``max_order`` over token sequences, one reference list per candidate."""
    _check_shapes(candidates, references)
    _check_count(max_order, "max_order", 1)
    return _result([sum(column) for column in zip(*_vectors(candidates, references, max_order))])


def sentence_bleu(candidate: TokenSeq, references: Sequence[TokenSeq]) -> BleuResult:
    """Per-sentence BLEU, unsmoothed; zero orders are flagged on the result. A string is never read
    as the tokens or references (``ConfigurationError``)."""
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
    corpus_stats = [0] * (2 * MAX_ORDER + 2)
    per_image: list[tuple[str, BleuResult]] = []
    missing: list[str] = []
    for image_id, caption in predictions.entries.items():
        record = by_id.get(image_id)
        if record is None:
            missing.append(image_id)
            continue
        tokens = _words(caption)
        if not tokens:
            continue
        stats = _stats(tokens, list(map(_words, record.texts)), MAX_ORDER)
        corpus_stats = [a + b for a, b in zip(corpus_stats, stats)]
        per_image.append((image_id, _result(stats)))
    return _result(corpus_stats), per_image, missing
