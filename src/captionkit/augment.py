"""Vocabulary strategies: correction/pruning, synonym expansion, back-translation.

Every strategy returns a new corpus with a derived provenance suffix; inputs
are never mutated. Correction rewrites caption text as the corrected token
join; the two expansion strategies append variants and keep the originals.
"""

from __future__ import annotations

import logging
import random
import time
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from itertools import chain, compress, count, islice
from pathlib import Path

from .corpus import Corpus, ImageRecord, Record, _measure, read_rows
from .exceptions import ConfigurationError, FormatError, TranslationError, ValidationError
from .tokens import _check_container, _check_count, _check_word, _check_words, _first, _rewrite, _words
from .translate import TranslationChain, _PermanentFailure

logger = logging.getLogger(__name__)

MergePattern = tuple[tuple[str, str], str]
MAX_CONCURRENCY = 64  # back_translate's worker threads at most
MAX_RETRIES = 10  # each retry doubles the backoff, so 10 retries sleep at most 1023 backoffs per request
FAILED_RUN_LIMIT = 32  # back_translate stops when its first this many captions (or all, if fewer) fail


class CorrectionRules(Record):
    """Non-empty accepted-word dictionary, ordered bigram merge rules, manual overrides (omitted, a new
    empty dict); each word one token."""

    __slots__ = ("dictionary", "merge_patterns", "manual_overrides")

    def __init__(self, dictionary: frozenset[str], merge_patterns: tuple[MergePattern, ...] = (),
                 manual_overrides: Mapping[str, str] | None = None) -> None:
        manual_overrides = {} if manual_overrides is None else manual_overrides
        _check_words(dictionary, "rule word")
        if not dictionary:
            raise ConfigurationError("correction rules have an empty dictionary")
        _check_container(merge_patterns, Sequence, "merge patterns: expected a sequence of rules")
        for rule in merge_patterns:
            _check_merge_rule(rule)
        _check_container(manual_overrides, Mapping, "manual overrides: expected a mapping")
        _check_words([*manual_overrides, *manual_overrides.values()], "rule word")
        self._set(dictionary, merge_patterns, manual_overrides)


def _check_entry(word: str, synonyms: Sequence[str]) -> None:
    """Raise ``ValidationError`` unless ``word`` is one token with synonyms, none of them itself,
    each tokenizing to exactly its whitespace-split words."""
    _check_word(word, "thesaurus word")
    _check_container(synonyms, Sequence, f"thesaurus entry {word!r}: expected a sequence of synonyms")
    if not synonyms:
        raise ValidationError(f"thesaurus entry {word!r} has no synonyms")
    if word in synonyms:
        raise ValidationError(f"thesaurus entry {word!r} lists itself as a synonym")
    for synonym in synonyms:
        if not isinstance(synonym, str) or not synonym.split() or _words(synonym) != tuple(synonym.split()):
            raise ValidationError(f"thesaurus entry {word!r}: synonym {synonym!r} does not tokenize to its own words")


class Thesaurus(Record):
    """Word (one token) to ordered synonym list, at least one word; no word may list itself.

    A synonym must tokenize to exactly its whitespace-split words (``sea shore``,
    not ``Shore.``), so a variant re-tokenizes to what was written.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, tuple[str, ...]]) -> None:
        _check_container(entries, Mapping, "thesaurus: expected a mapping")
        if not entries:
            raise ConfigurationError("thesaurus is empty")
        for word, synonyms in entries.items():
            _check_entry(word, synonyms)
        self._set(entries)

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    def __len__(self) -> int:
        return len(self.entries)


# Each loader judges every line as it reads it, so a fault names its file and line.
def load_dictionary(path: str | Path) -> frozenset[str]:
    """One lower-case word per line; blank lines skipped."""
    return frozenset(word for (word,) in read_rows(path, "word", lambda word: _check_word(word, "rule word")))


def _check_merge_rule(rule: object, error: type[Exception] = ValidationError) -> None:
    """Raise ``error`` unless ``rule`` has the shape ``((word, word), merged)``, then ``ValidationError``
    unless each word is one token."""
    if not (isinstance(rule, tuple) and len(rule) == 2 and isinstance(rule[0], tuple) and len(rule[0]) == 2):
        raise error(f"merge rule must be a bigram of exactly two words and its merged word, got {rule!r}")
    _check_words((*rule[0], rule[1]), "rule word")


def load_merge_rules(path: str | Path) -> tuple[MergePattern, ...]:
    """TSV ``bigram<TAB>replacement``, e.g. ``c shape<TAB>c-shaped``; file order kept."""
    rows = read_rows(path, "bigram<TAB>replacement",
                     lambda bigram, merged: _check_merge_rule((tuple(bigram.split()), merged), FormatError))
    return tuple((tuple(bigram.split()), merged) for bigram, merged in rows)


def load_overrides(path: str | Path) -> dict[str, str]:
    """TSV ``misspelled<TAB>replacement``; each misspelling on one line."""
    return dict(read_rows(path, "word<TAB>replacement", lambda *words: _check_words(words, "rule word"), keyed=True))


def load_thesaurus(path: str | Path) -> Thesaurus:
    """TSV ``word<TAB>syn1,syn2,...``; each word on one line."""
    return _measure(path, Thesaurus, dict(read_rows(path, "word<TAB>syn1,syn2,...", _check_entry, keyed=True)))


def _deletes(word: str) -> set[str]:
    """``word`` and every string left by deleting one or two of its characters: deleting positions
    ``i < j`` is deleting position ``j - 1`` (at or after ``i``) from the delete of position ``i``."""
    ones = [word[:i] + word[i + 1 :] for i in range(len(word))]
    return {word, *ones, *[one[:j] + one[j + 1 :] for i, one in enumerate(ones) for j in range(i, len(one))]}


def _damerau(a: str, b: str) -> int:
    """Unrestricted Damerau-Levenshtein distance (Lowrance-Wagner).

    Unlike optimal string alignment, a transposed pair may be edited again:
    ``ab`` -> ``ba`` -> ``bca`` is distance 2, not 3.
    """
    inf = len(a) + len(b)
    rows = [[inf] * (len(b) + 2)]
    rows += [[inf, i] + [0] * len(b) for i in range(len(a) + 1)]
    rows[1][1:] = range(len(b) + 1)
    last_row: dict[str, int] = {}  # char -> last row of ``a`` holding it
    for i in range(1, len(a) + 1):
        last_col = 0  # last column of ``b`` matching a[i - 1]
        for j in range(1, len(b) + 1):
            k, m = last_row.get(b[j - 1], 0), last_col
            cost = a[i - 1] != b[j - 1]
            if not cost:
                last_col = j
            rows[i + 1][j + 1] = min(
                rows[i][j] + cost,
                rows[i + 1][j] + 1,
                rows[i][j + 1] + 1,
                rows[k][m] + (i - k - 1) + 1 + (j - m - 1),
            )
        last_row[a[i - 1]] = i
    return rows[-1][-1]


def _nearest_known_all(queries: Sequence[str], known: frozenset[str]) -> dict[str, set[str]]:
    """Each query's known words at the smallest distance, 1 or 2 (else empty).

    Symmetric delete (Garbe's SymSpell): two words within distance 2 share a
    string left by deleting at most two characters from each, so only known
    words whose deletes meet a query's are verified. The few queries are
    indexed, not the dictionary, which keeps the index small.
    """
    by_delete: dict[str, list[str]] = {}
    for query in queries:
        for deleted in _deletes(query):
            by_delete.setdefault(deleted, []).append(query)
    candidates: dict[str, set[str]] = {query: set() for query in queries}
    for word in known:
        for deleted in _deletes(word):
            for query in by_delete.get(deleted, ()):
                candidates[query].add(word)
    nearest = {}
    for query, words in candidates.items():
        distance = {word: _damerau(query, word) for word in words}
        one = {word for word, d in distance.items() if d == 1}
        nearest[query] = one or {word for word, d in distance.items() if d == 2}
    return nearest


def _rebuild(corpus: Corpus, suffix: str, new_texts: Iterator[str | None], append: bool) -> Corpus:
    """``corpus`` with ``new_texts``, one per text in corpus order, in place of its texts or, with
    ``append``, after each record's texts; a None is left out, and a record left with no text is dropped."""
    records = []
    for record in corpus.records:
        texts = (record.texts if append else ()) + tuple(filter(None, islice(new_texts, len(record.texts))))
        if texts:
            records.append(ImageRecord(record.image_id, texts, record.split, record.scene_class))
        else:
            logger.info("record %r dropped: all captions pruned as duplicates", record.image_id)
    return Corpus(tuple(records), f"{corpus.provenance}-{suffix}")


def correct(corpus: Corpus, rules: CorrectionRules, prune_duplicates: bool = False) -> Corpus:
    """Merge broken bigrams, apply overrides, spell-fix, optionally prune duplicates.

    The first merge rule listed for a bigram wins; overrides beat the
    spell-fix, which replaces each out-of-dictionary token type, once per run,
    by the nearest accepted word within unrestricted Damerau-Levenshtein
    distance 2 (one or two single-character deletes/inserts/replaces or
    adjacent transposes, a transposed pair editable again), a distance-1 word
    before any distance-2 word, ties broken by higher corpus frequency then
    lexicographically. The search indexes the up-to-two-character deletes of
    those types (not of the dictionary), streams each accepted word's deletes
    through that index and verifies every candidate exactly. Tokens of one or
    two characters and pure digit tokens are exempt from fuzzy substitution;
    merge rules and overrides still apply to them. Pruning keeps the first
    occurrence of each normalized caption corpus-wide and never prunes a
    caption without tokens; a record whose captions are all pruned is dropped.

    The rules form one phrase table, applied to each caption in one
    left-to-right pass, bigram keys before single tokens: a merge rule's bigram
    becomes its merged token, already overridden if an override names it, and
    any other token with an override or spell-fix becomes its fix. Each caption
    is tokenized once, by the frequency pass. A caption whose tokens are all
    inert, known words that are neither an override key nor a merge rule's
    first word, can meet no key: it is kept and passed through as its tokens'
    space join, untouched by the rules. Only the other captions keep their
    tokens, to be rewritten.
    """
    merged_tokens = (merged for _, merged in rules.merge_patterns)
    known = frozenset().union(rules.dictionary, merged_tokens, rules.manual_overrides.values())
    inert = known.difference(rules.manual_overrides, (pair[0] for pair, _ in rules.merge_patterns))
    kept: list[str | tuple[str, ...]] = []  # a join: far smaller than the tokens of an RSICD-size corpus

    def read(text: str) -> tuple[str, ...]:
        toks = _words(text)
        kept.append(" ".join(toks) if inert.issuperset(toks) else toks)
        return toks

    corpus_freq = Counter(chain.from_iterable(map(read, corpus.texts())))
    # one table: a width-1 key per override and spell-fix, a width-2 key per merge rule
    table = {(tok,): (fix,) for tok, fix in rules.manual_overrides.items()}
    # only corpus types are searched: a merged token is known, so only an override fixes it
    queries = [tok for tok in corpus_freq
               if not (tok in known or (tok,) in table or len(tok) <= 2 or tok.isdigit())]
    for token, candidates in _nearest_known_all(queries, known).items():
        if candidates:
            table[(token,)] = (min(candidates, key=lambda w: (-corpus_freq[w], w)),)
        else:
            logger.info("no correction within edit distance 2 for %r", token)
    for pair, merged in reversed(rules.merge_patterns):  # the first rule listed for a bigram wins
        table[pair] = table.get((merged,), (merged,))  # a merged token is written already fixed

    seen_norms: set[str] = set()

    def corrected(text: str, norm: str | tuple[str, ...]) -> str | None:
        if type(norm) is tuple:
            norm = " ".join(_rewrite(norm, norm, table, (2, 1)))
        if prune_duplicates and not _first(norm, seen_norms):
            return None
        return norm or text

    return _rebuild(corpus, "corrected", map(corrected, corpus.texts(), kept), append=False)


def synonym_expand(
    corpus: Corpus,
    thesaurus: Thesaurus,
    replacements_per_caption: int = 1,
    *,
    seed: int,
) -> Corpus:
    """Append one synonym-substituted variant per distinct caption (seeded).

    For each caption whose normalized form has not been seen before, up to
    ``replacements_per_caption`` thesaurus-covered token positions are picked
    uniformly at random and each replaced by a uniformly chosen synonym; one
    position is picked by one ``choice`` draw, the same draw as ``sample`` of
    one. Originals are always retained; captions with no covered token gain no
    variant. ``seed`` must be an ``int``, never ``None`` and the clock, so equal
    seeds give byte-identical output.
    """
    _check_count(replacements_per_caption, "replacements_per_caption", 1)
    _check_count(seed, "seed")
    rng = random.Random(seed)
    entries = thesaurus.entries
    seen_norms: set[str] = set()

    def variant(text: str) -> str | None:
        toks = list(_words(text))
        if not _first(" ".join(toks), seen_norms):
            return None
        covered = list(compress(count(), map(entries.__contains__, toks)))
        if not covered:
            return None
        k = min(replacements_per_caption, len(covered))
        for position in (rng.choice(covered),) if k == 1 else sorted(rng.sample(covered, k)):
            toks[position] = rng.choice(entries[toks[position]])
        return " ".join(toks)

    return _rebuild(corpus, "synonym", map(variant, corpus.texts()), append=True)


def back_translate(
    corpus: Corpus,
    chain: TranslationChain,
    *,
    concurrency: int = 1,
    max_retries: int = 2,
    backoff: float = 0.1,
) -> Corpus:
    """Round-trip every caption through the pivot chain and append changed results.

    Only transient translation failures are retried, with exponential backoff.
    A caption whose round-trip fails is logged and kept without a variant. The
    first ``min(FAILED_RUN_LIMIT, n)`` of the ``n`` captions (32 at most) run
    before the rest is queued; if every one of them fails, the run raises
    ``TranslationError`` without sending the rest, so a service that is down
    costs only their retry budget. Requests run on a pool of ``concurrency``
    worker threads, never more than there are captions (an ``int`` from 1 to
    ``MAX_CONCURRENCY``, ``max_retries`` one from 0 to ``MAX_RETRIES`` and
    ``backoff`` finite and >= 0, else ``ConfigurationError`` before any
    request); output order always follows input order.
    """
    _check_count(max_retries, "max_retries", 0, MAX_RETRIES)
    _check_count(concurrency, "concurrency", 1, MAX_CONCURRENCY)
    if isinstance(backoff, bool) or not isinstance(backoff, (int, float)) or not 0 <= backoff < float("inf"):
        raise ConfigurationError(f"backoff must be a finite, non-negative number of seconds, got {backoff!r}")
    image_ids = [record.image_id for record in corpus.records for _ in record.texts]
    texts = list(corpus.texts())

    def roundtrip(image_id: str, text: str) -> str | None:
        for src, dst in chain.legs():
            for attempt in range(max_retries + 1):
                try:
                    text = chain.translator.translate(text, src, dst)
                    break
                except TranslationError as exc:
                    if attempt == max_retries or isinstance(exc, _PermanentFailure):
                        logger.warning("back-translation failed for %r: %s", image_id, exc)
                        return None
                    if backoff > 0:
                        time.sleep(backoff * (2**attempt))
        return text

    head = min(FAILED_RUN_LIMIT, len(texts))  # judged in input order, whatever the thread schedule
    from concurrent.futures import ThreadPoolExecutor  # loaded only by a run that back-translates
    with ThreadPoolExecutor(max_workers=max(1, min(concurrency, len(texts)))) as pool:
        results = list(pool.map(roundtrip, image_ids[:head], texts[:head]))
        if head and all(result is None for result in results):
            if head == len(texts):
                raise TranslationError("back-translation failed for every caption")
            raise TranslationError(f"back-translation failed for each of the first {head} captions; run stopped")
        results += pool.map(roundtrip, image_ids[head:], texts[head:])

    variants = (result if result and result.strip() and result != text else None
                for text, result in zip(texts, results))
    return _rebuild(corpus, "backtranslated", variants, append=True)
