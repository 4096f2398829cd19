"""Naive reference implementations used only to cross-check the package.

These deliberately avoid Counter/dict tricks: n-grams are materialized as
lists and counted by scanning, so they share no code path with the library.
There are three exceptions, each an earlier path of the library kept as a
differential oracle. ``oracle_stats`` is the per-order BLEU counting path: one
``Counter`` per order and sentence, where ``bleu._stats`` counts every order
of a sentence at once. ``oracle_correct``, the earlier rewrite path of
``augment.correct``, reuses the library's tokenizer and differs in how it
applies the rules and in its nearest-word search, ``_nearest_known``, which
enumerates every string within two ``_edits1`` steps of the token.
``oracle_synonym_expand`` is the earlier ``augment.synonym_expand``, which
tests each token against the ``Thesaurus`` itself rather than its entries.
``oracle_build_index``, ``oracle_query`` and ``oracle_index_bytes`` are the
earlier ``discover`` paths: a ``set`` of ids per token sorted at the end, a
``set`` intersection over every term, and the ``json.dump`` writer.
``oracle_ingest`` is the earlier keyed-entry loop of the ``ingest_*``
functions, whose builders each wrote the entry's location into their own
messages and checked caption text before building a ``Caption``; it decodes
and parses each JSONL line and maps each split itself, sharing only
``read_json`` (the whole-file read of ``rsicd_json``) with the library.
``oracle_readability`` is the earlier per-caption loop of
``readability.report``, over ``oracle_tokens`` and a per-character count.
``oracle_stats_max`` is the earlier ``bleu._stats``, which counted each
reference's shared grams in a ``Counter`` and kept the maximum per gram.
``oracle_jsonl_lines`` is the earlier ``corpus.jsonl_lines``, which encoded
each record's object with ``JSONEncoder(ensure_ascii=False)``.
"""

import io
import json
import math
import random
from collections import Counter, defaultdict
from functools import partial
from itertools import chain
from pathlib import Path

from captionkit.corpus import (
    Caption,
    CaptionSource,
    Corpus,
    ImageRecord,
    LabelRecord,
    PredictionSet,
    Split,
    read_json,
)
from captionkit.discover import InvertedIndex
from captionkit.exceptions import DegenerateInputError, FormatError, QueryError, ValidationError
from captionkit.readability import (
    COMPLEX_SYLLABLES,
    ReadabilityReport,
    count_syllables,
    report_from_aggregates,
)
from captionkit.tokens import split_sentences, tokenize


def _ngrams(seq, n):
    return [tuple(seq[i : i + n]) for i in range(len(seq) - n + 1)]


def oracle_bleu(candidates, references, max_order=4):
    """Brute-force corpus BLEU. Returns (precisions, bp, c, r, bleu_by_order)."""
    precisions = []
    for n in range(1, max_order + 1):
        matched = 0
        total = 0
        for cand, refs in zip(candidates, references):
            cand_grams = _ngrams(cand, n)
            total += len(cand_grams)
            for gram in set(cand_grams):
                in_candidate = cand_grams.count(gram)
                best_in_refs = 0
                for ref in refs:
                    occurrences = _ngrams(ref, n).count(gram)
                    if occurrences > best_in_refs:
                        best_in_refs = occurrences
                matched += min(in_candidate, best_in_refs)
        precisions.append(matched / total if total else 0.0)
    c = sum(len(cand) for cand in candidates)
    r = 0
    for cand, refs in zip(candidates, references):
        best = None
        for ref in refs:
            key = (abs(len(ref) - len(cand)), len(ref))
            if best is None or key < best:
                best = key
        r += best[1]
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    bleu = {}
    for k in range(1, max_order + 1):
        if any(p == 0.0 for p in precisions[:k]):
            bleu[k] = 0.0
        else:
            bleu[k] = bp * math.exp(sum(math.log(p) for p in precisions[:k]) / k)
    return precisions, bp, c, r, bleu


def _matches(cand, refs, n):
    # each candidate n-gram count is clipped at its maximum count in any one reference
    counts = Counter(_ngrams(cand, n))
    max_ref = {}
    for ref in refs:
        for gram, count in Counter(_ngrams(ref, n)).items():
            if count > max_ref.get(gram, 0):
                max_ref[gram] = count
    return sum(min(count, max_ref.get(gram, 0)) for gram, count in counts.items()), sum(counts.values())


def oracle_stats(cand, refs, max_order):
    """One sentence's BLEU vector, order by order: matches and totals for
    orders 1..max_order, then c and the closest reference length."""
    stats = []
    for n in range(1, max_order + 1):
        stats.extend(_matches(cand, refs, n))
    c = len(cand)
    # closest reference length, ties broken toward the shorter reference
    stats += [c, min((len(ref) for ref in refs), key=lambda r: (abs(r - c), r))]
    return stats


def _oracle_grams(tokens, max_order):
    shifted = [tokens[i:] for i in range(max_order)]
    return chain.from_iterable(zip(*shifted[:n]) for n in range(1, max_order + 1))


def oracle_stats_max(cand, refs, max_order):
    """The earlier one-pass sentence vector: a ``Counter`` of each reference's
    grams that the candidate holds, and the maximum count per gram."""
    counts = Counter(_oracle_grams(cand, max_order))
    max_ref = {}
    for ref in refs:
        for gram, ref_count in Counter(filter(counts.__contains__, _oracle_grams(ref, max_order))).items():
            if ref_count > max_ref.get(gram, 0):
                max_ref[gram] = ref_count
    matches = [0] * (max_order + 1)
    for gram, ref_count in max_ref.items():
        matches[len(gram)] += min(counts[gram], ref_count)
    c = len(cand)
    stats = []
    for n in range(1, max_order + 1):
        stats += [matches[n], max(0, c - n + 1)]
    stats += [c, min((len(ref) for ref in refs), key=lambda r: (abs(r - c), r))]
    return stats


def _keyword_hit(trigger, tokens, fold_plural_s):
    # equal tokens match; with folding, forms differing by one trailing 's' match
    for token in tokens:
        if trigger == token:
            return True
        if fold_plural_s and (trigger + "s" == token or trigger == token + "s"):
            return True
    return False


def oracle_scene_matrix(predictions, labels, scene_keywords, tokenizer, fold_plural_s=True):
    """Nested-loop cross-tabulation. Returns (matrix, totals, diagonal_accuracy)."""
    scenes = list(scene_keywords)
    matrix = {}
    totals = {}
    for true in scenes:
        totals[true] = 0
        for col in scenes:
            matrix[(true, col)] = 0
    for label in labels:
        if label.image_id not in predictions.entries:
            continue
        tokens = list(tokenizer(predictions.entries[label.image_id]).tokens)
        totals[label.scene] += 1
        for col in scenes:
            hit = False
            for trigger in scene_keywords[col]:
                if _keyword_hit(trigger, tokens, fold_plural_s):
                    hit = True
            if hit:
                matrix[(label.scene, col)] += 1
    scored = sum(totals.values())
    diagonal = sum(matrix[(s, s)] for s in scenes)
    return matrix, totals, (diagonal / scored if scored else 0.0)


def oracle_attribute_table(predictions, labels, attributes, tokenizer, fold_plural_s=True):
    scenes = sorted({label.scene for label in labels})
    counts = {(attr, scene): 0 for attr in attributes for scene in scenes}
    for label in labels:
        if label.image_id not in predictions.entries:
            continue
        tokens = list(tokenizer(predictions.entries[label.image_id]).tokens)
        for attr in dict.fromkeys(attributes):
            if _keyword_hit(attr, tokens, fold_plural_s):
                counts[(attr, label.scene)] += 1
    return counts


def oracle_tokens(text):
    """The per-character tokenizer loop: split on whitespace, strip each chunk's
    non-alphanumeric ends, drop chunks that strip to nothing."""
    tokens = []
    for chunk in text.lower().split():
        start, end = 0, len(chunk)
        while start < end and not chunk[start].isalnum():
            start += 1
        while end > start and not chunk[end - 1].isalnum():
            end -= 1
        if start < end:
            tokens.append(chunk[start:end])
    return tuple(tokens)


def oracle_readability(corpus):
    """The earlier per-caption readability loop: tokenize each caption, add its
    letters and digits, update one ``Counter`` and count its sentences."""
    characters = sentences = 0
    counts = Counter()
    for cap in corpus.captions():
        characters += sum(1 for ch in cap.raw if ch.isalnum())
        counts.update(oracle_tokens(cap.raw))
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
    return ReadabilityReport(characters, words, len(counts), complex_pct, syllables_per_word,
                             sentences, words_per_sentence, fog, flesch, fk)


def _edits1(word, alphabet):
    splits = [(word[:i], word[i:]) for i in range(len(word) + 1)]
    deletes = [left + right[1:] for left, right in splits if right]
    transposes = [left + right[1] + right[0] + right[2:] for left, right in splits if len(right) > 1]
    replaces = [left + ch + right[1:] for left, right in splits if right for ch in alphabet]
    inserts = [left + ch + right for left, right in splits for ch in alphabet]
    return set(deletes + transposes + replaces + inserts)


def _nearest_known(token, known, alphabet):
    """Known words one ``_edits1`` step from ``token``, else those two steps away."""
    one_away = _edits1(token, alphabet)
    hits = (one_away & known) - {token}
    if hits:
        return hits
    hits = set()
    for edited in one_away:
        hits.update(word for word in _edits1(edited, alphabet) if word in known)
    return hits - {token}


def _scan_merges(tokens, patterns):
    # at each position, try every merge rule in the order listed
    out = []
    i = 0
    while i < len(tokens):
        for (first, second), merged in patterns:
            if i + 1 < len(tokens) and tokens[i] == first and tokens[i + 1] == second:
                out.append(merged)
                i += 2
                break
        else:
            out.append(tokens[i])
            i += 1
    return out


def oracle_correct(corpus, rules, prune_duplicates=False):
    """``correct`` as a rule-by-rule scan: merges, then overrides, then a
    spell-fix searched lazily for each token and cached per type."""
    corpus_freq = Counter(tok for cap in corpus.captions() for tok in tokenize(cap.raw).tokens)
    known = frozenset(
        set(rules.dictionary)
        | {merged for _, merged in rules.merge_patterns}
        | set(rules.manual_overrides.values())
    )
    alphabet = sorted({ch for word in known for ch in word})
    cache = {}

    def fix(token):
        if token in known or len(token) <= 2 or token.isdigit():
            return token
        if token not in cache:
            candidates = _nearest_known(token, known, alphabet)
            if candidates:
                cache[token] = min(candidates, key=lambda w: (-corpus_freq[w], w))
            else:
                cache[token] = token
        return cache[token]

    seen_norms = set()
    records_out = []
    for record in corpus.records:
        captions_out = []
        for cap in record.captions:
            toks = _scan_merges(list(tokenize(cap.raw).tokens), rules.merge_patterns)
            toks = [rules.manual_overrides.get(t, t) for t in toks]
            toks = [fix(t) for t in toks]
            if prune_duplicates and toks:
                norm = " ".join(toks)
                if norm in seen_norms:
                    continue
                seen_norms.add(norm)
            text = " ".join(toks) if toks else cap.raw
            captions_out.append(Caption(record.image_id, text, cap.source))
        if captions_out:
            records_out.append(ImageRecord(record.image_id, tuple(cap.raw for cap in captions_out), record.split,
                                           record.scene_class))
    return Corpus(tuple(records_out), f"{corpus.provenance}-corrected")


def oracle_synonym_expand(corpus, thesaurus, replacements_per_caption=1, *, seed):
    """``synonym_expand`` as it tested ``tok in thesaurus`` once per token."""
    rng = random.Random(seed)
    seen_norms = set()
    records_out = []
    for record in corpus.records:
        variants = []
        for cap in record.captions:
            toks = list(tokenize(cap.raw).tokens)
            norm = " ".join(toks)
            if not toks or norm in seen_norms:
                continue
            seen_norms.add(norm)
            covered = [i for i, tok in enumerate(toks) if tok in thesaurus]
            if not covered:
                continue
            picks = rng.sample(covered, min(replacements_per_caption, len(covered)))
            for position in sorted(picks):
                toks[position] = rng.choice(thesaurus.entries[toks[position]])
            variants.append(Caption(record.image_id, " ".join(toks), CaptionSource.AUGMENTED))
        records_out.append(ImageRecord(record.image_id, record.texts + tuple(cap.raw for cap in variants),
                                       record.split, record.scene_class))
    return Corpus(tuple(records_out), f"{corpus.provenance}-synonym")


def oracle_build_index(documents):
    """``build_index`` as one ``set`` of ids per token, each sorted at the end."""
    acc = defaultdict(set)
    for doc_id, text in documents.items():
        for token in set(tokenize(text).tokens):
            acc[token].add(doc_id)
    postings = {token: tuple(sorted(acc[token])) for token in sorted(acc)}
    return InvertedIndex(postings=postings, doc_count=len(documents))


def oracle_query(index, terms):
    """``query`` as a ``set`` intersection over every distinct term."""
    toks = tokenize(" ".join(terms)).tokens
    if not toks:
        raise QueryError("query is empty after tokenization")
    result = None
    for token in dict.fromkeys(toks):
        ids = set(index.postings.get(token, ()))
        result = ids if result is None else result & ids
        if not result:
            return []
    return sorted(result or set())


def oracle_index_bytes(index):
    """The bytes ``save_index`` wrote through ``json.dump`` to a text stream."""
    payload = {
        "version": index.version,
        "doc_count": index.doc_count,
        "postings": {token: list(ids) for token, ids in index.postings.items()},
    }
    fh = io.StringIO()
    json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
    fh.write("\n")
    return fh.getvalue().encode("utf-8")


def oracle_jsonl_lines(corpus):
    """Each record's flat captions-JSONL line, its object encoded whole."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    for record in corpus.records:
        obj = {"image_id": record.image_id, "split": record.split.value, "captions": record.texts}
        if record.scene_class is not None:
            obj["scene"] = record.scene_class
        yield encode(obj) + "\n"


_ORACLE_SPLITS = {"train": Split.TRAIN, "dev": Split.DEV, "val": Split.DEV, "valid": Split.DEV,
                  "validation": Split.DEV, "test": Split.TEST}


def _oracle_split(value):
    if not isinstance(value, str):
        return Split.UNASSIGNED
    return _ORACLE_SPLITS.get(value.strip().lower(), Split.UNASSIGNED)


def _oracle_jsonl_values(path):
    """(``path: line N``, value) for each line that is not blank, its end a ``\\n``, ``\\r\\n`` or lone ``\\r``
    as in text mode; each is decoded, parsed and checked for text UTF-8 cannot hold before the next, so the
    first fault in file order raises."""
    for n, raw in enumerate(path.read_bytes().splitlines(keepends=True), start=1):
        where = f"{path}: line {n}"
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{where}: not UTF-8 ({exc.reason})") from exc
        if not text.strip():
            continue
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{where}, column {exc.colno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{where}: {exc}") from exc
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FormatError(f"{where}: not UTF-8 ({exc.reason})") from exc
        yield where, value


def _oracle_require_str(obj, key, where):
    value = obj.get(key)
    if not isinstance(value, str) or not value.strip():
        raise ValidationError(f"{where}: missing or empty {key!r} field")
    return value


def _oracle_by_id(entries, id_key, build):
    items = {}
    for where, obj in entries:
        if not isinstance(obj, dict):
            raise FormatError(f"{where}: expected a JSON object")
        image_id = _oracle_require_str(obj, id_key, where).strip().lower()
        item = build(obj, image_id, where)
        if image_id in items:
            raise ValidationError(f"{where}: duplicate image_id {image_id!r}")
        items[image_id] = item
    return items


def _oracle_sentence_raw(sentence, where):
    if not isinstance(sentence, dict) or not isinstance(sentence.get("raw"), str):
        raise FormatError(f"{where}: each sentence needs a string 'raw' field")
    return sentence["raw"]


_ORACLE_RECORD_FIELDS = {
    "jsonl": ("image_id", "captions", "scene", lambda item, where: item),
    "rsicd_json": ("filename", "sentences", "class", _oracle_sentence_raw),
}


def _oracle_record(obj, image_id, where, format):
    _, list_key, scene_key, text_of = _ORACLE_RECORD_FIELDS[format]
    items = obj.get(list_key)
    if not isinstance(items, list) or not items:
        raise ValidationError(f"{where}: missing or empty {list_key!r} list")
    captions = []
    for item in items:
        text = text_of(item, where)
        if not isinstance(text, str) or not text.strip():
            raise ValidationError(f"{where}: empty caption for image {image_id!r}")
        captions.append(Caption(image_id, text))
    scene = obj.get(scene_key)
    scene_class = scene.strip().lower() if isinstance(scene, str) and scene.strip() else None
    texts = tuple(cap.raw for cap in captions)
    return ImageRecord(image_id, texts, _oracle_split(obj.get("split")), scene_class)


def _oracle_label(obj, image_id, where):
    scene = _oracle_require_str(obj, "scene", where).strip().lower()
    raw_objects = obj.get("objects", [])
    if not isinstance(raw_objects, list):
        raise FormatError(f"{where}: 'objects' must be a list")
    objects = frozenset(
        name.strip().lower() for name in raw_objects if isinstance(name, str) and name.strip()
    )
    return LabelRecord(image_id, scene, objects)


def oracle_ingest(path, kind):
    """What ``ingest_captions`` (``kind`` "jsonl" or "rsicd_json"), ``ingest_labels``
    ("labels") or ``ingest_predictions`` ("predictions") returned or raised."""
    path = Path(path)
    if kind == "rsicd_json":
        payload = read_json(path)
        images = payload.get("images") if isinstance(payload, dict) else None
        if not isinstance(images, list):
            raise FormatError(f"{path}: expected a top-level object with an 'images' list")
        entries = ((f"{path}: images[{i}]", entry) for i, entry in enumerate(images))
    else:
        entries = _oracle_jsonl_values(path)
    if kind == "labels":
        return tuple(_oracle_by_id(entries, "image_id", _oracle_label).values())
    if kind == "predictions":
        return PredictionSet(
            _oracle_by_id(entries, "image_id", lambda obj, image_id, where: _oracle_require_str(obj, "caption", where))
        )
    records = _oracle_by_id(entries, _ORACLE_RECORD_FIELDS[kind][0], partial(_oracle_record, format=kind))
    return Corpus(tuple(records.values()), path.stem)
