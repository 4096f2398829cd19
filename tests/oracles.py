"""Naive reference implementations used only to cross-check the package.

These deliberately avoid Counter/dict tricks: n-grams are materialized as
lists and counted by scanning, so they share no code path with the library.
"""

import math


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
