import random

import pytest

from captionkit.augment import (
    CorrectionRules,
    Thesaurus,
    _nearest_known,
    back_translate,
    correct,
    load_dictionary,
    load_merge_rules,
    load_thesaurus,
    synonym_expand,
)
from captionkit.corpus import corpus_from_documents, jsonl_lines, validate
from captionkit.exceptions import ConfigurationError, TranslationError, ValidationError
from captionkit.tokens import tokenize
from captionkit.translate import MockTranslator, TranslationChain

BASIC_DICT = frozenset(
    "a an the building buildings beach sea many planes are parked in airport "
    "green trees several some white waves is near stands behind".split()
)


def _rules(**kwargs):
    defaults = dict(dictionary=BASIC_DICT, merge_patterns=(), manual_overrides={})
    defaults.update(kwargs)
    return CorrectionRules(**defaults)


def test_merge_rule_repairs_broken_bigram():
    corpus = corpus_from_documents({"i1": ["a c shape building"]}, "t")
    rules = _rules(merge_patterns=((("c", "shape"), "c-shaped"),))
    fixed = correct(corpus, rules)
    assert fixed.records[0].captions[0].raw == "a c-shaped building"
    assert tokenize(fixed.records[0].captions[0].raw).tokens == ("a", "c-shaped", "building")


def test_merge_first_match_wins():
    corpus = corpus_from_documents({"i1": ["t road near beach"]}, "t")
    rules = _rules(
        merge_patterns=((("t", "road"), "t-road"), (("t", "road"), "never-used")),
    )
    fixed = correct(corpus, rules)
    assert fixed.records[0].captions[0].raw.startswith("t-road")


def test_spell_fix_edit_distance_one():
    corpus = corpus_from_documents({"i1": ["a bulding near the beach"]}, "t")
    fixed = correct(corpus, _rules())
    assert fixed.records[0].captions[0].raw == "a building near the beach"


def test_spell_fix_distance_two():
    corpus = corpus_from_documents({"i1": ["a bluding near the beach"]}, "t")
    fixed = correct(corpus, _rules())
    assert fixed.records[0].captions[0].raw == "a building near the beach"


def test_unfixable_token_left_alone():
    corpus = corpus_from_documents({"i1": ["a zzzzqqq near the beach"]}, "t")
    fixed = correct(corpus, _rules())
    assert fixed.records[0].captions[0].raw == "a zzzzqqq near the beach"


def test_tie_broken_by_corpus_frequency_then_lex():
    # "caz" is distance 1 from both "cat" and "car"
    dictionary = frozenset({"cat", "car"})
    corpus = corpus_from_documents({"i1": ["car car cat caz"]}, "t")
    fixed = correct(corpus, CorrectionRules(dictionary))
    assert fixed.records[0].captions[0].raw == "car car cat car"
    # equal frequencies: lexicographic order decides
    corpus2 = corpus_from_documents({"i1": ["car cat caz"]}, "t")
    fixed2 = correct(corpus2, CorrectionRules(dictionary))
    assert fixed2.records[0].captions[0].raw == "car cat car"


def test_short_and_digit_tokens_exempt_from_fuzzy_fix():
    corpus = corpus_from_documents({"i1": ["a xq 12 planes"]}, "t")
    fixed = correct(corpus, _rules())
    assert fixed.records[0].captions[0].raw == "a xq 12 planes"


def test_manual_override_applied():
    corpus = corpus_from_documents({"i1": ["teh beach"]}, "t")
    fixed = correct(corpus, _rules(manual_overrides={"teh": "the"}))
    assert fixed.records[0].captions[0].raw == "the beach"


def test_prune_duplicates_keeps_first():
    corpus = corpus_from_documents({"i1": ["a beach"] * 5}, "t")
    fixed = correct(corpus, _rules(), prune_duplicates=True)
    assert fixed.caption_count() == 1


def test_prune_is_corpus_wide():
    corpus = corpus_from_documents({"i1": ["a beach", "the sea"], "i2": ["A beach!"]}, "t")
    fixed = correct(corpus, _rules(), prune_duplicates=True)
    assert [record.image_id for record in fixed.records] == ["i1"]  # i2 lost its only caption
    assert fixed.caption_count() == 2


def test_prune_never_increases_caption_count():
    rng = random.Random(3)
    words = ["a", "beach", "sea", "green", "trees"]
    for _ in range(20):
        docs = {
            f"i{n}": [" ".join(rng.choices(words, k=rng.randint(1, 4))) for _ in range(rng.randint(1, 4))]
            for n in range(rng.randint(1, 5))
        }
        corpus = corpus_from_documents(docs, "t")
        fixed = correct(corpus, _rules(), prune_duplicates=True)
        assert fixed.caption_count() <= corpus.caption_count()


def test_correct_idempotent():
    corpus = corpus_from_documents(
        {
            "i1": ["A c shape bulding near the beach.", "many planes are parked"],
            "i2": ["many planes are parked", "teh white waves"],
        },
        "t",
    )
    rules = _rules(
        merge_patterns=((("c", "shape"), "c-shaped"),),
        manual_overrides={"teh": "the"},
    )
    once = correct(corpus, rules, prune_duplicates=True)
    twice = correct(once, rules, prune_duplicates=True)
    assert [c.raw for c in twice.captions()] == [c.raw for c in once.captions()]
    assert twice.records == once.records


def test_corrected_provenance_and_validation():
    corpus = corpus_from_documents({"i1": ["a bulding"]}, "raw")
    fixed = correct(corpus, _rules())
    assert fixed.provenance == "raw-corrected"
    assert validate(fixed) == []


def test_empty_dictionary_rejected():
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    with pytest.raises(ConfigurationError):
        correct(corpus, CorrectionRules(frozenset()))


def test_rule_validation():
    with pytest.raises(ValidationError):
        CorrectionRules(BASIC_DICT, merge_patterns=((("c", "shape"), "two words"),))
    with pytest.raises(ValidationError):
        CorrectionRules(BASIC_DICT, manual_overrides={"x": ""})


def _bfs_edits(word, alphabet, depth):
    """Everything reachable within ``depth`` single-character edit operations."""

    def ops(w):
        out = set()
        for i in range(len(w)):
            out.add(w[:i] + w[i + 1 :])
            for ch in alphabet:
                out.add(w[:i] + ch + w[i + 1 :])
        for i in range(len(w) + 1):
            for ch in alphabet:
                out.add(w[:i] + ch + w[i:])
        for i in range(len(w) - 1):
            out.add(w[:i] + w[i + 1] + w[i] + w[i + 2 :])
        return out

    seen = {word}
    frontier = {word}
    for _ in range(depth):
        nxt = set()
        for w in frontier:
            nxt |= ops(w)
        frontier = nxt - seen
        seen |= nxt
    return seen


def test_nearest_known_matches_bfs_oracle():
    rng = random.Random(17)
    alphabet = "abc"
    for _ in range(40):
        dictionary = frozenset(
            "".join(rng.choices(alphabet, k=rng.randint(1, 5)))
            for _ in range(rng.randint(1, 8))
        )
        token = "".join(rng.choices(alphabet, k=rng.randint(1, 5)))
        got = _nearest_known(token, dictionary, sorted(set(alphabet)))
        one = (_bfs_edits(token, alphabet, 1) & dictionary) - {token}
        two = (_bfs_edits(token, alphabet, 2) & dictionary) - {token}
        expected = one if one else two
        assert got == expected


def test_synonym_adds_variant():
    corpus = corpus_from_documents({"i1": ["several buildings"]}, "t")
    thesaurus = Thesaurus({"several": ("some",)})
    grown = synonym_expand(corpus, thesaurus, seed=1)
    assert grown.caption_count() == 2
    assert [c.raw for c in grown.captions()] == ["several buildings", "some buildings"]
    assert grown.provenance == "t-synonym"


def test_synonym_uncovered_caption_gains_no_variant():
    corpus = corpus_from_documents({"i1": ["white waves"]}, "t")
    grown = synonym_expand(corpus, Thesaurus({"several": ("some",)}), seed=1)
    assert grown.caption_count() == 1


def test_synonym_duplicate_captions_expand_once():
    corpus = corpus_from_documents({"i1": ["several buildings", "several buildings"]}, "t")
    grown = synonym_expand(corpus, Thesaurus({"several": ("some",)}), seed=9)
    assert grown.caption_count() == 3


def test_synonym_seed_determinism():
    corpus = corpus_from_documents(
        {"i1": ["many green trees near several buildings"], "i2": ["several green trees"]}, "t"
    )
    thesaurus = Thesaurus(
        {"several": ("some", "various"), "green": ("verdant", "leafy"), "many": ("numerous",)}
    )
    a = synonym_expand(corpus, thesaurus, 2, seed=7)
    b = synonym_expand(corpus, thesaurus, 2, seed=7)
    assert list(jsonl_lines(a)) == list(jsonl_lines(b))
    assert a == b


def test_synonym_unique_tokens_superset():
    corpus = corpus_from_documents({"i1": ["many green trees", "a beach"]}, "t")
    thesaurus = Thesaurus({"green": ("verdant",), "many": ("numerous",)})
    grown = synonym_expand(corpus, thesaurus, 2, seed=3)
    before = {t for c in corpus.captions() for t in tokenize(c.raw).tokens}
    after = {t for c in grown.captions() for t in tokenize(c.raw).tokens}
    assert before <= after
    assert validate(grown) == []


def test_synonym_requires_thesaurus_and_sane_count():
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    with pytest.raises(ConfigurationError):
        synonym_expand(corpus, Thesaurus({}), seed=1)
    with pytest.raises(ValueError):
        synonym_expand(corpus, Thesaurus({"a": ("an",)}), 0, seed=1)


def test_thesaurus_validation():
    with pytest.raises(ValidationError):
        Thesaurus({"green": ()})
    with pytest.raises(ValidationError):
        Thesaurus({"green": ("green",)})


def test_back_translate_identity_mock_is_fixed_point():
    corpus = corpus_from_documents(
        {"i1": ["Many trees behind a school bus", "Island next to crashing waves"]}, "t"
    )
    chain = TranslationChain(("es", "de", "fr"), MockTranslator.identity())
    result = back_translate(corpus, chain)
    assert result.caption_count() == corpus.caption_count()
    assert [c.raw for c in result.captions()] == [c.raw for c in corpus.captions()]
    assert result.provenance == "t-backtranslated"


def test_back_translate_default_mock_rows():
    corpus = corpus_from_documents(
        {"i1": ["Many trees behind a school bus"], "i2": ["Island next to crashing waves"]}, "t"
    )
    chain = TranslationChain(("es", "de", "fr"), MockTranslator())
    result = back_translate(corpus, chain)
    first, second = result.records
    # untouched caption round-trips to itself: no variant appended
    assert [c.raw for c in first.captions] == ["Many trees behind a school bus"]
    # rewritten caption is appended as a variant, original kept
    assert [c.raw for c in second.captions] == [
        "Island next to crashing waves",
        "Island with waves",
    ]


def test_back_translate_never_decreases_captions():
    corpus = corpus_from_documents({"i1": ["several green trees", "a beach"]}, "t")
    chain = TranslationChain(("es",), MockTranslator())
    result = back_translate(corpus, chain)
    assert result.caption_count() >= corpus.caption_count()
    assert validate(result) == []


class _FlakyTranslator:
    """Fails the first ``failures`` calls, then behaves as identity."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def translate(self, text, src, dst):
        self.calls += 1
        if self.calls <= self.failures:
            raise TranslationError("boom")
        return text


class _BrokenTranslator:
    def translate(self, text, src, dst):
        raise TranslationError("down")


def test_back_translate_retries_transient_failures():
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    translator = _FlakyTranslator(failures=1)
    chain = TranslationChain(("es",), translator)
    result = back_translate(corpus, chain, max_retries=2, backoff=0.0)
    assert result.caption_count() == 1  # identity after retry: no variant
    assert translator.calls >= 2


def test_back_translate_partial_failure_keeps_going():
    corpus = corpus_from_documents({"i1": ["a beach", "the sea"]}, "t")
    translator = _FlakyTranslator(failures=3)  # first caption exhausts retries
    chain = TranslationChain(("es",), translator)
    result = back_translate(corpus, chain, max_retries=2, backoff=0.0)
    assert result.caption_count() == 2  # originals kept, no crash


def test_back_translate_total_failure_raises():
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    chain = TranslationChain(("es",), _BrokenTranslator())
    with pytest.raises(TranslationError):
        back_translate(corpus, chain, max_retries=0, backoff=0.0)


def test_back_translate_concurrent_matches_serial():
    corpus = corpus_from_documents(
        {f"i{n}": [f"several green trees number {n}", "beside a beach"] for n in range(5)}, "t"
    )
    chain = TranslationChain(("es", "de"), MockTranslator())
    serial = back_translate(corpus, chain, concurrency=1)
    threaded = back_translate(corpus, chain, concurrency=4)
    assert serial == threaded


def test_chain_validation():
    with pytest.raises(ValidationError):
        TranslationChain((), MockTranslator.identity())
    with pytest.raises(ValidationError):
        TranslationChain(("es", "es"), MockTranslator.identity())
    with pytest.raises(ValidationError):
        TranslationChain(("en",), MockTranslator.identity())  # en..en leg at the start
    legs = TranslationChain(("es", "de", "fr"), MockTranslator.identity()).legs()
    assert legs == [("en", "es"), ("es", "de"), ("de", "fr"), ("fr", "en")]


def test_loaders(tmp_path):
    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("Beach\nsea\n\nTREES\n", encoding="utf-8")
    assert load_dictionary(dict_path) == {"beach", "sea", "trees"}

    merges = tmp_path / "merges.tsv"
    merges.write_text("c shape\tc-shaped\nt road\tt-road\n", encoding="utf-8")
    assert load_merge_rules(merges) == ((("c", "shape"), "c-shaped"), (("t", "road"), "t-road"))

    thesaurus_path = tmp_path / "thes.tsv"
    thesaurus_path.write_text("several\tsome, various\n", encoding="utf-8")
    thesaurus = load_thesaurus(thesaurus_path)
    assert thesaurus.entries == {"several": ("some", "various")}
