import random
import threading
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from captionkit import augment
from captionkit.augment import (
    CorrectionRules,
    Thesaurus,
    _nearest_known_all,
    back_translate,
    correct,
    load_dictionary,
    load_merge_rules,
    load_thesaurus,
    synonym_expand,
)
from captionkit.corpus import Corpus, jsonl_lines, validate
from captionkit.exceptions import ConfigurationError, TranslationError, ValidationError
from captionkit.tokens import _words, tokenize
from captionkit.translate import MockTranslator, TranslationChain
from conftest import corpus_from_documents
from oracles import _nearest_known, oracle_correct, oracle_synonym_expand

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


def test_prune_keeps_captions_without_tokens():
    # '!!' has no tokens, so it duplicates nothing, not even the token-less '...'
    corpus = corpus_from_documents({"i": ["...", "a beach"], "j": ["!!"]}, "t")
    rules = CorrectionRules(frozenset({"a", "beach"}))
    for run in (correct, oracle_correct):
        fixed = run(corpus, rules, prune_duplicates=True)
        assert [(c.image_id, c.raw) for c in fixed.captions()] == [("i", "..."), ("i", "a beach"), ("j", "!!")]


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


@pytest.mark.parametrize("build, message", [
    (lambda: CorrectionRules(frozenset()), "correction rules have an empty dictionary"),
    (lambda: Thesaurus({}), "thesaurus is empty"),
], ids=["dictionary", "thesaurus"])
def test_empty_rule_set_refused_when_built(build, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        build()


def test_rule_validation():
    with pytest.raises(ValidationError):
        CorrectionRules(BASIC_DICT, merge_patterns=((("c", "shape"), "two words"),))
    with pytest.raises(ValidationError):
        CorrectionRules(BASIC_DICT, manual_overrides={"x": ""})


@pytest.mark.parametrize("build", [
    lambda: CorrectionRules(frozenset({"Beach", "sea"})),
    lambda: _rules(merge_patterns=((("C", "shape"), "c-shaped"),)),
    lambda: _rules(merge_patterns=((("c", "shape"), "C-shaped"),)),
    lambda: _rules(manual_overrides={"Bulding": "building"}),
    lambda: _rules(manual_overrides={"bulding": "Building"}),
    lambda: Thesaurus({"Beach": ("shore",)}),
], ids=["dictionary", "merge-word", "merged-token", "override-key", "override-value", "thesaurus"])
def test_upper_case_rule_word_rejected(build):
    # tokens are lower-case: such a word would never fire, or would write upper case
    with pytest.raises(ValidationError, match="lower-case"):
        build()


def _random_correction_case(rng):
    """A small corpus and rule set over a four-letter alphabet, so most words
    lie within two edits of several known words and ties are common."""

    def word(lo, hi):
        return "".join(rng.choices("abcd", k=rng.randint(lo, hi)))

    def typo(w):
        i = rng.randrange(len(w))
        ch = word(1, 1)
        return rng.choice([w[:i] + w[i + 1 :], w[:i] + ch + w[i:], w[:i] + ch + w[i + 1 :]])

    dictionary = sorted({word(3, 4) for _ in range(rng.randint(1, 6))})
    typos = [typo(typo(w)) if rng.random() < 0.3 else typo(w) for w in dictionary]
    far = [word(7, 7)]  # more than two edits from every known word
    short = [word(1, 2), word(2, 2)]
    digits = ["12", "007", "2024"]
    vocab = dictionary + typos + far + short + digits
    bigrams = [(rng.choice(vocab), rng.choice(vocab)) for _ in range(rng.randint(2, 4))]
    patterns = [(bigram, word(3, 4)) for bigram in bigrams[1:]]
    patterns.append((bigrams[0], f"{word(1, 2)}-{word(1, 2)}"))
    # a bigram listed twice: its second merged token is never produced, but it is known
    patterns.insert(rng.randint(1, len(patterns)), (patterns[0][0], word(3, 4)))
    overrides = {
        patterns[0][1]: rng.choice(dictionary),  # keyed by a merged token
        short[1]: word(3, 4),  # keyed by a 2-letter token
        rng.choice(typos): word(1, 2) + "007",  # puts the digit token "007" near a known word
    }
    documents = {}
    texts = []
    for n in range(rng.randint(1, 5)):
        captions = []
        for _ in range(rng.randint(1, 4)):
            toks = rng.choices(vocab, k=rng.randint(1, 6))
            if rng.random() < 0.5:  # plant a merge bigram
                at = rng.randrange(len(toks))
                toks[at : at + 2] = rng.choice(patterns)[0]
            text = "..." if rng.random() < 0.05 else " ".join(toks)
            if texts and rng.random() < 0.2:  # a duplicate, possibly from another record
                text = rng.choice(texts)
            texts.append(text)
            captions.append(text.capitalize() + rng.choice(["", ".", " !"]))
        documents[f"i{n}"] = captions
    rules = CorrectionRules(frozenset(dictionary), tuple(patterns), overrides)
    return corpus_from_documents(documents, "t"), rules


@pytest.mark.parametrize("prune", [False, True])
def test_correct_matches_rule_by_rule_oracle(prune):
    rng = random.Random(29 + prune)
    for _ in range(200):
        corpus, rules = _random_correction_case(rng)
        got = correct(corpus, rules, prune_duplicates=prune)
        expected = oracle_correct(corpus, rules, prune_duplicates=prune)
        assert list(jsonl_lines(got)) == list(jsonl_lines(expected))
        assert got == expected


def test_spell_fix_searches_each_type_once(monkeypatch):
    searched = []

    def counting(queries, known):
        searched.extend(queries)
        return _nearest_known_all(queries, known)

    monkeypatch.setattr(augment, "_nearest_known_all", counting)
    documents = {"i1": ["a bulding near teh beach", "a bulding"], "i2": ["A bulding, zzzzqqq zzzzqqq"]}
    corpus = corpus_from_documents(documents, "t")
    fixed = correct(corpus, _rules(manual_overrides={"teh": "the"}))
    assert [c.raw for c in fixed.captions()] == [
        "a building near the beach", "a building", "a building zzzzqqq zzzzqqq",
    ]
    assert sorted(searched) == ["bulding", "zzzzqqq"]
    rng = random.Random(31)
    for _ in range(50):
        searched.clear()
        corpus, rules = _random_correction_case(rng)
        correct(corpus, rules)
        assert len(searched) == len(set(searched))


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


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="abc", max_size=10))  # a small alphabet, so letters repeat
@example("")
@example("a")
@example("aaaaaaaaaa")
def test_deletes_are_exactly_the_strings_left_by_deleting_at_most_two_characters(word):
    expected = {"".join(ch for i, ch in enumerate(word) if i not in gone)
                for r in range(3) for gone in combinations(range(len(word)), r)}
    assert augment._deletes(word) == expected


_EDIT = st.tuples(
    st.sampled_from(["delete", "insert", "replace", "transpose"]),
    st.integers(0, 7),
    st.sampled_from("abcxy"),  # x and y are outside the dictionary's alphabet
)


def _apply_edit(word, edit):
    op, i, ch = edit
    i = min(i, len(word))
    if op == "insert":
        return word[:i] + ch + word[i:]
    if op == "replace" and i < len(word):
        return word[:i] + ch + word[i + 1 :]
    if op == "delete" and i < len(word):
        return word[:i] + word[i + 1 :]
    if op == "transpose" and i + 1 < len(word):
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    return word


@st.composite
def _dictionary_and_typos(draw):
    """Words over "abc", and each word after one to three edits at positions
    that often touch, so transposes meet the other edits."""
    words = draw(st.lists(st.text("abc", min_size=1, max_size=6), min_size=1, max_size=8, unique=True))
    typos = []
    for word in words:
        for edit in draw(st.lists(_EDIT, min_size=1, max_size=3)):
            word = _apply_edit(word, edit)
        typos.append(word)
    return frozenset(words), list(dict.fromkeys(typos))


@given(_dictionary_and_typos())
@example((frozenset({"abc", "cab"}), ["bac", "acb", "xabc", "cba"]))
def test_symmetric_delete_search_matches_edit_enumeration(case):
    dictionary, typos = case
    alphabet = sorted({ch for word in dictionary for ch in word})
    got = _nearest_known_all(typos, dictionary)
    assert got == {typo: _nearest_known(typo, dictionary, alphabet) for typo in typos}


def test_transpose_then_insert_is_distance_two():
    # ab -> ba -> bca is two edits; optimal string alignment says 3
    assert _nearest_known_all(["bca"], frozenset({"ab"})) == {"bca": {"ab"}}
    corpus = corpus_from_documents({"i1": ["bca ab"]}, "t")
    assert correct(corpus, CorrectionRules(frozenset({"ab"}))).records[0].captions[0].raw == "ab ab"


@given(_dictionary_and_typos(), st.data())
def test_correct_matches_oracle_on_random_typos(case, data):
    dictionary, typos = case
    vocab = sorted(dictionary) + [typo for typo in typos if typo]
    caption = st.lists(st.sampled_from(vocab), min_size=1, max_size=5).map(" ".join)
    captions = st.lists(caption, min_size=1, max_size=3)
    documents = data.draw(st.dictionaries(st.sampled_from(["i1", "i2", "i3"]), captions, min_size=1))
    corpus = corpus_from_documents(documents, "t")
    rules = CorrectionRules(dictionary)
    assert correct(corpus, rules) == oracle_correct(corpus, rules)


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


@pytest.mark.parametrize("synonym", ["Sandy shore.", "shore.", "Shore", "", "  ", "sea, shore"])
def test_thesaurus_synonym_must_reread_as_itself(synonym):
    with pytest.raises(ValidationError, match="'beach'"):
        Thesaurus({"beach": ("coast", synonym)})


def test_multi_word_synonym_is_written_as_its_tokens():
    corpus = corpus_from_documents({"i": ["a beach near the sea"]}, "t")
    grown = synonym_expand(corpus, Thesaurus({"beach": ("sea shore",)}), seed=1)
    assert [c.raw for c in grown.captions()] == ["a beach near the sea", "a sea shore near the sea"]
    for cap in grown.captions():
        assert _words(cap.raw) == tuple(cap.raw.split())


def _counting_words(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return _words(text)

    monkeypatch.setattr(augment, "_words", counting)
    return calls


@pytest.mark.parametrize("prune", [False, True])
def test_correct_tokenizes_each_caption_once(monkeypatch, prune):
    rng = random.Random(37 + prune)
    cases = [_random_correction_case(rng) for _ in range(20)]
    calls = _counting_words(monkeypatch)
    for corpus, rules in cases:
        calls.clear()
        correct(corpus, rules, prune_duplicates=prune)
        assert calls == [cap.raw for cap in corpus.captions()]


def test_synonym_expand_tokenizes_each_caption_once(monkeypatch):
    corpus = corpus_from_documents(
        {"i1": ["several buildings", "Several buildings.", "..."], "i2": ["white waves", "several trees"]}, "t"
    )
    thesaurus = Thesaurus({"several": ("some",)})
    calls = _counting_words(monkeypatch)
    synonym_expand(corpus, thesaurus, seed=1)
    assert calls == [cap.raw for cap in corpus.captions()]


_SYNONYM_WORD = st.sampled_from(["ab", "b", "ba", "abc", "c-a", "ca", "bb"])


@st.composite
def _synonym_case(draw):
    """A thesaurus over a few words, some synonyms two words long, and a corpus
    drawn from a small caption pool: duplicates (also re-cased and punctuated
    ones), punctuation-only captions and captions no thesaurus word covers."""
    heads = draw(st.lists(_SYNONYM_WORD, min_size=1, max_size=4, unique=True))
    synonym = st.lists(_SYNONYM_WORD, min_size=1, max_size=2).map(" ".join)
    thesaurus = {}
    for head in heads:
        synonyms = st.lists(synonym.filter(lambda s, head=head: s != head), min_size=1, max_size=3, unique=True)
        thesaurus[head] = tuple(draw(synonyms))
    words = st.lists(st.one_of(_SYNONYM_WORD, st.just("d")), min_size=1, max_size=5).map(" ".join)
    text = st.one_of(words, st.sampled_from(["...", "d d", "- !"]))
    decorated = st.tuples(text, st.booleans(), st.sampled_from(["", ".", " !"]))
    pool = draw(st.lists(decorated.map(lambda t: (t[0].upper() if t[1] else t[0]) + t[2]), min_size=1, max_size=5))
    captions = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    documents = draw(st.dictionaries(st.sampled_from(["i1", "i2", "i3"]), captions, min_size=1))
    return corpus_from_documents(documents, "t"), Thesaurus(thesaurus)


@settings(max_examples=150, deadline=None)
@given(_synonym_case(), st.integers(1, 3), st.integers(0, 2**32))
def test_synonym_expand_matches_oracle(case, replacements, seed):
    corpus, thesaurus = case
    got = synonym_expand(corpus, thesaurus, replacements, seed=seed)
    expected = oracle_synonym_expand(corpus, thesaurus, replacements, seed=seed)
    assert list(jsonl_lines(got)) == list(jsonl_lines(expected))
    assert got == expected


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


def test_back_translate_backs_off_exponentially(monkeypatch):
    slept = []
    monkeypatch.setattr(augment.time, "sleep", slept.append)
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    translator = _FlakyTranslator(failures=2)
    back_translate(corpus, TranslationChain(("es",), translator), max_retries=2, backoff=0.25)
    assert slept == [0.25, 0.5]  # backoff * 2**attempt after each failed attempt
    assert translator.calls == 4  # two failures, then both legs


def test_back_translate_partial_failure_keeps_going():
    corpus = corpus_from_documents({"i1": ["a beach", "the sea"]}, "t")
    translator = _FlakyTranslator(failures=3)  # first caption exhausts retries
    chain = TranslationChain(("es",), translator)
    result = back_translate(corpus, chain, max_retries=2, backoff=0.0)
    assert result.caption_count() == 2  # originals kept, no crash


def test_back_translate_total_failure_raises():
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    chain = TranslationChain(("es",), _BrokenTranslator())
    with pytest.raises(TranslationError, match="^back-translation failed for every caption$"):
        back_translate(corpus, chain, max_retries=0, backoff=0.0)


class _CountingDownTranslator:
    """A service that is down: every request fails as a transient fault; thread-safe count."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def translate(self, text, src, dst):
        with self._lock:
            self.calls += 1
        raise TranslationError("service unavailable")


@pytest.mark.parametrize("workers", [1, 4])
def test_back_translate_stops_after_the_first_captions_fail(monkeypatch, workers):
    # 100 captions; each spends 11 attempts on its failing first leg, but only the first 32 run
    monkeypatch.setattr(augment.time, "sleep", lambda seconds: None)
    corpus = corpus_from_documents({f"i{n}": [f"a beach number {n}"] for n in range(100)}, "t")
    translator = _CountingDownTranslator()
    chain = TranslationChain(("es", "de", "fr"), translator)
    limit = augment.FAILED_RUN_LIMIT
    with pytest.raises(TranslationError, match=rf"^back-translation failed for each of captions 1-{limit}; run stopped"):
        back_translate(corpus, chain, concurrency=workers, max_retries=10)
    assert translator.calls == limit * 11 == 352


def test_back_translate_fewer_captions_than_the_limit_all_failing():
    corpus = corpus_from_documents({"i1": ["a beach", "the sea"]}, "t")
    translator = _CountingDownTranslator()
    with pytest.raises(TranslationError, match="^back-translation failed for every caption$"):
        back_translate(corpus, TranslationChain(("es",), translator), max_retries=1, backoff=0.0)
    assert translator.calls == 4


def test_back_translate_judges_only_the_first_captions():
    # a run whose first captions all fail stops, even though later ones would succeed
    limit = augment.FAILED_RUN_LIMIT
    corpus = corpus_from_documents({f"i{n}": [f"a beach number {n}"] for n in range(limit + 3)}, "t")
    with pytest.raises(TranslationError, match="run stopped"):
        back_translate(corpus, TranslationChain(("es",), _FlakyTranslator(failures=limit)), max_retries=0)
    # one success among the first captions lets the run go on to the rest
    flaky = _FlakyTranslator(failures=limit - 1)
    result = back_translate(corpus, TranslationChain(("es",), flaky), max_retries=0)
    assert result.caption_count() == limit + 3  # identity translator: no variants
    assert flaky.calls == (limit - 1) + 2 * 4  # the last four captions each take both legs


class _FailingCaptionsTranslator:
    """Fails every request for the captions ``a beach number {n}`` whose ``n`` is in ``failing``, as a
    transient fault, and is identity otherwise; records each request's caption number, thread-safe."""

    def __init__(self, failing):
        self.failing = frozenset(failing)
        self.requested = []
        self._lock = threading.Lock()

    def translate(self, text, src, dst):
        number = int(text.rsplit(maxsplit=1)[1])
        with self._lock:
            self.requested.append(number)
        if number in self.failing:
            raise TranslationError("service unavailable")
        return text


def _numbered_captions(n):
    return corpus_from_documents({f"i{number}": [f"a beach number {number}"] for number in range(n)}, "t")


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("captions, down", [(120, 40), (40, 8)])
def test_back_translate_stops_when_the_service_goes_down_mid_run(workers, captions, down):
    # every request fails from caption down + 1 on; at 40 captions the 32 failures end with the input
    limit = augment.FAILED_RUN_LIMIT
    translator = _FailingCaptionsTranslator(range(down, captions))
    stopped = rf"^back-translation failed for each of captions {down + 1}-{down + limit}; run stopped$"
    with pytest.raises(TranslationError, match=stopped):
        back_translate(_numbered_captions(captions), TranslationChain(("es",), translator), concurrency=workers,
                       max_retries=2, backoff=0.0)
    assert set(translator.requested) == set(range(down + limit))  # nothing past the failed run is sent
    assert len(translator.requested) == down * 2 + limit * 3  # both legs each, or three failed attempts


@pytest.mark.parametrize("workers", [1, 4])
def test_back_translate_goes_on_after_a_run_of_failures_shorter_than_the_limit(workers):
    # 31 failures, one success, 31 failures, one success: 62 failed captions, never 32 in a row
    limit = augment.FAILED_RUN_LIMIT
    failing = [*range(limit - 1), *range(limit, 2 * limit - 1)]
    translator = _FailingCaptionsTranslator(failing)
    corpus = _numbered_captions(2 * limit)
    result = back_translate(corpus, TranslationChain(("es",), translator), concurrency=workers, max_retries=0)
    assert result.records == corpus.records  # identity translator: no variants
    assert set(translator.requested) == set(range(2 * limit))


def test_back_translate_of_an_empty_corpus_sends_nothing():
    translator = _FailingCaptionsTranslator(())
    result = back_translate(Corpus(()), TranslationChain(("es",), translator))
    assert result.records == ()
    assert translator.requested == []


def test_back_translate_rejects_negative_retries():
    # range(max_retries + 1) would be empty: no request at all, every caption unchanged
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    translator = _FlakyTranslator(failures=0)
    with pytest.raises(ValueError, match="max_retries"):
        back_translate(corpus, TranslationChain(("es",), translator), max_retries=-1)
    assert translator.calls == 0


def test_back_translate_rejects_retries_above_the_limit():
    # each retry doubles the backoff: 30 retries against a dead service would sleep for years
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    translator = _FlakyTranslator(failures=0)
    limit = augment.MAX_RETRIES
    with pytest.raises(ConfigurationError, match=rf"^max_retries must be <= {limit}, got {limit + 1}$"):
        back_translate(corpus, TranslationChain(("es",), translator), max_retries=limit + 1)
    assert translator.calls == 0


def test_back_translate_rejects_zero_concurrency():
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    translator = _FlakyTranslator(failures=0)
    with pytest.raises(ValueError, match=r"^concurrency must be >= 1, got 0$"):
        back_translate(corpus, TranslationChain(("es",), translator), concurrency=0)
    assert translator.calls == 0


@pytest.mark.parametrize("backoff", ["0.1", -1.0, float("nan"), float("inf"), True, None])
def test_back_translate_rejects_a_backoff_that_is_no_finite_non_negative_number(backoff):
    # "0.1" used to raise a bare TypeError in a worker after the first failure, and -1.0 and nan never waited
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    translator = _FlakyTranslator(failures=1)
    with pytest.raises(ConfigurationError, match=r"^backoff must be a finite, non-negative number of seconds"):
        back_translate(corpus, TranslationChain(("es",), translator), backoff=backoff)
    assert translator.calls == 0


def _recording_pools(monkeypatch):
    """The ``max_workers`` of every thread pool built from here on."""
    import concurrent.futures

    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return sizes


def test_back_translate_rejects_concurrency_above_the_limit(monkeypatch):
    sizes = _recording_pools(monkeypatch)
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    translator = _FlakyTranslator(failures=0)
    limit = augment.MAX_CONCURRENCY
    with pytest.raises(ConfigurationError, match=rf"^concurrency must be <= {limit}, got {limit + 1}$"):
        back_translate(corpus, TranslationChain(("es",), translator), concurrency=limit + 1)
    assert translator.calls == 0
    assert sizes == []


def test_back_translate_starts_no_more_threads_than_captions(monkeypatch):
    sizes = _recording_pools(monkeypatch)
    corpus = corpus_from_documents({"i1": ["a beach"], "i2": ["white waves"]}, "t")
    chain = TranslationChain(("es", "de"), MockTranslator())
    widest = back_translate(corpus, chain, concurrency=augment.MAX_CONCURRENCY)
    assert sizes == [2]
    assert widest == back_translate(corpus, chain, concurrency=1)


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


@pytest.mark.parametrize("hops", [("",), (" ",), ("es", "", "de")])
def test_chain_rejects_blank_hop(hops):
    with pytest.raises(ValidationError, match="blank hop"):
        TranslationChain(hops, MockTranslator.identity())


def test_mock_translator_rejects_empty_pattern():
    # an empty pattern would match at every position without advancing
    with pytest.raises(ValidationError):
        MockTranslator({(): ("x",)})
    with pytest.raises(ValidationError):
        MockTranslator({"": ()})


def test_mock_translator_rejects_upper_case_pattern():
    # windows are lower-cased before the comparison, so such a rule could never fire
    with pytest.raises(ValidationError, match="lower-case"):
        MockTranslator({("Beside",): ("near",)})
    with pytest.raises(ValidationError, match="lower-case"):
        MockTranslator({("next", "To"): ("with",)})
    translator = MockTranslator({("beside",): ("near",)})
    assert translator.translate("a house Beside a beach", "en", "es") == "a house near a beach"


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
    assert len(thesaurus) == 1
