import re
import string
import sys

from hypothesis import given
from hypothesis import strategies as st

from captionkit.tokens import _TOKEN, _words, split_sentences, tokenize
from conftest import plain_captions
from oracles import oracle_tokens

printable = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60)


def test_basic_caption():
    assert tokenize("Many planes are parked.").tokens == ("many", "planes", "are", "parked")


def test_hyphen_is_token_internal():
    assert tokenize("c-shaped building").tokens == ("c-shaped", "building")


def test_apostrophe_kept():
    assert tokenize("it's a harbor").tokens == ("it's", "a", "harbor")


def test_whitespace_only_is_empty():
    assert tokenize("  ").tokens == ()
    assert tokenize("").tokens == ()


def test_digits_kept():
    assert tokenize("2 runways, 10 planes").tokens == ("2", "runways", "10", "planes")


def test_edge_punctuation_stripped():
    assert tokenize("'quoted', (bracketed)!").tokens == ("quoted", "bracketed")


def test_punctuation_only_chunks_dropped():
    assert tokenize("-- ... !?").tokens == ()


def test_char_count_letters_and_digits_only():
    assert tokenize("a beach").char_count == 6
    assert tokenize("c-shaped, 2!").char_count == 8


@given(st.text())
def test_char_count_matches_per_character_count(text):
    # reference: a plain per-character count
    assert tokenize(text).char_count == sum(1 for ch in text if ch.isalnum())


@given(st.text())
def test_tokens_match_per_character_oracle(text):
    assert tokenize(text).tokens == oracle_tokens(text)


@given(st.text() | printable)
def test_words_is_tokenize_without_char_count(text):
    assert _words(text) == tokenize(text).tokens == oracle_tokens(text)


# every ASCII character, controls included: \x00, the separators \x1c-\x1f
# (whitespace to str.split) and \x7f
@given(st.text(alphabet=st.characters(max_codepoint=127)))
def test_ascii_kernel_matches_regex_and_per_character_oracles(text):
    assert _words(text) == oracle_tokens(text) == tuple(_TOKEN.findall(text.lower()))
    assert tokenize(text).char_count == sum(1 for ch in text if ch.isalnum())


@given(plain_captions)
def test_plain_path_matches_per_character_oracle(text):
    # most of these reach the split-only path, the rest the regex
    assert _words(text) == oracle_tokens(text)


def test_regex_classes_match_str_predicates_on_every_code_point():
    # the tokenizer's regex relies on [^\W_] == str.isalnum and \s == str.isspace
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    alnum = [m.start() for m in re.finditer(r"[^\W_]", everything)]
    space = [m.start() for m in re.finditer(r"\s", everything)]
    assert alnum == [i for i, ch in enumerate(everything) if ch.isalnum()]
    assert space == [i for i, ch in enumerate(everything) if ch.isspace()]


def test_lower_keeps_each_characters_count_of_letters_and_digits():
    # readability counts letters and digits over lower-cased tokens, not the raw text
    changed = [ch for ch in map(chr, range(sys.maxunicode + 1))
               if sum(map(str.isalnum, ch.lower())) != ch.isalnum()]
    assert changed == []


def test_split_two_sentences():
    assert split_sentences("a beach. a desert.") == ["a beach", "a desert"]


def test_no_terminator_is_one_sentence():
    assert split_sentences("a beach with waves") == ["a beach with waves"]


def test_split_empty():
    assert split_sentences("") == []


def test_decimal_point_not_a_terminator():
    assert split_sentences("a 3.5 km runway") == ["a 3.5 km runway"]


def test_bang_and_question():
    assert split_sentences("look! a port? yes.") == ["look", "a port", "yes"]


@given(printable)
def test_idempotent_on_token_join(text):
    tokens = tokenize(text).tokens
    assert tokenize(" ".join(tokens)).tokens == tokens


@given(printable)
def test_case_insensitive(text):
    assert tokenize(text.upper()).tokens == tokenize(text).tokens


@given(printable)
def test_tokens_clean(text):
    for tok in tokenize(text).tokens:
        assert tok, "empty token"
        assert tok == tok.lower()
        assert not any(ch in string.whitespace for ch in tok)
        assert tok[0].isalnum() and tok[-1].isalnum()


@given(printable)
def test_sentences_nonempty(text):
    for sentence in split_sentences(text):
        assert sentence.strip() == sentence
        assert sentence
