import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from captionkit.discover import INDEX_VERSION, build_index, load_index, query, save_index
from captionkit.exceptions import FormatError, IndexVersionError, QueryError
from captionkit.tokens import tokenize
from oracles import oracle_build_index, oracle_index_bytes, oracle_query

WORDS = ["airport", "river", "bridge", "beach", "green", "trees", "near", "a", "the", "port"]


def _random_documents(rng, n_docs):
    return {
        f"img{n:04d}": " ".join(rng.choices(WORDS, k=rng.randint(1, 10)))
        for n in range(n_docs)
    }


def test_build_two_docs():
    index = build_index({"i1": "airport near bridge", "i2": "beach"})
    assert index.postings["airport"] == ("i1",)
    assert index.postings["beach"] == ("i2",)
    assert index.doc_count == 2


def test_duplicate_token_posted_once():
    index = build_index({"i1": "beach beach beach"})
    assert index.postings["beach"] == ("i1",)


def test_postings_sorted_and_unique():
    rng = random.Random(1)
    index = build_index(_random_documents(rng, 50))
    for ids in index.postings.values():
        assert list(ids) == sorted(set(ids))


def test_query_conjunction():
    index = build_index(
        {
            "i1": "an airport near a river bridge",
            "i2": "an airport in the desert",
            "i3": "a river bridge between green trees",
        }
    )
    assert query(index, ["airport", "river", "bridge"]) == ["i1"]
    assert query(index, ["airport"]) == ["i1", "i2"]


def test_query_missing_term_empty():
    index = build_index({"i1": "a beach"})
    assert query(index, ["nonexistent"]) == []


def test_query_single_term_full_postings():
    index = build_index({"i2": "beach", "i1": "beach"})
    assert query(index, ["beach"]) == list(index.postings["beach"]) == ["i1", "i2"]


def test_query_normalizes_terms():
    index = build_index({"i1": "a c-shaped building"})
    assert query(index, ["C-SHAPED,"]) == ["i1"]


def test_empty_query_rejected():
    index = build_index({"i1": "a beach"})
    with pytest.raises(QueryError):
        query(index, ["..."])
    with pytest.raises(QueryError):
        query(index, [])


def test_adding_terms_never_grows_results():
    rng = random.Random(2)
    index = build_index(_random_documents(rng, 200))
    for _ in range(50):
        terms = rng.sample(WORDS, k=3)
        one = set(query(index, terms[:1]))
        two = set(query(index, terms[:2]))
        three = set(query(index, terms))
        assert three <= two <= one


def test_query_matches_full_scan():
    rng = random.Random(3)
    documents = _random_documents(rng, 1000)
    index = build_index(documents)
    for _ in range(100):
        terms = rng.sample(WORDS, k=rng.randint(1, 3))
        expected = sorted(
            doc_id
            for doc_id, text in documents.items()
            if all(term in tokenize(text).tokens for term in terms)
        )
        assert query(index, terms) == expected


def test_build_deterministic_under_insertion_order(tmp_path):
    rng = random.Random(4)
    documents = _random_documents(rng, 100)
    shuffled_items = list(documents.items())
    rng.shuffle(shuffled_items)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_index(build_index(documents), a)
    save_index(build_index(dict(shuffled_items)), b)
    assert a.read_bytes() == b.read_bytes()


def test_save_load_roundtrip(tmp_path):
    index = build_index({"i1": "airport near bridge", "i2": "beach"})
    path = tmp_path / "idx.json"
    save_index(index, path)
    assert load_index(path) == index


def test_random_index_roundtrip(tmp_path):
    index = build_index(_random_documents(random.Random(5), 200))
    path = tmp_path / "idx.json"
    save_index(index, path)
    assert load_index(path) == index


@pytest.mark.parametrize(
    "doc_count, ids",
    [
        (2, ["z", "a"]),  # unsorted
        (2, ["a", "a"]),  # a repeated id
        (3, ["z", "a", "a"]),
        (1, ["a", "b"]),  # more ids than documents
    ],
)
def test_load_rejects_postings_off_invariant(tmp_path, doc_count, ids):
    path = tmp_path / "idx.json"
    payload = {"version": INDEX_VERSION, "doc_count": doc_count, "postings": {"ok": ["a"], "beach": ids}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match="'beach'"):
        load_index(path)


def test_load_rejects_a_non_string_posting(tmp_path):
    path = tmp_path / "idx.json"
    payload = {"version": INDEX_VERSION, "doc_count": 2, "postings": {"beach": ["a", 7]}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: postings for 'beach' are not a string list")):
        load_index(path)


def test_load_rejects_more_distinct_ids_than_documents(tmp_path):
    # each list fits doc_count, but together they name two documents in an index of one
    path = tmp_path / "idx.json"
    payload = {"version": INDEX_VERSION, "doc_count": 1, "postings": {"a": ["x"], "b": ["y"]}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(str(path)) + ".*doc_count"):
        load_index(path)


def test_load_reports_the_first_faulty_posting_in_file_order(tmp_path):
    path = tmp_path / "idx.json"
    payload = {"version": INDEX_VERSION, "doc_count": 1, "postings": {"zeta": "x", "alpha": 5}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: postings for 'zeta' are not a string list")):
        load_index(path)


@pytest.mark.parametrize("doc_count, postings", [(True, {"ok": ["a"]}), (-1, {})])
def test_load_rejects_bad_doc_count(tmp_path, doc_count, postings):
    path = tmp_path / "idx.json"
    payload = {"version": INDEX_VERSION, "doc_count": doc_count, "postings": postings}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match="doc_count"):
        load_index(path)


def test_empty_index_roundtrip(tmp_path):
    index = build_index({})
    path = tmp_path / "idx.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded == index
    assert loaded.doc_count == 0


def test_version_mismatch(tmp_path):
    path = tmp_path / "idx.json"
    payload = {"version": INDEX_VERSION + 1, "doc_count": 0, "postings": {}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IndexVersionError):
        load_index(path)


@pytest.mark.parametrize("version", [True, float(INDEX_VERSION), str(INDEX_VERSION)])
def test_version_must_be_the_integer(tmp_path, version):
    # True == 1 == 1.0, so an equality test alone would load these as version 1
    path = tmp_path / "idx.json"
    payload = {"version": version, "doc_count": 1, "postings": {"a": ["x"]}}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IndexVersionError, match=re.escape(str(path))):
        load_index(path)


def test_corrupt_file(tmp_path):
    path = tmp_path / "idx.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_index(path)
    path.write_text('{"doc_count": 3}', encoding="utf-8")
    with pytest.raises(FormatError):
        load_index(path)


# ids and fragments that sort, repeat and tokenize in awkward ways: a fragment
# may hold no token, one token with edge punctuation, or several tokens
IDS = st.text(alphabet="ab1Zé_", min_size=1, max_size=3)
FRAGMENTS = WORDS + ["...", "", "C-Shaped,", "Beach!", "river bridge", "naïve", "a a"]
# every boundary of str.splitlines, which build_index tokenizes line by line
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
TEXTS = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=6).map(" ".join),
    st.tuples(st.sampled_from(LINE_BREAKS), st.lists(st.sampled_from(FRAGMENTS), max_size=6)).map(
        lambda pair: pair[0].join(pair[1])),
    st.text(max_size=12),
)
TERMS = st.lists(
    st.sampled_from(WORDS + ["absent", "river bridge", "Near,", "a a", "...", "naïve"]), max_size=4
)


@st.composite
def _documents(draw):
    """Documents in a drawn insertion order, so the index cannot lean on it."""
    items = list(draw(st.dictionaries(IDS, TEXTS, max_size=12)).items())
    return dict(draw(st.permutations(items)))


@settings(max_examples=200, deadline=None)
@given(_documents(), st.lists(TERMS, max_size=5))
def test_index_and_queries_match_set_oracle(documents, queries):
    index, expected = build_index(documents), oracle_build_index(documents)
    # dict equality ignores order; the saved file does not
    assert list(index.postings.items()) == list(expected.postings.items())
    assert index == expected
    for terms in queries:
        try:
            want = oracle_query(expected, terms)
        except QueryError:
            with pytest.raises(QueryError):
                query(index, terms)
        else:
            assert query(index, terms) == want


@settings(max_examples=100, deadline=None)
@given(_documents())
def test_saved_bytes_match_stream_writer(tmp_path_factory, documents):
    index = build_index(documents)
    path = tmp_path_factory.getbasetemp() / "hypothesis-idx.json"
    save_index(index, path)
    assert path.read_bytes() == oracle_index_bytes(index)
    assert load_index(path) == index


_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(allow_nan=False), st.text(max_size=3)
)
_IDS = st.one_of(
    st.lists(st.sampled_from(["x", "y", "z"]), max_size=4),  # often unsorted or repeated
    st.lists(_ANY, max_size=3),
    _ANY,
)
_KEYS = st.one_of(
    st.sampled_from(["a", "beach", "Beach", "a b", "", "c-shaped", "beach."]), st.text(max_size=4)
)
_PAYLOADS = st.one_of(
    _ANY,
    st.lists(_ANY, max_size=2),
    st.fixed_dictionaries(
        {},
        optional={
            "version": st.one_of(st.just(INDEX_VERSION), _ANY),
            "doc_count": st.one_of(st.integers(-1, 4), _ANY),
            "postings": st.one_of(st.dictionaries(_KEYS, _IDS, max_size=4), _ANY),
        },
    ),
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_load_fuzz_raises_only_index_errors(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "hypothesis-fuzz.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        index = load_index(path)
    except (FormatError, IndexVersionError):
        return
    # whatever loads meets the contract that query relies on
    for token, ids in index.postings.items():
        assert tokenize(token).tokens == (token,)
        assert list(ids) == sorted(set(ids))
    assert len(set().union(*index.postings.values())) <= index.doc_count
