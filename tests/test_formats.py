"""Pinned parse results for every hand-maintained input format.

Each case writes one file as raw bytes and states what its loader returns,
or which exception it raises and where. The table covers the quirks the
formats tolerate (blank lines, CRLF endings, upper case, padded cells, empty
items in comma lists, a tab inside a one-word-per-line file) and each kind
of malformed line.
"""

import json

import pytest

from captionkit.augment import (
    Thesaurus,
    load_dictionary,
    load_merge_rules,
    load_overrides,
    load_thesaurus,
)
from captionkit.confusion import load_attributes, load_scene_keywords
from captionkit.corpus import (
    Corpus,
    ImageRecord,
    Split,
    ingest_captions,
    ingest_labels,
    ingest_predictions,
)
from captionkit.exceptions import FormatError, ValidationError

WORD_LIST = b"Beach\r\nsea\r\n\r\n  TREES  \n\t\nsea\n"


def _jsonl(*lines: object) -> bytes:
    return b"".join(
        (line if isinstance(line, bytes) else json.dumps(line).encode()) + b"\r\n" for line in lines
    )


def _rsicd(*images: object) -> bytes:
    return json.dumps({"images": list(images)}, indent=1).replace("\n", "\r\n").encode()


def _jsonl_corpus(path):
    return ingest_captions(path, "jsonl")


def _rsicd_corpus(path):
    return ingest_captions(path, "rsicd_json")


def _record(image_id, texts, split=Split.UNASSIGNED, scene=None):
    return ImageRecord(image_id, tuple(texts), split, scene)


EDGE_CORPUS = Corpus(
    (
        _record("img_1.jpg", ["A Plane.", "  padded  "], Split.DEV, "airport"),
        _record("b", ["x"]),
    ),
    provenance="input",
)

PARSED = [
    ("dictionary", load_dictionary, WORD_LIST, frozenset({"beach", "sea", "trees"})),
    ("dictionary-empty", load_dictionary, b"\n \n", frozenset()),
    ("attributes", load_attributes, WORD_LIST, ("beach", "sea", "trees", "sea")),
    (
        "merge-rules",
        load_merge_rules,
        b"C  Shape\tC-Shaped\r\n\r\n t road \t t-road \nc shape\tc-shape\n",
        ((("c", "shape"), "c-shaped"), (("t", "road"), "t-road"), (("c", "shape"), "c-shape")),
    ),
    (
        "overrides",
        load_overrides,
        b"Bulding\tBuilding\r\n\n  plane \t  airplane \nTeh\tThe\n",
        {"bulding": "building", "plane": "airplane", "teh": "the"},
    ),
    (
        "thesaurus",
        load_thesaurus,
        b"Several\tSome, Various,,\r\n\nbig \t large , ,huge\n",
        Thesaurus({"several": ("some", "various"), "big": ("large", "huge")}),
    ),
    (
        "scene-keywords",
        load_scene_keywords,
        b"Airport\tAirport, Airfield,\r\n\n port \t harbour ,dock,dock\n",
        {"airport": frozenset({"airport", "airfield"}), "port": frozenset({"harbour", "dock"})},
    ),
    # A comma splits only a cell whose shape names a list; a repeated synonym stays.
    ("thesaurus-repeated-synonym", load_thesaurus, b"big\tlarge,large\n",
     Thesaurus({"big": ("large", "large")})),
    ("dictionary-comma", load_dictionary, b"a,b\n", frozenset({"a,b"})),
    ("overrides-comma", load_overrides, b"x\ty,z\n", {"x": "y,z"}),
    (
        "jsonl",
        _jsonl_corpus,
        _jsonl(
            {"image_id": " IMG_1.JPG ", "split": " Val ", "scene": " Airport ",
             "captions": ["A Plane.", "  padded  "], "extra": 1},
            b"",
            {"image_id": "B", "split": "other", "scene": " ", "captions": ["x"]},
        ),
        EDGE_CORPUS,
    ),
    (
        "jsonl-lone-cr",
        _jsonl_corpus,
        b'\r{"image_id": " IMG_1.JPG ", "split": "val", "scene": "airport", "captions": ["A Plane.", '
        b'"  padded  "]}\r\r{"image_id": "b", "captions": ["x"]}',
        EDGE_CORPUS,
    ),
    (
        "rsicd_json",
        _rsicd_corpus,
        _rsicd(
            {"filename": " IMG_1.JPG ", "split": " Val ", "class": " Airport ",
             "sentences": [{"raw": "A Plane.", "tokens": []}, {"raw": "  padded  "}]},
            {"filename": "B", "split": 3, "sentences": [{"raw": "x"}]},
        ),
        EDGE_CORPUS,
    ),
]

OK_LINE = {"image_id": "a", "captions": ["fine"]}
OK_IMAGE = {"filename": "a", "sentences": [{"raw": "fine"}]}

REJECTED = [
    ("merge-missing-tab", load_merge_rules, b"\nc shape c-shaped\n", FormatError, "line 2"),
    ("merge-extra-tab", load_merge_rules, b"a b\tab\nc shape\tc-shaped\tx\n", FormatError, "line 2"),
    ("merge-one-word-bigram", load_merge_rules, b"a b\tab\r\nshape\tc-shaped\r\n", FormatError, "line 2"),
    ("overrides-missing-tab", load_overrides, b"bulding building\n", FormatError, "line 1"),
    ("overrides-extra-tab", load_overrides, b"a\tb\n\n\nx\ty\tz\n", FormatError, "line 4"),
    ("overrides-repeated-key", load_overrides,
     b"Bulding\tBuilding\r\n\n  plane \t  airplane \nbulding\tbuildings\n", FormatError,
     "line 4: repeated key 'bulding'"),
    ("thesaurus-missing-tab", load_thesaurus, b"big large\n", FormatError, "line 1"),
    ("thesaurus-extra-tab", load_thesaurus, b"big\tlarge\thuge\n", FormatError, "line 1"),
    ("thesaurus-no-synonyms", load_thesaurus, b"big\t , ,\n", ValidationError, "'big'"),
    ("thesaurus-repeated-key", load_thesaurus, b"Several\tsome\n big \tlarge\nSEVERAL\tvarious\n",
     FormatError, "line 3: repeated key 'several'"),
    # a word that is not one token is judged on the line that holds it
    ("dictionary-edge-punctuation", load_dictionary, b"sea\r\nBeach.\r\n", ValidationError, "line 2: rule word"),
    ("dictionary-tab", load_dictionary, b"beach\n\nsea\tside\n", ValidationError, "line 3: rule word"),
    ("merge-two-word-replacement", load_merge_rules, b"a b\tab\nc shape\tc shaped\n", ValidationError,
     "line 2: rule word"),
    ("overrides-two-word-replacement", load_overrides, b"bulding\tbuild ing\n", ValidationError,
     "line 1: rule word"),
    ("thesaurus-lists-itself", load_thesaurus, b"big\tlarge\nbeach\tshore,beach\n", ValidationError,
     "line 2: thesaurus entry 'beach' lists itself"),
    ("scenes-two-word-trigger", load_scene_keywords, b"port\tdock\nbeach\tsea shore\n", FormatError,
     "line 2: scene trigger"),
    ("attributes-tab", load_attributes, b"white\r\nsea\tside\r\n", FormatError, "line 2: attribute"),
    ("scenes-missing-tab", load_scene_keywords, b"port harbour\n", FormatError, "line 1"),
    ("scenes-extra-tab", load_scene_keywords, b"port\tharbour\t\n", FormatError, "line 1"),
    ("scenes-empty-scene", load_scene_keywords, b"port\tdock\n \tharbour\n", FormatError, "line 2"),
    ("scenes-empty-triggers", load_scene_keywords, b"port\t , ,\n", FormatError, "line 1"),
    ("scenes-repeated-key", load_scene_keywords, b"port\tdock\r\n\r\nPort \tharbour\n", FormatError,
     "line 3: repeated key 'port'"),
    ("jsonl-bad-json", _jsonl_corpus, _jsonl(OK_LINE, b"{broken"), FormatError, "line 2"),
    ("jsonl-not-object", _jsonl_corpus, _jsonl(OK_LINE, [1]), FormatError, "line 2"),
    ("jsonl-missing-id", _jsonl_corpus, _jsonl({"captions": ["x"]}), ValidationError, "line 1"),
    ("jsonl-no-captions", _jsonl_corpus, _jsonl({"image_id": "a", "captions": []}), ValidationError, "line 1"),
    ("jsonl-non-string-caption", _jsonl_corpus, _jsonl(OK_LINE, {"image_id": "b", "captions": [42]}),
     ValidationError, "line 2"),
    ("jsonl-blank-caption", _jsonl_corpus, _jsonl({"image_id": "b", "captions": ["x", " "]}),
     ValidationError, "line 1"),
    ("jsonl-duplicate-id", _jsonl_corpus, _jsonl(OK_LINE, {"image_id": "A", "captions": ["y"]}),
     ValidationError, "'a'"),
    ("rsicd-bad-json", _rsicd_corpus, b'{"images": [\r\n}', FormatError, "line 2"),
    ("rsicd-no-images", _rsicd_corpus, b'{"imgs": []}', FormatError, "'images' list"),
    ("rsicd-entry-not-object", _rsicd_corpus, _rsicd(OK_IMAGE, "b"), FormatError, "images[1]"),
    ("rsicd-missing-filename", _rsicd_corpus, _rsicd(OK_IMAGE, {"sentences": [{"raw": "x"}]}),
     ValidationError, "images[1]"),
    ("rsicd-no-sentences", _rsicd_corpus, _rsicd({"filename": "b", "sentences": {}}),
     ValidationError, "images[0]"),
    ("rsicd-sentence-without-raw", _rsicd_corpus,
     _rsicd(OK_IMAGE, {"filename": "b", "sentences": [{"raw": "x"}, {"tokens": ["x"]}]}),
     FormatError, "images[1]"),
    ("rsicd-non-string-raw", _rsicd_corpus, _rsicd({"filename": "b", "sentences": [{"raw": 42}]}),
     FormatError, "images[0]"),
    ("rsicd-blank-raw", _rsicd_corpus, _rsicd({"filename": "b", "sentences": [{"raw": "\t"}]}),
     ValidationError, "images[0]"),
    # Checks run in file order within an entry: the first fault decides the type.
    ("rsicd-missing-filename-before-bad-sentence", _rsicd_corpus,
     _rsicd({"sentences": [{"tokens": []}]}), ValidationError, "images[0]"),
    ("rsicd-blank-raw-before-bad-sentence", _rsicd_corpus,
     _rsicd({"filename": "b", "sentences": [{"raw": " "}, {"tokens": []}]}), ValidationError, "images[0]"),
    # A repeated id is reported where it repeats, before any later fault.
    ("labels-duplicate-id", ingest_labels,
     _jsonl({"image_id": "a", "scene": "beach"}, {"image_id": " A ", "scene": "port"}),
     ValidationError, "line 2"),
    ("predictions-duplicate-id", ingest_predictions,
     _jsonl({"image_id": "a", "caption": "x"}, {"image_id": "A", "caption": "y"}),
     ValidationError, "line 2"),
    ("rsicd-duplicate-id", _rsicd_corpus, _rsicd(OK_IMAGE, {"filename": "A", "sentences": [{"raw": "y"}]}),
     ValidationError, "images[1]"),
    ("jsonl-duplicate-before-bad-json", _jsonl_corpus, _jsonl(OK_LINE, OK_LINE, b"{broken"),
     ValidationError, "line 2"),
]


@pytest.mark.parametrize(
    "load, content, expected", [case[1:] for case in PARSED], ids=[case[0] for case in PARSED]
)
def test_loader_parses(tmp_path, load, content, expected):
    path = tmp_path / "input"
    path.write_bytes(content)
    got = load(path)
    assert got == expected
    assert type(got) is type(expected)
    if isinstance(expected, dict):
        assert list(got) == list(expected)


@pytest.mark.parametrize(
    "load, content, error, where", [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED]
)
def test_loader_rejects(tmp_path, load, content, error, where):
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(error) as info:
        load(path)
    assert type(info.value) is error
    assert where in str(info.value)
