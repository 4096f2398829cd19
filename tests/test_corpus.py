import errno
import json
import os
import re
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from captionkit.augment import load_dictionary
from captionkit.corpus import (
    Caption,
    CaptionSource,
    Corpus,
    ImageRecord,
    LabelRecord,
    PredictionSet,
    Split,
    _name,
    atomic_write,
    ingest_captions,
    ingest_labels,
    ingest_predictions,
    jsonl_lines,
    validate,
    write_captions_jsonl,
    write_files,
)
from captionkit.discover import load_index
from captionkit.exceptions import FormatError, ValidationError
from conftest import corpus_from_documents, write_jsonl
from oracles import oracle_jsonl_lines


def test_jsonl_minimal(tmp_path):
    path = write_jsonl(tmp_path / "one.jsonl", [{"image_id": "i1", "captions": ["a beach"]}])
    corpus = ingest_captions(path, "jsonl")
    assert len(corpus) == 1
    assert corpus.records[0].captions[0].raw == "a beach"
    assert corpus.records[0].split is Split.UNASSIGNED


def test_fixture_hand_count(data_dir):
    corpus = ingest_captions(data_dir / "captions_3x5.jsonl", "jsonl")
    assert len(corpus) == 3
    assert corpus.caption_count() == 15


def test_rsicd_json(data_dir):
    corpus = ingest_captions(data_dir / "rsicd_small.json", "rsicd_json")
    assert [r.image_id for r in corpus.records] == ["airport_1.jpg", "beach_2.jpg", "river_3.jpg"]
    assert corpus.records[0].split is Split.TRAIN
    assert corpus.records[0].scene_class == "airport"
    assert corpus.records[1].split is Split.DEV  # "val" maps to dev
    assert corpus.records[2].split is Split.UNASSIGNED  # unknown split value
    assert corpus.records[2].scene_class is None
    assert corpus.caption_count() == 15
    # caption order preserved from file
    assert corpus.records[0].captions[0].raw == "Many planes are parked in an airport."


def test_rsicd_equivalent_to_jsonl_fixture(data_dir):
    nested = ingest_captions(data_dir / "rsicd_small.json", "rsicd_json")
    flat = ingest_captions(data_dir / "captions_3x5.jsonl", "jsonl")
    assert [r.image_id for r in nested.records] == [r.image_id for r in flat.records]
    assert [c.raw for c in nested.captions()] == [c.raw for c in flat.captions()]


def test_unknown_format(tmp_path):
    path = write_jsonl(tmp_path / "x.jsonl", [{"image_id": "i1", "captions": ["a"]}])
    with pytest.raises(FormatError):
        ingest_captions(path, "csv")


def test_parse_failure_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"image_id": "i1", "captions": ["a beach"]}\n{broken\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 2"):
        ingest_captions(path, "jsonl")


def test_rsicd_parse_failure_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"images": [,]}', encoding="utf-8")
    with pytest.raises(FormatError, match="column"):
        ingest_captions(path, "rsicd_json")


@pytest.mark.parametrize(
    "load, content, line",
    [
        # CRLF and a lone CR each end one line, as text mode reads them
        (lambda path: ingest_captions(path, "jsonl"),
         b'\r\n{"image_id": "a", "captions": ["x"]}\r{"image_id": "b", "captions": ["\xff"]}\n', 3),
        (lambda path: ingest_captions(path, "rsicd_json"), b'{"images":\r\n [\r{"raw": "caf\xc3"}]}', 3),
        (load_dictionary, b"beach\rsea\n\xed\xa0\x80\n", 3),
        (load_index, b"\xff", 1),
    ],
    ids=["jsonl", "rsicd_json", "dictionary", "index"],
)
def test_bytes_not_utf8_name_file_and_line(tmp_path, load, content, line):
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=re.escape(f"{path}: line {line}: not UTF-8 (")):
        load(path)


VALID_LINE = b'{"image_id": "a", "captions": ["x"]}\n'


@pytest.mark.parametrize(
    "content, message",
    [
        (b"{broken\n\xff\n", "line 1, column 2: Expecting property name"),
        (b"\xff\n{broken\n", "line 1: not UTF-8 (invalid start byte)"),
        # both faults in one 8 KiB decoding chunk, far from the file's start
        (b"".join(VALID_LINE.replace(b'"a"', b'"a%d"' % i) for i in range(300)) + b"{broken\n\xff\n",
         "line 301, column 2: Expecting property name"),
    ],
    ids=["syntax-first", "byte-first", "deep"],
)
def test_first_fault_in_file_order_is_reported(tmp_path, content, message):
    path = tmp_path / "input.jsonl"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        ingest_captions(path, "jsonl")



READERS = {
    "jsonl": (lambda path: ingest_captions(path, "jsonl"),
              VALID_LINE + b'{"image_id": "b", "captions": ["x"], "n": %s}\n', ": line 2: "),
    "rsicd_json": (lambda path: ingest_captions(path, "rsicd_json"),
                   b'{"images": [{"filename": "a", "sentences": [{"raw": "x"}]}], "n": %s}', ": "),
    "labels": (ingest_labels, b'{"image_id": "a", "scene": "beach", "n": %s}\n', ": line 1: "),
    "predictions": (ingest_predictions, b'{"image_id": "a", "caption": "x", "n": %s}\n', ": line 1: "),
    "index": (load_index, b'{"version": 1, "doc_count": 1, "postings": {"x": ["a"]}, "n": %s}', ": "),
}


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("value, message", [
    (b"1" * 5000, "Exceeds the limit (4300 digits)"),  # CPython's default limit for int()
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
], ids=["long-int", "deep-nesting"])
def test_value_json_cannot_build_is_a_format_error(tmp_path, kind, value, message):
    load, template, where = READERS[kind]
    path = tmp_path / "input"
    path.write_bytes(template % value)
    with pytest.raises(FormatError, match=re.escape(f"{path}{where}{message}")):
        load(path)


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("escape", [rb'"\ud800"', rb'"a be\uDFFFach"', rb'"\udc00\ud83d"'])
def test_lone_surrogate_escape_is_not_utf8(tmp_path, kind, escape):
    load, template, where = READERS[kind]
    path = tmp_path / "input"
    path.write_bytes(template % escape)
    with pytest.raises(FormatError, match=re.escape(f"{path}{where}not UTF-8 (surrogates not allowed)")):
        load(path)


def test_surrogate_pair_escape_is_one_character(tmp_path):
    path = tmp_path / "input.jsonl"
    path.write_bytes(b'{"image_id": "a", "captions": ["a beach \\ud83c\\udf0a", "\\\\ud800"]}\n')
    assert [cap.raw for cap in ingest_captions(path).captions()] == ["a beach \U0001f30a", "\\ud800"]


def test_duplicate_image_id_named(tmp_path):
    rows = [
        {"image_id": "dup1", "captions": ["a"]},
        {"image_id": "DUP1", "captions": ["b"]},  # ids are lower-cased first
    ]
    path = write_jsonl(tmp_path / "dup.jsonl", rows)
    with pytest.raises(ValidationError, match="dup1"):
        ingest_captions(path, "jsonl")


def test_empty_caption_rejected(tmp_path):
    path = write_jsonl(tmp_path / "e.jsonl", [{"image_id": "i1", "captions": ["a", "  "]}])
    with pytest.raises(ValidationError):
        ingest_captions(path, "jsonl")


@pytest.mark.parametrize("sentences, fault, message", [
    ([{"raw": "a"}, {"raw": " "}, "not an object"], ValidationError, "empty caption for image 'i1'"),
    ([{"raw": "a"}, "not an object", {"raw": " "}], FormatError, "each sentence needs a string 'raw' field"),
    ([{"raw": 3}, {"raw": " "}], FormatError, "each sentence needs a string 'raw' field"),
], ids=["blank-first", "malformed-first", "raw-not-str"])
def test_rsicd_sentence_faults_in_list_order(tmp_path, sentences, fault, message):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"images": [{"filename": "i1", "sentences": sentences}]}), encoding="utf-8")
    with pytest.raises(fault, match=re.escape(f"{path}: images[0]: {message}")):
        ingest_captions(path, "rsicd_json")


def test_roundtrip_jsonl(tmp_path, data_dir):
    corpus = ingest_captions(data_dir / "captions_3x5.jsonl", "jsonl")
    out = tmp_path / "again.jsonl"
    write_captions_jsonl(corpus, out)
    again = ingest_captions(out, "jsonl", provenance=corpus.provenance)
    assert again == corpus


def test_roundtrip_from_rsicd(tmp_path, data_dir):
    corpus = ingest_captions(data_dir / "rsicd_small.json", "rsicd_json")
    out = tmp_path / "flat.jsonl"
    write_captions_jsonl(corpus, out)
    again = ingest_captions(out, "jsonl")
    assert again.records == corpus.records


# what JSON escapes, what it must not (U+2028, non-ASCII, non-BMP), and a lone surrogate half
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029\xe9\U0001f30a\udcff\ud800 a'),
                               st.characters()), min_size=1, max_size=12).filter(str.strip)
_JSON_RECORD = st.builds(
    ImageRecord,
    _JSON_TEXT.map(_name),  # a record's id and scene are names as ingest reads them
    st.lists(_JSON_TEXT, min_size=1, max_size=3).map(tuple),
    st.sampled_from(Split),
    st.one_of(st.none(), _JSON_TEXT.map(_name)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_JSON_RECORD, max_size=4, unique_by=lambda record: record.image_id))
@example([ImageRecord("7", ('say "hi"\\\u2028\udcff',), Split.TRAIN, "3")])
def test_jsonl_lines_match_the_whole_object_encoder(records):
    corpus = Corpus(tuple(records), "t")
    assert list(jsonl_lines(corpus)) == list(oracle_jsonl_lines(corpus))


# what ingest keeps: ids and scenes stripped and lower-cased, texts verbatim but never blank; no
# surrogate, which no UTF-8 file can hold
_NO_SURROGATE = st.characters(exclude_categories=("Cs",))
_NORMAL_NAME = (st.text(st.one_of(st.sampled_from(' "\\/\x00\x85\u2028Ab\xc9\u0130\U0001f30a'), _NO_SURROGATE),
                        min_size=1, max_size=8)
                .map(lambda name: name.strip().lower()).filter(lambda name: name and name.strip().lower() == name))
_NORMAL_RECORD = st.builds(
    ImageRecord,
    _NORMAL_NAME,
    st.lists(st.text(st.one_of(st.sampled_from('"\\\n\r\t\x1f\x85\u2028 a'), _NO_SURROGATE), min_size=1,
                     max_size=12).filter(str.strip), min_size=1, max_size=3).map(tuple),
    st.sampled_from(Split),
    st.one_of(st.none(), _NORMAL_NAME),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_NORMAL_RECORD, max_size=4, unique_by=lambda record: record.image_id))
def test_written_corpus_reads_back_as_its_records(tmp_path_factory, records):
    corpus = Corpus(tuple(records), "t")
    path = tmp_path_factory.getbasetemp() / "hypothesis-roundtrip.jsonl"
    write_captions_jsonl(corpus, path)
    assert ingest_captions(path, "jsonl").records == corpus.records


def test_a_record_text_that_is_not_utf8_is_a_validation_error_naming_path_and_record(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text("old\n", encoding="utf-8")
    corpus = Corpus((ImageRecord("a", ("a sea",)), ImageRecord("b", ("x\udcff",))), "t")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(out))}: record 'b': text is not UTF-8 "):
        write_captions_jsonl(corpus, out)
    assert out.read_text(encoding="utf-8") == "old\n"


@pytest.mark.parametrize("build, message", [
    (lambda: ImageRecord(5, ("a",)), "image_id must be a string, got 5"),
    (lambda: ImageRecord("a", ("a",), "train"), "needs a Split"),
    (lambda: ImageRecord("a", ("a",), Split.TRAIN, 3), "str or None scene, got .*, 3$"),
    (lambda: Corpus(("x",)), "must be ImageRecords, got 'x'"),
], ids=["int-id", "str-split", "int-scene", "str-member"])
def test_model_types_refuse_values_of_another_type(build, message):
    # a record or corpus holding any of these would write a line that does not read back, or none
    with pytest.raises(ValidationError, match=message):
        build()


@pytest.mark.parametrize("image_id, scene", [("A", None), ("  ", None), (" a", None), ("a", " "), ("a", ""),
                                             ("a", "Beach"), ("a", "beach\n")],
                         ids=["upper-id", "blank-id", "padded-id", "blank-scene", "empty-scene", "upper-scene",
                              "padded-scene"])
def test_a_record_refuses_an_id_or_scene_that_would_not_read_back_as_itself(tmp_path, image_id, scene):
    # ingest reads an id back as its ``_name`` and a scene as its ``_name`` or None, so neither may differ
    message = f"stripped lower-case id and scene, got {image_id!r}, {scene!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        ImageRecord(image_id, ("a beach",), Split.TRAIN, scene)
    if _name(image_id):  # what ingest builds from the same values is a record the type accepts
        path = write_jsonl(tmp_path / "one.jsonl", [{"image_id": image_id, "captions": ["a beach"], "scene": scene}])
        record = ingest_captions(path, "jsonl").records[0]
        assert (record.image_id, record.scene_class) == (_name(image_id), _name(scene) or None)


# Σ lower-cases by its context, İ to two code points, U+0085 is whitespace
@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from(" \t\x85\u2028A\u03a3\u0130\u1e9e"), st.characters()), max_size=8))
def test_a_name_is_its_own_name_so_ingest_builds_only_records_the_type_accepts(value):
    assert _name(_name(value)) == _name(value)


@pytest.mark.parametrize("entries", ["ab", ["a"], {"a": 5}, {5: "a"}, {"a": None}],
                         ids=["str", "list", "int-caption", "int-id", "none-caption"])
def test_prediction_set_refuses_what_is_no_mapping_of_strings(entries):
    with pytest.raises(ValidationError, match="predictions: expected a mapping of id to caption"):
        PredictionSet(entries)


def test_a_failed_rename_in_write_files_leaves_the_later_files_new_and_the_rest_old(tmp_path, monkeypatch):
    paths = [tmp_path / name for name in "abc"]
    for path in paths:
        path.write_text("old\n", encoding="utf-8")
    real_replace, renamed = os.replace, []

    def replace(src, dst):
        renamed.append(os.path.basename(dst))
        if len(renamed) == 2:
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError) as caught:
        write_files([(path, lambda fh: fh.write("new\n")) for path in paths])
    # the renames run last-listed first, and the one that failed names its own path
    assert renamed == ["c", "b"]
    assert caught.value.filename == str(paths[1])
    assert [path.read_text(encoding="utf-8") for path in paths] == ["old\n", "old\n", "new\n"]
    assert sorted(os.listdir(tmp_path)) == ["a", "b", "c"]


def test_ingest_deterministic(data_dir):
    a = ingest_captions(data_dir / "captions_3x5.jsonl", "jsonl")
    b = ingest_captions(data_dir / "captions_3x5.jsonl", "jsonl")
    assert a == b


def test_total_caption_count_is_sum(data_dir):
    corpus = ingest_captions(data_dir / "captions_3x5.jsonl", "jsonl")
    assert corpus.caption_count() == sum(len(r.captions) for r in corpus.records)


def _record(image_id, n_captions):
    return ImageRecord(image_id, tuple(f"caption {i}" for i in range(n_captions)))


def test_validate_strict_five_ok():
    corpus = Corpus((_record("i1", 5),), "t")
    assert validate(corpus, strict_rsicd=True) == []


def test_validate_strict_flags_four():
    corpus = Corpus((_record("i1", 4),), "t")
    findings = validate(corpus, strict_rsicd=True)
    assert len(findings) == 1
    assert findings[0].code == "caption-count"
    assert findings[0].image_id == "i1"


def test_validate_lenient_ignores_count():
    corpus = Corpus((_record("i1", 4),), "t")
    assert validate(corpus, strict_rsicd=False) == []


def test_corpus_rejects_repeated_id():
    with pytest.raises(ValidationError, match="duplicate image_id 'i1'"):
        Corpus((_record("i1", 1), _record("i2", 1), _record("i1", 1)), "t")
    # ids are lower-cased, so keys that differ only in case collide
    with pytest.raises(ValidationError, match="duplicate image_id 'a'"):
        corpus_from_documents({"A": ["a beach"], "a": ["a river"]}, "t")


def test_record_invariants():
    with pytest.raises(ValidationError):
        ImageRecord("i1", ())
    with pytest.raises(ValidationError):
        Caption("i1", "   ")
    with pytest.raises(ValidationError, match="empty caption for image 'i1'"):
        ImageRecord("i1", ("text", "   "))
    # ingest builds records straight from these checks, so they must hold for any JSON value
    with pytest.raises(ValidationError, match="empty caption"):
        Caption("i1", 42)
    with pytest.raises(ValidationError, match="has no captions"):
        ImageRecord("", ())
    with pytest.raises(ValidationError, match="record with empty image_id"):
        ImageRecord("", ("text",))


def test_caption_and_label_invariants():
    with pytest.raises(ValidationError, match="^caption with empty image_id$"):
        Caption("", "x")
    with pytest.raises(ValidationError, match="^label for 'x' has empty scene$"):
        LabelRecord("x", "")


def test_record_and_corpus_hold_tuples_only():
    # a str would be split into one caption per character, a list would leave the record unhashable
    with pytest.raises(ValidationError, match="record 'a': texts must be a tuple, got str"):
        ImageRecord("a", "ab")
    with pytest.raises(ValidationError, match="record 'a': texts must be a tuple, got list"):
        ImageRecord("a", ["a beach"])
    with pytest.raises(ValidationError, match="corpus records must be a tuple, got list"):
        Corpus([_record("i1", 1)])
    assert hash(Corpus((_record("i1", 1),))) == hash(Corpus((_record("i1", 1),)))


def test_ingest_labels(data_dir):
    labels = ingest_labels(data_dir / "labels_8scenes.jsonl")
    assert len(labels) == 8
    assert sorted({l.scene for l in labels}) == [
        "airport", "beach", "desert", "forest", "port", "railway", "river", "stadium",
    ]
    first = labels[0]
    assert first.image_id == "n1"
    assert first.objects == frozenset({"plane", "building"})  # lower-cased
    assert labels[2].objects == frozenset()  # scene-only record


def test_labels_single_line(tmp_path):
    path = write_jsonl(
        tmp_path / "l.jsonl",
        [{"image_id": "a1", "scene": "airport", "objects": ["plane", "building"]}],
    )
    (label,) = ingest_labels(path)
    assert label.scene == "airport"
    assert label.objects == {"plane", "building"}


def test_labels_missing_scene(tmp_path):
    path = write_jsonl(tmp_path / "l.jsonl", [{"image_id": "a1", "objects": []}])
    with pytest.raises(ValidationError, match="scene"):
        ingest_labels(path)


def test_labels_duplicate_id(tmp_path):
    rows = [{"image_id": "a1", "scene": "beach"}, {"image_id": "a1", "scene": "river"}]
    path = write_jsonl(tmp_path / "l.jsonl", rows)
    with pytest.raises(ValidationError, match="a1"):
        ingest_labels(path)


def test_ingest_predictions_single(tmp_path):
    path = write_jsonl(
        tmp_path / "p.jsonl",
        [{"image_id": "x", "caption": "many planes are parked in an airport"}],
    )
    preds = ingest_predictions(path)
    assert len(preds) == 1
    assert preds.entries["x"] == "many planes are parked in an airport"


def test_ingest_predictions_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert len(ingest_predictions(path)) == 0


def test_ingest_predictions_three(data_dir):
    preds = ingest_predictions(data_dir / "predictions_3.jsonl")
    assert sorted(preds.entries) == ["airport_1.jpg", "beach_2.jpg", "river_3.jpg"]


def test_predictions_duplicate_id(tmp_path):
    rows = [{"image_id": "x", "caption": "a"}, {"image_id": "x", "caption": "b"}]
    path = write_jsonl(tmp_path / "p.jsonl", rows)
    with pytest.raises(ValidationError, match="x"):
        ingest_predictions(path)


def test_predictions_empty_caption(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl", [{"image_id": "x", "caption": ""}])
    with pytest.raises(ValidationError):
        ingest_predictions(path)


def test_corpus_is_immutable(small_corpus):
    with pytest.raises(AttributeError):
        small_corpus.provenance = "changed"
    with pytest.raises(AttributeError):
        small_corpus.records[0].captions[0].raw = "changed"


def test_caption_source_default():
    assert Caption("i", "text").source is CaptionSource.HUMAN


def test_concurrent_writers_of_one_path_use_their_own_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    both_open = threading.Barrier(2, timeout=10)
    errors = []

    def write(tag):
        try:
            with atomic_write(target) as fh:
                both_open.wait()
                fh.writelines(f"{tag} {i}\n" for i in range(2000))
                both_open.wait()  # each has written all its lines before either renames
        except Exception as exc:
            errors.append(exc)

    writers = [threading.Thread(target=write, args=(tag,)) for tag in "ab"]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=10)
    assert not any(writer.is_alive() for writer in writers)
    assert errors == []
    whole = {"".join(f"{tag} {i}\n" for i in range(2000)) for tag in "ab"}
    assert target.read_text(encoding="utf-8") in whole
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_the_temp_file_is_synced_before_it_is_renamed(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd)))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    target = tmp_path / "out.txt"
    with atomic_write(target) as fh:
        fh.write("a beach\n")
    assert [kind for kind, _ in events] == ["fsync", "replace", "fsync"]
    (_, synced), (_, renamed), (_, directory) = events
    assert os.path.samestat(synced, renamed)
    assert synced.st_size == len("a beach\n")  # flushed before the sync
    assert os.path.samestat(directory, os.stat(tmp_path))  # then the directory that holds the new name
    assert target.read_text(encoding="utf-8") == "a beach\n"


@pytest.mark.parametrize("code, raises", [(errno.EINVAL, False), (errno.EIO, True)], ids=["einval", "eio"])
def test_a_directory_sync_fault_raises_unless_the_file_system_cannot_sync_one(tmp_path, monkeypatch, code, raises):
    real_fsync = os.fsync

    def fsync(fd):
        if os.path.samestat(os.fstat(fd), os.stat(tmp_path)):
            raise OSError(code, os.strerror(code))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    target = tmp_path / "out.txt"
    try:
        with atomic_write(target) as fh:
            fh.write("a beach\n")
    except OSError as exc:
        assert raises and exc.errno == code and exc.filename == str(target)
    else:
        assert not raises
    assert target.read_text(encoding="utf-8") == "a beach\n"  # renamed before the directory sync
    assert os.listdir(tmp_path) == ["out.txt"]


def test_a_directory_that_cannot_be_opened_leaves_the_path_as_it_was(tmp_path, monkeypatch):
    if not hasattr(os, "O_DIRECTORY"):
        pytest.skip("the directory is synced only where os.O_DIRECTORY exists")
    real_open = os.open

    def open_(path, flags, *args, **kwargs):
        if flags & getattr(os, "O_DIRECTORY", 0):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", open_)
    target = tmp_path / "out.txt"
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(PermissionError):
        with atomic_write(target) as fh:
            fh.write("new\n")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_corpus_from_documents_lowercases_ids():
    corpus = corpus_from_documents({"UPPER": ["a beach"]}, "t")
    assert corpus.records[0].image_id == "upper"


def test_unknown_fields_ignored(tmp_path):
    rows = [{"image_id": "i1", "captions": ["a"], "extra": {"nested": True}}]
    path = write_jsonl(tmp_path / "x.jsonl", rows)
    assert len(ingest_captions(path, "jsonl")) == 1
