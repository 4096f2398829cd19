"""Malformed input files, drawn at random.

``oracle_ingest`` is the earlier keyed-entry loop of the ``ingest_*``
functions: every file it reads must give an equal result, or the same
exception type at the same location. Through the CLI, every malformed
captions, predictions or labels file must exit 2 with one ``error:`` line
that names it, and a JSONL file its first faulty line. Rule files and index
files are drawn too, with bytes that are not UTF-8, oversized integers and
surrogate escapes.
"""

import contextlib
import io
import json
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from captionkit import cli
from captionkit.corpus import ingest_captions, ingest_labels, ingest_predictions
from captionkit.exceptions import FormatError, ValidationError
from conftest import DATA_DIR
from oracles import oracle_ingest

INGEST = {
    "jsonl": lambda path: ingest_captions(path, "jsonl"),
    "rsicd_json": lambda path: ingest_captions(path, "rsicd_json"),
    "labels": ingest_labels,
    "predictions": ingest_predictions,
}
ID_KEY = {"jsonl": "image_id", "rsicd_json": "filename", "labels": "image_id", "predictions": "image_id"}
LIST_KEY = {"jsonl": "captions", "rsicd_json": "sentences"}

TEXTS = st.sampled_from(["a beach", "Two Planes.", "  x  ", "..."])
BLANK_OR_NOT_STR = st.sampled_from(["", " \t", None, 42, ["x"]])
NOT_LIST = st.sampled_from([None, "a beach", {"raw": "x"}, 3])
SPLITS = st.sampled_from(["train", " Val ", "other", 3])
SCENES = st.sampled_from(["Beach", " port ", "", 3])


def _caption_item(kind, text):
    return {"raw": text} if kind == "rsicd_json" else text


def _valid(draw, kind, i):
    """An entry every ingester accepts, with id ``img{i}`` in some case and padding."""
    entry = {ID_KEY[kind]: draw(st.sampled_from([f"img{i}", f"IMG{i}", f" Img{i} "]))}
    if kind in LIST_KEY:
        texts = draw(st.lists(TEXTS, min_size=1, max_size=3))
        entry[LIST_KEY[kind]] = [_caption_item(kind, text) for text in texts]
        entry["split"] = draw(SPLITS)
        entry["class" if kind == "rsicd_json" else "scene"] = draw(SCENES)
    elif kind == "labels":
        entry["scene"] = draw(st.sampled_from(["beach", " Port "]))
        entry["objects"] = draw(st.lists(st.sampled_from(["Tree", " car ", "", 3]), max_size=3))
    else:
        entry["caption"] = draw(TEXTS)
    return entry


def _broken(draw, kind, entry, before):
    """``entry`` with one fault; ``before`` entries precede it in the file."""
    faults = ["not-object", "no-id", "bad-id"] + (["repeated-id"] if before else [])
    if kind in LIST_KEY:
        faults += ["list-missing", "list-not-list", "list-empty", "bad-caption"]
    if kind == "rsicd_json":
        faults.append("sentence-without-raw")
    faults += {"labels": ["bad-scene", "objects-not-list"], "predictions": ["bad-caption"]}.get(kind, [])
    fault = draw(st.sampled_from(faults))
    if fault == "not-object":
        return draw(st.sampled_from([1, "x", [entry], None]))
    entry, key, items = dict(entry), ID_KEY[kind], LIST_KEY.get(kind)
    if fault == "no-id":
        del entry[key]
    elif fault == "bad-id":
        entry[key] = draw(BLANK_OR_NOT_STR)
    elif fault == "repeated-id":
        entry[key] = f" IMG{draw(st.integers(0, before - 1))}"
    elif fault == "list-missing":
        del entry[items]
    elif fault == "list-not-list":
        entry[items] = draw(NOT_LIST)
    elif fault == "list-empty":
        entry[items] = []
    elif fault == "bad-caption" and kind == "predictions":
        entry["caption"] = draw(BLANK_OR_NOT_STR)
    elif fault in ("bad-caption", "sentence-without-raw"):
        bad = (
            _caption_item(kind, draw(BLANK_OR_NOT_STR))
            if fault == "bad-caption"
            else draw(st.sampled_from([{"tokens": ["x"]}, "x", 3]))
        )
        entry[items] = entry[items][:]
        entry[items].insert(draw(st.integers(0, len(entry[items]))), bad)
    elif fault == "bad-scene":
        entry["scene"] = draw(BLANK_OR_NOT_STR)
    else:
        entry["objects"] = draw(st.sampled_from(["tree", 3, None, {"a": 1}]))
    return entry


def _encode(kind, entries):
    if kind == "rsicd_json":
        return json.dumps({"images": entries}, indent=1).encode()
    return b"".join(json.dumps(entry).encode() + b"\n" for entry in entries)


@st.composite
def _file(draw, kind, malformed=False):
    """A ``kind`` file's bytes: valid entries mixed with faulty ones.

    A ``malformed`` file holds at least one fault: a faulty entry, a byte
    that is not UTF-8, a JSON syntax error, or (rsicd_json) no ``images`` list.
    """
    file_faults = ["none", "not-utf8", "bad-json"] + (["no-images"] if kind == "rsicd_json" else [])
    file_fault = draw(st.sampled_from(file_faults)) if malformed else "none"
    count = draw(st.integers(0, 5))
    broken = draw(st.sets(st.integers(0, max(count - 1, 0)), max_size=count))
    if malformed and file_fault == "none" and not broken:
        count, broken = max(count, 1), {0}
    entries = [_valid(draw, kind, i) for i in range(count)]
    entries = [_broken(draw, kind, e, i) if i in broken else e for i, e in enumerate(entries)]
    content = _encode(kind, entries)
    if file_fault == "no-images":
        content = draw(st.sampled_from([b"[]", b'{"imgs": []}', b'{"images": {}}']))
    elif file_fault != "none":
        at = draw(st.integers(0, len(content)))
        if file_fault == "not-utf8":
            bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
            content = content[:at] + bad + content[at:]
        elif kind == "rsicd_json":
            content = content[: min(at, len(content) - 1)]  # any proper prefix is not JSON
        else:
            lines = content.splitlines(keepends=True)
            lines.insert(draw(st.integers(0, len(lines))), b"{broken\n")
            content = b"".join(lines)
    return content


def _location(path, message):
    """``path: line N`` or ``path: images[i]`` at the start of ``message``, else None."""
    found = re.match(re.escape(str(path)) + r": (line \d+|images\[\d+\])", message)
    return found and found.group()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(INGEST)).flatmap(lambda kind: st.tuples(st.just(kind), _file(kind))))
def test_ingest_matches_oracle(tmp_path_factory, case):
    kind, content = case
    path = tmp_path_factory.getbasetemp() / f"hypothesis-ingest.{kind}"
    path.write_bytes(content)
    try:
        want = oracle_ingest(path, kind)
    except (FormatError, ValidationError) as expected:
        try:
            INGEST[kind](path)
        except (FormatError, ValidationError) as got:
            assert type(got) is type(expected)
            assert _location(path, str(got)) == _location(path, str(expected))
            if str(got) != str(expected):  # ImageRecord now words an empty caption list
                assert str(expected).endswith(" list") and str(got).endswith(" has no captions")
        else:
            raise AssertionError(f"accepted what the oracle rejects: {expected}")
    else:
        got = INGEST[kind](path)
        assert got == want
        if kind == "predictions":
            assert list(got.entries.items()) == list(want.entries.items())


CLI_CASES = [
    ("ingest", "captions"),
    ("validate", "captions"),
    ("stats", "captions"),
    ("bleu", "predictions"),
    ("bleu", "references"),
    ("score-confusion", "predictions"),
    ("score-confusion", "labels"),
]


@st.composite
def _cli_case(draw):
    """A subcommand, the role of its one malformed input file, that file's kind and bytes."""
    command, role = draw(st.sampled_from(CLI_CASES))
    kind = draw(st.sampled_from(["jsonl", "rsicd_json"])) if role in ("captions", "references") else role
    return command, role, kind, draw(_file(kind, malformed=True))


@settings(max_examples=150, deadline=None)
@given(_cli_case())
def test_cli_names_the_malformed_file(tmp_path_factory, case):
    command, role, kind, content = case
    bad = tmp_path_factory.getbasetemp() / f"hypothesis-{role}.{kind}"
    bad.write_bytes(content)
    files = {
        "captions": DATA_DIR / "captions_3x5.jsonl",
        "references": DATA_DIR / "captions_3x5.jsonl",
        "predictions": DATA_DIR / "predictions_3.jsonl",
        "labels": DATA_DIR / "labels_8scenes.jsonl",
        role: bad,
    }
    fmt = kind if kind in ("jsonl", "rsicd_json") else "jsonl"
    argv = {
        "bleu": ["--predictions", files["predictions"], "--references", files["references"],
                 "--references-format", fmt],
        "score-confusion": ["--predictions", files["predictions"], "--labels", files["labels"]],
    }.get(command, ["--captions", files["captions"], "--format", fmt])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([command, *map(str, argv)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith(f"error: {bad}: ")
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


JSONL_CLI_CASES = CLI_CASES + [
    ("augment correct", "captions"),
    ("augment synonym", "captions"),
    ("index build", "captions"),
    ("index build", "predictions"),
]


# Per subcommand: the roles of its required inputs, and its other arguments.
COMMANDS = {
    "bleu": (["predictions", "references"], []),
    "score-confusion": (["predictions", "labels"], []),
    "augment correct": (["captions", "dictionary"], []),
    "augment synonym": (["captions", "thesaurus"], ["--seed", "1"]),
    "index build": (["captions"], ["--out", "{tmp}/hypothesis-index.json"]),
    "index query": (["index"], ["beach"]),
}
FIXTURES = {
    "captions": DATA_DIR / "captions_3x5.jsonl",
    "references": DATA_DIR / "captions_3x5.jsonl",
    "predictions": DATA_DIR / "predictions_3.jsonl",
    "labels": DATA_DIR / "labels_8scenes.jsonl",
    "dictionary": DATA_DIR / "dictionary.txt",
    "thesaurus": DATA_DIR / "thesaurus.tsv",
}


def _run_with(tmp, command, role, bad):
    """Run ``command`` on its fixtures with ``bad`` as its ``role`` input: (exit code, stdout, stderr).

    Each role is passed as ``--role``; ``index build`` reads predictions instead of captions.
    """
    required, extra = COMMANDS.get(command, (["captions"], []))
    files = {r: FIXTURES[r] for r in required if r != role and command != "index build"} | {role: bad}
    argv = [*command.split(), *(arg for r, path in files.items() for arg in (f"--{r}", path)), *extra]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(arg).format(tmp=tmp) for arg in argv])
    return code, out.getvalue(), err.getvalue()


# JSONL lines that are valid UTF-8 and JSON but hold a value no reader may
# accept: an integer past CPython's digit limit, and lone surrogate escapes.
JSON_VALUE_FAULTS = [
    b'{"image_id": "zz", "captions": ["x"], "caption": "x", "scene": "x", "n": ' + b"9" * 5000 + b"}\n",
    b'{"image_id": "zz", "captions": ["a be\\ud800ach"], "caption": "\\udfff", "scene": "x"}\n',
]
NOT_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]


@st.composite
def _jsonl_case(draw):
    """A subcommand, the role of its one malformed JSONL input, that file's kind and bytes.

    The file may also hold a line with an oversized integer or a surrogate escape.
    """
    command, role = draw(st.sampled_from(JSONL_CLI_CASES))
    kind = {"captions": "jsonl", "references": "jsonl"}.get(role, role)
    lines = draw(_file(kind, malformed=True)).splitlines(keepends=True)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(JSON_VALUE_FAULTS)))
    return command, role, kind, b"".join(lines)


def _first_faulty_line(path, kind, content):
    """The first faulty line of a JSONL file in file order, or None.

    A line that is not UTF-8 or holds a value fault is blanked (keeping every
    line's number), and the oracle judges what is left.
    """
    lines, blanked = content.splitlines(keepends=True), []
    for n, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            blanked.append(n)
        if line in JSON_VALUE_FAULTS:
            blanked.append(n)
    path.write_bytes(b"".join(b"\n" if n in blanked else line for n, line in enumerate(lines, start=1)))
    try:
        oracle_ingest(path, kind)
        found = []
    except (FormatError, ValidationError) as exc:
        found = [int(re.match(re.escape(str(path)) + r": line (\d+)", str(exc)).group(1))]
    return min(blanked + found, default=None)


@settings(max_examples=150, deadline=None)
@given(_jsonl_case())
def test_cli_names_the_first_faulty_jsonl_line(tmp_path_factory, case):
    command, role, kind, content = case
    base = tmp_path_factory.getbasetemp()
    bad = base / f"hypothesis-first-{role}.{kind}"
    line = _first_faulty_line(base / "hypothesis-blanked.jsonl", kind, content)
    bad.write_bytes(content)
    code, out, err = _run_with(base, command, role, bad)
    assert (code, out) == (2, "")
    assert re.match(re.escape(f"error: {bad}: line {line}") + "[:,] ", err), (line, err)
    assert err.count("\n") == 1 and err.endswith("\n")


# Per rule file: its subcommand, lines every reader accepts, lines whose shape
# the reader rejects, and lines whose words it rejects. Each fault is named by
# its line. In a keyed file, a line repeating the key of an earlier one is a
# fault too.
RULE_FILES = {
    "dictionary": ("augment correct", ["beach", "sea", "  Shore ", "c-shaped"], [],
                   ["Beach.", "parking lot", "a\tb", "_"]),
    "merge-rules": ("augment correct", ["c shape\tc-shaped", "air port\tairport"],
                    ["c shape c-shaped", "a\tb\tc", "a b c\tx", "ab\tx"],
                    ["c shape\tc shaped", "c shape\tC-Shaped."]),
    "overrides": ("augment correct", ["bulding\tbuilding", "Teh\tthe"],
                  ["bulding building", "a\tb\tc"], ["buldin\tbuild ing", "x.\ty", "x\t"]),
    "thesaurus": ("augment synonym", ["beach\tshore,coast", "sea\tocean, sea shore"],
                  ["beach shore", "a\tb\tc"], ["coast\tcoast", "shore\t", "ocean\tshore.", "two words\tx"]),
    "scenes": ("score-confusion", ["beach\tbeach,shore", "airport\tairport,plane"],
               ["beach", "a\tb\tc", "beach\t", "\tbeach"], ["desert\tsea shore"]),
    "attributes": ("score-confusion", ["white", "Green"], [], ["two words", "white."]),
}
KEYED_RULE_FILES = {"overrides", "thesaurus", "scenes"}


@st.composite
def _rule_case(draw):
    """A rule file's role and bytes holding at least one fault, and the first faulty line."""
    role = draw(st.sampled_from(sorted(RULE_FILES)))
    _, valid, located, value = RULE_FILES[role]
    kinds = ["valid", "not-utf8", "value"] + (["located"] if located else [])
    lines = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6))
    if lines.count("valid") == len(lines):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(kinds[1:]))
    content, first, keys = [], None, set()
    for n, kind in enumerate(lines, start=1):
        line = draw(st.sampled_from({"located": located, "value": value}.get(kind, valid)))
        text = line.encode()
        if kind == "not-utf8":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(NOT_UTF8)) + text[at:]
        elif role in KEYED_RULE_FILES and line.count("\t") == 1:
            key = line.split("\t")[0].strip().lower()
            if key in keys:
                kind = "located"
            keys.add(key)
        if first is None and kind != "valid":
            first = n
        content.append(text + draw(st.sampled_from([b"\n", b"\r\n", b"\r"])))
    return role, b"".join(content), first


@settings(max_examples=200, deadline=None)
@given(_rule_case())
def test_cli_stops_on_a_faulty_rule_file(tmp_path_factory, case):
    role, content, first = case
    base = tmp_path_factory.getbasetemp()
    bad = base / f"hypothesis-rules.{role}"
    bad.write_bytes(content)
    code, out, err = _run_with(base, RULE_FILES[role][0], role, bad)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: line {first}: "), err
    assert err.count("\n") == 1 and err.endswith("\n")


INDEX = {"version": 1, "doc_count": 3, "postings": {"beach": ["a", "b"], "sea": ["b"], "x": ["c"]}}


@st.composite
def _index_file(draw):
    """A malformed index file's bytes and, for a fault the reader names by line, that line."""
    fault = draw(st.sampled_from(["not-utf8", "truncated", "long-int", "surrogate", "value"]))
    payload = {**INDEX, "postings": dict(INDEX["postings"])}
    if fault == "long-int":
        payload[draw(st.sampled_from(["doc_count", "version", "extra"]))] = "LONG"
    elif fault == "surrogate":
        postings = payload["postings"]
        if draw(st.booleans()):
            postings["\ud800"] = ["a"]
        else:
            postings["sea"] = ["b\udc00"]
    elif fault == "value":
        payload.update(draw(st.sampled_from([
            {"version": 2}, {"version": True}, {"doc_count": -1}, {"doc_count": 1},
            {"postings": {"beach": ["b", "a"]}}, {"postings": {"Beach.": ["a"]}}, {"postings": []},
        ])))
    content = json.dumps(payload, indent=1, sort_keys=True).encode().replace(b'"LONG"', b"9" * 5000)
    line = None
    if fault == "not-utf8":
        at = draw(st.integers(0, len(content)))
        content = content[:at] + draw(st.sampled_from(NOT_UTF8)) + content[at:]
        line = content.count(b"\n", 0, at) + 1
    elif fault == "truncated":
        content = content[: draw(st.integers(0, len(content) - 1))]
    return content, line


@settings(max_examples=100, deadline=None)
@given(_index_file())
def test_cli_names_a_malformed_index_file(tmp_path_factory, case):
    content, line = case
    base = tmp_path_factory.getbasetemp()
    bad = base / "hypothesis-bad-index.json"
    bad.write_bytes(content)
    code, out, err = _run_with(base, "index query", "index", bad)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: line {line}: " if line else f"error: {bad}: "), err
    assert err.count("\n") == 1 and err.endswith("\n")
