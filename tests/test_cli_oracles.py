"""CLI subcommands against the oracles on random input files, run through ``cli.run``.

So far ``bleu``: its report, its per-image CSV and its skip warning, which hold handler logic (the
skip count, the row layout) that the library-level BLEU tests never reach; and ``ingest`` and
``validate --strict`` on captions files of both formats, whose written corpus must read back as the
records ``oracle_ingest`` reads; and ``index build`` from either captions format or from predictions,
whose index file must hold the oracle index's bytes, and ``index query`` on it, which must print the
oracle query's ids one per line.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from captionkit.cli import run
from captionkit.corpus import ingest_captions
from conftest import write_jsonl
from oracles import (oracle_bleu, oracle_build_index, oracle_index_bytes, oracle_ingest, oracle_jsonl_lines,
                     oracle_query, oracle_tokens)

# "beach," and "sea-side" put inner punctuation in a caption, so the tokenizer's regex path is reached too
_WORDS = ["a", "sea", "Beach", "beach,", "green", "trees", "sea-side", "many"]
_CAPTIONS = st.one_of(
    st.builds(lambda words, end: " ".join(words) + end,
              st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6), st.sampled_from(["", ".", " ."])),
    st.sampled_from(["...", "!?", "--"]),
)
_REFERENCES = st.dictionaries(st.sampled_from(["i0", "i1", "i2", "i3"]),
                              st.lists(_CAPTIONS, min_size=1, max_size=3), min_size=1)
# i4 and i5 are never references, so some predictions have ids the references lack
_PREDICTIONS = st.dictionaries(st.sampled_from(["i0", "i1", "i2", "i3", "i4", "i5"]), _CAPTIONS, min_size=1)


def _report(candidates, references):
    precisions, bp, c, r, bleu = oracle_bleu(candidates, references)
    report = {f"bleu{k}": bleu[k] for k in sorted(bleu)}
    report.update({f"p{n}": p for n, p in enumerate(precisions, start=1)})
    return {**report, "bp": bp, "c": c, "r": r}


@settings(max_examples=60, deadline=None)
@given(references=_REFERENCES, predictions=_PREDICTIONS)
@example(references={"i0": ["a sea."]}, predictions={"i4": "a sea", "i0": "..."})  # nothing scorable
@example(references={"i0": ["a sea."], "i1": ["..."]}, predictions={"i4": "a", "i0": "!?", "i1": "sea-side trees"})
def test_bleu_report_rows_and_skip_count_match_the_oracle(references, predictions):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        refs = write_jsonl(work / "refs.jsonl", [{"image_id": i, "captions": c} for i, c in references.items()])
        preds = write_jsonl(work / "preds.jsonl", [{"image_id": i, "caption": c} for i, c in predictions.items()])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["bleu", "--predictions", str(preds), "--references", str(refs),
                        "--per-image", str(work / "rows.csv"), "--out", str(work / "report.json")])
        scorable = [(image_id, oracle_tokens(caption), [oracle_tokens(text) for text in references[image_id]])
                    for image_id, caption in predictions.items() if image_id in references]
        scorable = [(image_id, cand, refs) for image_id, cand, refs in scorable if cand]
        if not scorable:
            assert code == 2
            assert "no prediction could be scored" in err.getvalue()
            return
        assert code == 0
        expected = _report([cand for _, cand, _ in scorable], [refs for _, _, refs in scorable])
        assert json.loads((work / "report.json").read_text()) == expected
        with open(work / "rows.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["image_id", *expected]
        assert [[row[0], *map(float, row[1:])] for row in rows] == [
            [image_id, *_report([cand], [refs]).values()] for image_id, cand, refs in scorable]
        skipped = len(predictions) - len(scorable)
        missing = sum(image_id not in references for image_id in predictions)
        reason = f"{missing} ids missing from references, the rest without tokens"
        assert err.getvalue() == (f"warning: {skipped} predictions skipped: {reason}\n" if skipped else "")


# one record per id number: its id in some case and padding, a split by any alias or none, a scene or none
_ENTRIES = st.lists(
    st.tuples(st.integers(0, 9), st.sampled_from(["img{}", "IMG{}", " Img{} ", "img{}.JPG"]),
              st.sampled_from(["train", " Val ", "VALIDATION", "dev", "Test", "other", None, 3]),
              st.sampled_from(["beach", " Port ", "AIRPORT", "", None]), st.lists(_CAPTIONS, min_size=1, max_size=7)),
    max_size=5, unique_by=lambda entry: entry[0],
)


def _write_captions(path, fmt, entries):
    keys = ("image_id", "captions", "scene") if fmt == "jsonl" else ("filename", "sentences", "class")
    rows = []
    for number, id_form, split, scene, captions in entries:
        row = {keys[0]: id_form.format(number), "split": split, keys[1]: captions, keys[2]: scene}
        if fmt == "rsicd_json":
            row["sentences"] = [{"raw": text} for text in captions]
        rows.append({key: value for key, value in row.items() if value is not None})
    if fmt == "jsonl":
        return write_jsonl(path, rows)
    path.write_text(json.dumps({"images": rows}, indent=1), encoding="utf-8")
    return path


@settings(max_examples=60, deadline=None)
@given(fmt=st.sampled_from(["jsonl", "rsicd_json"]), entries=_ENTRIES)
@example(fmt="rsicd_json", entries=[(1, "IMG{}", " Val ", " Port ", ["a sea."] * 5), (2, " Img{} ", 3, "", ["..."])])
def test_ingest_and_strict_validate_match_the_oracle(fmt, entries):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        captions = _write_captions(work / f"captions.{fmt}", fmt, entries)
        corpus = oracle_ingest(captions, fmt)
        assert run(["ingest", "--captions", str(captions), "--format", fmt, "--out", str(work / "out.jsonl")]) == 0
        assert (work / "out.jsonl").read_text(encoding="utf-8") == "".join(oracle_jsonl_lines(corpus))
        assert ingest_captions(work / "out.jsonl", "jsonl").records == corpus.records

        code = run(["validate", "--captions", str(captions), "--format", fmt, "--strict",
                    "--out", str(work / "report.json")])
        report = json.loads((work / "report.json").read_text(encoding="utf-8"))
        short = [record.image_id for record in corpus.records if len(record.texts) != 5]
        assert (code, report["strict"], report["finding_count"]) == (1 if short else 0, True, len(short))
        assert [finding["image_id"] for finding in report["findings"]] == short


# "..." and "!?" tokenize to nothing, and "zebra" is in no caption
_TERMS = st.lists(st.sampled_from([*_WORDS, "SEA", "trees.", "zebra", "...", "!?"]), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(["jsonl", "rsicd_json", "predictions"]), entries=_ENTRIES, predictions=_PREDICTIONS,
       terms=_TERMS)
# a record's captions are separate words: "a sea" then "beach" is never the token "seabeach"
@example(source="jsonl", entries=[(1, "img{}", "train", None, ["a sea", "beach trees."])], predictions={"i0": "a"},
         terms=["sea", "beach"])
@example(source="predictions", entries=[], predictions={"i0": "a sea", "i4": "Beach, a sea."}, terms=["...", "!?"])
def test_index_build_and_query_match_the_oracle(source, entries, predictions, terms):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if source == "predictions":
            path = write_jsonl(work / "preds.jsonl", [{"image_id": i, "caption": c} for i, c in predictions.items()])
            documents = oracle_ingest(path, "predictions").entries
            given_source = ["--predictions", str(path)]
        else:
            path = _write_captions(work / f"captions.{source}", source, entries)
            documents = {record.image_id: "\n".join(record.texts) for record in oracle_ingest(path, source).records}
            given_source = ["--captions", str(path), "--format", source]
        index = oracle_build_index(documents)
        assert run(["index", "build", *given_source, "--out", str(work / "index.json")]) == 0
        assert (work / "index.json").read_bytes() == oracle_index_bytes(index)

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["index", "query", "--index", str(work / "index.json"), *terms])
        if not oracle_tokens(" ".join(terms)):
            assert (code, out.getvalue()) == (2, "")
            assert err.getvalue() == "error: query is empty after tokenization\n"
            return
        assert code == 0
        assert out.getvalue() == "".join(f"{image_id}\n" for image_id in oracle_query(index, terms))
