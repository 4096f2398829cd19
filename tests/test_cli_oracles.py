"""CLI subcommands against the oracles on random input files, run through ``cli.run``.

So far ``bleu``: its report, its per-image CSV and its skip warning, which hold handler logic (the
skip count, the row layout) that the library-level BLEU tests never reach.
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
from conftest import write_jsonl
from oracles import oracle_bleu, oracle_tokens

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
