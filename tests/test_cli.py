import argparse
import contextlib
import csv
import io
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from captionkit import augment, tokens, vocabstats
from captionkit.cli import build_parser, run
from captionkit.exceptions import ValidationError
from conftest import write_jsonl


@pytest.fixture
def corpus_file(tmp_path):
    rows = [
        {"image_id": "i1", "captions": ["Many planes are parked in an airport.",
                                        "A c shape bulding is near the terminal."]},
        {"image_id": "i2", "captions": ["White waves crash on a yellow beach.",
                                        "White waves crash on a yellow beach."]},
    ]
    return str(write_jsonl(tmp_path / "corpus.jsonl", rows))


def _stdout_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_unknown_subcommand_exits_2(capsys):
    assert run(["definitely-not-a-command"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert run(["stats", "--captions", "x.jsonl", "--bogus"]) == 2


def test_missing_file_exits_2(capsys):
    assert run(["stats", "--captions", "/nonexistent/file.jsonl"]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    assert run(["stats", "--captions", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_ingest_rsicd_to_jsonl(data_dir, tmp_path, capsys):
    out = tmp_path / "flat.jsonl"
    code = run(["ingest", "--captions", str(data_dir / "rsicd_small.json"),
                "--format", "rsicd_json", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert json.loads(lines[0])["image_id"] == "airport_1.jpg"


def test_ingest_to_stdout(corpus_file, capsys):
    assert run(["ingest", "--captions", corpus_file]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2


def test_validate_lenient_ok(corpus_file, capsys):
    assert run(["validate", "--captions", corpus_file]) == 0
    payload = _stdout_json(capsys)
    assert payload["finding_count"] == 0


def test_validate_strict_findings_exit_1(corpus_file, capsys):
    assert run(["validate", "--captions", corpus_file, "--strict"]) == 1
    payload = _stdout_json(capsys)
    assert payload["finding_count"] == 2  # both records lack exactly 5 captions
    assert payload["findings"][0]["code"] == "caption-count"


def test_stats_json_and_csv(corpus_file, tmp_path, capsys):
    freq_csv = tmp_path / "freq.csv"
    code = run(["stats", "--captions", corpus_file, "--top-k", "3",
                "--freq-csv", str(freq_csv)])
    assert code == 0
    payload = _stdout_json(capsys)
    assert payload["total_captions"] == 4
    assert payload["duplicate_captions"] == 1
    assert payload["top_k"]["k"] == 3
    with open(freq_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "token", "count", "cumulative_fraction"]


def test_readability_single_json(corpus_file, capsys):
    assert run(["readability", "--captions", corpus_file]) == 0
    payload = _stdout_json(capsys)
    assert "fog_grade_level" in payload
    assert payload["words"] > 0


def test_readability_compare_table(corpus_file, tmp_path, capsys):
    other = write_jsonl(tmp_path / "other.jsonl",
                        [{"image_id": "z1", "captions": ["a simple beach"]}])
    assert run(["readability", "--captions", corpus_file, "--compare", str(other)]) == 0
    out = capsys.readouterr().out
    assert "Fog grade level" in out
    assert "Flesch-Kincaid level" in out
    assert corpus_file in out


PINNED_COMPARE_TABLE = """\
                         corpus.jsonl       3x5.jsonl
Characters                        119             478
Words                              29             110
Unique Words                       21              59
Complex Word %                   3.45            2.73
Avg. Syllables / Word            1.38            1.36
Sentences                           4              15
Avg. Words / Sentence            7.25            7.33
Fog grade level                  4.28            4.02
Flesch reading ease             82.79           84.03
Flesch-Kincaid level             3.51            3.36
"""

PINNED_SINGLE_TABLE = """\
                         corpus.jsonl
Characters                        119
Words                              29
Unique Words                       21
Complex Word %                   3.45
Avg. Syllables / Word            1.38
Sentences                           4
Avg. Words / Sentence            7.25
Fog grade level                  4.28
Flesch reading ease             82.79
Flesch-Kincaid level             3.51
"""

PINNED_COMPARE_JSON = """\
{
  "3x5.jsonl": {
    "avg_syllables_per_word": 1.3636363636363635,
    "avg_words_per_sentence": 7.333333333333333,
    "characters": 478,
    "complex_word_pct": 2.727272727272727,
    "flesch_kincaid_grade": 3.3609090909090895,
    "flesch_reading_ease": 84.02803030303033,
    "fog_grade_level": 4.024242424242424,
    "sentences": 15,
    "unique_words": 59,
    "words": 110
  },
  "corpus.jsonl": {
    "avg_syllables_per_word": 1.3793103448275863,
    "avg_words_per_sentence": 7.25,
    "characters": 119,
    "complex_word_pct": 3.4482758620689653,
    "flesch_kincaid_grade": 3.5133620689655203,
    "flesch_reading_ease": 82.78659482758623,
    "fog_grade_level": 4.279310344827586,
    "sentences": 4,
    "unique_words": 21,
    "words": 29
  }
}
"""


def test_readability_outputs_pinned(corpus_file, data_dir, tmp_path, monkeypatch, capsys):
    # relative paths, so the column headers and widths do not depend on tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "3x5.jsonl").write_bytes((data_dir / "captions_3x5.jsonl").read_bytes())
    assert run(["readability", "--captions", "corpus.jsonl", "--compare", "3x5.jsonl",
                "--out", "cmp.json"]) == 0
    assert capsys.readouterr().out == PINNED_COMPARE_TABLE
    assert (tmp_path / "cmp.json").read_bytes() == PINNED_COMPARE_JSON.encode()
    assert run(["readability", "--captions", "corpus.jsonl", "--table"]) == 0
    assert capsys.readouterr().out == PINNED_SINGLE_TABLE


def test_bleu_per_image_csv_pinned(data_dir, tmp_path, capsys):
    per_image = tmp_path / "per_image.csv"
    assert run(["bleu", "--predictions", str(data_dir / "predictions_3.jsonl"),
                "--references", str(data_dir / "captions_3x5.jsonl"),
                "--per-image", str(per_image)]) == 0
    assert per_image.read_bytes() == (
        b"image_id,bleu1,bleu2,bleu3,bleu4,p1,p2,p3,p4,bp,c,r\r\n"
        b"airport_1.jpg,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,7,7\r\n"
        b"beach_2.jpg,0.875,0.6123724356957945,0.0,0.0,0.875,0.42857142857142855,0.0,0.0,1.0,8,8\r\n"
        b"river_3.jpg,0.75,0.5669467095138409,0.0,0.0,0.75,0.42857142857142855,0.0,0.0,1.0,8,8\r\n"
    )


# Each command's outputs on the 3x5 fixture, compared byte for byte with the
# files of the same name under tests/data/pinned. Paths are relative to the
# working directory; {data} is the fixture directory.
PINNED_RUNS = {
    "stats": (["stats", "--captions", "{data}/captions_3x5.jsonl", "--top-k", "5",
               "--freq-csv", "freq.csv", "--out", "stats.json"],
              ["freq.csv", "stats.json"]),
    "index": (["index", "build", "--captions", "{data}/captions_3x5.jsonl", "--out", "index.json"],
              ["index.json"]),
    "score-confusion": (["score-confusion", "--predictions", "{data}/predictions_3.jsonl",
                         "--labels", "labels.jsonl", "--scenes", "{data}/scenes.tsv",
                         "--attributes", "{data}/attributes.txt", "--out", "confusion"],
                        ["confusion/attribute_table.csv", "confusion/report.json",
                         "confusion/scene_matrix.csv"]),
    "bleu": (["bleu", "--predictions", "{data}/predictions_3.jsonl",
              "--references", "{data}/captions_3x5.jsonl", "--out", "bleu.json"],
             ["bleu.json"]),
    "ingest": (["ingest", "--captions", "{data}/rsicd_small.json", "--format", "rsicd_json",
                "--out", "ingest.jsonl"],
               ["ingest.jsonl"]),
    "validate": (["validate", "--captions", "{data}/captions_3x5.jsonl", "--strict",
                  "--out", "validate.json"],
                 ["validate.json"]),
    "augment-correct": (["augment", "correct", "--captions", "{data}/captions_3x5.jsonl",
                         "--dictionary", "{data}/dictionary.txt",
                         "--merge-rules", "{data}/merges.tsv", "--prune-duplicates",
                         "--out", "corrected.jsonl"],
                        ["corrected.jsonl"]),
    "augment-synonym": (["augment", "synonym", "--captions", "{data}/captions_3x5.jsonl",
                         "--thesaurus", "{data}/thesaurus.tsv", "--seed", "7",
                         "--out", "synonym.jsonl"],
                        ["synonym.jsonl"]),
    "augment-backtranslate": (["augment", "backtranslate", "--captions",
                               "{data}/captions_3x5.jsonl", "--mock",
                               "--out", "backtranslated.jsonl"],
                              ["backtranslated.jsonl"]),
    "index-predictions": (["index", "build", "--predictions", "{data}/predictions_3.jsonl",
                           "--out", "index_predictions.json"],
                          ["index_predictions.json"]),
}


def _pinned_labels(work):
    write_jsonl(work / "labels.jsonl", [
        {"image_id": "airport_1.jpg", "scene": "airport"},
        {"image_id": "beach_2.jpg", "scene": "beach"},
        {"image_id": "river_3.jpg", "scene": "river"},
    ])


@pytest.mark.parametrize("command", PINNED_RUNS)
def test_outputs_pinned(command, data_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _pinned_labels(tmp_path)
    argv, outputs = PINNED_RUNS[command]
    assert run([arg.format(data=data_dir) for arg in argv]) == 0
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (data_dir / "pinned" / name).read_bytes(), name


def test_index_query_stdout_pinned(data_dir, capsys):
    index = str(data_dir / "pinned" / "index.json")
    printed = []
    for terms in (["green", "trees"], ["near"], ["Bridge"], ["sea", "river"]):
        assert run(["index", "query", "--index", index, *terms]) == 0
        printed.append(capsys.readouterr().out)
    assert printed == [
        "airport_1.jpg\nbeach_2.jpg\nriver_3.jpg\n",
        "airport_1.jpg\nriver_3.jpg\n",
        "river_3.jpg\n",
        "",
    ]


def _parser_structure(parser, path="captionkit"):
    """Describe ``parser`` and every parser below it, keyed by command path.

    Read from the parser objects rather than from ``--help``, whose layout
    differs between Python versions.
    """
    actions = []
    below = {}
    for action in parser._actions:
        entry = {
            "kind": type(action).__name__,
            "option_strings": action.option_strings,
            "dest": action.dest,
            "required": action.required,
            "default": action.default,
            "choices": action.choices,
            "nargs": action.nargs,
            "type": getattr(action.type, "__name__", action.type),
            "help": action.help,
        }
        if isinstance(action, argparse._SubParsersAction):
            entry["choices"] = {choice.dest: choice.help for choice in action._choices_actions}
            for name, subparser in action.choices.items():
                below.update(_parser_structure(subparser, f"{path} {name}"))
        actions.append(entry)
    exclusive = [{"options": [a.option_strings for a in group._group_actions],
                  "required": group.required}
                 for group in parser._mutually_exclusive_groups]
    return {path: {"description": parser.description, "actions": actions,
                   "exclusive": exclusive}, **below}


def test_parser_structure_pinned(data_dir):
    structure = json.loads(json.dumps(_parser_structure(build_parser())))
    pinned = json.loads((data_dir / "pinned" / "parser.json").read_text(encoding="utf-8"))
    assert len(structure) == 14
    assert list(structure) == list(pinned)
    for path in pinned:
        assert structure[path] == pinned[path], path


def test_rsicd_json_second_inputs(data_dir, tmp_path, capsys):
    # rsicd_small.json holds the same records as captions_3x5.jsonl
    rsicd = str(data_dir / "rsicd_small.json")
    assert run(["bleu", "--predictions", str(data_dir / "predictions_3.jsonl"),
                "--references", rsicd, "--references-format", "rsicd_json",
                "--out", str(tmp_path / "bleu.json")]) == 0
    assert (tmp_path / "bleu.json").read_bytes() == (data_dir / "pinned" / "bleu.json").read_bytes()
    argv = ["readability", "--captions", str(data_dir / "captions_3x5.jsonl"), "--compare", rsicd]
    assert run(argv + ["--compare-format", "rsicd_json", "--out", str(tmp_path / "cmp.json")]) == 0
    first, second = json.loads((tmp_path / "cmp.json").read_text()).values()
    assert first == second
    capsys.readouterr()
    assert run(argv) == 2  # read as jsonl, the rsicd file does not parse
    assert rsicd in capsys.readouterr().err


def test_bleu_cli(tmp_path, corpus_file, capsys):
    preds = write_jsonl(tmp_path / "preds.jsonl", [
        {"image_id": "i1", "caption": "Many planes are parked in an airport."},
        {"image_id": "i2", "caption": "waves on a beach"},
    ])
    per_image = tmp_path / "per_image.csv"
    code = run(["bleu", "--predictions", str(preds), "--references", corpus_file,
                "--per-image", str(per_image)])
    assert code == 0
    payload = _stdout_json(capsys)
    assert set(payload) == {"bleu1", "bleu2", "bleu3", "bleu4",
                            "p1", "p2", "p3", "p4", "bp", "c", "r"}
    with open(per_image, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert rows[1][0] == "i1"
    assert float(rows[1][1]) == 1.0  # identity candidate


def test_augment_correct_cli(corpus_file, data_dir, tmp_path, capsys):
    out = tmp_path / "corrected.jsonl"
    code = run(["augment", "correct", "--captions", corpus_file,
                "--dictionary", str(data_dir / "dictionary.txt"),
                "--merge-rules", str(data_dir / "merges.tsv"),
                "--prune-duplicates", "--out", str(out)])
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().strip().split("\n")]
    texts = [cap for row in lines for cap in row["captions"]]
    assert "a c-shaped building is near the terminal" in texts
    assert len(texts) == 3  # the duplicate beach caption was pruned


def test_augment_synonym_requires_seed(corpus_file, capsys):
    assert run(["augment", "synonym", "--captions", corpus_file,
                "--thesaurus", "whatever.tsv"]) == 2


def test_augment_synonym_cli(corpus_file, data_dir, tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    argv = ["augment", "synonym", "--captions", corpus_file,
            "--thesaurus", str(data_dir / "thesaurus.tsv"), "--seed", "7"]
    assert run(argv + ["--out", str(out_a)]) == 0
    assert run(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_augment_backtranslate_requires_endpoint_or_mock(corpus_file, capsys):
    assert run(["augment", "backtranslate", "--captions", corpus_file]) == 2


@pytest.mark.parametrize("argv", [
    ["augment", "correct", "--dictionary", "no-dictionary.txt"],
    ["augment", "synonym", "--thesaurus", "no-thesaurus.tsv", "--seed", "1"],
    ["augment", "backtranslate"],  # neither --endpoint nor --mock
])
def test_augment_reads_the_corpus_first(argv, tmp_path, capsys):
    missing = str(tmp_path / "no-corpus.jsonl")
    assert run([*argv, "--captions", missing]) == 2
    assert missing in capsys.readouterr().err


def test_augment_backtranslate_mock(corpus_file, tmp_path):
    out = tmp_path / "bt.jsonl"
    code = run(["augment", "backtranslate", "--captions", corpus_file,
                "--mock", "--chain", "es,de,fr", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_score_confusion_cli(tmp_path, capsys):
    preds = write_jsonl(tmp_path / "p.jsonl", [
        {"image_id": "n1", "caption": "many planes parked at an airport"},
        {"image_id": "n2", "caption": "white waves on a beach"},
    ])
    labels = write_jsonl(tmp_path / "l.jsonl", [
        {"image_id": "n1", "scene": "airport", "objects": []},
        {"image_id": "n2", "scene": "beach", "objects": []},
    ])
    out_dir = tmp_path / "report"
    code = run(["score-confusion", "--predictions", str(preds), "--labels", str(labels),
                "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "scene_matrix.csv").exists()
    assert (out_dir / "attribute_table.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["diagonal_accuracy"] == 1.0

    # without --out the JSON lands on stdout
    assert run(["score-confusion", "--predictions", str(preds), "--labels", str(labels)]) == 0
    assert _stdout_json(capsys)["diagonal_accuracy"] == 1.0


def test_score_confusion_names_a_label_scene_the_scenes_file_lacks(data_dir, tmp_path, capsys):
    labels = data_dir / "labels_8scenes.jsonl"  # its first label, n1, is an airport
    scenes = tmp_path / "scenes.tsv"
    scenes.write_text("beach\tbeach,coast\n", encoding="utf-8")
    assert run(["score-confusion", "--predictions", str(data_dir / "predictions_3.jsonl"),
                "--labels", str(labels), "--scenes", str(scenes)]) == 2
    assert capsys.readouterr().err == (
        f"error: {labels}: image 'n1': no keyword set configured for scene 'airport' in {scenes}\n"
    )


def test_score_confusion_names_the_labels_file_of_a_scene_that_cannot_trigger_itself(tmp_path, capsys):
    preds = write_jsonl(tmp_path / "p.jsonl", [{"image_id": "n1", "caption": "cars in a parking lot"}])
    labels = write_jsonl(tmp_path / "l.jsonl", [{"image_id": "n1", "scene": "parking lot"}])
    assert run(["score-confusion", "--predictions", str(preds), "--labels", str(labels)]) == 2
    assert capsys.readouterr().err == (
        f"error: {labels}: scene trigger or attribute must be one lower-case token as the tokenizer "
        "reads it, got 'parking lot'\n"
    )


def test_score_confusion_no_plural_fold(tmp_path, capsys):
    preds = write_jsonl(tmp_path / "p.jsonl", [{"image_id": "n1", "caption": "two airports"}])
    labels = write_jsonl(tmp_path / "l.jsonl", [{"image_id": "n1", "scene": "airport"}])
    argv = ["score-confusion", "--predictions", str(preds), "--labels", str(labels)]
    assert run(argv) == 0
    assert _stdout_json(capsys)["matrix"] == {"airport": {"airport": 1}}
    assert run(argv + ["--no-plural-fold"]) == 0
    assert _stdout_json(capsys)["matrix"] == {"airport": {"airport": 0}}


def test_score_confusion_repeated_attribute_one_row(tmp_path):
    preds = write_jsonl(tmp_path / "p.jsonl", [{"image_id": "n1", "caption": "white waves"}])
    labels = write_jsonl(tmp_path / "l.jsonl", [{"image_id": "n1", "scene": "beach"}])
    attributes = tmp_path / "attributes.txt"
    attributes.write_text("white\nwaves\nwhite\n", encoding="utf-8")
    out_dir = tmp_path / "report"
    assert run(["score-confusion", "--predictions", str(preds), "--labels", str(labels),
                "--attributes", str(attributes), "--out", str(out_dir)]) == 0
    with open(out_dir / "attribute_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["attribute\\true_scene", "beach"], ["white", "1"], ["waves", "1"]]


# Runs score-confusion on argv[1:] in this interpreter; prints the exit code and
# whether the run imported logging.
CONFUSION_LOGGING = """
import json, sys
from captionkit.cli import run
code = run(["score-confusion", *sys.argv[1:]])
print(json.dumps([code, "logging" in sys.modules]))
"""


def test_score_confusion_prints_its_own_skip_warning(tmp_path):
    preds = write_jsonl(tmp_path / "p.jsonl", [{"image_id": "n1", "caption": "two planes"}])
    labels = write_jsonl(tmp_path / "l.jsonl", [
        {"image_id": "n1", "scene": "airport"},
        {"image_id": "n2", "scene": "beach"},
    ])
    # a fresh interpreter, where no logging handler adds or hides a line
    proc = _python(["-c", CONFUSION_LOGGING, "--predictions", str(preds), "--labels", str(labels)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, False]
    assert proc.stderr == "warning: 1 labeled images have no prediction; skipped\n"


def test_index_build_and_query(corpus_file, tmp_path, capsys):
    idx = tmp_path / "idx.json"
    assert run(["index", "build", "--captions", corpus_file, "--out", str(idx)]) == 0
    assert run(["index", "query", "--index", str(idx), "airport", "terminal"]) == 0
    assert capsys.readouterr().out.splitlines() == ["i1"]
    assert run(["index", "query", "--index", str(idx), "nonexistent"]) == 0
    assert capsys.readouterr().out == ""


def test_index_build_needs_input(capsys):
    assert run(["index", "build", "--out", "x.json"]) == 2


def test_index_build_rejects_both_inputs(corpus_file, data_dir, tmp_path, capsys):
    idx = tmp_path / "idx.json"
    assert run(["index", "build", "--captions", corpus_file, "--predictions",
                str(data_dir / "predictions_3.jsonl"), "--out", str(idx)]) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not idx.exists()


def test_backtranslate_negative_retries_exits_2(corpus_file, capsys):
    assert run(["augment", "backtranslate", "--captions", corpus_file, "--mock",
                "--retries", "-1"]) == 2
    assert "max_retries" in capsys.readouterr().err


def test_help_names_schema(capsys):
    subcommands = (
        ["ingest", "--help"],
        ["validate", "--help"],
        ["stats", "--help"],
        ["readability", "--help"],
        ["bleu", "--help"],
        ["augment", "correct", "--help"],
        ["augment", "synonym", "--help"],
        ["augment", "backtranslate", "--help"],
        ["score-confusion", "--help"],
        ["index", "build", "--help"],
    )
    for argv in subcommands:
        assert run(argv) == 0
        assert "image_id" in capsys.readouterr().out, argv
    assert run(["index", "query", "--help"]) == 0
    assert "index" in capsys.readouterr().out


def test_bad_top_k_exits_2(corpus_file, capsys):
    assert run(["stats", "--captions", corpus_file, "--top-k", "0"]) == 2
    assert "k must be >= 1" in capsys.readouterr().err


def test_bad_replacements_exits_2(corpus_file, data_dir, capsys):
    assert run(["augment", "synonym", "--captions", corpus_file,
                "--thesaurus", str(data_dir / "thesaurus.tsv"),
                "--seed", "1", "--replacements", "0"]) == 2


def test_merge_rules_alias(corpus_file, data_dir, tmp_path):
    out = tmp_path / "corrected.jsonl"
    code = run(["augment", "correct", "--captions", corpus_file,
                "--dictionary", str(data_dir / "dictionary.txt"),
                "--rules", str(data_dir / "merges.tsv"), "--out", str(out)])
    assert code == 0
    assert "c-shaped" in out.read_text()


def test_pipeline_byte_identical(tmp_path, data_dir, capsys):
    src = str(data_dir / "captions_3x5.jsonl")
    outputs = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        corrected = base / "corrected.jsonl"
        expanded = base / "expanded.jsonl"
        assert run(["augment", "correct", "--captions", src,
                    "--dictionary", str(data_dir / "dictionary.txt"),
                    "--merge-rules", str(data_dir / "merges.tsv"),
                    "--prune-duplicates", "--out", str(corrected)]) == 0
        assert run(["augment", "synonym", "--captions", str(corrected),
                    "--thesaurus", str(data_dir / "thesaurus.tsv"),
                    "--seed", "7", "--out", str(expanded)]) == 0
        stats_out = base / "stats.json"
        read_out = base / "readability.json"
        assert run(["stats", "--captions", str(expanded), "--out", str(stats_out)]) == 0
        assert run(["readability", "--captions", str(expanded), "--out", str(read_out)]) == 0
        outputs.append((corrected.read_bytes(), expanded.read_bytes(),
                        stats_out.read_bytes(), read_out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_bleu_skips_predictions_without_tokens(tmp_path, corpus_file, capsys):
    preds = write_jsonl(tmp_path / "preds.jsonl", [
        {"image_id": "i1", "caption": "..."},
        {"image_id": "i2", "caption": "waves on a beach"},
        {"image_id": "ghost", "caption": "a plane"},
    ])
    per_image = tmp_path / "per_image.csv"
    code = run(["bleu", "--predictions", str(preds), "--references", corpus_file,
                "--per-image", str(per_image)])
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["c"] == 4
    assert "2 predictions skipped" in captured.err
    with open(per_image, newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["image_id", "i2"]
    # a fresh interpreter, where no logging handler hides a second warning
    proc = _python(["-m", "captionkit", "bleu", "--predictions", str(preds),
                    "--references", corpus_file])
    assert proc.returncode == 0, proc.stderr
    assert len([line for line in proc.stderr.splitlines() if "skipped" in line]) == 1, proc.stderr


def test_bleu_that_scores_nothing_exits_2(tmp_path, corpus_file, capsys):
    preds = write_jsonl(tmp_path / "preds.jsonl", [
        {"image_id": "ghost", "caption": "a plane"},
        {"image_id": "i1", "caption": "..."},
    ])
    per_image = tmp_path / "per_image.csv"
    code = run(["bleu", "--predictions", str(preds), "--references", corpus_file,
                "--per-image", str(per_image)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no prediction could be scored: 1 ids missing" in captured.err
    assert not per_image.exists()


def test_empty_corpus_stats_error_names_the_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert run(["stats", "--captions", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: cannot profile an empty corpus\n"


def test_wordless_corpus_readability_error_names_the_file(tmp_path, corpus_file, capsys):
    dots = write_jsonl(tmp_path / "dots.jsonl", [{"image_id": "i1", "captions": ["..."]}])
    message = f"error: {dots}: corpus has no words or no sentences\n"
    assert run(["readability", "--captions", str(dots)]) == 2
    assert capsys.readouterr().err == message
    assert run(["readability", "--captions", corpus_file, "--compare", str(dots)]) == 2
    assert capsys.readouterr().err == message


def test_bleu_that_scores_nothing_names_the_predictions(tmp_path, corpus_file, capsys):
    preds = write_jsonl(tmp_path / "preds.jsonl", [{"image_id": "ghost", "caption": "a plane"}])
    assert run(["bleu", "--predictions", str(preds), "--references", corpus_file]) == 2
    assert capsys.readouterr().err.startswith(f"error: {preds}: no prediction could be scored: ")


# One faulty or empty file per input option: the option, the subcommand it is
# given to (the other inputs are fixtures), and the file's bytes.
INPUT_FILE_FAULTS = {
    "captions": (["stats"], b"{broken\n"),
    "compare": (["readability", "--captions", "{data}/captions_3x5.jsonl"], b""),
    "references": (["bleu", "--predictions", "{data}/predictions_3.jsonl"], b"[1]\n"),
    "predictions": (["bleu", "--references", "{data}/captions_3x5.jsonl"], b""),
    "labels": (["score-confusion", "--predictions", "{data}/predictions_3.jsonl"], b'{"image_id": "n1"}\n'),
    "scenes": (["score-confusion", "--predictions", "{data}/predictions_3.jsonl",
                "--labels", "{data}/labels_8scenes.jsonl"], b"beach\n"),
    "attributes": (["score-confusion", "--predictions", "{data}/predictions_3.jsonl",
                    "--labels", "{data}/labels_8scenes.jsonl"], b"two words\n"),
    "dictionary": (["augment", "correct", "--captions", "{data}/captions_3x5.jsonl"], b""),
    "merge-rules": (["augment", "correct", "--captions", "{data}/captions_3x5.jsonl",
                     "--dictionary", "{data}/dictionary.txt"], b"ab\tx\n"),
    "overrides": (["augment", "correct", "--captions", "{data}/captions_3x5.jsonl",
                   "--dictionary", "{data}/dictionary.txt"], b"a\tb\tc\n"),
    "thesaurus": (["augment", "synonym", "--captions", "{data}/captions_3x5.jsonl", "--seed", "1"], b""),
    "index": (["index", "query", "beach"], b"{}\n"),
}


@pytest.mark.parametrize("option", INPUT_FILE_FAULTS)
def test_an_input_file_fault_names_that_file(option, data_dir, tmp_path, capsys):
    argv, content = INPUT_FILE_FAULTS[option]
    bad = tmp_path / f"bad-{option}"
    bad.write_bytes(content)
    assert run([*(arg.format(data=data_dir) for arg in argv), f"--{option}", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: "), captured.err
    assert captured.err.count("\n") == 1


# One reader per case: the option, the subcommand it is given to, and the file's bytes (None: no file).
GIVEN_PATH_FAULTS = {
    "captions-jsonl": (["stats", "--captions"], b'{"image_id": "a", "captions": ["x"]}\n{broken\n'),
    "captions-rsicd": (["stats", "--format", "rsicd_json", "--captions"], b'{"images": [{"filename": "a"}]}'),
    "labels": (["score-confusion", "--predictions", "{data}/predictions_3.jsonl", "--labels"], b'{"image_id": 1}\n'),
    "predictions": (["bleu", "--references", "{data}/captions_3x5.jsonl", "--predictions"], b"[1]\n"),
    "index": (["index", "query", "beach", "--index"], b'{"version": 2, "doc_count": 0, "postings": {}}\n'),
    "captions-missing": (["stats", "--captions"], None),
}


@pytest.mark.parametrize("case", GIVEN_PATH_FAULTS)
def test_each_reader_names_its_file_as_given(case, data_dir, tmp_path, capsys):
    argv, content = GIVEN_PATH_FAULTS[case]
    given = f"{tmp_path}//{case}"  # a spelling pathlib would rewrite
    if content is not None:
        Path(given).write_bytes(content)
    assert run([*(arg.format(data=data_dir) for arg in argv), given]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {given}: "), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["augment", "synonym", "--thesaurus", "{data}/thesaurus.tsv", "--seed", "1", "--replacements", "0"],
    ["stats", "--top-k", "0"],
    ["augment", "backtranslate", "--mock", "--workers", "0"],
    ["augment", "backtranslate", "--mock", "--retries", "-1"],
    ["augment", "backtranslate"],
    ["augment", "backtranslate", "--mock", "--retries", "11"],
])
def test_an_option_fault_names_no_input_file(argv, data_dir, capsys):
    argv = [arg.format(data=data_dir) for arg in argv] + ["--captions", str(data_dir / "captions_3x5.jsonl")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(data_dir) not in err, err


@pytest.mark.parametrize("argv", [
    ["ingest"],
    ["validate"],
    ["stats"],
    ["stats", "--freq-csv", "{tmp}/freq.csv"],
    ["readability"],
    ["index", "build", "--out", "{tmp}/index.json"],
])
def test_every_subcommand_refuses_a_surrogate_escape(tmp_path, argv, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"image_id": "a", "captions": ["x"]}\n{"image_id": "b", "captions": ["a be\\ud800ach"]}\n')
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run([*argv, "--captions", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 2: not UTF-8 (surrogates not allowed)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def test_stdout_that_cannot_encode_the_output_exits_2(tmp_path, capsys):
    cafe = write_jsonl(tmp_path / "cafe.jsonl", [{"image_id": "a", "captions": ["a café by the sea"]}])
    ascii_out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    with contextlib.redirect_stdout(ascii_out):
        assert run(["ingest", "--captions", str(cafe)]) == 2
    assert capsys.readouterr().err.startswith("error: 'ascii' codec can't encode character '\\xe9'")


def test_a_bug_inside_a_stage_is_not_reported_as_bad_input(corpus_file, monkeypatch):
    def broken(corpus):
        raise ValueError("a bug, not an input fault")

    monkeypatch.setattr(vocabstats, "profile", broken)
    with pytest.raises(ValueError, match="a bug, not an input fault"):
        run(["stats", "--captions", corpus_file])


@pytest.mark.parametrize("strategy, stage, rules", [
    ("correct", "correct", ["--dictionary", "{data}/dictionary.txt"]),
    ("synonym", "synonym_expand", ["--thesaurus", "{data}/thesaurus.tsv", "--seed", "1"]),
], ids=["correct", "synonym"])
def test_a_fault_inside_a_strategy_names_no_rule_file(strategy, stage, rules, corpus_file, data_dir,
                                                      monkeypatch, capsys):
    def faulty(*args, **kwargs):
        raise ValidationError("record x: boom")

    monkeypatch.setattr(augment, stage, faulty)
    argv = ["augment", strategy, "--captions", corpus_file, *(arg.format(data=data_dir) for arg in rules)]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: record x: boom\n"


def test_an_empty_thesaurus_is_reported_before_the_replacement_count(corpus_file, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    argv = ["augment", "synonym", "--captions", corpus_file, "--thesaurus", str(empty),
            "--seed", "1", "--replacements", "0"]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {empty}: thesaurus is empty\n"


class _CountedPattern:
    """A compiled pattern that counts every use of it."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.pattern, name)


@pytest.mark.parametrize("non_ascii_captions", [0, 1])
def test_only_non_ascii_text_reaches_the_token_regex(tmp_path, data_dir, monkeypatch, capsys,
                                                     non_ascii_captions):
    rows = [json.loads(line) for line in (data_dir / "captions_3x5.jsonl").read_text().splitlines()]
    if non_ascii_captions:
        rows[2]["captions"][0] = "A bridge crosses the wide river\u2026"
    captions = str(write_jsonl(tmp_path / "captions.jsonl", rows))
    predictions = str(data_dir / "predictions_3.jsonl")
    pattern = tokens._TOKEN
    for argv in (
        ["stats", "--captions", captions],
        ["readability", "--captions", captions],
        ["bleu", "--predictions", predictions, "--references", captions],
        ["index", "build", "--captions", captions, "--out", str(tmp_path / "index.json")],
    ):
        counted = _CountedPattern(pattern)
        monkeypatch.setattr(tokens, "_TOKEN", counted)
        assert run(argv) == 0, capsys.readouterr().err
        assert counted.calls == non_ascii_captions, argv


def test_backtranslate_workers_option(corpus_file, tmp_path, capsys):
    argv = ["augment", "backtranslate", "--captions", corpus_file, "--mock"]
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    assert run(argv + ["--out", str(one)]) == 0
    assert run(argv + ["--workers", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    capsys.readouterr()
    assert run(argv + ["--workers", "0"]) == 2
    assert "error: concurrency must be >= 1, got 0" in capsys.readouterr().err
    # --workers belongs to backtranslate alone
    assert run(["--workers", "2", "stats", "--captions", corpus_file]) == 2


def test_backtranslate_workers_above_the_limit_exit_2(corpus_file, capsys):
    argv = ["augment", "backtranslate", "--captions", corpus_file, "--mock", "--workers", "65"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: concurrency must be <= 64, got 65\n"


SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _python(args, input=None, cwd=None, **env):
    env = {**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONDONTWRITEBYTECODE": "1", **env}
    return subprocess.run([sys.executable, *args], input=input, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.mark.parametrize("module", ["captionkit", "captionkit.cli"])
def test_python_m_runs_cli(module):
    proc = _python(["-m", module, "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: captionkit")
    assert "score-confusion" in proc.stdout


# Runs each argv list read as JSON from stdin through cli.run; prints the exit codes.
RUN_ALL = """
import json, sys
from captionkit.cli import run
print(json.dumps([run(argv) for argv in json.load(sys.stdin)]))
"""


def test_outputs_pinned_under_any_hash_seed(data_dir, tmp_path):
    runs = [[arg.format(data=data_dir) for arg in argv] for argv, _ in PINNED_RUNS.values()]
    names = [name for _, outputs in PINNED_RUNS.values() for name in outputs]
    seen = []
    for hash_seed in ("1", "4242"):
        work = tmp_path / hash_seed
        work.mkdir()
        _pinned_labels(work)
        proc = _python(["-c", RUN_ALL], input=json.dumps(runs), cwd=work, PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0] * len(runs), proc.stderr
        seen.append({name: (work / name).read_bytes() for name in names})
    assert seen[0] == seen[1]
    assert seen[0] == {name: (data_dir / "pinned" / name).read_bytes() for name in names}


# Lists which of the HTTP and pool modules are loaded after building the CLI
# parser, and after building an HttpTranslator.
LOADED_MODULES = """
import json, sys
names = ("requests", "urllib3", "concurrent.futures")
loaded = lambda: [name for name in names if name in sys.modules]
import captionkit.cli
captionkit.cli.build_parser()
before = loaded()
captionkit.HttpTranslator("http://127.0.0.1:1/translate")
print(json.dumps([before, loaded()]))
"""


def test_translation_stack_loads_only_with_a_translator():
    proc = _python(["-c", LOADED_MODULES])
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert before == []
    assert "requests" in after


# Lists the captionkit modules loaded, and whether logging, dataclasses and
# inspect are, after building the CLI parser and after each run of the argv
# lists in the JSON array argv[1], with each run's exit code; the last line.
LOADED_STAGES = """
import json, sys
from captionkit.cli import build_parser, run
watched = ("logging", "dataclasses", "inspect")
loaded = lambda: sorted(name for name in sys.modules if name.startswith("captionkit") or name in watched)
build_parser()
steps = [[0, loaded()]]
for argv in json.loads(sys.argv[1]):
    steps.append([run(argv), loaded()])
print(json.dumps(steps))
"""


def test_a_run_loads_only_the_modules_of_its_subcommand(data_dir, tmp_path):
    captions, predictions = str(data_dir / "captions_3x5.jsonl"), str(data_dir / "predictions_3.jsonl")
    labels = write_jsonl(tmp_path / "labels.jsonl", [{"image_id": "beach_2.jpg", "scene": "beach"}])
    index = str(tmp_path / "index.json")
    runs = [
        ["stats", "--captions", captions, "--out", str(tmp_path / "stats.json")],
        ["readability", "--captions", captions, "--out", str(tmp_path / "readability.json")],
        ["bleu", "--predictions", predictions, "--references", captions, "--out", str(tmp_path / "bleu.json")],
        ["score-confusion", "--predictions", predictions, "--labels", str(labels),
         "--out", str(tmp_path / "confusion")],
        ["index", "build", "--captions", captions, "--out", index],
        ["index", "query", "--index", index, "beach"],
        ["augment", "correct", "--captions", captions, "--dictionary", str(data_dir / "dictionary.txt"),
         "--out", str(tmp_path / "corrected.jsonl")],
        ["augment", "synonym", "--captions", captions, "--thesaurus", str(data_dir / "thesaurus.tsv"),
         "--seed", "7", "--out", str(tmp_path / "synonym.jsonl")],
        ["augment", "backtranslate", "--captions", captions, "--mock", "--out", str(tmp_path / "back.jsonl")],
    ]
    proc = _python(["-c", LOADED_STAGES, json.dumps(runs)])
    assert proc.returncode == 0, proc.stderr
    (_, before), (code, after), *later = json.loads(proc.stdout.splitlines()[-1])
    assert before == ["captionkit", "captionkit.cli", "captionkit.corpus", "captionkit.exceptions"]
    assert code == 0
    assert {"captionkit.vocabstats", "captionkit.tokens"} <= set(after)
    assert not {"captionkit.bleu", "captionkit.augment", "captionkit.translate", "logging"} & set(after)
    assert [code for code, _ in later] == [0] * len(later)
    for _, names in [(0, before), (code, after), *later]:
        assert not {"dataclasses", "inspect"} & set(names)


# Runs the CLI with a file-size limit: a write past it fails with EFBIG, as
# on a full disk. Python already ignores SIGXFSZ; the call makes that explicit.
LIMITED_CLI = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
from captionkit.cli import run
sys.exit(run(sys.argv[2:]))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="needs the POSIX resource module")
@pytest.mark.parametrize("command, out_flag", [
    (["ingest"], "--out"),
    (["stats"], "--freq-csv"),
])
def test_failed_write_keeps_earlier_output(tmp_path, command, out_flag):
    rows = [{"image_id": f"img{i}", "captions": [f"caption number {i} of a long river"] * 3}
            for i in range(40)]
    corpus = write_jsonl(tmp_path / "corpus.jsonl", rows)
    out = tmp_path / "out" / "result"
    out.parent.mkdir()
    argv = [*command, "--captions", str(corpus), out_flag, str(out)]
    mask = os.umask(0o022)
    os.umask(mask)

    first = _python(["-c", LIMITED_CLI, str(1 << 30), *argv])
    assert first.returncode == 0, first.stderr
    earlier = out.read_bytes()
    assert len(earlier) > 200
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~mask

    failed = _python(["-c", LIMITED_CLI, "200", *argv])
    assert failed.returncode == 2
    assert "error" in failed.stderr
    assert out.read_bytes() == earlier
    assert sorted(p.name for p in out.parent.iterdir()) == ["result"]

    out.chmod(0o640)
    again = _python(["-c", LIMITED_CLI, str(1 << 30), *argv])
    assert again.returncode == 0, again.stderr
    assert out.read_bytes() == earlier
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert sorted(p.name for p in out.parent.iterdir()) == ["result"]


@pytest.mark.skipif(sys.platform == "win32", reason="needs the POSIX resource module")
@pytest.mark.parametrize("fault", ["report-past-the-size-limit", "report-a-directory"])
def test_a_failed_confusion_export_keeps_every_earlier_file(data_dir, tmp_path, fault):
    labels = write_jsonl(tmp_path / "labels.jsonl", [{"image_id": "airport_1.jpg", "scene": "airport"},
                                                     {"image_id": "beach_2.jpg", "scene": "beach"},
                                                     {"image_id": "river_3.jpg", "scene": "river"}])
    changed = write_jsonl(tmp_path / "changed.jsonl", [{"image_id": "airport_1.jpg", "caption": "planes near a beach"}])
    out = tmp_path / "confusion"
    names = ["attribute_table.csv", "report.json", "scene_matrix.csv"]

    def argv(predictions):
        return ["score-confusion", "--predictions", str(predictions), "--labels", str(labels),
                "--attributes", str(data_dir / "attributes.txt"), "--out", str(out)]

    first = _python(["-c", LIMITED_CLI, str(1 << 30), *argv(data_dir / "predictions_3.jsonl")])
    assert first.returncode == 0, first.stderr
    earlier = {name: (out / name).read_bytes() for name in names}
    if fault == "report-a-directory":
        (out / "report.json").unlink()
        (out / "report.json").mkdir()
        del earlier["report.json"]
    limit = 400 if fault == "report-past-the-size-limit" else 1 << 30  # 400: each table fits, the report not
    failed = _python(["-c", LIMITED_CLI, str(limit), *argv(changed)])
    assert failed.returncode == 2
    assert str(out / "report.json") in failed.stderr
    assert sorted(p.name for p in out.iterdir()) == names  # no temp file is left
    assert {name: (out / name).read_bytes() for name in earlier} == earlier

    if fault == "report-a-directory":
        (out / "report.json").rmdir()
    again = _python(["-c", LIMITED_CLI, str(1 << 30), *argv(changed)])
    assert again.returncode == 0, again.stderr
    assert (out / "scene_matrix.csv").read_bytes() != earlier["scene_matrix.csv"]


@pytest.mark.skipif(sys.platform == "win32", reason="needs the POSIX resource module")
@pytest.mark.parametrize("argv, limit, expected", [
    (["stats", "--captions", "nope.jsonl"], 1 << 30, "nope.jsonl: No such file or directory"),
    (["stats", "--captions", "corpus.jsonl", "--out", "nodir/x.json"], 1 << 30,
     "nodir/x.json: No such file or directory"),
    (["stats", "--captions", "corpus.jsonl", "--freq-csv", "f.csv", "--out", "s.json"], 200,
     "f.csv: File too large"),
], ids=["missing-input", "missing-out-dir", "write-past-limit"])
def test_a_file_system_fault_names_the_given_path(tmp_path, argv, limit, expected):
    rows = [{"image_id": f"img{i}", "captions": [f"caption number {i} of a long river"]} for i in range(40)]
    write_jsonl(tmp_path / "corpus.jsonl", rows)
    proc = _python(["-c", LIMITED_CLI, str(limit), *argv], cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {expected}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


def test_output_through_symlink_and_into_pipe(corpus_file, tmp_path):
    real = tmp_path / "real.json"
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert run(["validate", "--captions", corpus_file, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(real.read_text())["finding_count"] == 0

    # a pipe (like /dev/stdout) cannot be renamed over, so it is written in place
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run(["ingest", "--captions", corpus_file, "--out", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received[0].count(b"\n") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "fifo", "link.json", "real.json"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout and /dev/stderr")
@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_output_into_redirected_standard_stream_keeps_the_file(corpus_file, tmp_path, stream):
    expected = tmp_path / "expected.jsonl"
    assert run(["ingest", "--captions", corpus_file, "--out", str(expected)]) == 0
    # the shell's `{ echo HEADER; captionkit ... --out /dev/stdout; echo TRAILER; } > f`
    target = tmp_path / "f"
    with open(target, "w", encoding="utf-8") as fh:
        fh.write("HEADER\n")
        fh.flush()
        argv = ["ingest", "--captions", corpus_file, "--out", f"/dev/{stream}"]
        env = {**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-m", "captionkit", *argv], env=env, timeout=60, **{stream: fh})
        fh.write("TRAILER\n")
    assert proc.returncode == 0
    ingested = expected.read_text(encoding="utf-8")
    assert target.read_text(encoding="utf-8") == f"HEADER\n{ingested}TRAILER\n"


def test_output_into_symlink_loop_exits_2(corpus_file, tmp_path, capsys):
    loop = tmp_path / "a"
    loop.symlink_to(tmp_path / "b")
    (tmp_path / "b").symlink_to(loop)
    assert run(["ingest", "--captions", corpus_file, "--out", str(loop)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(loop) in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "corpus.jsonl"]
