import csv
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from captionkit.cli import run
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


def test_index_build_and_query(corpus_file, tmp_path, capsys):
    idx = tmp_path / "idx.json"
    assert run(["index", "build", "--captions", corpus_file, "--out", str(idx)]) == 0
    assert run(["index", "query", "--index", str(idx), "airport", "terminal"]) == 0
    assert capsys.readouterr().out.splitlines() == ["i1"]
    assert run(["index", "query", "--index", str(idx), "nonexistent"]) == 0
    assert capsys.readouterr().out == ""


def test_index_build_needs_input(capsys):
    assert run(["index", "build", "--out", "x.json"]) == 2


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


def test_backtranslate_workers_option(corpus_file, tmp_path, capsys):
    argv = ["augment", "backtranslate", "--captions", corpus_file, "--mock"]
    one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    assert run(argv + ["--out", str(one)]) == 0
    assert run(argv + ["--workers", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    capsys.readouterr()
    assert run(argv + ["--workers", "0"]) == 2
    assert "max_workers" in capsys.readouterr().err
    # --workers belongs to backtranslate alone
    assert run(["--workers", "2", "stats", "--captions", corpus_file]) == 2


SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _python(args, **kwargs):
    env = {**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60, **kwargs)


@pytest.mark.parametrize("module", ["captionkit", "captionkit.cli"])
def test_python_m_runs_cli(module):
    proc = _python(["-m", module, "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: captionkit")
    assert "score-confusion" in proc.stdout


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
