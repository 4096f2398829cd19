import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import captionkit

# The public names are part of the contract: removing or renaming one is a
# breaking change and must show up here.
PUBLIC_NAMES = [
    "BleuResult",
    "Caption",
    "CaptionSource",
    "ConfusionReport",
    "Corpus",
    "CorrectionRules",
    "HttpTranslator",
    "ImageRecord",
    "InvertedIndex",
    "LabelRecord",
    "MockTranslator",
    "PredictionSet",
    "ReadabilityReport",
    "Split",
    "Thesaurus",
    "TokenizedSentence",
    "TranslationChain",
    "VocabularyProfile",
    "attribute_table",
    "back_translate",
    "bleu_score",
    "build_index",
    "correct",
    "count_syllables",
    "frequency_export",
    "hapax_ratio",
    "ingest_captions",
    "ingest_labels",
    "ingest_predictions",
    "load_index",
    "matrix_export",
    "modified_precision",
    "ngram_counts",
    "profile",
    "query",
    "report",
    "report_from_aggregates",
    "save_index",
    "scene_matrix",
    "sentence_bleu",
    "split_sentences",
    "synonym_expand",
    "tokenize",
    "top_k_coverage",
    "validate",
    "write_captions_jsonl",
]


def test_all_is_pinned():
    assert sorted(captionkit.__all__) == PUBLIC_NAMES
    assert len(set(captionkit.__all__)) == len(captionkit.__all__)


def test_every_public_name_resolves():
    for name in captionkit.__all__:
        assert getattr(captionkit, name) is not None, name


def test_every_public_name_is_the_object_its_module_defines():
    for name in captionkit.__all__:
        obj = getattr(captionkit, name)
        assert obj.__module__.startswith("captionkit."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from captionkit import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(captionkit))
    assert not hasattr(captionkit, "no_such_name")


# After `import captionkit` alone, no stage module is loaded, and a submodule
# resolves as an attribute of the package.
SUBMODULE_ACCESS = """
import sys
import captionkit
assert "captionkit.bleu" not in sys.modules
print(captionkit.bleu.__name__, captionkit.bleu.sentence_bleu is captionkit.sentence_bleu)
"""


def test_a_submodule_resolves_after_importing_the_package():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", SUBMODULE_ACCESS], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "captionkit.bleu True\n"


# Parameter lists are part of the contract too: (name, kind, default), with
# EMPTY for a parameter that has no default.
EMPTY = inspect.Parameter.empty
SIGNATURES = {
    "correct": [
        ("corpus", "POSITIONAL_OR_KEYWORD", EMPTY),
        ("rules", "POSITIONAL_OR_KEYWORD", EMPTY),
        ("prune_duplicates", "POSITIONAL_OR_KEYWORD", False),
    ],
    "back_translate": [
        ("corpus", "POSITIONAL_OR_KEYWORD", EMPTY),
        ("chain", "POSITIONAL_OR_KEYWORD", EMPTY),
        ("concurrency", "KEYWORD_ONLY", 1),
        ("max_retries", "KEYWORD_ONLY", 2),
        ("backoff", "KEYWORD_ONLY", 0.1),
    ],
    "MockTranslator": [
        ("rules", "POSITIONAL_OR_KEYWORD", None),
    ],
    "HttpTranslator": [
        ("endpoint", "POSITIONAL_OR_KEYWORD", EMPTY),
        ("api_key", "POSITIONAL_OR_KEYWORD", None),
        ("timeout", "POSITIONAL_OR_KEYWORD", 10.0),
        ("session", "POSITIONAL_OR_KEYWORD", None),
    ],
}


def test_signatures_are_pinned():
    for name, expected in SIGNATURES.items():
        params = inspect.signature(getattr(captionkit, name)).parameters.values()
        assert [(p.name, p.kind.name, p.default) for p in params] == expected, name
