import inspect

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
