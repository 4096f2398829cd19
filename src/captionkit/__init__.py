"""captionkit: profiling, augmentation, scoring, and keyword discoverability
for image-caption corpora.

A public name is imported from its defining module on first access, so
``import captionkit`` loads no stage module until one is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# Defining module -> the public names it exports.
_EXPORTS = {
    "augment": ("CorrectionRules", "Thesaurus", "back_translate", "correct", "synonym_expand"),
    "bleu": ("BleuResult", "bleu_score", "modified_precision", "ngram_counts", "sentence_bleu"),
    "confusion": ("ConfusionReport", "attribute_table", "matrix_export", "scene_matrix"),
    "corpus": (
        "Caption", "CaptionSource", "Corpus", "ImageRecord", "LabelRecord", "PredictionSet", "Split",
        "ingest_captions", "ingest_labels", "ingest_predictions", "validate", "write_captions_jsonl",
    ),
    "discover": ("InvertedIndex", "build_index", "load_index", "query", "save_index"),
    "readability": ("ReadabilityReport", "count_syllables", "report", "report_from_aggregates"),
    "tokens": ("TokenizedSentence", "split_sentences", "tokenize"),
    "translate": ("HttpTranslator", "MockTranslator", "TranslationChain"),
    "vocabstats": ("VocabularyProfile", "frequency_export", "hapax_ratio", "profile", "top_k_coverage"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "exceptions"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Import public name ``name`` from its defining module and keep it, or import submodule ``name``."""
    if name in _MODULE_OF:
        globals()[name] = value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
