"""Every record type behaves as a frozen dataclass would: signature, equality, hash, repr, immutability, pickling."""

import copy
import inspect
import pickle

import pytest

from captionkit.augment import CorrectionRules, Thesaurus
from captionkit.bleu import BleuResult
from captionkit.confusion import ConfusionReport
from captionkit.corpus import Caption, CaptionSource, Corpus, Finding, ImageRecord, LabelRecord, PredictionSet, Split
from captionkit.discover import InvertedIndex
from captionkit.readability import ReadabilityReport
from captionkit.tokens import TokenizedSentence
from captionkit.translate import TranslationChain
from captionkit.vocabstats import VocabularyProfile

EMPTY = inspect.Parameter.empty
FACTORY = object()  # a field whose default is a fresh empty dict per instance


class EchoTranslator:
    """A translator that compares by type, so a chain holding it survives a pickle round trip equal."""

    def translate(self, text, src, dst):
        return text

    def __eq__(self, other):
        return type(other) is EchoTranslator

    def __hash__(self):
        return 0


RECORD = ImageRecord("a", ("a beach",), Split.TRAIN, "beach")

# type: ((field, default) in order, arguments of one instance, (index, value) that makes a different one,
# whether it hashes)
CASES = {
    Caption: ((("image_id", EMPTY), ("raw", EMPTY), ("source", CaptionSource.HUMAN)),
              ("a", "a beach", CaptionSource.GENERATED), (1, "a sea"), True),
    ImageRecord: ((("image_id", EMPTY), ("texts", EMPTY), ("split", Split.UNASSIGNED), ("scene_class", None)),
                  ("a", ("a beach", "the sea"), Split.TRAIN, "beach"), (3, "port"), True),
    Corpus: ((("records", EMPTY), ("provenance", "unlabeled")), ((RECORD,), "fixture"), (1, "other"), True),
    LabelRecord: ((("image_id", EMPTY), ("scene", EMPTY), ("objects", frozenset())),
                  ("a", "beach", frozenset({"sea"})), (2, frozenset()), True),
    PredictionSet: ((("entries", FACTORY),), ({"a": "a beach"},), (0, {"a": "a sea"}), False),
    Finding: ((("code", EMPTY), ("message", EMPTY), ("image_id", None)),
              ("caption-count", "record 'a' has 1 captions", "a"), (2, None), True),
    CorrectionRules: ((("dictionary", EMPTY), ("merge_patterns", ()), ("manual_overrides", FACTORY)),
                      (frozenset({"beach", "c-shaped"}), ((("c", "shape"), "c-shaped"),), {"bech": "beach"}),
                      (2, {}), False),
    Thesaurus: ((("entries", EMPTY),), ({"beach": ("shore", "sea shore")},), (0, {"beach": ("shore",)}), False),
    BleuResult: ((("precisions", EMPTY), ("brevity_penalty", EMPTY), ("candidate_len", EMPTY),
                  ("effective_ref_len", EMPTY), ("bleu", EMPTY), ("zero_precision_orders", ())),
                 ((1.0, 0.5), 1.0, 4, 4, {1: 1.0, 2: 0.7}, (3,)), (2, 5), False),
    ConfusionReport: ((("scenes", EMPTY), ("scene_matrix", EMPTY), ("attribute_table", EMPTY),
                       ("per_scene_totals", EMPTY), ("diagonal_accuracy", EMPTY), ("attributes", ()),
                       ("missing_ids", ())),
                      (("beach",), {("beach", "beach"): 1}, {("white", "beach"): 1}, {"beach": 1}, 1.0,
                       ("white",), ("b",)), (4, 0.5), False),
    InvertedIndex: ((("postings", EMPTY), ("doc_count", EMPTY), ("version", 1)),
                    ({"beach": ("a", "b")}, 2, 1), (1, 3), False),
    ReadabilityReport: ((("characters", EMPTY), ("words", EMPTY), ("unique_words", EMPTY), ("complex_pct", EMPTY),
                         ("syllables_per_word", EMPTY), ("sentences", EMPTY), ("words_per_sentence", EMPTY),
                         ("fog", EMPTY), ("flesch", EMPTY), ("fk", EMPTY)),
                        (40, 8, 7, 12.5, 1.4, 2, 4.0, 6.6, 90.1, 2.3), (7, 7.0), True),
    TokenizedSentence: ((("tokens", EMPTY), ("char_count", EMPTY)), (("a", "beach"), 6), (1, 7), True),
    TranslationChain: ((("hops", EMPTY), ("translator", EMPTY)), (("es", "de"), EchoTranslator()),
                       (0, ("fr",)), True),
    VocabularyProfile: ((("freq", EMPTY), ("total_tokens", EMPTY), ("unique_tokens", EMPTY), ("hapax_count", EMPTY),
                         ("total_captions", EMPTY), ("unique_captions", EMPTY), ("duplicate_captions", EMPTY),
                         ("within_image_duplicate_captions", EMPTY)),
                        ({"a": 2, "beach": 1}, 3, 2, 1, 2, 1, 1, 1), (3, 0), False),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_a_frozen_dataclass(cls):
    fields, args, (index, value), hashable = CASES[cls]
    names = [name for name, _ in fields]

    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.kind) for p in params] == [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in names]
    required = [arg for arg, (_, default) in zip(args, fields) if default is EMPTY]
    for param, (_, default) in zip(params, fields):
        if default is FACTORY:  # omitted, it is a fresh empty dict in every instance
            assert param.default is not EMPTY
            first, second = cls(*required), cls(*required)
            assert getattr(first, param.name) == {} and getattr(first, param.name) is not getattr(second, param.name)
        else:
            assert param.default == default and type(param.default) is type(default)

    record = cls(*args)
    assert [getattr(record, name) for name in names] == list(args)
    assert all(getattr(record, name) is arg for name, arg in zip(names, args))
    assert cls(**dict(zip(names, args))) == record

    changed = list(args)
    changed[index] = value
    assert record == cls(*args) and not record != cls(*args)
    assert record != cls(*changed) and not record == cls(*changed)
    assert record != tuple(args) and record.__eq__(tuple(args)) is NotImplemented
    if hashable:
        assert hash(record) == hash(cls(*args)) == hash(tuple(args))
    else:
        with pytest.raises(TypeError):
            hash(record)

    assert repr(record) == f"{cls.__qualname__}(" + ", ".join(f"{n}={a!r}" for n, a in zip(names, args)) + ")"

    for name in [*names, "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == list(args)

    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(twin) is cls and twin == record
