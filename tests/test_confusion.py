import csv
import random

import pytest

from captionkit.confusion import (
    attribute_table,
    default_scene_keywords,
    load_attributes,
    load_scene_keywords,
    matrix_export,
    scene_matrix,
)
from captionkit.corpus import LabelRecord, PredictionSet, ingest_labels
from captionkit.exceptions import ConfigurationError
from captionkit.tokens import tokenize
from oracles import oracle_attribute_table, oracle_scene_matrix

EIGHT_SCENES = ["airport", "beach", "desert", "forest", "port", "railway", "river", "stadium"]

SCENE_WORDS = {
    "airport": "many planes are parked in an airport",
    "beach": "white waves wash a yellow beach near the sea",
    "desert": "a wide yellow desert with some dunes",
    "forest": "green trees fill a dense forest",
    "port": "ships are docked in a busy port",
    "railway": "a long railway crosses the plain",
    "river": "a river flows under a bridge",
    "stadium": "a round stadium with a green field",
}


def _eight_keywords():
    return {scene: frozenset({scene}) for scene in EIGHT_SCENES}


# Triggers shared by two scenes (sea, yellow, green), plural triggers whose
# singular appears in captions (forests, railways, rivers, bridges), and one
# that folding must not reduce to the caption's word ("beaches" is not "beach").
SHARED_PLURAL_KEYWORDS = {
    "airport": frozenset({"airport", "planes"}),
    "beach": frozenset({"beaches", "sea", "yellow"}),
    "desert": frozenset({"desert", "yellow", "dunes"}),
    "forest": frozenset({"forests", "trees", "green"}),
    "port": frozenset({"port", "sea", "ships"}),
    "railway": frozenset({"railways", "line"}),
    "river": frozenset({"rivers", "bridges"}),
    "stadium": frozenset({"stadium", "green"}),
}


def test_airport_diagonal_increment():
    predictions = PredictionSet({"a1": "many planes are parked in an airport"})
    labels = [LabelRecord("a1", "airport")]
    report = scene_matrix(predictions, labels, {"airport": frozenset({"airport"})})
    assert report.cell("airport", "airport") == 1
    assert report.per_scene_totals["airport"] == 1
    assert report.diagonal_accuracy == 1.0


def test_perfect_captioner_is_diagonal():
    predictions = PredictionSet({f"i-{s}": SCENE_WORDS[s] for s in EIGHT_SCENES})
    labels = [LabelRecord(f"i-{s}", s) for s in EIGHT_SCENES]
    keywords = _eight_keywords()
    report = scene_matrix(predictions, labels, keywords)
    assert report.diagonal_accuracy == 1.0
    for true in EIGHT_SCENES:
        for col in EIGHT_SCENES:
            assert report.cell(true, col) == (1 if true == col else 0)


def test_cross_mentions_increment_both_cells():
    predictions = PredictionSet({"x": "an airport near a river bridge"})
    labels = [LabelRecord("x", "airport")]
    keywords = {"airport": frozenset({"airport"}), "river": frozenset({"river"})}
    report = scene_matrix(predictions, labels, keywords)
    assert report.cell("airport", "airport") == 1
    assert report.cell("airport", "river") == 1


def test_duplicate_keyword_counts_once():
    predictions = PredictionSet({"x": "beach beach beach"})
    labels = [LabelRecord("x", "beach")]
    report = scene_matrix(predictions, labels, {"beach": frozenset({"beach"})})
    assert report.cell("beach", "beach") == 1


def test_token_matching_never_substring():
    predictions = PredictionSet({"x": "planes at an airport"})
    labels = [LabelRecord("x", "port")]
    keywords = {"port": frozenset({"port"}), "airport": frozenset({"airport"})}
    report = scene_matrix(predictions, labels, keywords)
    assert report.cell("port", "port") == 0  # "port" must not fire inside "airport"
    assert report.cell("port", "airport") == 1


def test_plural_folding_default_on():
    predictions = PredictionSet({"x": "two bridges over water"})
    labels = [LabelRecord("x", "bridge")]
    keywords = {"bridge": frozenset({"bridge"})}
    assert scene_matrix(predictions, labels, keywords).cell("bridge", "bridge") == 1
    off = scene_matrix(predictions, labels, keywords, fold_plural_s=False)
    assert off.cell("bridge", "bridge") == 0


def test_trigger_sets_extend_matching():
    predictions = PredictionSet({"x": "an airfield with hangars"})
    labels = [LabelRecord("x", "airport")]
    report = scene_matrix(predictions, labels, {"airport": frozenset({"airport", "airfield"})})
    assert report.diagonal_accuracy == 1.0


@pytest.mark.parametrize("keywords, attributes", [
    ({"beach": frozenset({"Beach"})}, ()),
    ({"beach": frozenset({"beach", "Sea"})}, ()),
    ({"beach": frozenset({"beach"})}, ("White",)),
])
def test_upper_case_trigger_or_attribute_rejected(keywords, attributes):
    # tokens are lower-case, so such a word would always count 0
    predictions = PredictionSet({"x": "white sea by a beach"})
    with pytest.raises(ConfigurationError, match="lower-case"):
        scene_matrix(predictions, [LabelRecord("x", "beach")], keywords, attributes=attributes)


def test_scene_without_keywords_rejected():
    predictions = PredictionSet({"x": "a beach"})
    labels = [LabelRecord("x", "beach")]
    with pytest.raises(ConfigurationError):
        scene_matrix(predictions, labels, {"airport": frozenset({"airport"})})


def test_missing_predictions_skipped_and_reported():
    predictions = PredictionSet({"x": "a beach"})
    labels = [LabelRecord("x", "beach"), LabelRecord("ghost", "beach")]
    report = scene_matrix(predictions, labels, {"beach": frozenset({"beach"})})
    assert report.missing_ids == ("ghost",)
    assert report.per_scene_totals["beach"] == 1


def test_empty_predictions_empty_report():
    report = scene_matrix(PredictionSet({}), [], {"beach": frozenset({"beach"})})
    assert report.diagonal_accuracy == 0.0
    assert sum(report.per_scene_totals.values()) == 0


def test_non_mentioning_image_lowers_accuracy():
    keywords = {"beach": frozenset({"beach"})}
    predictions = PredictionSet({"x": "a beach", "y": "nothing relevant"})
    labels_one = [LabelRecord("x", "beach")]
    labels_two = labels_one + [LabelRecord("y", "beach")]
    acc_one = scene_matrix(predictions, labels_one, keywords).diagonal_accuracy
    acc_two = scene_matrix(predictions, labels_two, keywords).diagonal_accuracy
    assert acc_two < acc_one


def test_prediction_order_irrelevant():
    keywords = _eight_keywords()
    labels = [LabelRecord(f"i{n}", EIGHT_SCENES[n % 8]) for n in range(16)]
    entries = {f"i{n}": SCENE_WORDS[EIGHT_SCENES[(n + 3) % 8]] for n in range(16)}
    forward = scene_matrix(PredictionSet(entries), labels, keywords)
    reversed_entries = dict(reversed(list(entries.items())))
    backward = scene_matrix(PredictionSet(reversed_entries), labels, keywords)
    assert forward == backward


def _random_fixture(rng, n_images=100):
    captions_pool = list(SCENE_WORDS.values()) + [
        "some green trees near white waves",
        "an airport near a river bridge",
        "yellow sand and a railway line",
        "nothing to see here",
    ]
    labels = [LabelRecord(f"i{n}", rng.choice(EIGHT_SCENES)) for n in range(n_images)]
    entries = {f"i{n}": rng.choice(captions_pool) for n in range(n_images)}
    # a few labels without predictions
    for n in rng.sample(range(n_images), k=min(5, n_images)):
        entries.pop(f"i{n}", None)
    return PredictionSet(entries), labels


def test_matrix_matches_nested_loop_oracle():
    rng = random.Random(777)
    cases = [(_eight_keywords(), True), (SHARED_PLURAL_KEYWORDS, True), (SHARED_PLURAL_KEYWORDS, False)]
    for _ in range(30):
        predictions, labels = _random_fixture(rng)
        for keywords, fold in cases:
            report = scene_matrix(predictions, labels, keywords, fold)
            matrix, totals, accuracy = oracle_scene_matrix(
                predictions, labels, keywords, tokenize, fold
            )
            assert dict(report.scene_matrix) == matrix
            assert dict(report.per_scene_totals) == totals
            assert report.diagonal_accuracy == accuracy


def test_attribute_example_beach():
    predictions = PredictionSet({"x": "white waves on the shore"})
    labels = [LabelRecord("x", "beach")]
    counts = attribute_table(predictions, labels, ["white", "waves", "yellow"])
    assert counts[("white", "beach")] == 1
    assert counts[("waves", "beach")] == 1
    assert counts[("yellow", "beach")] == 0


def test_attribute_absent_everywhere_zero_row():
    predictions = PredictionSet({"x": "a calm scene"})
    labels = [LabelRecord("x", "beach")]
    counts = attribute_table(predictions, labels, ["yellow"])
    assert all(v == 0 for v in counts.values())


def test_attribute_table_matches_oracle():
    rng = random.Random(31)
    # "bridges" is plural against the captions' "bridge"; "white" is listed twice
    attributes = ["trees", "white", "yellow", "sea", "waves", "bridges", "white"]
    for _ in range(20):
        predictions, labels = _random_fixture(rng, n_images=60)
        got = attribute_table(predictions, labels, attributes)
        expected = oracle_attribute_table(predictions, labels, attributes, tokenize)
        assert got == expected


def test_repeated_attribute_counted_once():
    predictions = PredictionSet({"x": "white waves"})
    labels = [LabelRecord("x", "beach")]
    assert attribute_table(predictions, labels, ["white", "white"]) == {("white", "beach"): 1}
    report = scene_matrix(predictions, labels, {"beach": frozenset({"beach"})},
                          attributes=["white", "waves", "white"])
    assert report.attributes == ("white", "waves")


def test_matrix_export_and_reparse(tmp_path):
    predictions = PredictionSet(
        {"x": "a beach with white waves", "y": "many planes in an airport"}
    )
    labels = [LabelRecord("x", "beach"), LabelRecord("y", "airport")]
    keywords = {"airport": frozenset({"airport"}), "beach": frozenset({"beach"})}
    report = scene_matrix(predictions, labels, keywords, attributes=["white", "waves"])
    matrix_path, attrs_path = matrix_export(report, tmp_path / "out")

    with open(matrix_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["true_scene\\mentioned_keyword", "airport", "beach"]
    reparsed = {
        (row[0], scene): int(value)
        for row in rows[1:]
        for scene, value in zip(rows[0][1:], row[1:])
    }
    assert reparsed == dict(report.scene_matrix)

    with open(attrs_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["attribute\\true_scene", "airport", "beach"]
    reparsed_attrs = {
        (row[0], scene): int(value)
        for row in rows[1:]
        for scene, value in zip(rows[0][1:], row[1:])
    }
    assert reparsed_attrs == dict(report.attribute_table)


def test_report_to_dict_shape():
    predictions = PredictionSet({"x": "a beach"})
    labels = [LabelRecord("x", "beach")]
    report = scene_matrix(predictions, labels, {"beach": frozenset({"beach"})})
    payload = report.to_dict()
    assert payload["scenes"] == ["beach"]
    assert payload["matrix"]["beach"]["beach"] == 1
    assert payload["diagonal_accuracy"] == 1.0


def test_default_scene_keywords_and_loaders(tmp_path, data_dir):
    labels = ingest_labels(data_dir / "labels_8scenes.jsonl")
    defaults = default_scene_keywords(labels)
    assert defaults["airport"] == {"airport"}
    assert list(defaults) == EIGHT_SCENES

    loaded = load_scene_keywords(data_dir / "scenes.tsv")
    assert loaded["airport"] == {"airport", "airfield"}
    assert list(loaded) == EIGHT_SCENES

    attrs = load_attributes(data_dir / "attributes.txt")
    assert attrs == ("trees", "white", "yellow", "sea", "waves")
