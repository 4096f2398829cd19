"""Reference-free caption evaluation against detection labels.

Cross-tabulates which scene keywords a generated caption mentions against the
image's ground-truth scene. Orientation is fixed: rows are the true scene,
columns the mentioned keyword's scene; one caption mentioning several scene
keywords increments several cells. Matching is exact lower-case token
equality (never substrings, so "port" cannot fire inside "airport"), with
optional trailing-'s' folding on by default.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .corpus import LabelRecord, PredictionSet, Record, csv_table, read_rows, write_files
from .exceptions import ConfigurationError, FormatError
from .tokens import _check_container, _check_word, _check_words, _words


class ConfusionReport(Record):
    """Scene-mention matrix plus attribute co-occurrence counts."""

    __slots__ = ("scenes", "scene_matrix", "attribute_table", "per_scene_totals", "diagonal_accuracy", "attributes",
                 "missing_ids")

    def __init__(self, scenes: tuple[str, ...], scene_matrix: Mapping[tuple[str, str], int],
                 attribute_table: Mapping[tuple[str, str], int], per_scene_totals: Mapping[str, int],
                 diagonal_accuracy: float, attributes: tuple[str, ...] = (), missing_ids: tuple[str, ...] = ()) -> None:
        self._set(scenes, scene_matrix, attribute_table, per_scene_totals, diagonal_accuracy, attributes, missing_ids)

    def cell(self, true_scene: str, mentioned: str) -> int:
        return self.scene_matrix.get((true_scene, mentioned), 0)

    def to_dict(self) -> dict:
        return {
            "scenes": list(self.scenes),
            "matrix": {
                true: {col: self.cell(true, col) for col in self.scenes} for true in self.scenes
            },
            "attributes": {
                attr: {scene: self.attribute_table.get((attr, scene), 0) for scene in self.scenes}
                for attr in self.attributes
            },
            "per_scene_totals": dict(self.per_scene_totals),
            "diagonal_accuracy": self.diagonal_accuracy,
            "missing_ids": list(self.missing_ids),
        }


def _mention_set(caption: str, fold_plural_s: bool) -> frozenset[str]:
    toks = set(_words(caption))
    if fold_plural_s:
        toks |= {tok[:-1] for tok in toks if len(tok) > 1 and tok.endswith("s")}
    return frozenset(toks)


def _lookup(triggers: Mapping, fold_plural_s: bool) -> dict[str, set]:
    # mention -> keys whose trigger it fires; with folding a plural trigger also fires on its singular
    lookup: dict[str, set] = {}
    for key, words in triggers.items():
        _check_words(words, "scene trigger or attribute", ConfigurationError)
        for word in words:
            lookup.setdefault(word, set()).add(key)
            if fold_plural_s and len(word) > 1 and word.endswith("s"):
                lookup.setdefault(word[:-1], set()).add(key)
    return lookup


def default_scene_keywords(labels: Sequence[LabelRecord]) -> dict[str, frozenset[str]]:
    """Each scene triggers on its own name; scenes in first-appearance order. ``labels`` must be a
    sequence of ``LabelRecord`` (else ``ConfigurationError``)."""
    _check_container(labels, Sequence, "labels: expected a sequence of label records", ConfigurationError, LabelRecord)
    return {label.scene: frozenset({label.scene}) for label in labels}


def _check_scene(scene: str, triggers: tuple[str, ...]) -> None:
    if not scene or not triggers:
        raise FormatError("empty scene or trigger list")
    _check_words(triggers, "scene trigger", FormatError)


def load_scene_keywords(path: str | Path) -> dict[str, frozenset[str]]:
    """TSV ``scene<TAB>trigger1,trigger2,...``, each scene on one line; file order defines scene order."""
    rows = read_rows(path, "scene<TAB>trigger1,trigger2,...", _check_scene, keyed=True)
    return {scene: frozenset(triggers) for scene, triggers in rows}


def load_attributes(path: str | Path) -> tuple[str, ...]:
    """One attribute token per line."""
    rows = read_rows(path, "attribute", lambda token: _check_word(token, "attribute", FormatError))
    return tuple(token for (token,) in rows)


def scene_matrix(
    predictions: PredictionSet,
    labels: Sequence[LabelRecord],
    scene_keywords: Mapping[str, frozenset[str]],
    fold_plural_s: bool = True,
    attributes: Sequence[str] = (),
) -> ConfusionReport:
    """Count, per true scene, how many captions mention each scene's triggers.

    Presence-based: one image increments a cell at most once. The same pass
    counts, per attribute token and true scene, the captions mentioning that
    attribute; an attribute listed twice is counted once. Labeled images
    without a prediction are skipped and listed in ``missing_ids``; nothing is logged.
    ``labels`` must be a sequence of ``LabelRecord`` and ``scene_keywords`` a
    mapping (else ``ConfigurationError``).
    """
    _check_container(labels, Sequence, "labels: expected a sequence of label records", ConfigurationError, LabelRecord)
    _check_container(scene_keywords, Mapping, "scene keywords: expected a mapping", ConfigurationError)
    scenes = tuple(scene_keywords)
    scene_lookup = _lookup(scene_keywords, fold_plural_s)
    _check_words(attributes, "scene trigger or attribute", ConfigurationError)
    attributes = tuple(dict.fromkeys(attributes))
    attribute_lookup = _lookup({attr: (attr,) for attr in attributes}, fold_plural_s)
    matrix = {(true, col): 0 for true in scenes for col in scenes}
    attribute_counts = {(attr, scene): 0 for attr in attributes for scene in scenes}
    totals = {scene: 0 for scene in scenes}
    missing = []
    for label in labels:
        if label.scene not in totals:
            raise ConfigurationError(f"image {label.image_id!r}: no keyword set configured for scene {label.scene!r}")
        caption = predictions.entries.get(label.image_id)
        if caption is None:
            missing.append(label.image_id)
            continue
        mention_set = _mention_set(caption, fold_plural_s)
        totals[label.scene] += 1
        for col in set().union(*(scene_lookup.get(m, ()) for m in mention_set)):
            matrix[(label.scene, col)] += 1
        for attr in set().union(*(attribute_lookup.get(m, ()) for m in mention_set)):
            attribute_counts[(attr, label.scene)] += 1
    scored = sum(totals.values())
    diagonal = sum(matrix[(scene, scene)] for scene in scenes)
    return ConfusionReport(
        scenes=scenes,
        scene_matrix=matrix,
        attribute_table=attribute_counts,
        per_scene_totals=totals,
        diagonal_accuracy=diagonal / scored if scored else 0.0,
        attributes=attributes,
        missing_ids=tuple(missing),
    )


def attribute_table(
    predictions: PredictionSet,
    labels: Sequence[LabelRecord],
    attributes: Sequence[str],
    fold_plural_s: bool = True,
) -> dict[tuple[str, str], int]:
    """Images per true scene (the labels' scenes, a sequence read twice) whose caption mentions each attribute."""
    _check_container(labels, Sequence, "labels: expected a sequence of label records", ConfigurationError, LabelRecord)
    # Empty trigger sets: only the attribute counts of the shared pass are wanted.
    scenes = {scene: frozenset() for scene in sorted({label.scene for label in labels})}
    report = scene_matrix(predictions, labels, scenes, fold_plural_s, attributes)
    return dict(report.attribute_table)


def matrix_export(report: ConfusionReport, out_dir: str | Path, *,
                  with_files: Iterable[tuple[str | Path, Callable[[TextIO], object]]] = ()) -> tuple[Path, Path]:
    """Write scene_matrix.csv and attribute_table.csv under ``out_dir``, and the ``(path, write)`` pairs of
    ``with_files``, as one set (``corpus.write_files``): a fault while writing any leaves every file as it was.

    Matrix rows are true scenes, columns mentioned-keyword scenes; the
    attribute file has attribute rows and scene columns.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = out_dir / "scene_matrix.csv", out_dir / "attribute_table.csv"
    corners = "true_scene\\mentioned_keyword", "attribute\\true_scene"
    report_dict = report.to_dict()
    tables = [(path, csv_table([corner, *report.scenes], ([name, *row.values()] for name, row in table.items())))
              for path, corner, table in zip(paths, corners, (report_dict["matrix"], report_dict["attributes"]))]
    write_files([*tables, *with_files])
    return paths
