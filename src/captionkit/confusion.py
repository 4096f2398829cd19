"""Reference-free caption evaluation against detection labels.

Cross-tabulates which scene keywords a generated caption mentions against the
image's ground-truth scene. Orientation is fixed: rows are the true scene,
columns the mentioned keyword's scene; one caption mentioning several scene
keywords increments several cells. Matching is exact lower-case token
equality (never substrings, so "port" cannot fire inside "airport"), with
optional trailing-'s' folding on by default.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import LabelRecord, PredictionSet, read_rows, write_csv
from .exceptions import ConfigurationError, FormatError
from .tokens import tokenize

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfusionReport:
    """Scene-mention matrix plus attribute co-occurrence counts."""

    scenes: tuple[str, ...]
    scene_matrix: Mapping[tuple[str, str], int]
    attribute_table: Mapping[tuple[str, str], int]
    per_scene_totals: Mapping[str, int]
    diagonal_accuracy: float
    attributes: tuple[str, ...] = ()
    missing_ids: tuple[str, ...] = ()

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
    toks = set(tokenize(caption).tokens)
    if fold_plural_s:
        toks |= {tok[:-1] for tok in toks if len(tok) > 1 and tok.endswith("s")}
    return frozenset(toks)


def _lookup(triggers: Mapping, fold_plural_s: bool) -> dict[str, set]:
    # mention -> keys whose trigger it fires; with folding a plural trigger also fires on its singular
    lookup: dict[str, set] = {}
    for key, words in triggers.items():
        for word in words:
            lookup.setdefault(word, set()).add(key)
            if fold_plural_s and len(word) > 1 and word.endswith("s"):
                lookup.setdefault(word[:-1], set()).add(key)
    return lookup


def default_scene_keywords(labels: Sequence[LabelRecord]) -> dict[str, frozenset[str]]:
    """Each scene triggers on its own name; scenes in first-appearance order."""
    keywords: dict[str, frozenset[str]] = {}
    for label in labels:
        keywords.setdefault(label.scene, frozenset({label.scene}))
    return keywords


def load_scene_keywords(path: str | Path) -> dict[str, frozenset[str]]:
    """TSV ``scene<TAB>trigger1,trigger2,...``; file order defines scene order."""
    keywords: dict[str, frozenset[str]] = {}
    for lineno, (scene, trigger_list) in read_rows(path, 2, "scene<TAB>trigger1,trigger2,..."):
        triggers = frozenset(t.strip() for t in trigger_list.split(",") if t.strip())
        if not scene or not triggers:
            raise FormatError(f"{path}: line {lineno}: empty scene or trigger list")
        keywords[scene] = triggers
    return keywords


def load_attributes(path: str | Path) -> tuple[str, ...]:
    """One attribute token per line."""
    return tuple(token for _, (token,) in read_rows(path))


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
    without a prediction are reported on the result and skipped.
    """
    for label in labels:
        if label.scene not in scene_keywords:
            raise ConfigurationError(f"no keyword set configured for scene {label.scene!r}")
    scenes = tuple(scene_keywords)
    attributes = tuple(dict.fromkeys(attributes))
    matrix = {(true, col): 0 for true in scenes for col in scenes}
    attribute_counts = {(attr, scene): 0 for attr in attributes for scene in scenes}
    totals = {scene: 0 for scene in scenes}
    missing = []
    scene_lookup = _lookup(scene_keywords, fold_plural_s)
    attribute_lookup = _lookup({attr: (attr,) for attr in attributes}, fold_plural_s)
    for label in labels:
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
    if missing:
        logger.warning("%d labeled images have no prediction; skipped", len(missing))
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
    """Images per true scene (the labels' scenes) whose caption mentions each attribute token."""
    # Empty trigger sets: only the attribute counts of the shared pass are wanted.
    scenes = {scene: frozenset() for scene in sorted({label.scene for label in labels})}
    report = scene_matrix(predictions, labels, scenes, fold_plural_s, attributes)
    return dict(report.attribute_table)


def matrix_export(report: ConfusionReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write scene_matrix.csv and attribute_table.csv under ``out_dir``.

    Matrix rows are true scenes, columns mentioned-keyword scenes; the
    attribute file has attribute rows and scene columns.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix_path = out_dir / "scene_matrix.csv"
    attrs_path = out_dir / "attribute_table.csv"
    matrix_rows = ([true, *(report.cell(true, col) for col in report.scenes)] for true in report.scenes)
    write_csv(matrix_path, ["true_scene\\mentioned_keyword", *report.scenes], matrix_rows)
    attribute_rows = (
        [attr, *(report.attribute_table.get((attr, scene), 0) for scene in report.scenes)]
        for attr in report.attributes
    )
    write_csv(attrs_path, ["attribute\\true_scene", *report.scenes], attribute_rows)
    return matrix_path, attrs_path
