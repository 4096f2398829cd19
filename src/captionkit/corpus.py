"""Immutable in-memory data model for caption corpora, labels, and predictions.

Three JSONL line shapes and one nested JSON layout are supported; see the
``ingest_*`` functions. Image ids, scene names, and object names are
lower-cased at ingest; caption text is preserved verbatim (normalization
happens in :mod:`captionkit.tokens`).
"""

from __future__ import annotations

import csv
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

from .exceptions import FormatError, ValidationError

CAPTION_FORMATS = ("rsicd_json", "jsonl")

_SPLIT_ALIASES = {
    "train": "train",
    "dev": "dev",
    "val": "dev",
    "valid": "dev",
    "validation": "dev",
    "test": "test",
}


class Split(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"
    UNASSIGNED = "unassigned"


class CaptionSource(str, Enum):
    HUMAN = "human"
    GENERATED = "generated"
    AUGMENTED = "augmented"


@dataclass(frozen=True)
class Caption:
    """One annotation string attached to an image."""

    image_id: str
    raw: str
    source: CaptionSource = CaptionSource.HUMAN

    def __post_init__(self) -> None:
        if not self.image_id:
            raise ValidationError("caption with empty image_id")
        if not self.raw.strip():
            raise ValidationError(f"empty caption for image {self.image_id!r}")


@dataclass(frozen=True)
class ImageRecord:
    """An image with its ordered caption list and optional scene class."""

    image_id: str
    captions: tuple[Caption, ...]
    split: Split = Split.UNASSIGNED
    scene_class: str | None = None

    def __post_init__(self) -> None:
        if not self.image_id:
            raise ValidationError("record with empty image_id")
        if not self.captions:
            raise ValidationError(f"record {self.image_id!r} has no captions")
        for cap in self.captions:
            if cap.image_id != self.image_id:
                raise ValidationError(
                    f"caption for {cap.image_id!r} attached to record {self.image_id!r}"
                )


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable collection of image records.

    Augmentation and correction never mutate a corpus; they build a new one
    with a derived provenance label.
    """

    records: tuple[ImageRecord, ...]
    provenance: str = "unlabeled"

    def __len__(self) -> int:
        return len(self.records)

    def captions(self) -> Iterator[Caption]:
        for record in self.records:
            yield from record.captions

    def caption_count(self) -> int:
        return sum(len(record.captions) for record in self.records)

    def by_id(self) -> dict[str, ImageRecord]:
        return {record.image_id: record for record in self.records}


@dataclass(frozen=True)
class LabelRecord:
    """Ground-truth scene class plus detected object names for one image."""

    image_id: str
    scene: str
    objects: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.scene:
            raise ValidationError(f"label for {self.image_id!r} has empty scene")


@dataclass(frozen=True)
class PredictionSet:
    """Generated caption per image id, e.g. the output of a deployed captioner."""

    entries: Mapping[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Finding:
    """One advisory validation finding; never raised."""

    code: str
    message: str
    image_id: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _map_split(value: object) -> Split:
    if not isinstance(value, str):
        return Split.UNASSIGNED
    return Split(_SPLIT_ALIASES.get(value.strip().lower(), "unassigned"))


def read_rows(path: str | Path, ncols: int = 1, shape: str = "") -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, stripped lower-cased cells) for each non-blank line.

    Lines split on tabs into exactly ``ncols`` cells, else ``FormatError`` names
    the line and the expected ``shape``; one column keeps the whole line.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = line.split("\t") if ncols > 1 else [line]
            if len(cells) != ncols:
                raise FormatError(f"{path}: line {lineno}: expected '{shape}'")
            yield lineno, [cell.strip().lower() for cell in cells]


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Write UTF-8 text (``newline=""``) to a sibling temp file, renamed onto ``path`` on success.

    The temp file takes the mode of a file already at ``path``; if the block
    raises, it is removed and ``path`` is left as it was. A symlink is written
    through to its target. A device or pipe, such as ``/dev/stdout``, cannot be
    replaced and is written directly.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    path = path.resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        if path.exists():
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Sequence[object], rows: Iterable[Sequence[object]]) -> None:
    """Write a header row and ``rows`` as CSV with ``\\r\\n`` row endings, atomically."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path: str | Path) -> object:
    """Parse a whole JSON file; a syntax error becomes ``FormatError`` naming line and column."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _jsonl_objects(path: Path) -> Iterator[tuple[str, dict]]:
    """Yield (location, object) for each non-blank line; blank lines skipped."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(
                    f"{path}: line {lineno}, column {exc.colno}: {exc.msg}"
                ) from exc
            if not isinstance(obj, dict):
                raise FormatError(f"{path}: line {lineno}: expected a JSON object")
            yield f"{path}: line {lineno}", obj


def _require_str(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value.strip():
        raise ValidationError(f"{where}: missing or empty {key!r} field")
    return value


def _sentence_raw(sentence: object, where: str) -> object:
    if not isinstance(sentence, dict) or not isinstance(sentence.get("raw"), str):
        raise FormatError(f"{where}: each sentence needs a string 'raw' field")
    return sentence["raw"]


# Per caption format: image id, caption list and scene keys, and a caption item's text.
_RECORD_FIELDS: dict[str, tuple[str, str, str, Callable[[object, str], object]]] = {
    "jsonl": ("image_id", "captions", "scene", lambda item, where: item),
    "rsicd_json": ("filename", "sentences", "class", _sentence_raw),
}


def _record(obj: object, where: str, format: str) -> ImageRecord:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    id_key, list_key, scene_key, text_of = _RECORD_FIELDS[format]
    image_id = _require_str(obj, id_key, where).strip().lower()
    items = obj.get(list_key)
    if not isinstance(items, list) or not items:
        raise ValidationError(f"{where}: missing or empty {list_key!r} list")
    captions = []
    for item in items:
        text = text_of(item, where)
        if not isinstance(text, str) or not text.strip():
            raise ValidationError(f"{where}: empty caption for image {image_id!r}")
        captions.append(Caption(image_id, text))
    scene = obj.get(scene_key)
    scene_class = scene.strip().lower() if isinstance(scene, str) and scene.strip() else None
    return ImageRecord(
        image_id=image_id,
        captions=tuple(captions),
        split=_map_split(obj.get("split")),
        scene_class=scene_class,
    )


def ingest_captions(
    path: str | Path,
    format: str = "jsonl",
    provenance: str | None = None,
) -> Corpus:
    """Load a caption corpus from ``rsicd_json`` or ``jsonl`` (see README schemas).

    Records keep file order; ids are lower-cased and must be unique; every
    caption must be non-empty. Unknown fields are ignored.
    """
    path = Path(path)
    if format not in CAPTION_FORMATS:
        raise FormatError(f"unknown captions format {format!r}; expected one of {CAPTION_FORMATS}")
    if format == "rsicd_json":
        payload = read_json(path)
        images = payload.get("images") if isinstance(payload, dict) else None
        if not isinstance(images, list):
            raise FormatError(f"{path}: expected a top-level object with an 'images' list")
        entries = ((f"{path}: images[{i}]", entry) for i, entry in enumerate(images))
    else:
        entries = _jsonl_objects(path)
    records = [_record(obj, where, format) for where, obj in entries]
    seen: set[str] = set()
    for record in records:
        if record.image_id in seen:
            raise ValidationError(f"{path}: duplicate image_id {record.image_id!r}")
        seen.add(record.image_id)
    return Corpus(tuple(records), provenance if provenance is not None else path.stem)


def jsonl_lines(corpus: Corpus) -> Iterator[str]:
    """Yield the flat captions-JSONL serialization one record line at a time."""
    for record in corpus.records:
        obj: dict = {
            "image_id": record.image_id,
            "split": record.split.value,
            "captions": [cap.raw for cap in record.captions],
        }
        if record.scene_class is not None:
            obj["scene"] = record.scene_class
        yield json.dumps(obj, ensure_ascii=False) + "\n"


def write_captions_jsonl(corpus: Corpus, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.writelines(jsonl_lines(corpus))


def ingest_labels(path: str | Path) -> tuple[LabelRecord, ...]:
    """Load detection labels (JSONL: image_id, scene, objects)."""
    path = Path(path)
    labels = []
    seen: set[str] = set()
    for where, obj in _jsonl_objects(path):
        image_id = _require_str(obj, "image_id", where).strip().lower()
        scene = _require_str(obj, "scene", where).strip().lower()
        raw_objects = obj.get("objects", [])
        if not isinstance(raw_objects, list):
            raise FormatError(f"{where}: 'objects' must be a list")
        objects = frozenset(
            name.strip().lower() for name in raw_objects if isinstance(name, str) and name.strip()
        )
        if image_id in seen:
            raise ValidationError(f"{where}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        labels.append(LabelRecord(image_id, scene, objects))
    return tuple(labels)


def ingest_predictions(path: str | Path) -> PredictionSet:
    """Load generated captions (JSONL: image_id, caption). Empty file is valid."""
    path = Path(path)
    entries: dict[str, str] = {}
    for where, obj in _jsonl_objects(path):
        image_id = _require_str(obj, "image_id", where).strip().lower()
        caption = _require_str(obj, "caption", where)
        if image_id in entries:
            raise ValidationError(f"{where}: duplicate image_id {image_id!r}")
        entries[image_id] = caption
    return PredictionSet(entries)


def validate(corpus: Corpus, strict_rsicd: bool = False) -> list[Finding]:
    """Report-only corpus checks.

    Always flags duplicate image ids; with ``strict_rsicd`` additionally flags
    records that do not carry exactly five captions.
    """
    findings = []
    seen: set[str] = set()
    for record in corpus.records:
        if record.image_id in seen:
            findings.append(
                Finding("duplicate-image-id", f"duplicate image_id {record.image_id!r}", record.image_id)
            )
        seen.add(record.image_id)
        if strict_rsicd and len(record.captions) != 5:
            findings.append(
                Finding(
                    "caption-count",
                    f"record {record.image_id!r} has {len(record.captions)} captions, expected 5",
                    record.image_id,
                )
            )
    return findings


def corpus_from_documents(documents: Mapping[str, Iterable[str]], provenance: str) -> Corpus:
    """Build a corpus from an id -> captions mapping (test/convenience helper)."""
    records = []
    for image_id, texts in documents.items():
        image_id = image_id.lower()
        captions = tuple(Caption(image_id, text) for text in texts)
        records.append(ImageRecord(image_id, captions))
    return Corpus(tuple(records), provenance)
