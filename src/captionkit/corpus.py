"""Immutable in-memory data model for caption corpora, labels, and predictions.

Three JSONL line shapes and one nested JSON layout are supported; see the
``ingest_*`` functions. Image ids, scene names, and object names are
lower-cased at ingest; caption text is preserved verbatim (normalization
happens in :mod:`captionkit.tokens`).
"""

from __future__ import annotations

import csv
import errno
import json
import os
import re
import stat
import sys
from contextlib import ExitStack, contextmanager, suppress
from enum import Enum
from functools import partial
from itertools import chain
from json.encoder import encode_basestring as _quote  # the string escape of ``_to_json``
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

from .exceptions import CaptionKitError, FormatError, ValidationError

CAPTION_FORMATS = ("rsicd_json", "jsonl")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # a JSON escape of \ud800-\udfff

_T = TypeVar("_T")
# one encoder for every check of a parsed value: ``json.dumps`` with a non-default option builds a new one per call
_to_json = json.JSONEncoder(ensure_ascii=False).encode
_setattr = object.__setattr__  # bound once: looking it up on ``object`` per field doubles a record's build time


def _check_container(value: object, kind: type, expected: str, error: type[Exception] = ValidationError,
                     item: type | None = None) -> None:
    """Raise ``error`` ("``expected``, got ...") unless ``value`` is a ``kind`` and no string, read letter by
    letter, and each of its members an ``item``."""
    if isinstance(value, str) or not isinstance(value, kind):
        raise error(f"{expected}, got " + (f"the string {value!r}" if isinstance(value, str) else type(value).__name__))
    for member in value if item else ():
        if not isinstance(member, item):
            raise error(f"{expected}, got {member!r} in it")


def _name(value: object) -> str:
    """The one spelling of an id, split, scene or object name: a ``str`` stripped and lower-cased, else ``""``."""
    return value.strip().lower() if isinstance(value, str) else ""


class Split(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"
    UNASSIGNED = "unassigned"


_SPLIT_ALIASES = {
    "train": Split.TRAIN,
    "dev": Split.DEV,
    "val": Split.DEV,
    "valid": Split.DEV,
    "validation": Split.DEV,
    "test": Split.TEST,
}


class CaptionSource(str, Enum):
    HUMAN = "human"
    GENERATED = "generated"
    AUGMENTED = "augmented"


class Record:
    """Base of every immutable record: a subclass names its fields in ``__slots__``, and its ``__init__``
    judges its arguments, then stores them with ``_set`` (``ImageRecord`` and ``LabelRecord``, built once per
    image, with one ``_setattr`` each). A record equals only a record of its type with equal fields, hashes
    and prints as ``Type(field=value, ...)`` by its fields, refuses assignment and deletion with
    ``AttributeError``, and is pickled and copied through ``__init__``."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _dict(self) -> dict:
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in self._dict().items())})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Caption(Record):
    """One annotation string attached to an image."""

    __slots__ = ("image_id", "raw", "source")

    def __init__(self, image_id: str, raw: str, source: CaptionSource = CaptionSource.HUMAN) -> None:
        if not image_id:
            raise ValidationError("caption with empty image_id")
        if not isinstance(raw, str) or not raw.strip():
            raise ValidationError(f"empty caption for image {image_id!r}")
        self._set(image_id, raw, source)


class ImageRecord(Record):
    """An image: ``str`` id, caption texts (a tuple; a ``str`` is refused, not split), ``Split``, scene or None.
    The id and a scene are names as ingest reads them, stripped, lower-case and not blank."""

    __slots__ = ("image_id", "texts", "split", "scene_class")

    def __init__(self, image_id: str, texts: tuple[str, ...], split: Split = Split.UNASSIGNED,
                 scene_class: str | None = None) -> None:
        if not isinstance(texts, tuple):
            raise ValidationError(f"record {image_id!r}: texts must be a tuple, got {type(texts).__name__}")
        if not texts:
            raise ValidationError(f"record {image_id!r} has no captions")
        if not isinstance(image_id, str):
            raise ValidationError(f"record image_id must be a string, got {image_id!r}")
        if not image_id:
            raise ValidationError("record with empty image_id")
        if not isinstance(split, Split) or not isinstance(scene_class, (str, type(None))):
            raise ValidationError(f"record needs a Split and a str or None scene, got {split!r}, {scene_class!r}")
        # ingest reads an id back as its ``_name`` and a scene as its ``_name`` or None: refuse what that changes
        if image_id != _name(image_id) or scene_class not in (None, _name(scene_class) or None):
            raise ValidationError(f"record needs a stripped lower-case id and scene, got {image_id!r}, {scene_class!r}")
        try:
            blank = not all(map(str.strip, texts))  # one C pass; a text that is no ``str`` raises ``TypeError``
        except TypeError:
            blank = True
        if blank:
            raise ValidationError(f"empty caption for image {image_id!r}")
        _setattr(self, "image_id", image_id)  # stored directly: a corpus pass builds tens of thousands
        _setattr(self, "texts", texts)
        _setattr(self, "split", split)
        _setattr(self, "scene_class", scene_class)

    @property
    def captions(self) -> tuple[Caption, ...]:  # built on access, for library callers
        return tuple(Caption(self.image_id, text) for text in self.texts)


class Corpus(Record):
    """Ordered, immutable tuple of ``ImageRecord``; another member, or a repeated image id, raises ``ValidationError``.

    Augmentation and correction never mutate a corpus; they build a new one
    with a derived provenance label.
    """

    __slots__ = ("records", "provenance")

    def __init__(self, records: tuple[ImageRecord, ...], provenance: str = "unlabeled") -> None:
        if not isinstance(records, tuple):
            raise ValidationError(f"corpus records must be a tuple, got {type(records).__name__}")
        seen: set[str] = set()
        for record in records:
            if not isinstance(record, ImageRecord):
                raise ValidationError(f"corpus records must be ImageRecords, got {record!r}")
            if record.image_id in seen:
                raise ValidationError(f"duplicate image_id {record.image_id!r}")
            seen.add(record.image_id)
        self._set(records, provenance)

    def __len__(self) -> int:
        return len(self.records)

    def texts(self) -> Iterator[str]:
        return chain.from_iterable(record.texts for record in self.records)

    def captions(self) -> Iterator[Caption]:  # built on access, for library callers
        return chain.from_iterable(record.captions for record in self.records)

    def caption_count(self) -> int:
        return sum(len(record.texts) for record in self.records)

    def by_id(self) -> dict[str, ImageRecord]:
        return {record.image_id: record for record in self.records}


class LabelRecord(Record):
    """Ground-truth scene class plus detected object names for one image."""

    __slots__ = ("image_id", "scene", "objects")

    def __init__(self, image_id: str, scene: str, objects: frozenset[str] = frozenset()) -> None:
        if not scene:
            raise ValidationError(f"label for {image_id!r} has empty scene")
        _setattr(self, "image_id", image_id)  # stored directly, as ``ImageRecord`` stores its fields
        _setattr(self, "scene", scene)
        _setattr(self, "objects", objects)


class PredictionSet(Record):
    """Generated ``str`` caption per ``str`` image id (else ``ValidationError``), e.g. the output of a deployed
    captioner; omitted, a new empty dict."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, str] | None = None) -> None:
        entries = {} if entries is None else entries
        _check_container(entries, Mapping, "predictions: expected a mapping of id to caption", item=str)
        _check_container(entries.values(), Collection, "predictions: expected a mapping of id to caption", item=str)
        self._set(entries)

    def __len__(self) -> int:
        return len(self.entries)


class Finding(Record):
    """One advisory validation finding; never raised."""

    __slots__ = ("code", "message", "image_id")

    def __init__(self, code: str, message: str, image_id: str | None = None) -> None:
        self._set(code, message, image_id)

    def to_dict(self) -> dict:
        return self._dict()


def _at(path: str | Path, lineno: int | None) -> str:
    return f"{path}: line {lineno}" if lineno else str(path)  # where a fault is: a line of the file, or all of it


def _check_utf8(text: str, path: str | Path, lineno: int) -> None:
    """Raise at the first byte not UTF-8 in ``text``, read with ``surrogateescape`` from line ``lineno``."""
    if not text.isascii():
        try:
            text.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno += exc.object.count(b"\n", 0, exc.start)
            raise FormatError(f"{_at(path, lineno)}: not UTF-8 ({exc.reason})") from exc


def _located(where: object, exc: CaptionKitError) -> CaptionKitError:
    """``exc`` as its own class with ``where: `` before its message: the one place a caught fault gets a location."""
    return type(exc)(f"{where}: {exc}")


def _measure(path: str | Path, build: Callable[..., _T], *args) -> _T:
    """``build(*args)``, whose every fault is one of the file at ``path`` (its rows already judged) and names it."""
    try:
        return build(*args)
    except CaptionKitError as exc:
        raise _located(path, exc) from exc


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (number, line) for each non-blank line of a UTF-8 text file, checked in file order."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            _check_utf8(line, path, lineno)
            if not line.isspace():  # a line read from a file is never empty
                yield lineno, line


def read_rows(path: str | Path, shape: str, check: Callable[..., None], keyed: bool = False) -> Iterator[list]:
    """Yield the ``_name`` of each cell of each non-blank line, read by ``shape``, judged by ``check``.

    ``shape`` names the ``<TAB>``-separated cells; a line with another count is a
    ``FormatError`` naming it and ``shape``, and a one-cell shape keeps the whole line.
    A cell whose name ends in ``,...`` is the tuple of its non-empty stripped comma
    items. With ``keyed``, a line repeating the first cell (its key) is a ``FormatError``.
    ``check(*cells)`` judges each row as it is read. Every fault of a row, its
    shape, its key or ``check``'s ``CaptionKitError``, is prefixed by its ``path: line N``.
    """
    names = shape.split("<TAB>")
    keys: set[str] = set()
    for lineno, line in _lines(path):
        try:
            cells = list(map(_name, line.split("\t") if len(names) > 1 else [line]))
            if len(cells) != len(names):
                raise FormatError(f"expected '{shape}'")
            if keyed and cells[0] in keys:
                raise FormatError(f"repeated key {cells[0]!r}")
            keys.add(cells[0])
            row = [tuple(filter(None, map(str.strip, cell.split(",")))) if name.endswith(",...") else cell
                   for cell, name in zip(cells, names)]
            check(*row)
        except CaptionKitError as exc:
            raise _located(_at(path, lineno), exc) from exc
        yield row


def _standard_fd(st: os.stat_result) -> int | None:
    """1 or 2, its Python stream flushed, if this process's stdout or stderr is the file ``st`` describes."""
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
        with suppress(OSError):  # a closed descriptor
            if os.path.samestat(st, os.fstat(fd)):
                if stream is not None:
                    stream.flush()
                return fd
    return None


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Write UTF-8 text (``newline=""``) to a sibling temp file, renamed onto ``path`` on success.

    The temp file takes the mode of a file already at ``path`` and is synced before the rename, and its
    directory after it where ``os.O_DIRECTORY`` exists, unless the file system cannot sync a directory;
    if the block raises, the temp file is removed and ``path`` is left as it was. A symlink is
    written through to its target; a symlink loop is an ``OSError`` naming ``path``. The file that is
    this process's stdout or stderr, such as ``/dev/stdout`` redirected to a file, is written through
    that open stream, and a device or pipe is written directly: neither is replaced nor synced. An
    ``OSError`` about the temp file, or about no file, is raised again naming ``path`` as given.
    """
    given, path = os.fspath(path), Path(path)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    fd = _standard_fd(st) if st else None
    if fd is not None or (st and not stat.S_ISREG(st.st_mode)):
        with open(path if fd is None else fd, "w", encoding="utf-8", newline="", closefd=fd is None) as fh:
            yield fh
        return
    path = path.resolve()
    # a new name per call, so two writers of one path, or a file a killed writer left, are never shared
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp")
    fh = None
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())  # the data is on disk before the new name can point at it
        if st:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        # opened before the rename, so a directory that cannot be opened leaves ``path`` as it was
        dir_fd = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY) if hasattr(os, "O_DIRECTORY") else None
        try:
            os.replace(tmp, path)
            if dir_fd is not None:
                try:
                    os.fsync(dir_fd)  # the new name is on disk, as the data is
                except OSError as exc:
                    if exc.errno != errno.EINVAL:  # EINVAL: the file system cannot sync a directory
                        raise
        finally:
            if dir_fd is not None:
                os.close(dir_fd)
    except BaseException as exc:
        if fh is not None:  # a temp file this call made, never one it could not make
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename in (None, str(tmp)):
            raise OSError(exc.errno, exc.strerror, given) from exc
        raise


def write_files(files: Iterable[tuple[str | Path, Callable[[TextIO], object]]]) -> None:
    """Fill the file of each ``(path, write)`` pair by ``write(fh)`` through ``atomic_write``, as one set: every
    file is written and flushed before any is renamed, so a fault while writing one leaves every path as it was.
    The renames then run one by one, last pair first: a failed rename leaves the later paths new, the rest old."""
    with ExitStack() as stack:
        for path, write in files:
            fh = stack.enter_context(atomic_write(path))
            write(fh)
            fh.flush()  # a write fault is raised here, inside this file's own ``atomic_write``, which names it


def csv_table(header: Sequence[object], rows: Iterable[Sequence[object]]) -> Callable[[TextIO], object]:
    """A writer, for ``write_files``, of a header row and ``rows`` as CSV with ``\\r\\n`` row endings."""
    return lambda fh: csv.writer(fh).writerows(chain([header], rows))


def write_csv(path: str | Path, header: Sequence[object], rows: Iterable[Sequence[object]]) -> None:
    """Write ``csv_table(header, rows)`` to ``path``, atomically."""
    write_files([(path, csv_table(header, rows))])


def _parse(text: str, path: str | Path, lineno: int | None = None) -> object:
    """JSON ``text``, the whole file at ``path`` or its line ``lineno``; every fault is a ``FormatError`` naming it."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{_at(path, lineno or exc.lineno)}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past CPython's digit limit, deep nesting
        raise FormatError(f"{_at(path, lineno)}: {exc}") from exc
    if "\\" in text and _SURROGATE_ESCAPE.search(text):  # a pair is one character, a lone half no UTF-8 text
        try:
            _to_json(value).encode()
        except UnicodeEncodeError as exc:
            raise FormatError(f"{_at(path, lineno)}: not UTF-8 ({exc.reason})") from exc
    return value


def read_json(path: str | Path) -> object:
    """Parse a whole JSON file, checked for bytes that are not UTF-8 before it is parsed."""
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    _check_utf8(text, path, 1)
    return _parse(text, path)


def _jsonl_values(path: str | Path) -> Iterator[tuple[int, object]]:
    """Yield (line number, parsed value) for each non-blank line."""
    return ((lineno, _parse(line, path, lineno)) for lineno, line in _lines(path))


def _by_id(entries: Iterable[tuple[int, object]], path: str | Path, id_key: str, build: Callable[[dict, str], _T],
           at: str = "line {}") -> dict[str, _T]:
    """Key each (number, JSON object) entry by the ``_name`` of its ``id_key``, in file order.

    ``build(obj, image_id)`` makes the item. The first fault raises, and only here is
    its location, ``path: `` and ``at`` with the entry's number, prefixed: a
    non-object, a missing id, what ``build`` or the model types reject, or a repeated id.
    """
    items: dict[str, _T] = {}
    for number, obj in entries:
        try:
            if not isinstance(obj, dict):
                raise FormatError("expected a JSON object")
            image_id = _name(obj.get(id_key))
            if not image_id:
                raise ValidationError(f"missing or empty {id_key!r} field")
            item = build(obj, image_id)
            if image_id in items:
                raise ValidationError(f"duplicate image_id {image_id!r}")
        except CaptionKitError as exc:
            raise _located(f"{path}: {at.format(number)}", exc) from exc
        items[image_id] = item
    return items


def _sentence_raws(sentences: list, image_id: str) -> tuple:
    """Each sentence's ``raw`` text; a blank one before a sentence without a string ``raw`` is raised first."""
    raws = []
    for sentence in sentences:
        if not isinstance(sentence, dict) or not isinstance(sentence.get("raw"), str):
            if raws:
                ImageRecord(image_id, tuple(raws))  # raises at a blank text
            raise FormatError("each sentence needs a string 'raw' field")
        raws.append(sentence["raw"])
    return tuple(raws)


# Per caption format: caption list and scene keys, and the list's texts.
_RECORD_FIELDS: dict[str, tuple[str, str, Callable[[list, str], tuple]]] = {
    "jsonl": ("captions", "scene", lambda items, _: tuple(items)),
    "rsicd_json": ("sentences", "class", _sentence_raws),
}


def _record(obj: dict, image_id: str, format: str) -> ImageRecord:
    """Map one entry's fields onto an ``ImageRecord``, whose types judge the values."""
    list_key, scene_key, texts_of = _RECORD_FIELDS[format]
    items = obj.get(list_key)
    if not isinstance(items, list):
        raise ValidationError(f"missing or empty {list_key!r} list")
    split = _SPLIT_ALIASES.get(_name(obj.get("split")), Split.UNASSIGNED)
    return ImageRecord(image_id, texts_of(items, image_id), split, _name(obj.get(scene_key)) or None)


def ingest_captions(
    path: str | Path,
    format: str = "jsonl",
    provenance: str | None = None,
) -> Corpus:
    """Load a caption corpus from ``rsicd_json`` or ``jsonl`` (see README schemas).

    Records keep file order; ids are lower-cased and must be unique; every
    caption must be non-empty. Unknown fields are ignored. The first faulty
    entry in file order raises, naming its ``line N`` or ``images[i]``.
    """
    if format not in CAPTION_FORMATS:
        raise FormatError(f"unknown captions format {format!r}; expected one of {CAPTION_FORMATS}")
    if format == "rsicd_json":
        payload = read_json(path)
        images = payload.get("images") if isinstance(payload, dict) else None
        if not isinstance(images, list):
            raise _located(path, FormatError("expected a top-level object with an 'images' list"))
        records = _by_id(enumerate(images), path, "filename", partial(_record, format=format), "images[{}]")
    else:
        records = _by_id(_jsonl_values(path), path, "image_id", partial(_record, format=format))
    return Corpus(tuple(records.values()), provenance if provenance is not None else Path(path).stem)


def jsonl_lines(corpus: Corpus) -> Iterator[str]:
    """Yield the flat captions-JSONL serialization one record line at a time, joined from ``_quote`` pieces: the
    bytes ``_to_json`` gives each record's object, whose id, split value and scene ``ImageRecord`` makes strings."""
    for record in corpus.records:
        image_id, split, scene = record.image_id, record.split.value, record.scene_class
        captions = ", ".join(map(_quote, record.texts))
        line = f'{{"image_id": {_quote(image_id)}, "split": {_quote(split)}, "captions": [{captions}]'
        yield line + ("}\n" if scene is None else f', "scene": {_quote(scene)}}}\n')


def write_captions_jsonl(corpus: Corpus, path: str | Path) -> None:
    """Write ``jsonl_lines(corpus)`` to ``path`` atomically; a text UTF-8 cannot hold is a ``ValidationError``."""
    with atomic_write(path) as fh:
        for record, line in zip(corpus.records, jsonl_lines(corpus)):
            try:
                fh.write(line)
            except UnicodeEncodeError as exc:
                fault = ValidationError(f"record {record.image_id!r}: text is not UTF-8 ({exc.reason})")
                raise _located(path, fault) from exc


def _label(obj: dict, image_id: str) -> LabelRecord:
    scene = _name(obj.get("scene"))
    if not scene:
        raise ValidationError("missing or empty 'scene' field")
    raw_objects = obj.get("objects", [])
    if not isinstance(raw_objects, list):
        raise FormatError("'objects' must be a list")
    return LabelRecord(image_id, scene, frozenset(filter(None, map(_name, raw_objects))))


def _caption(obj: dict, image_id: str) -> str:
    caption = obj.get("caption")
    if not isinstance(caption, str) or not caption.strip():
        raise ValidationError("missing or empty 'caption' field")
    return caption


def ingest_labels(path: str | Path) -> tuple[LabelRecord, ...]:
    """Load detection labels (JSONL: image_id, scene, objects); ids are lower-cased and unique.

    The first faulty line in file order raises, naming its ``line N``.
    """
    return tuple(_by_id(_jsonl_values(path), path, "image_id", _label).values())


def ingest_predictions(path: str | Path) -> PredictionSet:
    """Load generated captions (JSONL: image_id, caption); ids are lower-cased and unique.

    An empty file is valid. The first faulty line in file order raises, naming its ``line N``.
    """
    return PredictionSet(_by_id(_jsonl_values(path), path, "image_id", _caption))


def validate(corpus: Corpus, strict_rsicd: bool = False) -> list[Finding]:
    """Report-only corpus checks: with ``strict_rsicd``, each record without exactly five captions.

    Nothing else can be found: a ``Corpus`` already rejects repeated ids and empty captions.
    """
    return [Finding("caption-count", f"record {r.image_id!r} has {len(r.texts)} captions, expected 5", r.image_id)
            for r in corpus.records if strict_rsicd and len(r.texts) != 5]
