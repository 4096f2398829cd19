import json
import warnings
from pathlib import Path
from typing import Iterable, Mapping

import pytest

from captionkit.corpus import Corpus, ImageRecord

# hypothesis imports this module, and through it libcst, to write the patch for a
# failing test; libcst warns on import, and under `pytest -W error` that warning
# would abort the whole session. Importing it here once, the warning ignored, makes
# that later import a lookup.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

DATA_DIR = Path(__file__).parent / "data"


def corpus_from_documents(documents: Mapping[str, Iterable[str]], provenance: str) -> Corpus:
    """Build a corpus from an id -> captions mapping; ids are lower-cased and must stay unique."""
    records = []
    for image_id, texts in documents.items():
        image_id = image_id.lower()
        records.append(ImageRecord(image_id, tuple(texts)))
    return Corpus(tuple(records), provenance)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def small_corpus():
    return corpus_from_documents(
        {
            "a1": [
                "Many planes are parked in an airport.",
                "Several buildings stand beside the runway.",
            ],
            "b2": [
                "White waves crash on a yellow beach.",
                "The sea meets the sand.",
            ],
        },
        provenance="fixture",
    )


def write_jsonl(path: Path, rows) -> Path:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return path
