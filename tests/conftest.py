import json
import string
import warnings
from pathlib import Path
from typing import Iterable, Mapping

import pytest
from hypothesis import strategies as st

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

# ASCII captions shaped like real ones, and unlike them: words with inner hyphens and apostrophes,
# chunks of punctuation alone, edge characters around words, every ASCII whitespace character
# between chunks, and a trailing run of edge characters and whitespace
ASCII_SPACE = "".join(ch for ch in map(chr, range(128)) if ch.isspace())
ASCII_EDGE = "".join(ch for ch in map(chr, range(128)) if not ch.isalnum() and not ch.isspace())
_edges = st.text(alphabet=ASCII_EDGE, max_size=3)
_word = st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=5)
_inner = st.tuples(_word, st.lists(st.tuples(st.sampled_from("-'"), _word).map("".join), max_size=2))
_chunk = st.tuples(_edges, _inner.map(lambda pair: pair[0] + "".join(pair[1])), _edges).map("".join)
plain_captions = st.tuples(
    st.lists(st.tuples(_chunk | _edges.filter(bool), st.text(alphabet=ASCII_SPACE, min_size=1, max_size=2)),
             max_size=8).map(lambda pairs: "".join(chunk + space for chunk, space in pairs)),
    st.text(alphabet=ASCII_EDGE + ASCII_SPACE, max_size=4),
).map("".join)


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
