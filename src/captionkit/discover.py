"""Inverted index over captions and conjunctive keyword queries.

AND-only semantics, ascending-id result order, no ranking. The index is
serialized as versioned JSON so it stays inspectable and portable.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import atomic_write, read_json
from .exceptions import FormatError, IndexVersionError, QueryError
from .tokens import _check_word, _words

INDEX_VERSION = 1


@dataclass(frozen=True)
class InvertedIndex:
    """Token to sorted, duplicate-free id list; immutable once built."""

    postings: Mapping[str, tuple[str, ...]]
    doc_count: int
    version: int = INDEX_VERSION


def build_index(documents: Mapping[str, str]) -> InvertedIndex:
    """Index caption text per image id; identical regardless of input order."""
    acc: defaultdict[str, set[str]] = defaultdict(set)
    for doc_id, text in documents.items():
        for token in set(_words(text)):
            acc[token].add(doc_id)
    postings = {token: tuple(sorted(acc[token])) for token in sorted(acc)}
    return InvertedIndex(postings=postings, doc_count=len(documents))


def query(index: InvertedIndex, terms: Sequence[str]) -> list[str]:
    """Ids of documents containing every term (AND), ascending id order."""
    toks = _words(" ".join(terms))
    if not toks:
        raise QueryError("query is empty after tokenization")
    result: set[str] | None = None
    for token in dict.fromkeys(toks):
        ids = set(index.postings.get(token, ()))
        result = ids if result is None else result & ids
        if not result:
            return []
    return sorted(result or set())


def save_index(index: InvertedIndex, path: str | Path) -> None:
    payload = {
        "version": index.version,
        "doc_count": index.doc_count,
        "postings": {token: list(ids) for token, ids in index.postings.items()},
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")


def load_index(path: str | Path) -> InvertedIndex:
    path = Path(path)
    payload = read_json(path)
    if not isinstance(payload, dict) or "version" not in payload:
        raise FormatError(f"{path}: not an index file (missing 'version')")
    if payload["version"] != INDEX_VERSION:
        raise IndexVersionError(
            f"{path}: index version {payload['version']!r} is not supported (expected {INDEX_VERSION})"
        )
    postings_raw = payload.get("postings")
    doc_count = payload.get("doc_count")
    if not isinstance(postings_raw, dict):
        raise FormatError(f"{path}: malformed index payload")
    if isinstance(doc_count, bool) or not isinstance(doc_count, int) or doc_count < 0:
        raise FormatError(f"{path}: doc_count must be a non-negative integer, got {doc_count!r}")
    postings = {}
    for token, ids in sorted(postings_raw.items()):
        if not isinstance(ids, list) or any(not isinstance(i, str) for i in ids):
            raise FormatError(f"{path}: postings for {token!r} are not a string list")
        if any(a >= b for a, b in zip(ids, ids[1:])) or len(ids) > doc_count:
            raise FormatError(f"{path}: postings for {token!r} are not sorted, unique and <= doc_count")
        _check_word(token, f"{path}: posting key", FormatError)
        postings[token] = tuple(ids)
    return InvertedIndex(postings=postings, doc_count=doc_count)
