"""Inverted index over captions and conjunctive keyword queries.

AND-only semantics, ascending-id result order, no ranking. The index is
serialized as versioned JSON so it stays inspectable and portable.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Collection, Mapping, Sequence

from .corpus import Record, _measure, atomic_write, read_json
from .exceptions import ConfigurationError, FormatError, IndexVersionError, QueryError
from .tokens import _check_container, _check_count, _check_word, _words

INDEX_VERSION = 1


class InvertedIndex(Record):
    """Token to sorted, duplicate-free id list; immutable once built.

    ``load_index`` enforces what ``build_index`` guarantees and ``query``
    relies on, raising at the first fault in file order: each key is one
    token as the tokenizer reads it, each posting list is strictly
    ascending, and no more distinct ids than ``doc_count`` appear in all.
    """

    __slots__ = ("postings", "doc_count", "version")

    def __init__(self, postings: Mapping[str, tuple[str, ...]], doc_count: int, version: int = INDEX_VERSION) -> None:
        self._set(postings, doc_count, version)


def build_index(documents: Mapping[str, str]) -> InvertedIndex:
    """Index caption text per image id; identical regardless of input order.

    Ids are walked in ascending order and appended to each of their tokens'
    lists, so every list is sorted and duplicate-free as it is built. Text is
    tokenized per ``str.splitlines`` line, whose breaks the tokenizer reads as
    whitespace, so captions joined one per line each take its plain path.
    ``documents`` must be a mapping of string id to string text (else ``ConfigurationError``).
    """
    _check_container(documents, Mapping, "documents: expected a mapping of id to text", ConfigurationError, str)
    _check_container(documents.values(), Collection, "documents: expected a mapping of id to text",
                     ConfigurationError, str)
    acc: defaultdict[str, list[str]] = defaultdict(list)
    for doc_id, text in sorted(documents.items()):  # ids are unique: texts are never compared
        for token in set().union(*map(_words, text.splitlines())):
            acc[token].append(doc_id)
    postings = {token: tuple(acc[token]) for token in sorted(acc)}
    return InvertedIndex(postings=postings, doc_count=len(documents))


def query(index: InvertedIndex, terms: Sequence[str]) -> list[str]:
    """Ids of documents containing every term (AND), ascending id order.

    Starts from the shortest posting list; each longer list, in order of
    length, keeps those of its ids that are still in the result, so only ids
    of the shortest list are ever hashed, the result stays in posting order,
    and the walk stops as soon as nothing is left. ``terms`` is a sequence of
    strings, never one string read letter by letter (else ``ConfigurationError``).
    """
    _check_container(terms, Sequence, "query terms: expected a sequence of strings", ConfigurationError, str)
    toks = _words(" ".join(terms))
    if not toks:
        raise QueryError("query is empty after tokenization")
    result, *longer = sorted((index.postings.get(token, ()) for token in dict.fromkeys(toks)), key=len)
    for ids in longer:
        if not result:
            break
        result = tuple(filter(set(result).__contains__, ids))
    return list(result)


def save_index(index: InvertedIndex, path: str | Path) -> None:
    # json.dumps takes the C encoder, which json.dump never does; tuples encode as arrays
    payload = {"version": index.version, "doc_count": index.doc_count, "postings": dict(index.postings)}
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n")


def load_index(path: str | Path) -> InvertedIndex:
    return _measure(path, _index, read_json(path))


def _index(payload: object) -> InvertedIndex:  # every fault names no file: load_index locates it
    if not isinstance(payload, dict) or "version" not in payload:
        raise FormatError("not an index file (missing 'version')")
    if type(payload["version"]) is not int or payload["version"] != INDEX_VERSION:
        raise IndexVersionError(f"index version {payload['version']!r} is not supported (expected {INDEX_VERSION})")
    postings, doc_count = payload.get("postings"), payload.get("doc_count")
    _check_container(postings, dict, "malformed index payload: expected a postings object", FormatError)
    _check_count(doc_count, "doc_count", 0, error=FormatError)
    for token, ids in postings.items():  # each list becomes its tuple in place: no key is added
        _check_container(ids, list, f"postings for {token!r} are not a string list", FormatError, str)
        if any(a >= b for a, b in zip(ids, ids[1:])) or len(ids) > doc_count:
            raise FormatError(f"postings for {token!r} are not sorted, unique and <= doc_count")
        _check_word(token, "posting key", FormatError)
        postings[token] = tuple(ids)
    if len(set().union(*postings.values())) > doc_count:
        raise FormatError(f"postings name more distinct ids than doc_count {doc_count}")
    return InvertedIndex(postings=postings, doc_count=doc_count)
