"""Spans recorded from outside the program, around calls into its public functions.

``Tracer.install()`` wraps each function named in ``SPAN_TARGETS`` and replaces
every ``captionkit.*`` module attribute that is the same object as the
original, so calls through ``cli`` (which imports names with ``from .x import
y``), through the defining module and through the package root all go through
the wrapper. ``tokenize`` gets a lighter shim that only counts calls and sums
their time, since it runs hundreds of thousands of times per pass.

A span's self time is its duration minus the time covered by its child spans
and by the tokenize calls made inside it. Spans stay in memory until
``write()`` saves them at the end of a pass; ``uninstall()`` restores every
replaced attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

# Span name -> (module, attribute) of the function the span wraps.
SPAN_TARGETS = {
    "corpus.ingest_captions": ("captionkit.corpus", "ingest_captions"),
    "corpus.ingest_predictions": ("captionkit.corpus", "ingest_predictions"),
    "corpus.ingest_labels": ("captionkit.corpus", "ingest_labels"),
    "corpus.captions_to_jsonl": ("captionkit.corpus", "captions_to_jsonl"),
    "corpus.write_captions_jsonl": ("captionkit.corpus", "write_captions_jsonl"),
    "vocabstats.profile": ("captionkit.vocabstats", "profile"),
    "vocabstats.frequency_export": ("captionkit.vocabstats", "frequency_export"),
    "readability.report": ("captionkit.readability", "report"),
    "bleu.score_predictions": ("captionkit.bleu", "score_predictions"),
    "confusion.scene_matrix": ("captionkit.confusion", "scene_matrix"),
    "confusion.with_attributes": ("captionkit.confusion", "with_attributes"),
    "confusion.attribute_table": ("captionkit.confusion", "attribute_table"),
    "confusion.matrix_export": ("captionkit.confusion", "matrix_export"),
    "discover.build_index": ("captionkit.discover", "build_index"),
    "discover.save_index": ("captionkit.discover", "save_index"),
    "discover.load_index": ("captionkit.discover", "load_index"),
    "discover.query": ("captionkit.discover", "query"),
    "augment.correct": ("captionkit.augment", "correct"),
    "augment.synonym_expand": ("captionkit.augment", "synonym_expand"),
    "augment.back_translate": ("captionkit.augment", "back_translate"),
}

# Per-layer self-time metric -> the spans whose self times it sums.
LAYER_SPANS = {
    "corpus.ingest_s": ("corpus.ingest_captions", "corpus.ingest_predictions", "corpus.ingest_labels"),
    "corpus.serialize_s": ("corpus.captions_to_jsonl", "corpus.write_captions_jsonl"),
    "vocabstats.profile_s": ("vocabstats.profile",),
    "vocabstats.export_s": ("vocabstats.frequency_export",),
    "readability.report_s": ("readability.report",),
    "bleu.score_s": ("bleu.score_predictions",),
    "confusion.matrix_s": ("confusion.scene_matrix",),
    "confusion.attributes_s": ("confusion.with_attributes", "confusion.attribute_table"),
    "confusion.export_s": ("confusion.matrix_export",),
    "discover.build_s": ("discover.build_index",),
    "discover.save_s": ("discover.save_index",),
    "discover.load_s": ("discover.load_index",),
    "augment.correct_s": ("augment.correct",),
    "augment.synonym_s": ("augment.synonym_expand",),
    "augment.backtranslate_s": ("augment.back_translate",),
}

TOKENIZE = ("captionkit.tokens", "tokenize")


def _path_bytes(args, kwargs, result) -> int:
    path = args[0] if args else kwargs.get("path")
    return os.path.getsize(path)


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode("utf-8"))


# Span name -> (counter, function of (args, kwargs, result) giving the amount).
SPAN_COUNTERS = {
    "corpus.ingest_captions": ("corpus.bytes_in", _path_bytes),
    "corpus.ingest_predictions": ("corpus.bytes_in", _path_bytes),
    "corpus.ingest_labels": ("corpus.bytes_in", _path_bytes),
    "corpus.captions_to_jsonl": ("corpus.bytes_out", _text_bytes),
}


class _Open:
    __slots__ = ("name", "start", "child_s", "tokenize_s", "parent", "index")

    def __init__(self, name: str, start: float, parent: int | None, index: int):
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.tokenize_s = 0.0
        self.parent = parent
        self.index = index


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.tokenize_calls = 0
        self.tokenize_s = 0.0
        self.missing: list[str] = []
        self.counters: dict[str, int] = {counter: 0 for counter, _ in SPAN_COUNTERS.values()}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append({})
        stack.append(_Open(name, time.perf_counter(), stack[-1].index if stack else None, index))

    def end(self) -> None:
        finish = time.perf_counter()
        stack = self._stack()
        entry = stack.pop()
        duration = finish - entry.start
        if stack:
            stack[-1].child_s += duration
        self.spans[entry.index] = {
            "name": entry.name,
            "start": entry.start,
            "end": finish,
            "duration_s": duration,
            "self_s": duration - entry.child_s,
            "tokenize_s": entry.tokenize_s,
            "parent": entry.parent,
            "thread": threading.get_ident(),
        }

    def wrap(self, name: str, fn):
        counter, amount = SPAN_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter:
                n = amount(args, kwargs, result)
                with self._lock:
                    self.counters[counter] += n
            return result

        return spanned

    def _tokenize_shim(self, fn):
        @functools.wraps(fn)
        def counted(text):
            start = time.perf_counter()
            result = fn(text)
            elapsed = time.perf_counter() - start
            stack = self._stack()
            if stack:
                stack[-1].child_s += elapsed
                stack[-1].tokenize_s += elapsed
            with self._lock:
                self.tokenize_calls += 1
                self.tokenize_s += elapsed
            return result

        return counted

    def _patch_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "captionkit" or modname.startswith("captionkit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for name, (modname, attr) in SPAN_TARGETS.items():
            try:
                original = getattr(importlib.import_module(modname), attr, None)
            except ImportError:
                original = None
            if original is None:
                self.missing.append(name)
                continue
            self._patch_everywhere(original, self.wrap(name, original))
        modname, attr = TOKENIZE
        tokenize = getattr(importlib.import_module(modname), attr)
        self._patch_everywhere(tokenize, self._tokenize_shim(tokenize))
        if self.missing:
            print(f"trace: no function for spans {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def rescale(self, corrected) -> None:
        """Scale each span's times by ``corrected(start, end) / (end - start)``.

        With ``SpeedSampler.corrected`` this removes probe time and host-speed
        changes from every span, as for the pass as a whole. Tokenize time
        made outside any span stays as measured.
        """
        loose = self.tokenize_s - sum(span["tokenize_s"] for span in self.spans)
        for span in self.spans:
            duration = span["end"] - span["start"]
            factor = corrected(span["start"], span["end"]) / duration if duration > 0 else 1.0
            for key in ("duration_s", "self_s", "tokenize_s"):
                span[key] *= factor
        self.tokenize_s = loose + sum(span["tokenize_s"] for span in self.spans)

    def self_time(self, *names: str) -> float:
        return sum(span["self_s"] for span in self.spans if span["name"] in names)

    def durations(self, name: str) -> list[float]:
        return [span["duration_s"] for span in self.spans if span["name"] == name]

    def write(self, path: str | Path) -> None:
        payload = {
            "spans": self.spans,
            "tokenize": {"calls": self.tokenize_calls, "self_s": self.tokenize_s},
            "counters": self.counters,
            "missing": self.missing,
        }
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")
