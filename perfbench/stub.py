"""Translator stub for the back-translation workload.

``FaultyTranslator`` wraps ``captionkit.MockTranslator`` and adds what a remote
service has and the mock lacks: a fixed service delay (a sleep, so worker
threads overlap it the way they overlap network waits) and faults keyed on
``(text, leg)``:

- a *permanent* fault hits the first leg of each caption text in a planted
  set, on every attempt, so that caption is lost whatever the retry budget;
- a *transient* fault hits a hashed share of all keys on their first attempt
  only; the retry succeeds.

Both depend only on the key, never on thread timing, so the fault, retry and
failure counts repeat exactly at any concurrency.
"""

from __future__ import annotations

import hashlib
import threading
import time

from captionkit import MockTranslator
from captionkit.exceptions import TranslationError


def fault_kind(text: str, src: str, dst: str, permanent: frozenset[str],
               transient_per_mille: int) -> str | None:
    """``"permanent"``, ``"transient"`` or ``None`` for one translation request."""
    if src == "en" and text in permanent:
        return "permanent"
    digest = hashlib.sha256(f"{src}>{dst}\x00{text}".encode("utf-8")).digest()
    if int.from_bytes(digest[:4], "big") % 1000 < transient_per_mille:
        return "transient"
    return None


class FaultyTranslator:
    """MockTranslator plus a service delay and deterministic faults; counts what it does."""

    def __init__(self, delay_s: float, permanent: frozenset[str], transient_per_mille: int):
        self.inner = MockTranslator()
        self.delay_s = delay_s
        self.permanent = permanent
        self.transient_per_mille = transient_per_mille
        self._lock = threading.Lock()
        self._transient_seen: set[tuple[str, str, str]] = set()
        self.calls = 0
        self.faults = 0
        self.permanent_faults = 0
        self.wait_s = 0.0
        self.call_s: list[float] = []

    def translate(self, text: str, src: str, dst: str) -> str:
        start = time.perf_counter()
        try:
            time.sleep(self.delay_s)
            waited = time.perf_counter() - start
            kind = fault_kind(text, src, dst, self.permanent, self.transient_per_mille)
            with self._lock:
                self.calls += 1
                self.wait_s += waited
                if kind == "transient":
                    key = (text, src, dst)
                    if key in self._transient_seen:
                        kind = None
                    else:
                        self._transient_seen.add(key)
                if kind is not None:
                    self.faults += 1
                    self.permanent_faults += kind == "permanent"
            if kind is not None:
                raise TranslationError(f"injected {kind} fault ({src}->{dst})")
            return self.inner.translate(text, src, dst)
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.call_s.append(elapsed)
