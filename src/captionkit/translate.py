"""Translation backends and hop chains for back-translation.

Two interchangeable translators: a remote HTTP client speaking the
``{"q", "source", "target"} -> {"translatedText"}`` JSON contract, and a
deterministic offline mock (token swaps plus word drops) so everything can
run without network access.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Protocol

from .corpus import Record
from .exceptions import TranslationError, ValidationError
from .tokens import _check_container, _rewrite

if TYPE_CHECKING:  # HttpTranslator imports it at run time
    import requests


class _PermanentFailure(TranslationError):
    """The service rejected the request or its answer is unusable; a retry cannot help."""


class Translator(Protocol):
    def translate(self, text: str, src: str, dst: str) -> str: ...


def _legs(hops: Sequence[str]) -> list[tuple[str, str]]:
    path = ("en", *(h.lower() for h in hops), "en")
    return list(zip(path, path[1:]))


class TranslationChain(Record):
    """Pivot-language hops, a sequence of strings, implicitly starting and ending at English."""

    __slots__ = ("hops", "translator")

    def __init__(self, hops: tuple[str, ...], translator: Translator) -> None:
        _check_container(hops, Sequence, "translation chain: expected a sequence of hops", item=str)
        if not hops:
            raise ValidationError("translation chain needs at least one hop")
        for a, b in _legs(hops):
            if not b.strip():
                raise ValidationError(f"blank hop {b!r} in chain")
            if a == b:
                raise ValidationError(f"consecutive identical hop {a!r} in chain")
        self._set(hops, translator)

    def legs(self) -> list[tuple[str, str]]:
        return _legs(self.hops)


# Small built-in table: phrase/word swaps plus dropped intensifiers. Enough to
# exercise the simplify-and-generalize behavior of a real pivot cycle.
DEFAULT_MOCK_RULES: dict[tuple[str, ...], tuple[str, ...]] = {
    ("next", "to"): ("with",),
    ("beside",): ("near",),
    ("crashing",): (),
    ("very",): (),
    ("automobile",): ("car",),
}


class MockTranslator:
    """Offline stand-in: rewrites word patterns, ignores language codes.

    ``rules`` maps a non-empty sequence of lower-case words without whitespace
    to a sequence of replacement words (else ``ValidationError``; a string is
    neither); an empty replacement drops the pattern. Words are whitespace-split,
    not tokens. With no rules this is the identity translator.
    """

    def __init__(self, rules: Mapping[Sequence[str], Sequence[str]] | None = None):
        source = DEFAULT_MOCK_RULES if rules is None else rules
        _check_container(source, Mapping, "mock translator rules: expected a mapping")
        for pat, rep in source.items():
            _check_container(pat, Sequence, "mock translator pattern: expected a sequence of words", item=str)
            _check_container(rep, Sequence, "mock translator replacement: expected a sequence of words", item=str)
            if not pat or any(w.split() != [w.lower()] for w in pat):
                raise ValidationError("mock translator rules map non-empty lower-case whitespace-free words to words")
        self._rules = {tuple(pat): tuple(rep) for pat, rep in source.items()}
        # widest pattern first so "next to" wins over any single-word rule
        self._widths = sorted({len(pat) for pat in self._rules}, reverse=True)

    @classmethod
    def identity(cls) -> "MockTranslator":
        return cls(rules={})

    def translate(self, text: str, src: str, dst: str) -> str:
        words = text.split()
        return " ".join(_rewrite([w.lower() for w in words], words, self._rules, self._widths))


class HttpTranslator:
    """Client for a remote translation endpoint (LibreTranslate-style JSON).

    Every thread shares ``session`` when one is given; otherwise each thread
    that calls ``translate`` opens its own ``requests.Session``.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str | None = None,
        timeout: float = 10.0,
        session: requests.Session | None = None,
    ):
        import requests  # noqa: F401  (loaded, or found missing, here rather than in a pool worker)
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self._shared_session = session
        self._local = threading.local()

    def translate(self, text: str, src: str, dst: str) -> str:
        import requests
        session = self._shared_session
        if session is None:  # requests does not document Session as thread-safe
            if not hasattr(self._local, "session"):
                self._local.session = requests.Session()
            session = self._local.session
        payload = {"q": text, "source": src, "target": dst}
        if self.api_key:
            payload["api_key"] = self.api_key
        try:
            response = session.post(self.endpoint, json=payload, timeout=self.timeout)
            response.raise_for_status()
        except requests.RequestException as exc:
            status = getattr(exc.response, "status_code", 0)
            transient = not 400 <= status < 500 or status in (408, 429)
            error = TranslationError if transient else _PermanentFailure
            raise error(f"translation request failed ({src}->{dst}): {exc}") from exc
        try:
            body = response.json()
        except ValueError as exc:
            raise _PermanentFailure(f"translation response is not JSON ({src}->{dst})") from exc
        translated = body.get("translatedText") if isinstance(body, dict) else None
        if not isinstance(translated, str):
            raise _PermanentFailure(f"translation response missing 'translatedText' ({src}->{dst})")
        try:
            translated.encode()
        except UnicodeEncodeError as exc:  # a lone surrogate, such as the legal JSON escape "\udcff"
            raise _PermanentFailure(f"translation response is not UTF-8 text ({src}->{dst}): {exc.reason}") from exc
        return translated
