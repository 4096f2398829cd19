import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

from captionkit.augment import back_translate
from captionkit.cli import API_KEY_ENV, run
from captionkit.exceptions import TranslationError
from captionkit.translate import HttpTranslator, TranslationChain
from conftest import corpus_from_documents


class _Handler(BaseHTTPRequestHandler):
    """Echo translator: records requests, upper-cases on the final hop to 'en'."""

    requests_seen = []
    fail_next = 0
    fail_status = 503
    raw_reply = None  # when set, answer 200 with these bytes instead

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(payload)
        if type(self).fail_next > 0:
            type(self).fail_next -= 1
            self.send_response(type(self).fail_status)
            self.end_headers()
            return
        text = payload["q"]
        if payload["target"] == "en":
            text = text.upper()
        body = type(self).raw_reply or json.dumps({"translatedText": text}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    _Handler.requests_seen = []
    _Handler.fail_next = 0
    _Handler.fail_status = 503
    _Handler.raw_reply = None
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}/translate"
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


def test_wire_contract(server):
    translator = HttpTranslator(server, api_key="k123")
    assert translator.translate("a beach", "en", "es") == "a beach"
    request = _Handler.requests_seen[-1]
    assert request == {"q": "a beach", "source": "en", "target": "es", "api_key": "k123"}


def test_back_translate_over_http(server):
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    chain = TranslationChain(("es", "de"), HttpTranslator(server))
    result = back_translate(corpus, chain, backoff=0.0)
    assert [c.raw for c in result.records[0].captions] == ["a beach", "A BEACH"]
    # three legs per caption: en->es, es->de, de->en
    assert [(r["source"], r["target"]) for r in _Handler.requests_seen] == [
        ("en", "es"), ("es", "de"), ("de", "en"),
    ]


def test_http_error_becomes_translation_error(server):
    _Handler.fail_next = 10
    translator = HttpTranslator(server)
    with pytest.raises(TranslationError):
        translator.translate("a beach", "en", "es")


def test_retry_recovers_from_transient_503(server):
    _Handler.fail_next = 1
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    chain = TranslationChain(("es",), HttpTranslator(server))
    result = back_translate(corpus, chain, max_retries=2, backoff=0.0)
    assert [c.raw for c in result.records[0].captions] == ["a beach", "A BEACH"]


@pytest.mark.parametrize(
    "status, attempts", [(400, 1), (401, 1), (404, 1), (408, 3), (429, 3), (500, 3)]
)
def test_only_transient_http_failures_are_retried(server, status, attempts):
    _Handler.fail_next = 10
    _Handler.fail_status = status
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    chain = TranslationChain(("es",), HttpTranslator(server))
    with pytest.raises(TranslationError, match="every caption"):
        back_translate(corpus, chain, max_retries=2, backoff=0.0)
    assert len(_Handler.requests_seen) == attempts


def _two_workers_posting(monkeypatch, translator):
    """Back-translate three captions on two threads; return thread id -> sessions posted through."""
    used = {}
    both_started = threading.Barrier(2, timeout=5)
    post = requests.Session.post

    def recording_post(session, *args, **kwargs):
        if threading.get_ident() not in used:
            both_started.wait()  # hold the first call until a second thread has one too
        used.setdefault(threading.get_ident(), []).append(session)
        return post(session, *args, **kwargs)

    monkeypatch.setattr(requests.Session, "post", recording_post)
    corpus = corpus_from_documents({"i1": ["a beach", "a road"], "i2": ["a port"]}, "t")
    back_translate(corpus, TranslationChain(("es",), translator), concurrency=2, backoff=0.0)
    assert len(used) == 2
    return used


def test_worker_threads_do_not_share_a_session(server, monkeypatch):
    used = _two_workers_posting(monkeypatch, HttpTranslator(server))
    first, second = used.values()
    assert all(a is not b for a in first for b in second)
    assert len({id(s) for s in first}) == len({id(s) for s in second}) == 1


def test_given_session_serves_every_worker(server, monkeypatch):
    with requests.Session() as given:
        used = _two_workers_posting(monkeypatch, HttpTranslator(server, session=given))
    assert all(session is given for sessions in used.values() for session in sessions)


def test_cli_backtranslate_endpoint_sends_api_key(server, tmp_path, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "k-env")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"image_id": "i1", "captions": ["a beach"]}) + "\n", encoding="utf-8")
    out = tmp_path / "bt.jsonl"
    assert run(["augment", "backtranslate", "--captions", str(corpus), "--endpoint", server,
                "--chain", "es", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["captions"] == ["a beach", "A BEACH"]
    assert [r.get("api_key") for r in _Handler.requests_seen] == ["k-env", "k-env"]


def test_unreachable_endpoint():
    translator = HttpTranslator("http://127.0.0.1:1/translate", timeout=0.2)
    with pytest.raises(TranslationError):
        translator.translate("x", "en", "es")


def test_malformed_response_body(tmp_path, server):
    class _WeirdHandler(_Handler):
        def do_POST(self):
            body = json.dumps({"unexpected": "shape"}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    httpd = HTTPServer(("127.0.0.1", 0), _WeirdHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{httpd.server_address[1]}/translate"
        with pytest.raises(TranslationError, match="translatedText"):
            HttpTranslator(url).translate("x", "en", "es")
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


@pytest.mark.parametrize("body", [b"<html>busy</html>", b'{"unexpected": "shape"}', b'["a beach"]'])
def test_malformed_response_body_is_not_retried(server, body):
    _Handler.raw_reply = body
    corpus = corpus_from_documents({"i1": ["a beach"]}, "t")
    chain = TranslationChain(("es",), HttpTranslator(server))
    with pytest.raises(TranslationError, match="every caption"):
        back_translate(corpus, chain, max_retries=2, backoff=0.0)
    assert len(_Handler.requests_seen) == 1
