import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from captionkit.augment import back_translate
from captionkit.corpus import corpus_from_documents
from captionkit.exceptions import TranslationError
from captionkit.translate import HttpTranslator, TranslationChain


class _Handler(BaseHTTPRequestHandler):
    """Echo translator: records requests, upper-cases on the final hop to 'en'."""

    requests_seen = []
    fail_next = 0

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(payload)
        if type(self).fail_next > 0:
            type(self).fail_next -= 1
            self.send_response(503)
            self.end_headers()
            return
        text = payload["q"]
        if payload["target"] == "en":
            text = text.upper()
        body = json.dumps({"translatedText": text}).encode()
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
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
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
