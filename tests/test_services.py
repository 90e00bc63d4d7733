from __future__ import annotations

import inspect
import json
import re
import sys
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from egoview import services
from egoview.errors import EmptyInput, InvalidImageReference, ServiceUnavailable
from egoview.services import RemoteModelService, StubModelService
from egoview.synthesis import build_compose_prompt

from .oracles import jaccard_score


class TestStubCaptions:
    def test_sorted_labels_in_caption(self):
        stub = StubModelService()
        stub.register_view_labels("frames/v01.jpg", ["desk", "chair"])
        captions = stub.caption_image("frames/v01.jpg", 2)
        assert captions[0] == "a view containing chair and desk"
        assert captions[1] == "a view showing chair and desk"

    def test_deterministic_across_calls(self):
        stub = StubModelService()
        stub.register_view_labels("ref", ["sofa", "table", "lamp"])
        assert stub.caption_image("ref", 5) == stub.caption_image("ref", 5)

    def test_unregistered_reference(self):
        with pytest.raises(InvalidImageReference):
            StubModelService().caption_image("nowhere.jpg", 1)

    def test_empty_label_set(self):
        stub = StubModelService()
        stub.register_view_labels("blank", [])
        assert stub.caption_image("blank", 1) == ["a view containing no distinct objects"]


class TestStubScores:
    def test_exact_label_match(self):
        stub = StubModelService()
        stub.register_view_labels("r", ["desk"])
        assert stub.score_image_text("r", ["desk"]) == (1.0,)

    def test_jaccard_with_stopwords_kept(self):
        stub = StubModelService()
        stub.register_view_labels("r", ["desk", "chair"])
        assert stub.score_image_text("r", ["the desk"])[0] == pytest.approx(1 / 3)

    def test_alignment_with_inputs(self):
        stub = StubModelService()
        stub.register_view_labels("r", ["desk"])
        scores = stub.score_image_text("r", ["desk", "sofa"])
        assert len(scores) == 2
        assert scores[0] > scores[1]

    def test_multiword_labels_are_tokenized(self):
        stub = StubModelService()
        stub.register_view_labels("r", ["waste basket"])
        assert stub.score_image_text("r", ["waste basket"]) == (1.0,)

    def test_each_text_scored_alone_as_in_a_batch(self):
        stub = StubModelService()
        stub.register_view_labels("v", ["office chair", "desk", "lamp"])
        texts = ["the desk", "an office chair by the lamp", "", "nothing", "the desk", "LAMP"]
        batch = stub.score_image_text("v", texts)
        assert batch == tuple(stub.score_image_text("v", [t])[0] for t in texts)
        assert stub.score_image_text("v", texts[::-1]) == batch[::-1]

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyInput):
            StubModelService().score_image_text("r", [])

    def test_scores_in_unit_interval(self):
        stub = StubModelService()
        stub.register_view_labels("r", ["desk", "chair", "sofa"])
        texts = ["", "desk", "desk chair sofa", "something unrelated entirely"]
        assert all(0.0 <= s <= 1.0 for s in stub.score_image_text("r", texts))


_WORDS = ("desk", "Desk", "office chair", "waste basket", "TV-stand", "lamp!", "the", "A", "2nd")
# Phrases of a few known words, so texts and labels share tokens, or short
# runs of letters, digits, spaces and punctuation (often no token at all).
_PHRASES = st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join) | st.text(
    alphabet="abDE 09,.-'!", max_size=10
)
_LABELS = st.lists(_PHRASES, max_size=5)
# Drawn from a few phrases, so a batch often repeats a text.
_TEXTS = st.lists(_PHRASES, min_size=1, max_size=4).flatmap(
    lambda phrases: st.lists(st.sampled_from(phrases), min_size=1, max_size=6)
)


def _assert_oracle(stub, ref, texts, labels):
    assert stub.score_image_text(ref, texts) == tuple(
        jaccard_score(text, labels) for text in texts
    )


class TestStubScoreOracle:
    """Every stub score equals a from-scratch Jaccard, whatever the client
    scored before."""

    @settings(max_examples=100, deadline=None)
    @given(labels=_LABELS, texts=_TEXTS)
    def test_cold_client(self, labels, texts):
        stub = StubModelService()
        stub.register_view_labels("v", labels)
        _assert_oracle(stub, "v", texts, labels)

    @settings(max_examples=100, deadline=None)
    @given(labels=_LABELS, others=st.lists(_LABELS, min_size=1, max_size=3), texts=_TEXTS)
    def test_warmed_on_the_same_batch_against_other_views(self, labels, others, texts):
        stub = StubModelService()
        refs = [f"o{i}" for i in range(len(others))]
        for ref, other in zip(refs, others):
            stub.register_view_labels(ref, other)
        stub.register_view_labels("v", labels)
        for ref, other in zip(refs, others):
            _assert_oracle(stub, ref, texts, other)
        _assert_oracle(stub, "v", list(texts), labels)  # an equal batch, not the same object
        _assert_oracle(stub, refs[0], texts, others[0])

    @settings(max_examples=100, deadline=None)
    @given(labels=_LABELS, other=_LABELS, texts=_TEXTS, between=st.lists(_TEXTS, max_size=3))
    def test_calls_interleaving_other_batches(self, labels, other, texts, between):
        stub = StubModelService()
        stub.register_view_labels("v", labels)
        stub.register_view_labels("w", other)
        for batch in between:
            _assert_oracle(stub, "v", texts, labels)
            _assert_oracle(stub, "w", batch, other)
            _assert_oracle(stub, "v", batch, labels)
        _assert_oracle(stub, "w", texts, other)

    @settings(max_examples=100, deadline=None)
    @given(labels=_LABELS, relabelled=_LABELS, texts=_TEXTS)
    def test_after_the_view_is_registered_again(self, labels, relabelled, texts):
        stub = StubModelService()
        stub.register_view_labels("v", labels)
        _assert_oracle(stub, "v", texts, labels)
        stub.register_view_labels("v", relabelled)
        _assert_oracle(stub, "v", texts, relabelled)


class TestStubTokenState:
    def test_kept_token_state_does_not_grow_with_calls(self):
        stub = StubModelService()
        stub.register_view_labels("v", ["desk", "office chair"])
        texts = [f"text {i} names the desk and chair {i * 7919}" for i in range(1000)]
        stub.score_image_text("v", ["warm up the client"])
        tracemalloc.start()
        try:
            stub.score_image_text("v", [texts[0]])
            before, _ = tracemalloc.get_traced_memory()
            for text in texts[1:]:
                stub.score_image_text("v", [text])
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A token set kept per text would hold ~1000 frozensets, over 200 kB.
        assert after - before < 16_000

    def test_each_distinct_label_is_tokenized_once(self, monkeypatch):
        views = {
            "v1": ["desk", "office chair", "lamp"],
            "v2": ["office chair", "desk"],
            "v3": [],
            "v4": ["lamp", "lamp", "Office Chair"],
            "v5": ["desk"],
        }
        texts = ["the desk near a lamp", "office chair", "nothing"]
        calls = []
        tokenize = services.tokenize

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(services, "tokenize", counting_tokenize)
        stub = StubModelService()
        for ref, labels in views.items():
            stub.register_view_labels(ref, labels)
        distinct = {label for labels in views.values() for label in labels}
        assert sorted(calls) == sorted(distinct)
        for ref, labels in views.items():
            fresh = StubModelService()
            fresh.register_view_labels(ref, labels)
            assert stub.caption_image(ref, 4) == fresh.caption_image(ref, 4)
            assert stub.score_image_text(ref, texts) == fresh.score_image_text(ref, texts)

    def test_threads_sharing_the_label_table(self):
        """Threads registering views whose labels overlap leave every view
        with the labels and scores a fresh stub gives it."""
        vocabulary = [f"object {k} part {k % 7}" for k in range(30)]
        views = {
            f"t{t}v{i}": [vocabulary[(7 * i + t) % 30], vocabulary[(3 * i) % 30]]
            for t in range(4)
            for i in range(150)
        }
        stub = StubModelService()

        def register(thread: int):
            for ref, labels in views.items():
                if ref.startswith(f"t{thread}v"):
                    stub.register_view_labels(ref, labels)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=register, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        texts = ["object 3 part 3", "part 5"]
        for ref, labels in views.items():
            fresh = StubModelService()
            fresh.register_view_labels(ref, labels)
            assert stub.caption_image(ref) == fresh.caption_image(ref)
            assert stub.score_image_text(ref, texts) == fresh.score_image_text(ref, texts)


# One line of text with no lone surrogate: a parent text, answer or label.
_LINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), min_size=1)


class _FakePair:
    def __init__(self, texts=("Where is the desk?", "left", "What color is the chair?", "red")):
        from egoview.synthesis import CandidatePair, QuestionRecord

        text1, answer1, text2, answer2 = texts
        self.pair = CandidatePair(
            first=QuestionRecord("qa", "s", text1, answer1, frozenset({1, 2})),
            second=QuestionRecord("qb", "s", text2, answer2, frozenset({2, 3})),
            shared_anchor_ids=frozenset({2}),
        )


class TestStubGeneration:
    def test_compose_prompt_yields_parseable_template(self):
        pair = _FakePair().pair
        prompt = build_compose_prompt(pair, ["chair"])
        reply = StubModelService().generate_text(prompt)
        data = json.loads(reply)
        assert data == {
            "question": "Combining: Where is the desk | What color is the chair?",
            "answer": "left",
        }

    def test_same_prompt_same_output(self):
        prompt = build_compose_prompt(_FakePair().pair, ["chair"])
        stub = StubModelService()
        assert stub.generate_text(prompt) == stub.generate_text(prompt)

    @pytest.mark.parametrize("field", ["Parent question 1", "Parent answer 1", "Parent question 2"])
    def test_prompt_missing_a_field_gets_empty_reply(self, field):
        prompt = build_compose_prompt(_FakePair().pair, ["chair"])
        lines = [line for line in prompt.splitlines() if not line.startswith(f"{field}: ")]
        assert len(lines) == len(prompt.splitlines()) - 1
        assert StubModelService().generate_text("\n".join(lines)) == ""

    def test_temperature_ignored(self):
        prompt = build_compose_prompt(_FakePair().pair, ["chair"])
        stub = StubModelService()
        assert stub.generate_text(prompt, temperature=0.0) == stub.generate_text(prompt, temperature=1.0)

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_LINE, min_size=4, max_size=4), labels=st.lists(_LINE, max_size=3))
    def test_compose_reply_joins_the_parents(self, texts, labels):
        text1, answer1, text2, _ = texts
        reply = StubModelService().generate_text(build_compose_prompt(_FakePair(texts).pair, labels))
        t1, t2 = (text.strip().rstrip(" ?") for text in (text1, text2))
        assert json.loads(reply) == {"question": f"Combining: {t1} | {t2}?", "answer": answer1.strip()}

    def test_max_tokens_validated(self):
        with pytest.raises(ValueError):
            StubModelService().generate_text("x", max_tokens=0)


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        route = self.path
        if route == "/v1/caption":
            body = {"captions": [f"caption {i}" for i in range(payload["num_captions"])]}
        elif route == "/v1/score_image_text":
            body = {"scores": [2.5 for _ in payload["texts"]]}  # out of range on purpose
        elif route == "/v1/generate":
            body = {"text": f"echo:{payload['prompt']}"}
        elif route == "/v1/broken":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"not json")
            return
        else:
            self.send_response(500)
            self.end_headers()
            return
        data = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture(scope="module")
def model_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestRemoteService:
    def test_caption_round_trip(self, model_server):
        client = RemoteModelService(model_server)
        assert client.caption_image("img.jpg", 2) == ["caption 0", "caption 1"]

    def test_scores_clamped_to_unit_interval(self, model_server):
        client = RemoteModelService(model_server)
        assert client.score_image_text("img.jpg", ["x"]) == (1.0,)

    def test_generate_round_trip(self, model_server):
        client = RemoteModelService(model_server)
        assert client.generate_text("ping") == "echo:ping"

    def test_unreachable_url_raises_after_retries(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("egoview.services.time.sleep", sleeps.append)
        monkeypatch.setattr(services, "REQUEST_TIMEOUT", 0.5)
        client = RemoteModelService("http://127.0.0.1:9")
        with pytest.raises(ServiceUnavailable):
            client.generate_text("ping")
        assert sleeps == [0.5, 2.0]

    def test_malformed_body_fails_without_retry(self, model_server, monkeypatch):
        sleeps = []
        monkeypatch.setattr("egoview.services.time.sleep", sleeps.append)
        client = RemoteModelService(model_server)
        with pytest.raises(ServiceUnavailable):
            client._post("/v1/broken", {})
        assert sleeps == []

    def test_transient_transport_error_is_retried(self, model_server, monkeypatch):
        client = RemoteModelService(model_server)
        monkeypatch.setattr("egoview.services.time.sleep", lambda _: None)
        real_post = client._session.post
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise requests.ConnectionError("boom")
            return real_post(*args, **kwargs)

        monkeypatch.setattr(client._session, "post", flaky)
        assert client.generate_text("ping") == "echo:ping"
        assert calls["n"] == 2


class _Reply:
    """A 200 reply whose body is decoded from raw JSON text as requests does,
    so NaN and Infinity literals decode to floats."""

    status_code = 200

    def __init__(self, text: str):
        self.text = text

    def json(self):
        return json.loads(self.text)


def _serve(monkeypatch, route: str, item: str | None, keep: int | None = None) -> None:
    """Answer every requests session in-process: `route` replies with the raw
    JSON `item` in place of each caption or score (None leaves them) and
    with only the first `keep` of them, the other routes with well-formed
    lists."""

    def post(session, url, **kwargs):
        payload = kwargs["json"]
        if url.endswith("/v1/caption"):
            key, items = "captions", ['"a chair"'] * payload["num_captions"]
        else:
            key, items = "scores", ["0.5"] * len(payload["texts"])
        if url.endswith(route):
            items = ([item] * len(items) if item is not None else items)[:keep]
        return _Reply(f'{{"{key}": [{", ".join(items)}]}}')

    monkeypatch.setattr(requests.Session, "post", post)


BAD_SCORES = ["null", "[0.5]", '"abc"', '"0.5"', "true", "NaN", "Infinity", "-Infinity", "1e400", "9" * 400]
BAD_CAPTIONS = ["null", "1", "true", '["a chair"]', '{"text": "a chair"}', '""', '"\\ud800"']
CLI_BAD_ITEMS = [
    *(("/v1/score_image_text", i) for i in BAD_SCORES[:3]),
    *(("/v1/caption", i) for i in ("null", '""', '"\\ud800"')),
]


class TestRemoteReplies:
    @pytest.mark.parametrize("item", BAD_SCORES, ids=lambda item: item[:12])
    def test_score_must_be_a_finite_number(self, monkeypatch, item):
        _serve(monkeypatch, "/v1/score_image_text", item)
        client = RemoteModelService("http://model")
        with pytest.raises(ServiceUnavailable, match="^/v1/score_image_text reply: a score must be"):
            client.score_image_text("img.jpg", ["x", "y"])

    @pytest.mark.parametrize("item", BAD_CAPTIONS)
    def test_caption_must_be_a_string(self, monkeypatch, item):
        _serve(monkeypatch, "/v1/caption", item)
        client = RemoteModelService("http://model")
        with pytest.raises(ServiceUnavailable, match="^/v1/caption reply: 'captions' must be"):
            client.caption_image("img.jpg", 2)

    @pytest.mark.parametrize("keep", [0, -1], ids=["none", "one-short"])
    def test_caption_reply_must_hold_one_per_caption_requested(self, monkeypatch, keep):
        _serve(monkeypatch, "/v1/caption", None, keep)
        client = RemoteModelService("http://model")
        with pytest.raises(ServiceUnavailable, match="^/v1/caption reply: 'captions' must be"):
            client.caption_image("img.jpg", 2)

    @pytest.mark.parametrize("item,expected", [("0", 0.0), ("1", 1.0), ("-3", 0.0), ("0.25", 0.25)])
    def test_integer_and_float_scores_are_clamped_floats(self, monkeypatch, item, expected):
        _serve(monkeypatch, "/v1/score_image_text", item)
        client = RemoteModelService("http://model")
        scores = client.score_image_text("img.jpg", ["x"])
        assert scores == (expected,) and type(scores[0]) is float

    @pytest.mark.parametrize(
        "route,item,keep",
        [*(pytest.param(r, i, None, id=f"{r}-{i}") for r, i in CLI_BAD_ITEMS),
         pytest.param("/v1/caption", None, 0, id="/v1/caption-none"),
         pytest.param("/v1/caption", None, -1, id="/v1/caption-one-short")],
    )
    def test_cli_exits_4_naming_the_route(self, monkeypatch, tmp_path, capsys, route, item, keep):
        from egoview.cli import main

        _serve(monkeypatch, route, item, keep)
        scenes = Path(__file__).resolve().parent / "data" / "scenes"
        code = main([
            "build-corpus", "--scenes", str(scenes), "--mode", "captions", "--threshold", "0",
            "--out", str(tmp_path / "t.jsonl"), "--service", "http://model",
        ])
        assert code == 4
        assert capsys.readouterr().err.startswith(f"service error: {route} reply: ")
        assert list(tmp_path.iterdir()) == []


    def test_cli_exits_4_on_a_body_nested_too_deep(self, monkeypatch, tmp_path, capsys):
        from egoview.cli import main

        deep = _Reply('{"captions": ' + "[" * 5000)
        monkeypatch.setattr(requests.Session, "post", lambda session, url, **kwargs: deep)
        scenes = Path(__file__).resolve().parent / "data" / "scenes"
        code = main([
            "build-corpus", "--scenes", str(scenes), "--mode", "captions",
            "--out", str(tmp_path / "t.jsonl"), "--service", "http://model",
        ])
        assert code == 4
        message = "service error: http://model/v1/caption returned a non-JSON body\n"
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [
        requests.exceptions.ChunkedEncodingError("broken chunk"),
        requests.exceptions.ContentDecodingError("bad gzip"),
        requests.exceptions.TooManyRedirects("redirect loop"),
    ], ids=lambda error: type(error).__name__)
    def test_cli_exits_4_on_other_transport_errors(self, monkeypatch, tmp_path, capsys, error):
        from egoview.cli import main

        calls = []

        def post(session, url, **kwargs):
            calls.append(url)
            raise error

        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setattr("egoview.services.time.sleep", lambda _: None)
        scenes = Path(__file__).resolve().parent / "data" / "scenes"
        code = main([
            "build-corpus", "--scenes", str(scenes), "--mode", "captions",
            "--out", str(tmp_path / "t.jsonl"), "--service", "http://model",
        ])
        assert code == 4
        assert "http://model/v1/caption" in capsys.readouterr().err
        assert calls == ["http://model/v1/caption"]  # not retried
        assert list(tmp_path.iterdir()) == []


# (route, status, raw body, the ServiceUnavailable message): one reply a
# client must refuse, every other route answering well-formed.
BAD_REPLIES = [
    pytest.param("/v1/caption", 503, '{"captions": ["a chair"]}',
                 "http://model/v1/caption returned status 503", id="status"),
    pytest.param("/v1/caption", 200, '["a chair"]',
                 "http://model/v1/caption returned a non-object body", id="non-object"),
    pytest.param("/v1/score_image_text", 200, '{"scores": [0.5]}',
                 "/v1/score_image_text reply: 'scores' must be a list, one per text",
                 id="score-count"),
    pytest.param("/v1/generate", 200, '{"answer": "yes"}',
                 "/v1/generate reply: 'text' must be a string", id="no-text"),
]


def _serve_one_bad(monkeypatch, route: str, status: int, body: str) -> list[str]:
    """Answer `route` with `body` at `status` and the other routes
    well-formed; return the list of URLs posted to, filled as they are."""
    calls = []

    def post(session, url, **kwargs):
        calls.append(url)
        if url.endswith(route):
            reply = _Reply(body)
            reply.status_code = status
            return reply
        payload = kwargs["json"]
        if url.endswith("/v1/caption"):
            return _Reply(json.dumps({"captions": ["a chair"] * payload["num_captions"]}))
        if url.endswith("/v1/score_image_text"):
            return _Reply(json.dumps({"scores": [0.5] * len(payload["texts"])}))
        return _Reply(json.dumps({"text": '{"question": "Both?", "answer": "yes"}'}))

    monkeypatch.setattr(requests.Session, "post", post)
    monkeypatch.setattr("egoview.services.time.sleep", lambda _: None)
    return calls


class TestRemoteFailures:
    @pytest.mark.parametrize("route,status,body,message", BAD_REPLIES)
    def test_client_raises_without_retry(self, monkeypatch, route, status, body, message):
        calls = _serve_one_bad(monkeypatch, route, status, body)
        client = RemoteModelService("http://model")
        call = {
            "/v1/caption": lambda: client.caption_image("img.jpg", 1),
            "/v1/score_image_text": lambda: client.score_image_text("img.jpg", ["x", "y"]),
            "/v1/generate": lambda: client.generate_text("ping"),
        }[route]
        with pytest.raises(ServiceUnavailable) as excinfo:
            call()
        assert str(excinfo.value) == message
        assert calls == [f"http://model{route}"]

    @pytest.mark.parametrize("route,status,body,message", BAD_REPLIES)
    def test_cli_exits_4_without_output(
        self, monkeypatch, tmp_path, capsys, route, status, body, message
    ):
        from egoview.cli import main

        _serve_one_bad(monkeypatch, route, status, body)
        data = Path(__file__).resolve().parent / "data"
        out = str(tmp_path / "out.jsonl")
        if route == "/v1/generate":
            argv = ["synthesize", "--questions", str(data / "questions.jsonl")]
        else:
            argv = ["build-corpus", "--mode", "captions"]
        code = main([*argv, "--scenes", str(data / "scenes"), "--out", out,
                     "--service", "http://model"])
        assert code == 4
        assert capsys.readouterr().err == f"service error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_empty_image_reference_is_refused_before_any_request(self, monkeypatch):
        calls = _serve_one_bad(monkeypatch, "/v1/none", 200, "{}")
        client = RemoteModelService("http://model")
        with pytest.raises(InvalidImageReference, match="^empty image reference$"):
            client.caption_image("", 1)
        with pytest.raises(InvalidImageReference, match="^empty image reference$"):
            client.score_image_text("", ["x"])
        assert calls == []


class TestConfigAndFactory:
    def test_remote_requires_base_url(self):
        with pytest.raises(ValueError):
            RemoteModelService("")


class TestRouteDrift:
    def test_readme_docstring_and_client_name_the_same_routes(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        documented = re.findall(r"^POST <base>(/v1/\w+) ", readme, re.MULTILINE)
        in_docstring = re.findall(r"^ *POST <base>(/v1/\w+) ", services.__doc__, re.MULTILINE)
        posted = re.findall(r'"(/v1/\w+)"', inspect.getsource(RemoteModelService))
        assert documented and len(set(documented)) == len(documented)
        assert sorted(documented) == sorted(in_docstring) == sorted(posted)
