"""Model-service clients: one wire protocol, remote and deterministic stub modes.

Three capabilities sit behind a single request/response protocol so any
captioner, retrieval scorer, or text generator can be adapted:

    POST <base>/v1/caption            {image_path, num_captions}        -> {captions: [...]}
    POST <base>/v1/score_image_text   {image_path, texts: [...]}        -> {scores: [...]}
    POST <base>/v1/generate           {prompt, max_tokens, temperature} -> {text: ...}

The stub client answers the same calls in-process from a sidecar of visible
object labels per image reference, making every pipeline reproducible offline
byte for byte.  Nothing in it is random: stub outputs depend on their
inputs alone.  The stub tokenizes each distinct label once, when a view
first registers it, and keeps the token sets of the last `texts` batch it
scored, so scoring one batch against many views tokenizes each text once.

`score_image_text` scores each text independently of the other texts in
the call: a text's score against an image is the same alone as in any
batch.  View selection relies on this to score all of a scene's texts
against a view in one call.
"""

from __future__ import annotations

import json
import logging
import re
import time
from typing import Sequence

from ._util import finite_number, tokenize
from .errors import EmptyInput, InvalidImageReference, ServiceUnavailable
from .records import _encodable

logger = logging.getLogger(__name__)

# Transport retry schedule: sleeps between attempts, transport errors only.
RETRY_BACKOFF = (0.5, 2.0)
# Seconds each request may take before it counts as a transport failure.
REQUEST_TIMEOUT = 30.0

_CAPTION_TEMPLATES = (
    "a view containing {}",
    "a view showing {}",
    "an egocentric view with {}",
)

# The prompt lines the stub generator composes from: q1, a1, q2.
_PROMPT_FIELD_RE = tuple(
    re.compile(rf"^Parent {field}: (.*)$", re.MULTILINE)
    for field in ("question 1", "answer 1", "question 2")
)


def _join_labels(labels: Sequence[str]) -> str:
    if not labels:
        return "no distinct objects"
    if len(labels) == 1:
        return labels[0]
    return ", ".join(labels[:-1]) + " and " + labels[-1]


class StubModelService:
    """Deterministic in-process stand-in for all three model capabilities.

    Image understanding comes from a sidecar mapping image reference to the
    labels of objects visible in that view (registered by the corpus builder
    before any scoring call); no pixels are ever read.  Registering a view
    also builds its label token set, from one kept token list per distinct
    label: a label is tokenized the first time any view registers it, so
    that table grows with the label vocabulary, not with the number of
    views.  `score_image_text` keeps the token sets of the last
    batch of texts it scored and reuses them while the same batch is
    scored against further views; only that one batch is kept, so memory
    does not grow with the number of calls.  Reentrant and lock-free: each
    call reads the kept batch once and replaces it whole, so concurrent
    callers never mix batches; a label's token list is the same whoever
    adds it; and every output is a pure function of the inputs and the
    registered sidecar.
    """

    def __init__(self):
        # image reference -> (sorted distinct labels, their token set)
        self._views: dict[str, tuple[tuple[str, ...], frozenset[str]]] = {}
        # the last scored batch of texts and the token set of each
        self._batch: tuple[tuple[str, ...], list[frozenset[str]]] = ((), [])
        # label -> its tokens, for every distinct label registered
        self._label_tokens: dict[str, list[str]] = {}

    def register_view_labels(self, image_ref: str, labels: Sequence[str]) -> None:
        labels = tuple(sorted(set(labels)))
        known = self._label_tokens
        for label in labels:
            if label not in known:
                known[label] = tokenize(label)
        tokens = frozenset(token for label in labels for token in known[label])
        self._views[image_ref] = (labels, tokens)

    def _view(self, image_ref: str) -> tuple[tuple[str, ...], frozenset[str]]:
        if image_ref not in self._views:
            raise InvalidImageReference(f"no sidecar labels registered for {image_ref!r}")
        return self._views[image_ref]

    def caption_image(self, image_ref: str, num_captions: int = 1) -> list[str]:
        if num_captions < 1:
            raise ValueError("num_captions must be >= 1")
        base = _join_labels(self._view(image_ref)[0])
        captions = []
        for i in range(num_captions):
            if i < len(_CAPTION_TEMPLATES):
                captions.append(_CAPTION_TEMPLATES[i].format(base))
            else:
                captions.append(f"a view containing {base} (variant {i})")
        return captions

    def _text_tokens(self, texts: Sequence[str]) -> list[frozenset[str]]:
        """The token set of each text, reused from the last batch when
        `texts` is that batch."""
        key = tuple(texts)
        batch, tokens = self._batch
        if key != batch:
            tokens = [frozenset(tokenize(text)) for text in key]
            self._batch = (key, tokens)
        return tokens

    def score_image_text(self, image_ref: str, texts: Sequence[str]) -> tuple[float, ...]:
        """Jaccard overlap between text tokens and the view's label tokens,
        one score in [0, 1] per text."""
        if not texts:
            raise EmptyInput("score_image_text requires at least one text")
        label_tokens = self._view(image_ref)[1]
        scores = []
        for text_tokens in self._text_tokens(texts):
            shared = len(text_tokens & label_tokens)
            union = len(text_tokens) + len(label_tokens) - shared
            scores.append(shared / union if union else 0.0)
        return tuple(scores)

    def generate_text(self, prompt: str, max_tokens: int = 256, temperature: float = 0.0) -> str:
        """Deterministic generation; temperature is ignored.

        A prompt holding both parent questions and the first parent's answer
        gets the fixed combination template (question = both parents joined,
        answer = first parent's); any other prompt gets "".
        """
        if max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        matches = [pattern.search(prompt) for pattern in _PROMPT_FIELD_RE]
        if not all(matches):
            return ""
        q1, a1, q2 = (match.group(1).strip() for match in matches)
        return json.dumps(
            {"question": f"Combining: {q1.rstrip(' ?')} | {q2.rstrip(' ?')}?", "answer": a1},
            ensure_ascii=False,
        )


class RemoteModelService:
    """HTTP client for the three-route protocol.

    Connection errors and timeouts are retried twice with backoff, then
    raised as ServiceUnavailable.  Any other transport error (a body broken
    off mid-stream, too many redirects) is a ServiceUnavailable at once; a
    malformed URL or header stays a ValueError.  Replies are never retried:
    malformed bodies (not JSON, or nested too deep to decode) and any
    status other than 200 fail immediately.
    A reply must hold a non-empty string that UTF-8 can encode per caption
    and a finite JSON number (not a bool) per score; anything else is a
    ServiceUnavailable naming the route.
    `requests` is imported here, not at module level, so stub runs never
    load it.
    """

    def __init__(self, base_url: str):
        import requests

        if not base_url:
            raise ValueError("remote mode requires a base_url")
        self.base_url = base_url
        self._session = requests.Session()

    def _post(self, route: str, payload: dict) -> dict:
        import requests

        url = self.base_url.rstrip("/") + route
        last_error: Exception | None = None
        for attempt in range(len(RETRY_BACKOFF) + 1):
            if attempt > 0:
                time.sleep(RETRY_BACKOFF[attempt - 1])
                logger.warning("retrying %s (attempt %d)", route, attempt + 1)
            try:
                response = self._session.post(url, json=payload, timeout=REQUEST_TIMEOUT)
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = exc
                continue
            except requests.RequestException as exc:
                if isinstance(exc, ValueError):  # a malformed URL or header
                    raise
                raise ServiceUnavailable(f"request to {url} failed: {exc}") from exc
            if response.status_code != 200:
                raise ServiceUnavailable(f"{url} returned status {response.status_code}")
            try:
                body = response.json()
            except (ValueError, RecursionError) as exc:
                raise ServiceUnavailable(f"{url} returned a non-JSON body") from exc
            if not isinstance(body, dict):
                raise ServiceUnavailable(f"{url} returned a non-object body")
            return body
        raise ServiceUnavailable(f"cannot reach {url}: {last_error}")

    def caption_image(self, image_ref: str, num_captions: int = 1) -> list[str]:
        if num_captions < 1:
            raise ValueError("num_captions must be >= 1")
        if not image_ref:
            raise InvalidImageReference("empty image reference")
        route = "/v1/caption"
        body = self._post(route, {"image_path": image_ref, "num_captions": num_captions})
        captions = body.get("captions")
        if (
            not isinstance(captions, list)
            or len(captions) != num_captions
            or not all(isinstance(c, str) and c and _encodable(c) for c in captions)
        ):
            raise ServiceUnavailable(
                f"{route} reply: 'captions' must be a list of {num_captions} non-empty strings"
                " that UTF-8 can encode"
            )
        return captions

    def score_image_text(self, image_ref: str, texts: Sequence[str]) -> tuple[float, ...]:
        if not texts:
            raise EmptyInput("score_image_text requires at least one text")
        if not image_ref:
            raise InvalidImageReference("empty image reference")
        route = "/v1/score_image_text"
        body = self._post(route, {"image_path": image_ref, "texts": list(texts)})
        scores = body.get("scores")
        if not isinstance(scores, list) or len(scores) != len(texts):
            raise ServiceUnavailable(f"{route} reply: 'scores' must be a list, one per text")
        for score in scores:
            if not finite_number(score):
                raise ServiceUnavailable(f"{route} reply: a score must be a finite number, got {score!r}")
        return tuple(min(1.0, max(0.0, float(s))) for s in scores)

    def generate_text(self, prompt: str, max_tokens: int = 256, temperature: float = 0.0) -> str:
        if max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        route = "/v1/generate"
        body = self._post(
            route, {"prompt": prompt, "max_tokens": max_tokens, "temperature": temperature}
        )
        text = body.get("text")
        if not isinstance(text, str):
            raise ServiceUnavailable(f"{route} reply: 'text' must be a string")
        return text
