"""Completion backends: an OpenAI-compatible HTTP client and a scripted mock.

Both expose a single `complete(request)` method returning the `Completion`
that `parse_reply` reads from a `/v1/completions` reply body, which the mock
renders itself. A JSONL response cache is a backend too: it answers
repeated requests itself and asks the backend it wraps only on a miss.
"""

from __future__ import annotations

import gc
import json
import logging
import math
import os
import re
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Literal, NamedTuple, Optional, Protocol, TextIO

import orjson

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

API_KEY_ENV_VAR = "CALIBRA_API_KEY"

DEFAULT_MAX_TOKENS = 120
DEFAULT_TEMPERATURE = 1.2

_TOKEN_RE = re.compile(r"\S+\s*|\s+")


class BackendError(Exception):
    """Base class for backend failures."""


class TransportError(BackendError):
    """A network, rate-limit (429) or server (5xx) failure that `HttpBackend` gave up retrying."""


class MalformedResponseError(BackendError):
    """The endpoint returned a body we cannot parse; never retried."""


class CapabilityError(BackendError):
    """The endpoint cannot serve a required feature (e.g. logprobs)."""


class ScriptError(BackendError):
    """Mock script construction or lookup failure."""


# Compact, ASCII-escaped JSON with sorted keys, the one format of every JSON
# file calibra writes: cache lines, records.jsonl, transcripts.jsonl,
# report.json, run_meta.json and datasets. `encode_line` writes it; this
# encoder defines it, and writes every value whose orjson bytes could differ.
# Encoders are reentrant, so threads share this one. Every value it encodes
# is a tree of tuples, dicts and decoded JSON, never a cycle, so it does not
# check for one.
LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)

# Dataclasses and datetimes raise in orjson, as they do in json.
_ORJSON_OPTIONS = (
    orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME
)
# Searches of the output bytes; a compiled literal searches faster than `in`.
# A float in [1e-5, 1e-4): orjson writes 0.00001 where repr writes 1e-05.
_SMALL_FLOAT = re.compile(rb"0\.0000").search
# An exponent: orjson writes 1e16 and 1e-7 where repr writes 1e+16 and 1e-07.
_EXPONENT = re.compile(rb"e[-0-9]").search
_NULL = re.compile(rb"null").search


def encode_line(value) -> str:
    """`LINE_ENCODER.encode(value)`, written by orjson when its bytes provably match.

    The two agree on the bytes of every JSON value except these, which go
    to `LINE_ENCODER`: a value orjson refuses (an integer outside
    [-2**63, 2**64), a lone surrogate, a non-string key, a namedtuple or a
    numpy scalar), non-ASCII text and DEL (json escapes both), NaN and
    ±inf (orjson writes `null`, so any `null` falls back) and floats below
    1e-4 or from 1e16 on (orjson writes `0.00001` and `1e16`, repr `1e-05`
    and `1e+16`). Each test is on the output bytes and may also fall back
    on a string holding the same bytes. orjson also writes UUIDs and
    enum members, which json refuses; calibra encodes neither.
    """
    try:
        out = orjson.dumps(value, option=_ORJSON_OPTIONS)
    except TypeError:  # orjson.JSONEncodeError
        return LINE_ENCODER.encode(value)
    # A line that falls back should fail early, so the float tests come
    # first: a real endpoint's logprobs of near-certain tokens (-1e-05,
    # -3e-07) fail them on most replies.
    if (
        out.isascii()
        and _SMALL_FLOAT(out) is None
        and _EXPONENT(out) is None
        and _NULL(out) is None
        and 0x7F not in out  # DEL; an int is found by one memchr, faster than b"\x7f"
    ):
        return out.decode("ascii")
    return LINE_ENCODER.encode(value)


def check_temperature(name: str, value) -> None:
    """A finite number >= 0, not a bool; a NaN never equals itself, so it misses its cache entry."""
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, not {value!r}")


def _check_request_fields(max_tokens: int, temperature: float, top_logprobs: int) -> None:
    """Range checks for a request's fields, whether built or read from a cache line."""
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    check_temperature("temperature", temperature)
    if not 0 <= top_logprobs <= 5:
        raise ValueError("top_logprobs must be in [0, 5]")


class _RequestFields(NamedTuple):
    prompt: str
    max_tokens: int = DEFAULT_MAX_TOKENS
    temperature: float = DEFAULT_TEMPERATURE
    top_logprobs: int = 0
    seed: Optional[int] = None
    stop: Optional[tuple[str, ...]] = None


class CompletionRequest(_RequestFields):
    """A request as the tuple of its fields: its own cache key, equal to a loaded line's.

    `_replace`, `_make`, `copy` and `pickle` all build one through `__new__`'s checks.
    """

    __slots__ = ()

    # The defaults are `_RequestFields`'; spelled out, the call is faster than *args.
    def __new__(cls, prompt: str, max_tokens: int = DEFAULT_MAX_TOKENS,
                temperature: float = DEFAULT_TEMPERATURE, top_logprobs: int = 0,
                seed: Optional[int] = None, stop: Optional[tuple[str, ...]] = None):
        _check_request_fields(max_tokens, temperature, top_logprobs)
        self = super().__new__(cls, prompt, max_tokens, temperature, top_logprobs, seed,
                               None if stop is None else tuple(stop))
        # A field that is a list fails here, not at its first lookup.
        hash(self)
        return self

    @classmethod
    def _make(cls, iterable) -> "CompletionRequest":
        # namedtuple's own `_make`, which `_replace` calls, skips `__new__`.
        return cls(*iterable)

    def to_dict(self) -> dict:
        """The fields that are not None; `stop` stays a tuple, which JSON writes as a list."""
        return {name: value for name, value in zip(self._fields, self) if value is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "CompletionRequest":
        """The inverse of `to_dict`; the constructor checks the fields."""
        return cls(*_request_fields(d))


# slots=True keeps each instance small; zero-argument super() fails under it on Python 3.10.
@dataclass(frozen=True, slots=True)
class Completion:
    """A reply, its sequences held as tuples and the caller's `top_logprobs` dicts uncopied."""

    text: str
    tokens: tuple[str, ...]
    token_logprobs: tuple[float, ...]
    top_logprobs: tuple[dict, ...]
    finish_reason: Literal["stop", "length", "error"] = "stop"

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError(f"text must be a string, not {self.text!r}")
        set_field = object.__setattr__
        set_field(self, "tokens", tuple(self.tokens))
        set_field(self, "token_logprobs", tuple(self.token_logprobs))
        set_field(self, "top_logprobs", tuple(self.top_logprobs))
        if not (len(self.tokens) == len(self.token_logprobs) == len(self.top_logprobs)):
            raise ValueError("tokens, token_logprobs and top_logprobs must align")
        if self.finish_reason not in ("stop", "length", "error"):
            raise ValueError(f"finish_reason {self.finish_reason!r} is invalid: "
                             "it must be 'stop', 'length' or 'error'")
        if not self.tokens:
            return  # a reply without logprobs
        # Tokens are strings; log-probabilities are ints or floats (never bools) <= 0 that
        # a float holds (NaN fails, -inf passes). Only a failure looks for what to name.
        try:
            "".join(self.tokens)
        except TypeError:
            bad = next(t for t in self.tokens if not isinstance(t, str))
            raise ValueError(f"token {bad!r} is invalid: it must be a string") from None
        lps = [*self.token_logprobs]
        try:
            for top in self.top_logprobs:
                lps += dict.values(top)
        except TypeError:
            raise ValueError("top_logprobs entries must be objects") from None
        # sum() raises on a non-number and on an int too large for a float beside a
        # float, float() on a sum of such ints; only a maximum of 0 can hide False.
        try:
            total = float(sum(lps))  # NaN if any value is
            most = max(lps)
            if total == total and (most < 0 or most == 0 and bool not in set(map(type, lps))):
                return
        except (OverflowError, TypeError):
            pass
        for lp in lps:
            with suppress(OverflowError):
                if isinstance(lp, (int, float)) and not isinstance(lp, bool) and float(lp) <= 0:
                    continue
            raise ValueError(f"log-probability {lp!r} is invalid: it must be a number <= 0")

    def to_dict(self, logprobs: bool = True) -> dict:
        """The fields as JSON values, sharing this completion's tuples and dicts.

        With `logprobs=False`, only the text and the finish reason.
        """
        if not logprobs:
            return {"text": self.text, "finish_reason": self.finish_reason}
        return {
            "text": self.text,
            "tokens": self.tokens,
            "token_logprobs": self.token_logprobs,
            "top_logprobs": self.top_logprobs,
            "finish_reason": self.finish_reason,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Completion":
        """Build from freshly decoded JSON, taking over its `top_logprobs` dicts."""
        return cls(d["text"], d["tokens"], d["token_logprobs"], d["top_logprobs"],
                   d.get("finish_reason", "stop"))


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> Completion: ...


def tokenize(text: str) -> list[str]:
    """Whitespace-preserving split; the pieces concatenate back to the text."""
    return _TOKEN_RE.findall(text)


_LINE_KEYS = ("completion", "created_at", "request")


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic collector for a load whose objects all stay alive.

    Collecting meanwhile would only rescan them again and again.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _request_fields(d: dict) -> tuple:
    """A request's fields from its JSON object, in `CompletionRequest`'s order, unchecked."""
    stop = d.get("stop")
    return (d["prompt"], d["max_tokens"], d["temperature"], d.get("top_logprobs", 0),
            d.get("seed"), None if stop is None else tuple(stop))


def _read_line(raw: dict) -> tuple[tuple, Completion]:
    """Cache key and completion of a decoded cache line, the one reader of that format.

    Checks the line's keys, its request fields and the completion's tokens,
    and builds the key as a plain tuple, which equals the `CompletionRequest`
    of the same fields; a field that decoded to a list fails when the key is
    inserted. Other keys are not read, such as the `request_hash` that older
    lines hold.
    """
    for name in _LINE_KEYS:
        if name not in raw:
            raise KeyError(name)
    key = _request_fields(raw["request"])
    _, max_tokens, temperature, top_logprobs, _, _ = key
    _check_request_fields(max_tokens, temperature, top_logprobs)
    return key, Completion.from_dict(raw["completion"])


class ResponseCache:
    """A backend that answers from an append-only JSONL cache keyed by the request's fields.

    `complete` returns the cached completion on a hit; on a miss it asks the
    wrapped `backend` and records the reply. Each line is the entry's
    compact, key-sorted JSON, with the keys `completion`, `created_at` and
    `request`. Concurrent reads are lock-free once loaded; appends are
    serialized and go through one handle, opened on the first `put` and
    flushed after every line, so another reader (or a run that crashes)
    sees each entry written.
    Load checks each line's keys, request fields and completion, and
    names `file:line` for a line that fails. A torn last line, left by a
    crash mid-write, is skipped on load and cut off before the next append.
    The file has a single writer at a time. `close` releases the handle.
    """

    def __init__(self, path: str | Path, backend: Backend):
        self.path = Path(path)
        self.backend = backend
        self._lock = threading.Lock()
        self._entries: dict[tuple, Completion] = {}
        self._fh: Optional[TextIO] = None
        # Byte offset of a torn last line, cut off before the first append.
        self._torn_at: Optional[int] = None
        # The last line is complete but has no newline; add one before appending.
        self._unterminated = False
        if self.path.exists():
            with _collector_paused():
                self._load()

    def _load(self) -> None:
        offset = 0
        last = b""
        # (line number, byte offset, error) of a line that did not parse;
        # only the last non-blank line may be torn.
        torn: Optional[tuple[int, int, ValueError]] = None
        with self.path.open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                start, offset, last = offset, offset + len(line), line
                if line.isspace():
                    continue
                if torn is not None:
                    bad_lineno, _, exc = torn
                    raise ValueError(
                        f"{self.path}:{bad_lineno}: malformed cache line: {exc}"
                    ) from exc
                try:
                    raw = orjson.loads(line)
                except orjson.JSONDecodeError:
                    # orjson rejects -Infinity (a logprob) and lone surrogates,
                    # which LINE_ENCODER writes; json reads them, and NaN or Infinity,
                    # which then fail the checks. A line neither reads is torn or malformed.
                    try:
                        raw = json.loads(line.decode("utf-8"))
                    except ValueError as exc:
                        torn = (lineno, start, exc)
                        continue
                try:
                    key, completion = _read_line(raw)
                    if type(key[1]) is float or type(key[4]) is float:
                        # orjson reads an integer outside the 64-bit range as
                        # a float; json reads it exactly. (top_logprobs is
                        # range-checked already, so it is never such an integer.)
                        key, completion = _read_line(json.loads(line))
                    self._entries[key] = completion
                except (KeyError, TypeError, ValueError) as exc:
                    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                    raise ValueError(
                        f"{self.path}:{lineno}: invalid cache line: {detail}"
                    ) from exc
        if torn is not None:
            bad_lineno, self._torn_at, _ = torn
            logger.warning(
                "%s:%d: skipping torn last cache line; the next write drops it",
                self.path,
                bad_lineno,
            )
        else:
            self._unterminated = bool(last) and not last.endswith(b"\n")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, request: CompletionRequest) -> Optional[Completion]:
        """Cached completion for `request`, or None."""
        return self._entries.get(request)

    def complete(self, request: CompletionRequest) -> Completion:
        """The cached completion for `request`; on a miss, the backend's, recorded."""
        hit = self.get(request)
        if hit is not None:
            return hit
        return self.put(request, self.backend.complete(request))

    def put(self, request: CompletionRequest, completion: Completion) -> Completion:
        """Record `completion` unless `request` is cached; return the one the cache holds.

        When two workers miss on one request, the first to record wins and
        both get its completion, the one every later run reads back.
        """
        line = encode_line({"completion": completion.to_dict(), "created_at": time.time(),
                            "request": request.to_dict()}) + "\n"
        with self._lock:
            held = self._entries.get(request)
            if held is not None:
                return held
            self._entries[request] = completion
            if self._fh is None:
                self._fh = self._open_for_append()
            self._fh.write(line)
            self._fh.flush()
        return completion

    def _open_for_append(self) -> TextIO:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = self.path.open("a", encoding="utf-8")
        if self._torn_at is not None:
            fh.truncate(self._torn_at)
            self._torn_at = None
        elif self._unterminated:
            fh.write("\n")
            self._unterminated = False
        return fh

    def close(self) -> None:
        """Close the append handle; safe to call more than once."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# HttpBackend's retry policy: attempts per request, and the first wait, doubled after each.
MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 0.5
# The longest wait a Retry-After header can ask of one retry.
RETRY_AFTER_CAP_SECONDS = 30.0
# The longest one attempt waits for the endpoint's reply.
REQUEST_TIMEOUT_SECONDS = 60.0


def complete(backend: Backend, request: CompletionRequest) -> Completion:
    """`backend.complete(request)`, under the one name `strategies` and `confidence` call."""
    return backend.complete(request)


def parse_reply(body, request: CompletionRequest) -> Completion:
    """The `Completion` in `body`, an OpenAI `/v1/completions` reply to `request`.

    An unreadable body is a `MalformedResponseError`. A reply without logprobs has
    no tokens, none made up, and is a `CapabilityError` if the request asked for them.
    """
    try:
        choice = body["choices"][0]
        text = choice["text"]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedResponseError(f"unparseable completion body: {exc}") from exc
    logprobs = choice.get("logprobs")
    if logprobs and not isinstance(logprobs, dict):
        raise MalformedResponseError(
            f"unusable completion: logprobs must be an object, not {type(logprobs).__name__}"
        )
    if request.top_logprobs > 0 and not logprobs:
        raise CapabilityError(
            "backend returned no logprobs but top_logprobs was requested; "
            "token-probability and P(True) extraction need a logprobs-capable endpoint"
        )
    finish = choice.get("finish_reason", "stop")
    if finish not in ("stop", "length"):
        finish = "error"
    logprobs = logprobs or {}
    try:
        tokens = tuple(logprobs.get("tokens", ()))
        top = logprobs.get("top_logprobs") or [{} for _ in tokens]
        return Completion(text, tokens, logprobs.get("token_logprobs", ()), top, finish)
    except (TypeError, ValueError) as exc:
        raise MalformedResponseError(f"unusable completion: {exc}") from exc


class MockResponse(NamedTuple):
    """One scripted reply; `texts` with several entries cycles by request seed."""

    texts: tuple[str, ...]
    logprobs: Optional[tuple[float, ...]] = None
    top_logprobs: Optional[tuple[dict, ...]] = None


class MockBackend:
    """Deterministic scripted backend keyed by exact prompt.

    Lookup is pure: the reply depends only on the request (including its
    seed), never on call order. The call counter, telemetry only, counts
    each `reply`. Like an endpoint, it sends logprobs only to a request with
    `top_logprobs >= 1`: the script's, or 0.0 per token where it gives none.
    """

    def __init__(
        self,
        responses: dict[str, MockResponse],
        fallback: Literal["error", "unknown"] = "error",
    ):
        if fallback not in ("error", "unknown"):
            raise ScriptError(f"fallback must be 'error' or 'unknown', not {fallback!r}")
        self._responses = responses
        self.fallback = fallback
        self.call_count = 0
        self._lock = threading.Lock()

    def reply(self, request: CompletionRequest) -> dict:
        """The `/v1/completions` body an endpoint serving this script sends for `request`."""
        with self._lock:
            self.call_count += 1
        response = self._responses.get(request.prompt)
        if response is None:
            if self.fallback != "unknown":
                raise ScriptError(f"no script entry matches prompt: {request.prompt[:120]!r}")
            response = MockResponse(("UNKNOWN",))
        text = response.texts[(request.seed or 0) % len(response.texts)]
        choice = {"text": text, "finish_reason": "stop"}
        if request.top_logprobs >= 1:
            choice["logprobs"] = _synthesize(text, response)
        return {"choices": [choice]}

    def complete(self, request: CompletionRequest) -> Completion:
        return parse_reply(self.reply(request), request)


def _synthesize(text: str, response: MockResponse) -> dict:
    """The `logprobs` object of a reply: the script's, its tokens reshaped to match."""
    tokens = tokenize(text)
    logprobs = response.logprobs or (0.0,) * len(tokens)
    # Scripted logprobs take precedence over whitespace tokenization; reshape
    # the token list to match while keeping concatenation equal to the text.
    if len(logprobs) < len(tokens):
        tokens = tokens[: len(logprobs) - 1] + ["".join(tokens[len(logprobs) - 1 :])]
    elif len(logprobs) > len(tokens):
        tokens = tokens + [""] * (len(logprobs) - len(tokens))
    if response.top_logprobs is None:
        top = [{tok: lp} for tok, lp in zip(tokens, logprobs)]
    else:
        # Every call of the entry shares its dicts, so copy them; the parser rejects non-dicts.
        top = [dict(m) if isinstance(m, dict) else m for m in response.top_logprobs]
    return {"tokens": tokens, "token_logprobs": logprobs, "top_logprobs": top}


def mock_from_script(
    entries: dict,
    fallback: Literal["error", "unknown"] = "error",
) -> MockBackend:
    """Build a mock backend from a plain dict script.

    Keys are exact prompts; values are either a reply string, a list of
    reply strings (cycled by request seed), or a dict with keys
    `text`/`texts` and optional `logprobs` and `top_logprobs`. A reply that
    is not a string is a `ScriptError`.
    """
    if not isinstance(entries, dict):
        raise ScriptError("entries must be an object keyed by prompt")
    responses = {}
    for prompt, value in entries.items():
        logprobs = top_lp = None
        if isinstance(value, str):
            texts: tuple[str, ...] = (value,)
        elif isinstance(value, list):
            texts = tuple(value)
        elif isinstance(value, dict):
            if "texts" in value:
                texts = tuple(value["texts"])
            elif "text" in value:
                texts = (value["text"],)
            else:
                raise ScriptError(f"script entry for {prompt[:60]!r} has neither text nor texts")
            if value.get("logprobs") is not None:
                logprobs = tuple(value["logprobs"])
            if value.get("top_logprobs") is not None:
                top_lp = tuple(value["top_logprobs"])
            # Lengths only: tokenizing every entry here would slow the load.
            # An empty `logprobs` means 0.0 per token, as if not given.
            if logprobs and top_lp is not None and len(logprobs) != len(top_lp):
                raise ScriptError(
                    f"logprobs and top_logprobs must align for {prompt[:60]!r}: "
                    f"{len(logprobs)} != {len(top_lp)}"
                )
        else:
            raise ScriptError(f"unsupported script value for {prompt[:60]!r}")
        if not texts:
            raise ScriptError(f"script entry for {prompt[:60]!r} has no replies")
        for text in texts:
            if not isinstance(text, str):
                raise ScriptError(f"script entry for {prompt[:60]!r} has a reply that is not "
                                  f"a string: {text!r}")
        responses[prompt] = MockResponse(texts, logprobs, top_lp)
    return MockBackend(responses, fallback=fallback)


def load_mock_script(path: str | Path) -> MockBackend:
    """Load a JSON mock script: {"fallback": ..., "entries": {...}}.

    A file that is not such a script is a `ScriptError` naming it.
    """
    with _collector_paused(), Path(path).open("r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            if not isinstance(data, dict):
                raise ScriptError("a script must be a JSON object")
            return mock_from_script(data.get("entries", {}), fallback=data.get("fallback", "error"))
        except (TypeError, ValueError, ScriptError) as exc:
            raise ScriptError(f"{path}: {exc}") from exc


class HttpBackend:
    """Client for an OpenAI-compatible /v1/completions endpoint.

    Only this class imports `requests`, so mock, cached and offline runs never load it.
    """

    def __init__(
        self,
        base_url: str,
        model_id: str,
        api_key: Optional[str] = None,
        session: Optional[requests.Session] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model_id = model_id
        self.url = f"{self.base_url}/v1/completions"
        api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV_VAR)
        self.headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def complete(self, request: CompletionRequest) -> Completion:
        """The endpoint's reply to `request`; only a network error, a 429 or a 5xx is retried.

        `MAX_ATTEMPTS` tries in all, with exponential backoff, or a 429 or 503's
        longer numeric `Retry-After`, up to `RETRY_AFTER_CAP_SECONDS`.
        """
        import requests

        # The request's own fields, under the API's names; `requests` sets the JSON content type.
        payload = {"model": self.model_id, **request.to_dict()}
        if (top_logprobs := payload.pop("top_logprobs")) > 0:
            payload["logprobs"] = top_logprobs
        if stop := payload.pop("stop", None):
            payload["stop"] = list(stop)
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                logger.warning("transport error (%s); retrying in %.1fs", error, delay)
                time.sleep(delay)
            delay = BACKOFF_SECONDS * 2**attempt
            try:
                resp = self.session.post(self.url, json=payload, headers=self.headers,
                                         timeout=REQUEST_TIMEOUT_SECONDS)
            except requests.RequestException as exc:
                error = str(exc)
                continue
            if resp.status_code != 429 and resp.status_code < 500:
                break
            what = "rate limited" if resp.status_code == 429 else f"HTTP {resp.status_code}"
            error = f"{what}: {resp.text[:200]}"
            wait = resp.headers.get("Retry-After", "")
            if resp.status_code in (429, 503) and wait.isascii() and wait.isdigit():  # not a date
                delay = max(delay, min(float(wait), RETRY_AFTER_CAP_SECONDS))
        else:
            raise TransportError(f"giving up after {MAX_ATTEMPTS} attempts: {error}")
        if not 200 <= resp.status_code < 300:
            raise BackendError(f"HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            body = resp.json()
        except ValueError as exc:
            raise MalformedResponseError(f"unparseable completion body: {exc}") from exc
        return parse_reply(body, request)
