import copy
import gc
import hashlib
import importlib.util
import itertools
import json
import logging
import math
import os
import pickle
import random
import re
import shutil
import struct
import subprocess
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import orjson
import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from calibra import backend as backend_module
from calibra import cli
from calibra.backend import (
    LINE_ENCODER,
    BackendError,
    CapabilityError,
    Completion,
    CompletionRequest,
    HttpBackend,
    MalformedResponseError,
    MockBackend,
    ResponseCache,
    ScriptError,
    TransportError,
    complete,
    encode_line,
    load_mock_script,
    mock_from_script,
    tokenize,
)
from calibra.confidence import (
    P_TRUE_QUESTION,
    VERBALIZED_SUFFIX,
    ConfidenceError,
    token_prob_confidence,
)
from calibra.harness import RunConfig, run_eval, write_dataset
from calibra.qa import QAItem
from calibra.strategies import STRATEGY_IDS, StrategyConfig, execute, plan
from conftest import (
    E2E_ITEMS,
    FIXTURES,
    FakeResponse,
    ScriptEndpoint,
    add_p_true_entry,
    add_verbalized_entry,
    build_script,
)
from test_harness import e2e_config


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Retries in these tests do not wait."""
    monkeypatch.setattr(backend_module, "BACKOFF_SECONDS", 0.0)


class TestCompletionRequest:
    def test_defaults_match_run_settings(self):
        request = CompletionRequest(prompt="q")
        assert request.max_tokens == 120
        assert request.temperature == 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="q", max_tokens=0)
        with pytest.raises(ValueError):
            CompletionRequest(prompt="q", top_logprobs=6)

    def test_round_trip(self):
        request = CompletionRequest(prompt="q", seed=3, stop=("\n\n",))
        assert CompletionRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize(
        "request_",
        [
            CompletionRequest(prompt="q", seed=7),
            CompletionRequest(prompt="q", seed=0, stop=()),
            CompletionRequest(prompt="q", stop=("x",)),
            CompletionRequest(prompt="q", temperature=1),
            CompletionRequest(prompt="q", temperature=0, top_logprobs=5),
        ],
        ids=["seed", "empty_stop", "stop", "int_temperature", "zero_temperature"],
    )
    def test_from_dict_inverts_to_dict(self, request_):
        back = CompletionRequest.from_dict(request_.to_dict())
        assert back == request_
        # Through JSON too, keeping the field types a cache line's request bytes depend on.
        reread = CompletionRequest.from_dict(json.loads(json.dumps(request_.to_dict())))
        assert reread == request_
        assert encode_line(reread.to_dict()) == encode_line(request_.to_dict())

    def test_hash_keeps_equality(self):
        request = CompletionRequest(prompt="q", temperature=1)
        twin = CompletionRequest(prompt="q", temperature=1.0)
        assert request == twin and hash(request) == hash(twin)
        assert len({request: 1, twin: 2}) == 1
        assert hash(request) == hash(("q", 120, 1, 0, None, None))
        reseeded = twin._replace(seed=4)
        assert hash(reseeded) == hash(CompletionRequest(prompt="q", temperature=1.0, seed=4))

    def test_list_valued_field_fails_at_construction(self):
        with pytest.raises(TypeError, match="unhashable"):
            CompletionRequest(prompt=["q"])

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf, True, -0.5, "1"])
    def test_temperature_must_be_a_finite_number(self, temperature):
        # A NaN never equals itself, so its cache entry would never be hit.
        with pytest.raises(ValueError, match=re.escape(
                f"temperature must be a finite number >= 0, not {temperature!r}")):
            CompletionRequest(prompt="q", temperature=temperature)

    def test_replace_and_make_check_as_the_constructor_does(self):
        request = CompletionRequest(prompt="q")
        with pytest.raises(ValueError, match="max_tokens must be >= 1"):
            request._replace(max_tokens=0)
        with pytest.raises(ValueError, match="temperature must be a finite number"):
            request._replace(temperature=math.nan)
        with pytest.raises(TypeError, match="unhashable"):
            CompletionRequest._make([["q"], 120, 1.2, 0, None, None])
        assert request._replace(stop=["\n"]).stop == ("\n",)
        assert type(CompletionRequest._make(request)) is CompletionRequest

    def test_equals_the_plain_tuple_of_its_fields(self):
        request = CompletionRequest("q")
        assert request == ("q", *CompletionRequest._field_defaults.values())
        assert request == ("q", 120, 1.2, 0, None, None)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda r: pickle.loads(pickle.dumps(r))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_keep_the_request(self, copier):
        request = CompletionRequest(prompt="q", max_tokens=7, temperature=0.5, top_logprobs=2,
                                    seed=3, stop=("\n",))
        twin = copier(request)
        assert twin == request and type(twin) is CompletionRequest


class TestCompletion:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Completion(text="a", tokens=("a",), token_logprobs=(), top_logprobs=())

    def test_from_dict_equals_constructed(self):
        completion = Completion(
            text="A b", tokens=("A ", "b"), token_logprobs=(-0.1, -0.2),
            top_logprobs=({"A ": -0.1}, {"b": -0.2, "c": -3.0}), finish_reason="length",
        )
        assert Completion.from_dict(json.loads(json.dumps(completion.to_dict()))) == completion

    def test_constructor_keeps_the_callers_dicts_as_tuples(self):
        top = [{"a": -0.1}]
        completion = Completion("a", ["a"], [-0.1], top)
        assert completion.tokens == ("a",) and completion.token_logprobs == (-0.1,)
        assert type(completion.top_logprobs) is tuple
        assert completion.top_logprobs[0] is top[0]

    @pytest.mark.parametrize("text", [None, b"a", 1])
    def test_text_must_be_a_string(self, text):
        with pytest.raises(TypeError, match="text must be a string"):
            Completion(text, (), (), ())

    def test_has_no_instance_dict(self):
        # A loaded cache holds one per entry; slots keep each one small.
        assert not hasattr(Completion("a", ["a"], [-0.1], [{"a": -0.1}]), "__dict__")

    def test_frozen_and_replace_checks_again(self):
        completion = Completion("a", ["a"], [-0.1], [{"a": -0.1}], "length")
        with pytest.raises(FrozenInstanceError):
            completion.text = "b"
        assert replace(completion, finish_reason="stop").finish_reason == "stop"
        with pytest.raises(ValueError, match="must align"):
            replace(completion, tokens=())

    @pytest.mark.parametrize("reason", ["banana", 5, None])
    def test_finish_reason_is_stop_length_or_error(self, reason):
        # A cache line's value would otherwise reach transcripts.jsonl.
        with pytest.raises(ValueError, match=re.escape(f"finish_reason {reason!r} is invalid")):
            Completion("a", (), (), (), reason)

    @pytest.mark.parametrize("tokens, logprobs, top, message", [
        (("a",), (-0.1,), (["a", -0.1],), "must be objects"),
        (("a",), (-0.1,), (None,), "must be objects"),
        (("a", "b"), (-0.1,), ({"a": -0.1},), "must align"),
        (("a",), (-0.1,), (), "must align"),
    ])
    def test_constructor_rejects_bad_top_logprobs_and_misaligned_lengths(
        self, tokens, logprobs, top, message
    ):
        with pytest.raises(ValueError, match=message):
            Completion("a", tokens, logprobs, top)

    @pytest.mark.parametrize("lp", [math.nan, None, "-0.1"], ids=["nan", "null", "a_string"])
    def test_nan_or_non_number_logprob_rejected(self, lp):
        # NaN > 0 is false, and an endpoint may send null; either would end the
        # run in a traceback, when its record is built or at the comparison.
        with pytest.raises(ValueError, match=re.escape(f"log-probability {lp!r} is invalid")):
            Completion("ab", ("a", "b"), (-0.1, lp), ({"a": -0.1}, {"b": -0.1}))

    @pytest.mark.parametrize("tokens, logprobs, top, message", [
        (("a", 5), (-0.1, -0.2), ({}, {}), "token 5 is invalid: it must be a string"),
        (("a",), (0.5,), ({},), "log-probability 0.5 is invalid: it must be a number <= 0"),
        (("a",), (True,), ({},), "log-probability True is invalid"),
        (("a",), (-0.1,), ({"a": -0.1, "b": 0.5},), "log-probability 0.5 is invalid"),
        (("a",), (-0.1,), ({"b": math.nan, "a": -0.1},), "log-probability nan is invalid"),
        (("a",), (-0.1,), ({"a": -0.1, "b": "x"},), "log-probability 'x' is invalid"),
        # A bool is an int, and False would read as probability 1.
        (("a",), (False,), ({},), "log-probability False is invalid"),
        (("a",), (-0.1,), ({"a": -0.1, "b": False},), "log-probability False is invalid"),
        # float() of these overflows; -10**400 is below every float but -inf.
        (("a", "b"), (-10**400, -0.1), ({}, {}), f"log-probability {-10**400} is invalid"),
        (("a",), (-0.1,), ({"b": 10**400},), f"log-probability {10**400} is invalid"),
    ], ids=["token_a_number", "positive", "true", "top_positive", "top_nan", "top_a_string",
            "false", "top_false", "huge_negative_int", "top_huge_positive_int"])
    def test_every_value_is_checked(self, tokens, logprobs, top, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Completion("a", tokens, logprobs, top)

    def test_minus_infinity_and_zero_are_log_probabilities(self):
        completion = Completion("ab", ("a", "b"), (-math.inf, 0), ({"a": -math.inf}, {"b": 0.0}))
        assert completion.token_logprobs == (-math.inf, 0)

    def test_from_dict_rejects_misaligned_tokens(self):
        with pytest.raises(ValueError, match="align"):
            Completion.from_dict(
                {"text": "a", "tokens": ["a"], "token_logprobs": [], "top_logprobs": []}
            )

    def test_tokenize_concatenates(self):
        text = "False. There will  need\nto be further research."
        assert "".join(tokenize(text)) == text


# Values that meet each output test of the guard: non-ASCII text, DEL,
# control characters, lone surrogates, the bytes of `null`, an exponent or a
# small float inside a string, integers at the edges of 64 bits, floats at
# the edges of [1e-4, 1e16), and NaN and the infinities.
_EDGE_TEXTS = ["a", '"', "\\", "/", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600",
               "\ud800", "\udfff", "null", "e5", "e-", "0.0000", "1e16"]
_EDGE_INTS = [0, -1, 2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64 - 1, 2**64, -2**64, 10**30]
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-4, -1e-4, 9.999999999999999e-05, 1e-05, -1e-07,
                1e16, 9999999999999998.0, 1e15, 1.5e300, 0.1, -0.35667494393873245,
                math.nan, math.inf, -math.inf]
_ASCII = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
# Any character: `st.characters()` leaves out the surrogates, drawn here apart.
_ANY_CHAR = st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr))
_TEXT = st.lists(
    st.one_of(_ASCII, _ASCII, st.sampled_from(_EDGE_TEXTS), _ANY_CHAR), max_size=8
).map("".join)
# Mostly values that orjson writes as json does, so that many trees take the
# orjson path, and any value at all in the last branch.
_LEAVES = st.one_of(
    st.booleans(),
    st.integers(-2**63, 2**64 - 1),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
    _TEXT,
    st.one_of(
        st.none(), st.integers(), st.floats(), st.sampled_from(_EDGE_INTS + _EDGE_FLOATS),
    ),
)
_KEYS = st.one_of(_TEXT, _TEXT, _TEXT, st.integers(), st.none(), st.booleans())
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=12,
)


def _outcome(encode, value):
    """The text `encode` writes for `value`, or the type of what it raises."""
    try:
        return encode(value)
    except Exception as exc:
        return type(exc)


class _OracleUnused:
    """A `LINE_ENCODER` stand-in that fails the test if the guard falls back."""

    def encode(self, value):
        pytest.fail(f"encode_line fell back to json for {value!r:.200}")


class TestEncodeLine:
    """`encode_line` writes `LINE_ENCODER`'s bytes, through orjson where they provably agree."""

    @given(_TREES)
    def test_equals_the_json_encoder(self, value):
        assert _outcome(encode_line, value) == _outcome(LINE_ENCODER.encode, value)

    @pytest.mark.parametrize("value", _EDGE_TEXTS + _EDGE_INTS + _EDGE_FLOATS, ids=ascii)
    def test_edge_values_equal_the_json_encoder(self, value):
        trees = [value, [value, 0.5], {"k": (value, "v")}]
        if isinstance(value, str):
            trees.append({value: 1, "k": 2})
        for tree in trees:
            assert encode_line(tree) == LINE_ENCODER.encode(tree)

    def test_bench_like_cache_line_takes_orjson(self, tmp_path, monkeypatch):
        request = CompletionRequest(
            prompt="Question: Is water wet?\nAnswer:", top_logprobs=1, seed=3
        )
        completion = Completion(
            " Yes", [" Yes"], [-0.35667494393873245], [{" Yes": -0.35667494393873245, " No": -1.2}]
        )
        monkeypatch.setattr(backend_module, "LINE_ENCODER", _OracleUnused())
        cache = ResponseCache(tmp_path / "cache.jsonl", mock_from_script({}))
        cache.put(request, completion)
        cache.close()
        line = (tmp_path / "cache.jsonl").read_text(encoding="utf-8")
        assert line == LINE_ENCODER.encode(json.loads(line)) + "\n"

    def test_bench_like_transcript_line_takes_orjson(self, monkeypatch):
        item = QAItem(
            id="q1", question="Is water wet?", gold_answers=("Yes",), answer_kind="boolean"
        )
        entries = build_script("standard", item, {"answer": {"text": "Yes", "logprobs": [-0.25]}})
        context = f"{next(iter(entries))} Yes"
        add_p_true_entry(entries, context, "Yes", {"A": math.log(0.7), "B": math.log(0.2)})
        add_verbalized_entry(entries, context, " 0.85")
        config = StrategyConfig(extraction_method_ids=["token_prob", "p_true", "verbalized"])
        row = execute(plan("standard", item), item, mock_from_script(entries), config).to_dict()
        expected = LINE_ENCODER.encode(row)
        monkeypatch.setattr(backend_module, "LINE_ENCODER", _OracleUnused())
        assert encode_line(row) == expected

    def test_small_logprob_and_non_ascii_prompt_fall_back_to_json(self, tmp_path):
        request = CompletionRequest(prompt="Is it café?", top_logprobs=1)
        completion = Completion(" Yes", [" Yes"], [-1e-05], [{" Yes": -1e-05}])
        cache = ResponseCache(tmp_path / "cache.jsonl", mock_from_script({}))
        cache.put(request, completion)
        cache.close()
        line = (tmp_path / "cache.jsonl").read_text(encoding="utf-8")
        assert line == LINE_ENCODER.encode(json.loads(line)) + "\n"
        assert '"token_logprobs":[-1e-05]' in line and '"prompt":"Is it caf\\u00e9?"' in line

    def test_installed_orjson_writes_floats_in_range_as_json_does(self):
        # The guard lets through every float in [1e-4, 1e16) on the premise
        # that orjson writes it as repr does. That rests on orjson's float
        # writer, so it is checked here on whichever orjson is installed.
        rng = random.Random(20)

        def double(exponents):
            bits = rng.getrandbits(1) << 63 | rng.choice(exponents) << 52 | rng.getrandbits(52)
            return struct.unpack("<d", struct.pack("<Q", bits))[0]

        in_range = range(1023 - 14, 1023 + 54)  # biased exponents of 2**-14 .. 2**53
        floats = [double(in_range) for _ in range(200_000)]
        floats += [round(-rng.uniform(1e-4, 30.0), rng.randint(0, 17)) for _ in range(100_000)]
        floats = [x for x in floats if 1e-4 <= abs(x) < 1e16]
        assert len(floats) > 290_000
        for start in range(0, len(floats), 10_000):
            batch = floats[start:start + 10_000]
            if orjson.dumps(batch) != LINE_ENCODER.encode(batch).encode():
                bad = next(x for x in batch if orjson.dumps(x) != repr(x).encode())
                pytest.fail(f"orjson {orjson.__version__} writes {bad!r} as {orjson.dumps(bad)!r}")
        # Outside that range orjson's forms differ, and the guard must see each.
        for x in [double(range(2047)) for _ in range(20_000)]:
            assert encode_line([x]) == LINE_ENCODER.encode([x]), x


class TestRequestHash:
    """The SHA-256 of a cache line's `request` bytes, which older lines hold as `request_hash`."""

    def test_digest_is_pinned(self, tmp_path):
        # Lookups key on the request's fields, never on this digest. But a
        # reader that matches lines by it finds new lines as it found old ones.
        pinned = {
            CompletionRequest(
                prompt="Q: Is the sky blue?\nA: ", max_tokens=16, temperature=0.7,
                top_logprobs=5, seed=3, stop=("\n\n", "Q:"),
            ): "66de4cd4c436e361e1065dd57c8ff8b0feff5edb201eee53049b310168567f56",
            CompletionRequest(prompt="caf\u00e9"):
                "8d1628df0df39f00810c7ec7e8b36518e6aec2e65b25d4d0fcb8566336409be0",
        }
        for k, (request, digest) in enumerate(pinned.items()):
            path = tmp_path / f"cache{k}.jsonl"
            cache = ResponseCache(path, mock_from_script({}))
            cache.put(request, Completion("a", (), (), ()))
            cache.close()
            line = path.read_bytes()
            start = line.index(b'"request":') + len(b'"request":')
            assert line.endswith(b"}\n")  # `request` is the last key
            assert hashlib.sha256(line[start:-2]).hexdigest() == digest


class TestMockBackend:
    def test_exact_lookup(self):
        backend = mock_from_script({"Q1-prompt": "True"})
        completion = backend.complete(CompletionRequest(prompt="Q1-prompt"))
        assert completion.text == "True"

    def test_all_zero_logprobs_default(self):
        backend = mock_from_script({"p": "two words"})
        completion = backend.complete(CompletionRequest(prompt="p", top_logprobs=1))
        assert completion.tokens == ("two ", "words")
        assert all(lp == 0.0 for lp in completion.token_logprobs)
        assert math.exp(sum(completion.token_logprobs)) == 1.0

    def test_scripted_logprobs_verbatim(self):
        backend = mock_from_script({"p": {"text": "True", "logprobs": [-0.5, -1.5]}})
        completion = backend.complete(CompletionRequest(prompt="p", top_logprobs=1))
        assert completion.token_logprobs == (-0.5, -1.5)
        assert "".join(completion.tokens) == "True"

    def test_fallback_unknown(self):
        backend = mock_from_script({}, fallback="unknown")
        assert backend.complete(CompletionRequest(prompt="anything")).text == "UNKNOWN"

    def test_fallback_error(self):
        backend = mock_from_script({})
        with pytest.raises(ScriptError):
            backend.complete(CompletionRequest(prompt="anything"))

    def test_seed_cycling_is_pure(self):
        backend = mock_from_script({"p": ["True"] * 6 + ["False"] * 4})
        texts = [
            backend.complete(CompletionRequest(prompt="p", seed=i)).text for i in range(10)
        ]
        assert texts.count("True") == 6 and texts.count("False") == 4
        # same request, any order, same bytes
        again = [
            backend.complete(CompletionRequest(prompt="p", seed=i)).text
            for i in reversed(range(10))
        ]
        assert texts == list(reversed(again))

    def test_determinism_under_concurrency(self):
        backend = mock_from_script({"p": {"text": "True", "logprobs": [-0.25]}})
        request = CompletionRequest(prompt="p", seed=1)
        results = []

        def work():
            results.append(backend.complete(request))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c == results[0] for c in results)

    def test_scripted_top_logprobs_not_shared_between_calls(self):
        backend = mock_from_script(
            {"p": {"text": "True", "logprobs": [-0.1], "top_logprobs": [{"True": -0.1}]}}
        )
        request = CompletionRequest(prompt="p", top_logprobs=1)
        first = backend.complete(request)
        first.top_logprobs[0]["False"] = -9.0
        assert backend.complete(request).top_logprobs == ({"True": -0.1},)

    @pytest.mark.parametrize("value", [[], {"texts": []}], ids=["list", "texts"])
    def test_empty_reply_list_rejected(self, value):
        with pytest.raises(ScriptError, match="script entry for 'p' has no replies"):
            mock_from_script({"p": value})

    @pytest.mark.parametrize("fallback", ["Unknown", None, ""])
    def test_fallback_must_be_error_or_unknown(self, fallback):
        # Checked when the script loads, not first at an unscripted prompt mid-run.
        with pytest.raises(ScriptError, match=re.escape(
                f"fallback must be 'error' or 'unknown', not {fallback!r}")):
            mock_from_script({}, fallback=fallback)

    def test_misaligned_scripted_top_logprobs_rejected(self):
        with pytest.raises(ScriptError, match="align for 'p'"):
            mock_from_script({"p": {"text": "True", "logprobs": [-0.1], "top_logprobs": [{}, {}]}})

    def test_misaligned_top_logprobs_alone_checked_per_call(self):
        backend = mock_from_script({"p": {"text": "True", "top_logprobs": [{}, {}]}})
        assert backend.complete(CompletionRequest(prompt="p")).text == "True"
        with pytest.raises(MalformedResponseError, match="^unusable completion: .* must align$"):
            backend.complete(CompletionRequest(prompt="p", top_logprobs=1))

    @pytest.mark.parametrize("value, reply", [
        ([1], "1"),
        ({"text": None}, "None"),
        ({"texts": ["True", ["False"]]}, "['False']"),
    ], ids=["list", "text", "texts"])
    def test_reply_not_a_string_rejected(self, value, reply):
        with pytest.raises(ScriptError, match=re.escape(
            f"script entry for 'p' has a reply that is not a string: {reply}"
        )):
            mock_from_script({"p": value})

    @pytest.mark.parametrize("name, value, kind", [
        ("texts", "Paris", "a string"),
        ("texts", {"Paris": 1}, "an object"),
        ("logprobs", "-1", "a string"),
        ("logprobs", {"-1": 0}, "an object"),
        ("top_logprobs", "x", "a string"),
        ("top_logprobs", {"x": -1.0}, "an object"),
    ])
    def test_string_or_object_for_a_list_rejected(self, name, value, kind):
        # Each would split into its characters or keys: "Paris" into the replies P, a, r, i, s.
        with pytest.raises(ScriptError, match=re.escape(
            f"script entry for 'p': {name} must be a list, not {kind}"
        )):
            mock_from_script({"p": {"text": "True", name: value}})

    def test_reply_is_the_endpoint_body(self):
        backend = mock_from_script({"p": {"text": "True", "logprobs": [-0.25]}})
        assert backend.reply(CompletionRequest(prompt="p")) == {
            "choices": [{"text": "True", "finish_reason": "stop"}]
        }
        body = backend.reply(CompletionRequest(prompt="p", top_logprobs=1))
        assert json.loads(json.dumps(body)) == {"choices": [{
            "text": "True",
            "finish_reason": "stop",
            "logprobs": {"tokens": ["True"], "token_logprobs": [-0.25],
                         "top_logprobs": [{"True": -0.25}]},
        }]}
        assert backend.call_count == 2

    def test_empty_logprobs_are_not_checked_against_top_logprobs(self):
        backend = mock_from_script(
            {"p": {"text": "True", "logprobs": [], "top_logprobs": [{"True": 0.0}]}}
        )
        completion = backend.complete(CompletionRequest(prompt="p", top_logprobs=1))
        assert completion.token_logprobs == (0.0,)

    def test_top_logprobs_contain_chosen_token(self):
        backend = mock_from_script({"p": "True"})
        completion = backend.complete(CompletionRequest(prompt="p", top_logprobs=1))
        assert completion.tokens == ("True",)
        for token, top in zip(completion.tokens, completion.top_logprobs):
            assert token in top


class TestCache:
    def test_round_trip_hash_fixed_point(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        request = CompletionRequest(prompt="q", seed=5)
        completion = Completion(
            text="True", tokens=("True",), token_logprobs=(-0.5,), top_logprobs=({"True": -0.5},)
        )
        cache = ResponseCache(path, mock_from_script({}))
        cache.put(request, completion)
        cache.close()
        line = json.loads(path.read_text(encoding="utf-8"))
        reread = CompletionRequest.from_dict(line["request"])
        assert reread == request
        assert encode_line(reread.to_dict()) == encode_line(line["request"])
        assert ResponseCache(path, mock_from_script({})).get(reread) == completion

    def test_cache_short_circuits_backend(self, tmp_path):
        backend = mock_from_script({"p": "True"})
        cache = ResponseCache(tmp_path / "cache.jsonl", backend)
        request = CompletionRequest(prompt="p")
        first = complete(cache, request)
        second = complete(cache, request)
        cache.close()
        assert first == second
        assert backend.call_count == 1

    def test_cache_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend = mock_from_script({"p": "True"})
        request = CompletionRequest(prompt="p")
        first = ResponseCache(path, backend)
        complete(first, request)
        first.close()
        fresh = ResponseCache(path, backend)
        assert fresh.get(request) is not None
        complete(fresh, request)
        assert backend.call_count == 1

    def test_request_with_every_field_set_hits_after_reload(self, tmp_path):
        # The key of a built request equals the key read back from its line.
        path = tmp_path / "cache.jsonl"
        request = CompletionRequest(prompt="q", max_tokens=7, temperature=0.5, top_logprobs=2,
                                    seed=3, stop=("\n", "Q:"))
        completion = Completion("True", ("True",), (-0.5,), ({"True": -0.5, "False": -1.0},))
        cache = ResponseCache(path, mock_from_script({}))
        cache.put(request, completion)
        cache.close()
        assert json.loads(path.read_text(encoding="utf-8"))["request"]["stop"] == ["\n", "Q:"]
        backend = mock_from_script({})
        reloaded = ResponseCache(path, backend)
        assert len(reloaded) == 1
        assert reloaded.complete(request) == completion
        assert backend.call_count == 0
        assert reloaded.get(request._replace(stop=("\n",))) is None

    # A value other than the default for each `CompletionRequest` field.
    FIELD_SAMPLES = {"prompt": "q", "max_tokens": 7, "temperature": 0.5, "top_logprobs": 2,
                     "seed": 3, "stop": ("\n", "Q:")}

    def test_every_request_field_reaches_the_key_of_a_loaded_line(self, tmp_path):
        # The loader lists the fields by hand: a field added to the request but not
        # to `_request_fields` would make every loaded line miss its request.
        names = list(CompletionRequest._fields)
        missing = sorted(set(names) - self.FIELD_SAMPLES.keys())
        assert not missing, f"give FIELD_SAMPLES and _request_fields the new fields {missing}"
        request = CompletionRequest(**{name: self.FIELD_SAMPLES[name] for name in names})
        for name in CompletionRequest._fields:
            assert getattr(request, name) != CompletionRequest._field_defaults.get(name), name
        assert backend_module._request_fields(request.to_dict()) == request
        completion = Completion("True", (), (), ())
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path, mock_from_script({}))
        cache.put(request, completion)
        cache.close()
        assert ResponseCache(path, mock_from_script({})).get(request) == completion

    def test_blank_lines_between_entries_are_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend = mock_from_script({"a": "A", "b": "B"})
        for prompt in "ab":  # the second append follows the first entry's blank lines
            cache = ResponseCache(path, backend)
            cache.complete(CompletionRequest(prompt=prompt))
            cache.close()
            with path.open("a", encoding="utf-8") as fh:
                fh.write("\n  \r\n")
        reloaded = ResponseCache(path, backend)
        assert [reloaded.get(CompletionRequest(prompt=p)).text for p in "ab"] == ["A", "B"]
        assert backend.call_count == 2

    def test_each_put_visible_while_writer_open(self, tmp_path):
        # A line is in the file once `write` has its request, before `close`.
        path = tmp_path / "cache.jsonl"
        writer = ResponseCache(path, mock_from_script({"p": "True"}))
        request = CompletionRequest(prompt="p")
        noted = writer.note_requests()
        complete(writer, request)
        writer.write(noted)
        assert ResponseCache(path, mock_from_script({})).get(request) is not None
        writer.close()

    def test_complete_hashes_each_request_once(self, tmp_path, monkeypatch):
        # Every encode of a request, canonical or not, starts from to_dict.
        encoded = []
        to_dict = CompletionRequest.to_dict
        monkeypatch.setattr(
            CompletionRequest, "to_dict", lambda r: encoded.append(r) or to_dict(r)
        )
        backend = mock_from_script({"p": "True"})
        cache = ResponseCache(tmp_path / "cache.jsonl", backend)
        request = CompletionRequest(prompt="p")
        complete(cache, request)  # miss: recorded, its line not yet encoded
        assert encoded == []
        complete(cache, request)  # hit: a plain lookup
        assert encoded == []
        assert backend.call_count == 1
        cache.close()  # encodes the line, once
        assert encoded == [request]
        encoded.clear()
        assert ResponseCache(tmp_path / "cache.jsonl", backend).get(request) is not None
        assert encoded == []  # load does not encode either

    def test_stale_request_hash_serves_only_its_own_request(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend = mock_from_script({"a": "A", "b": "B", "c": "C"})
        cache = ResponseCache(path, backend)
        for prompt in "ab":
            complete(cache, CompletionRequest(prompt=prompt))
        cache.close()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        stale = json.loads(lines[0])
        # An older line's unread `request_hash`: the line for "a" claims the
        # digest of the request "c", which it does not hold.
        stale["request_hash"] = "15e4e9626f91cccc49e3356366ecfcc14a5d8c53a9b71ef6a97eee31f2cf8d2b"
        lines[0] = json.dumps(stale, sort_keys=True) + "\n"
        path.write_text("".join(lines), encoding="utf-8")

        reloaded = ResponseCache(path, backend)
        assert reloaded.get(CompletionRequest(prompt="a")).text == "A"
        assert reloaded.get(CompletionRequest(prompt="b")).text == "B"
        assert reloaded.get(CompletionRequest(prompt="c")) is None
        calls = backend.call_count
        assert complete(reloaded, CompletionRequest(prompt="c")).text == "C"
        assert backend.call_count == calls + 1
        reloaded.close()

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "malformed"])
    def test_load_pauses_and_restores_collector(self, tmp_path, monkeypatch, enabled, valid):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path, mock_from_script({"p": "True"}))
        complete(cache, CompletionRequest(prompt="p"))
        cache.close()
        if not valid:
            path.write_text("{not json\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        read_line = backend_module._read_line
        collecting = []  # the collector's state as each line is read

        def recording(raw):
            collecting.append(gc.isenabled())
            return read_line(raw)

        monkeypatch.setattr(backend_module, "_read_line", recording)
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if valid:
                assert len(ResponseCache(path, mock_from_script({}))) == 1
                assert collecting == [False]
            else:
                with pytest.raises(ValueError, match="cache.jsonl:1"):
                    ResponseCache(path, mock_from_script({}))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_close_is_idempotent(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.jsonl", mock_from_script({"p": "True"}))
        cache.close()  # never opened
        complete(cache, CompletionRequest(prompt="p"))
        cache.close()
        cache.close()
        assert len(ResponseCache(tmp_path / "cache.jsonl", mock_from_script({}))) == 1

    @pytest.mark.parametrize("tail", ["torn", "unterminated"])
    def test_append_after_damaged_tail_keeps_every_entry(self, tmp_path, caplog, tail):
        path = tmp_path / "cache.jsonl"
        backend = mock_from_script({"a": "A", "b": "B", "c": "C"})
        first = ResponseCache(path, backend)
        for prompt in "ab":
            complete(first, CompletionRequest(prompt=prompt))
        first.close()
        text = path.read_text(encoding="utf-8")
        if tail == "torn":
            text += text.splitlines()[0][:40]  # a crash in the middle of a third line
        else:
            text = text.rstrip("\n")
        path.write_text(text, encoding="utf-8")

        with caplog.at_level(logging.WARNING, logger="calibra.backend"):
            damaged = ResponseCache(path, backend)
        assert len(damaged) == 2
        assert (str(path) in caplog.text) == (tail == "torn")
        complete(damaged, CompletionRequest(prompt="c"))
        damaged.close()

        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        for line in lines:
            assert set(json.loads(line)) == {"request", "completion"}
        reloaded = ResponseCache(path, backend)
        assert [reloaded.get(CompletionRequest(prompt=p)).text for p in "abc"] == ["A", "B", "C"]

    def test_put_line_is_the_cache_entry_json(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path, mock_from_script({}))
        request = CompletionRequest(prompt="Is it caf\u00e9?", seed=2, stop=("\n",), top_logprobs=2)
        completion = Completion(
            text="True \"yes\"", tokens=("True ", "\"yes\""), token_logprobs=(-0.125, -1e-07),
            top_logprobs=({"True ": -0.125, "False": -2.5}, {"\"yes\"": -1e-07}),
        )
        cache.put(request, completion)
        cache.close()
        line = path.read_bytes()
        assert line == (
            rb'{"completion":{"finish_reason":"stop","text":"True \"yes\"",'
            rb'"token_logprobs":[-0.125,-1e-07],"tokens":["True ","\"yes\""],'
            rb'"top_logprobs":[{"False":-2.5,"True ":-0.125},{"\"yes\"":-1e-07}]},'
            rb'"request":{"max_tokens":120,"prompt":"Is it caf\u00e9?","seed":2,"stop":["\n"],'
            rb'"temperature":1.2,"top_logprobs":2}}'
            b"\n"
        )
        assert line.decode("ascii") == LINE_ENCODER.encode(json.loads(line)) + "\n"

    def test_loads_a_line_in_the_established_format(self, tmp_path):
        request = CompletionRequest(prompt="p", top_logprobs=1)
        line = (
            '{"completion": {"finish_reason": "stop", "text": "True", "token_logprobs": [-0.5], '
            '"tokens": ["True"], "top_logprobs": [{"True": -0.5}]}, "created_at": 1.5, '
            '"request": {"max_tokens": 120, "prompt": "p", "temperature": 1.2, '
            '"top_logprobs": 1}, "request_hash": '
            '"b0d7d9d5f60ef2fb2f4f8b9d501f0463795746167fa97c0268cbe49491f5eae9"}\n'
        )
        path = tmp_path / "cache.jsonl"
        path.write_text(line, encoding="utf-8")
        assert ResponseCache(path, mock_from_script({})).get(request) == Completion(
            text="True", tokens=("True",), token_logprobs=(-0.5,), top_logprobs=({"True": -0.5},)
        )

    def test_lines_with_and_without_created_at_load_together(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend = mock_from_script({"a": "A", "b": "B"})
        cache = ResponseCache(path, backend)
        for prompt in "ab":
            complete(cache, CompletionRequest(prompt=prompt))
        cache.close()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        dated = {**json.loads(lines[0]), "created_at": 1792327612.6909175}
        lines[0] = json.dumps(dated, sort_keys=True) + "\n"  # as an older version wrote it
        undated = json.loads(lines[1])
        undated.pop("created_at", None)
        lines[1] = encode_line(undated) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        reloaded = ResponseCache(path, backend)
        assert [complete(reloaded, CompletionRequest(prompt=p)).text for p in "ab"] == ["A", "B"]
        reloaded.close()
        assert backend.call_count == 2

    def test_a_request_hits_the_plain_tuple_key_of_a_loaded_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        request = CompletionRequest(prompt="p", max_tokens=7, temperature=0, top_logprobs=1,
                                    seed=3, stop=("\n",))
        writer = ResponseCache(path, mock_from_script({"p": "A"}))
        writer.complete(request)
        writer.close()
        backend = mock_from_script({"p": "B"})
        reloaded = ResponseCache(path, backend)
        (key,) = reloaded._entries
        assert type(key) is tuple and key == request and hash(key) == hash(request)
        assert reloaded.get(request).text == "A"
        assert reloaded.put(request, Completion("B", (), (), ())).text == "A"
        reloaded.close()
        assert backend.call_count == 0
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_compact_lines_append_to_space_separated_ones(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend = mock_from_script({p: p.upper() for p in "abcd"})
        old = [CompletionRequest(prompt=p, top_logprobs=1) for p in "ab"]
        digests = ["68d1bf6a30d50ad09e69889ed365109b7570ff89f39530f263b98e4cef7ead7b",
                   "e928140f463bd0b99c6a46493ccc40a66ae0c4aacd42a2c2464b0308527a221c"]
        with path.open("w", encoding="utf-8") as fh:  # lines as earlier versions wrote them
            for request, digest in zip(old, digests):
                fh.write(json.dumps({
                    "request_hash": digest,
                    "request": request.to_dict(),
                    "completion": backend.complete(request).to_dict(),
                    "created_at": 1.5,
                }, sort_keys=True) + "\n")
        cache = ResponseCache(path, backend)
        new = [CompletionRequest(prompt=p, top_logprobs=1) for p in "cd"]
        for request in old + new:
            complete(cache, request)
        cache.close()
        assert backend.call_count == 4  # two to write the old lines, two misses
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [line.startswith('{"completion": {') for line in lines] == [True, True, False, False]
        reloaded = ResponseCache(path, backend)
        for request in old + new:
            assert complete(reloaded, request) == backend.complete(request)
        assert backend.call_count == 8  # only the direct calls above
        reloaded.close()

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda d: d.pop("completion"), "missing key 'completion'"),
            (lambda d: d["request"].pop("prompt"), "missing key 'prompt'"),
            (lambda d: d["request"].update(max_tokens=0), "max_tokens must be >= 1"),
            (lambda d: d["request"].update(top_logprobs=6), "top_logprobs must be in"),
            (lambda d: d["completion"]["tokens"].append("x"), "tokens, token_logprobs and"),
            (
                lambda d: d["completion"].update(
                    tokens=["B"], token_logprobs=[-0.1], top_logprobs=[None]
                ),
                "top_logprobs entries must be objects",
            ),
            # A request field that decoded to a list cannot be a lookup key.
            (lambda d: d["request"].update(prompt=["p"]), "unhashable type"),
            (lambda d: d["request"].update(stop=[["x"]]), "unhashable type"),
            (lambda d: d["completion"].update(text=None), "text must be a string, not None"),
            (lambda d: d["completion"].update(text=["B"]), r"text must be a string, not \['B'\]"),
            (
                lambda d: d["completion"].update(
                    tokens=["B"], token_logprobs=[0.5], top_logprobs=[{"B": 0.5}]
                ),
                "log-probability 0.5 is invalid: it must be a number <= 0",
            ),
            (
                lambda d: d["completion"].update(
                    tokens=["B"], token_logprobs=[False], top_logprobs=[{"B": False}]
                ),
                "log-probability False is invalid: it must be a number <= 0",
            ),
            # orjson refuses it, and json reads an int that float() cannot take.
            (
                lambda d: d["completion"].update(
                    tokens=["B"], token_logprobs=[-10**400], top_logprobs=[{"B": -0.1}]
                ),
                f"log-probability {-10**400} is invalid: it must be a number <= 0",
            ),
            # json writes NaN, and a NaN temperature would never hit its entry.
            (
                lambda d: d["request"].update(temperature=math.nan),
                "temperature must be a finite number >= 0, not nan",
            ),
        ],
        ids=[
            "missing_key", "missing_prompt", "max_tokens", "top_logprobs", "misaligned",
            "top_logprobs_null", "prompt_list", "stop_nested_list", "text_null", "text_a_list",
            "logprob_positive", "logprob_false", "logprob_huge_int", "temperature_nan",
        ],
    )
    def test_invalid_line_names_file_and_line(self, tmp_path, damage, message):
        path = tmp_path / "cache.jsonl"
        backend = mock_from_script({"a": "A", "b": "B", "c": "C"})
        cache = ResponseCache(path, backend)
        for prompt in "abc":
            complete(cache, CompletionRequest(prompt=prompt))
        cache.close()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        bad = json.loads(lines[1])
        damage(bad)
        lines[1] = json.dumps(bad, sort_keys=True) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=f"cache.jsonl:2: invalid cache line: {message}"):
            ResponseCache(path, backend)

    def test_values_only_json_reads_load_as_json_reads_them(self, tmp_path):
        # -Infinity (a logprob an endpoint may send) and a lone surrogate are
        # written by LINE_ENCODER but rejected by orjson.
        path = tmp_path / "cache.jsonl"
        written = {
            CompletionRequest(prompt="q inf", top_logprobs=2): Completion(
                " A", (" A",), (float("-inf"),), ({" A": float("-inf"), " B": -800.0},)
            ),
            CompletionRequest(prompt="q surrogate \ud83d"): Completion("half \ud800 pair", (), (), ()),
        }
        backend = mock_from_script({})
        cache = ResponseCache(path, backend)
        for request, completion in written.items():
            cache.put(request, completion)
        cache.close()
        lines = path.read_bytes().splitlines()
        for line in lines:
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(line)
        reloaded = ResponseCache(path, backend)
        for line, request in zip(lines, written):
            expected = Completion.from_dict(json.loads(line)["completion"])
            assert complete(reloaded, request) == expected
        assert backend.call_count == 0

    def test_int_temperature_hits_an_entry_written_as_float(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path, mock_from_script({"p": "True"}))
        complete(cache, CompletionRequest(prompt="p", temperature=1.0))
        cache.close()
        assert b'"temperature":1.0,' in path.read_bytes()
        backend = mock_from_script({"p": "True"})
        reloaded = ResponseCache(path, backend)
        assert complete(reloaded, CompletionRequest(prompt="p", temperature=1)).text == "True"
        assert backend.call_count == 0

    @pytest.mark.parametrize("fields", [
        {"seed": 2**64 + 1}, {"seed": -(2**63) - 1}, {"seed": 10**20 + 7}, {"seed": 2**64},
        {"max_tokens": 2**64 + 1},
    ], ids=["seed_2_64_plus_1", "seed_below_int64", "seed_1e20_plus_7", "seed_2_64", "max_tokens"])
    def test_integers_beyond_64_bits_hit_after_reload(self, tmp_path, fields):
        # orjson reads these as floats; 2**64 is one exactly, the others are not.
        path = tmp_path / "cache.jsonl"
        request = CompletionRequest(prompt="p", **fields)
        writer = ResponseCache(path, mock_from_script({"p": ["A", "B"]}))
        written = complete(writer, request)
        writer.close()
        backend = mock_from_script({"p": ["A", "B"]})
        reloaded = ResponseCache(path, backend)
        assert complete(reloaded, request) == written
        assert backend.call_count == 0
        (name, value), = fields.items()
        if float(value) != value:  # the request at the float's value is another request
            assert reloaded.get(request._replace(**{name: int(float(value))})) is None
        reloaded.close()

    @pytest.mark.parametrize("last", [True, False], ids=["last", "middle"])
    @pytest.mark.parametrize(
        "damage",
        [lambda line: line.replace(b'"text":"B"', b'"text":"\xff"'), lambda line: line[:40]],
        ids=["non_utf8", "torn"],
    )
    def test_unreadable_line_is_skipped_only_at_the_end(self, tmp_path, caplog, damage, last):
        path = tmp_path / "cache.jsonl"
        backend = mock_from_script({"a": "A", "b": "B", "c": "C"})
        cache = ResponseCache(path, backend)
        prompts = "acb" if last else "abc"
        for prompt in prompts:
            complete(cache, CompletionRequest(prompt=prompt))
        cache.close()
        lines = path.read_bytes().splitlines()
        lineno = 3 if last else 2
        lines[lineno - 1] = bad = damage(lines[lineno - 1])
        path.write_bytes(b"\n".join(lines) + b"\n")
        try:  # the reason json gives for the line as the file holds it
            json.loads((bad + b"\n").decode("utf-8"))
        except ValueError as exc:
            reason = str(exc)
        if last:
            with caplog.at_level(logging.WARNING, logger="calibra.backend"):
                damaged = ResponseCache(path, backend)
            assert f"{path}:3: skipping torn last cache line" in caplog.text
            assert [damaged.get(CompletionRequest(prompt=p)).text for p in "ac"] == ["A", "C"]
            assert damaged.get(CompletionRequest(prompt="b")) is None
        else:
            with pytest.raises(ValueError, match=re.escape(f"cache.jsonl:2: malformed cache line: {reason}")):
                ResponseCache(path, backend)

    def test_loads_a_file_written_before_orjson_parsed_lines(self, tmp_path):
        # Written by put when load parsed every line with json alone: four lines
        # from the mock (seed, stop, logprobs, an int temperature) and the two
        # lines test_values_only_json_reads_load_as_json_reads_them wrote then.
        # The fifth holds a NaN alternative, which no completion may hold now.
        path = tmp_path / "cache.jsonl"
        shutil.copyfile(FIXTURES / "cache_before_orjson.jsonl", path)
        backend = mock_from_script({})
        with pytest.raises(ValueError, match="cache.jsonl:5: invalid cache line: "
                                             "log-probability nan is invalid"):
            ResponseCache(path, backend)
        lines = path.read_bytes().splitlines(keepends=True)
        assert b"NaN" in lines.pop(4)
        path.write_bytes(b"".join(lines))
        before = path.read_bytes()
        cache = ResponseCache(path, backend)
        for line in before.splitlines():
            raw = json.loads(line)
            loaded = complete(cache, CompletionRequest.from_dict(raw["request"]))
            assert LINE_ENCODER.encode(loaded.to_dict()) == LINE_ENCODER.encode(raw["completion"])
        cache.close()
        assert backend.call_count == 0
        assert path.read_bytes() == before

    def test_new_lines_append_to_a_file_that_holds_request_hashes(self, tmp_path):
        # The fixture's lines hold the `request_hash` that lines no longer do;
        # a file mixing both loads every entry.
        path = tmp_path / "cache.jsonl"
        lines = (FIXTURES / "cache_before_orjson.jsonl").read_bytes().splitlines(keepends=True)
        assert b"NaN" in lines.pop(4)
        path.write_bytes(b"".join(lines))
        new = [CompletionRequest(prompt=p, top_logprobs=1) for p in ("new a", "new b")]
        cache = ResponseCache(path, mock_from_script({"new a": "A", "new b": "B b"}))
        written = [complete(cache, request) for request in new]
        cache.close()
        assert [b'"request_hash"' in line for line in path.read_bytes().splitlines()] == [
            True, True, True, True, True, False, False]
        backend = mock_from_script({})
        reloaded = ResponseCache(path, backend)
        assert len(reloaded) == 7
        for line in lines:
            raw = json.loads(line)
            loaded = complete(reloaded, CompletionRequest.from_dict(raw["request"]))
            assert LINE_ENCODER.encode(loaded.to_dict()) == LINE_ENCODER.encode(raw["completion"])
        assert [complete(reloaded, request) for request in new] == written
        assert backend.call_count == 0

    def test_malformed_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path, mock_from_script({"p": "True"}))
        complete(cache, CompletionRequest(prompt="p"))
        cache.close()
        path.write_text("{not json\n" + path.read_text(encoding="utf-8"), encoding="utf-8")
        with pytest.raises(ValueError, match="cache.jsonl:1"):
            ResponseCache(path, mock_from_script({}))


class TestCacheAsBackend:
    def test_hit_makes_no_backend_call(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        writer = ResponseCache(path, mock_from_script({"p": "True"}))
        written = writer.complete(CompletionRequest(prompt="p"))
        writer.close()
        before = path.read_bytes()
        backend = mock_from_script({"p": "True"})
        cache = ResponseCache(path, backend)
        assert cache.complete(CompletionRequest(prompt="p")) == written
        cache.close()
        assert backend.call_count == 0
        assert path.read_bytes() == before

    def test_miss_makes_one_call_and_appends_one_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend = mock_from_script({"p": "True", "q": "False"})
        cache = ResponseCache(path, backend)
        for calls, prompt in enumerate("pq", start=1):
            noted = cache.note_requests()
            completion = cache.complete(CompletionRequest(prompt=prompt, top_logprobs=1))
            assert backend.call_count == calls
            cache.write(noted)
            lines = path.read_bytes().splitlines()
            assert len(lines) == calls
            assert Completion.from_dict(json.loads(lines[-1])["completion"]) == completion
        cache.close()

    def test_transport_error_is_retried_through_the_cache(self, tmp_path):
        # The endpoint retries inside the miss, so the cache records one reply.
        path = tmp_path / "cache.jsonl"
        session = ScriptedSession(FakeResponse(status_code=503, text="busy"),
                                  FakeResponse(payload=OK_BODY))
        cache = ResponseCache(path, HttpBackend("http://host", "m", api_key="k", session=session))
        request = CompletionRequest(prompt="p")
        completion = complete(cache, request)
        assert completion.text == "ok"
        assert session.posts == 2
        assert complete(cache, request) == completion
        assert session.posts == 2
        cache.close()
        (line,) = path.read_bytes().splitlines()
        assert Completion.from_dict(json.loads(line)["completion"]) == completion

    def test_a_completion_recorded_during_a_miss_is_every_callers(self, tmp_path):
        # As when two workers miss on one request: the other one records its
        # completion while this backend call is still running.
        path = tmp_path / "cache.jsonl"
        rival = Completion("winner", (), (), ())

        class Racing:
            def complete(self, request):
                cache.put(request, rival)
                return Completion("loser", (), (), ())

        cache = ResponseCache(path, Racing())
        request = CompletionRequest(prompt="p")
        assert complete(cache, request) is rival
        assert cache.complete(request) is rival
        cache.close()
        (line,) = path.read_bytes().splitlines()
        assert json.loads(line)["completion"]["text"] == "winner"
        assert ResponseCache(path, mock_from_script({})).get(request) == rival

    def test_concurrent_misses_share_one_completion(self, tmp_path):
        class Numbered:  # a nondeterministic endpoint: each call a new reply
            def __init__(self):
                self.calls = itertools.count(1)

            def complete(self, request):
                return Completion(f"reply {next(self.calls)}", (), (), ())

        path = tmp_path / "cache.jsonl"
        cache = ResponseCache(path, Numbered())
        requests_ = [CompletionRequest(prompt=f"p{i}") for i in range(1000)]
        got = [[] for _ in range(8)]

        def worker(out):
            out.extend(cache.complete(request) for request in requests_)

        threads = [threading.Thread(target=worker, args=(out,)) for out in got]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        cache.close()
        for replies in got:
            assert len(replies) == len(requests_)
            assert all(mine is first for mine, first in zip(replies, got[0]))
        reloaded = ResponseCache(path, mock_from_script({}))
        assert [reloaded.get(request) for request in requests_] == got[0]

    def test_lines_follow_task_order_whatever_the_thread_order(self, tmp_path):
        # Evaluations share requests and run on 16 threads; each hands its noted
        # requests to `write` in task order, as `evaluate` does. A hit that
        # failed to note an entry another thread had just recorded would move
        # that line later in the file.
        rng = random.Random(7)
        prompts = [f"p{i}" for i in range(60)]
        evaluations = [[CompletionRequest(prompt=p) for p in rng.sample(prompts, 6)]
                       for _ in range(400)]
        reply = Completion("A", (), (), ())

        class Answers:
            def complete(self, request):
                time.sleep(0)  # lets another thread run, as waiting on an endpoint would
                return reply

        def run(path, workers):
            cache = ResponseCache(path, Answers())

            def one(requests_):
                noted = cache.note_requests()
                for request in requests_:
                    cache.complete(request)
                return noted

            with ThreadPoolExecutor(max_workers=workers) as pool:
                for noted in pool.map(one, evaluations, timeout=60):
                    cache.write(noted)
            cache.close()
            return path.read_bytes()

        serial = run(tmp_path / "serial.jsonl", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run(tmp_path / "threaded.jsonl", 16)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        first_use = list(dict.fromkeys(r for requests_ in evaluations for r in requests_))
        assert [json.loads(line)["request"]["prompt"] for line in serial.splitlines()] == [
            r.prompt for r in first_use]

    def test_put_returns_the_completion_the_cache_holds(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache.jsonl", mock_from_script({}))
        request = CompletionRequest(prompt="p")
        first, second = Completion("first", (), (), ()), Completion("second", (), (), ())
        assert cache.put(request, first) is first
        assert cache.put(request, second) is first
        assert cache.put(request, first) is first
        cache.close()
        assert len(cache) == 1
        assert len((tmp_path / "cache.jsonl").read_bytes().splitlines()) == 1


OK_BODY = {"choices": [{"text": "ok", "finish_reason": "stop"}]}


class TestRetry:
    """`HttpBackend` retries a network error, a 429 or a 5xx; nothing else retries."""

    def test_retries_transport_errors(self):
        session = ScriptedSession(requests.ConnectionError("connection reset"),
                                  FakeResponse(status_code=500, text="kaput"),
                                  FakeResponse(payload=OK_BODY))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        assert backend.complete(CompletionRequest(prompt="p")).text == "ok"
        assert session.posts == 3

    def test_backoff_doubles_after_each_attempt(self, monkeypatch):
        slept = []
        monkeypatch.setattr(backend_module, "BACKOFF_SECONDS", 0.25)
        monkeypatch.setattr(backend_module.time, "sleep", slept.append)
        session = ScriptedSession(*[FakeResponse(status_code=500, text="boom")] * 5)
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(TransportError, match="giving up after 3 attempts: HTTP 500: boom"):
            backend.complete(CompletionRequest(prompt="p"))
        assert slept == [0.25, 0.5]

    def test_gives_up_after_three(self):
        session = ScriptedSession(*[FakeResponse(status_code=429, text="slow down")] * 5)
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(TransportError, match="giving up after 3 attempts: rate limited"):
            backend.complete(CompletionRequest(prompt="p"))
        assert session.posts == 3

    def test_no_retry_on_malformed(self, monkeypatch):
        slept = []
        monkeypatch.setattr(backend_module.time, "sleep", slept.append)
        for first, error in [(FakeResponse(status_code=400, text="bad request"), BackendError),
                             (FakeResponse(text="<html>"), MalformedResponseError)]:
            session = ScriptedSession(first, FakeResponse(payload=OK_BODY))
            backend = HttpBackend("http://host", "m", api_key="k", session=session)
            with pytest.raises(error) as info:
                backend.complete(CompletionRequest(prompt="p"))
            assert not isinstance(info.value, TransportError)
            assert session.posts == 1
        assert slept == []

    def test_a_custom_backends_transport_error_is_not_retried(self):
        class Failing:
            calls = 0

            def complete(self, request):
                self.calls += 1
                raise TransportError("boom")

        backend = Failing()
        with pytest.raises(TransportError, match="^boom$"):
            complete(backend, CompletionRequest(prompt="p"))
        assert backend.calls == 1


class FakeSession:
    def __init__(self, response):
        self.response = response
        self.last = None

    def post(self, url, json=None, headers=None, timeout=None):
        self.last = {"url": url, "json": json, "headers": headers}
        return self.response


class ScriptedSession:
    """Answers each post with the next response in order, or raises it if it is an exception."""

    def __init__(self, *responses):
        self.responses = list(responses)
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


class TestHttpBackend:
    def payload(self, with_logprobs=True):
        choice = {"text": " True", "finish_reason": "stop"}
        if with_logprobs:
            choice["logprobs"] = {
                "tokens": [" True"],
                "token_logprobs": [-0.1],
                "top_logprobs": [{" True": -0.1, " False": -2.5}],
            }
        return {"choices": [choice]}

    def test_wire_mapping(self):
        session = FakeSession(FakeResponse(payload=self.payload()))
        backend = HttpBackend("http://host", "model-x", api_key="k", session=session)
        request = CompletionRequest(prompt="q", top_logprobs=5, stop=("\n\n",))
        completion = backend.complete(request)
        body = session.last["json"]
        assert session.last["url"] == "http://host/v1/completions"
        assert body["logprobs"] == 5
        assert body["stop"] == ["\n\n"]
        assert session.last["headers"]["Authorization"] == "Bearer k"
        assert completion.token_logprobs == (-0.1,)

    def posted(self, request: CompletionRequest) -> dict:
        session = FakeSession(FakeResponse(payload=self.payload()))
        HttpBackend("http://host", "model-x", api_key="k", session=session).complete(request)
        return session.last["json"]

    def test_every_request_field_is_posted_under_its_api_name(self):
        request = CompletionRequest(prompt="q", max_tokens=7, temperature=0.5, top_logprobs=5,
                                    seed=3, stop=("\n",))
        # Each field is set away from its default, so a field the body drops fails below.
        assert all(getattr(request, name) != default
                   for name, default in CompletionRequest._field_defaults.items())
        api_name = {"top_logprobs": "logprobs"}
        body = self.posted(request)
        assert set(body) == {"model"} | {api_name.get(name, name) for name in request._fields}
        assert body == {"model": "model-x", "prompt": "q", "max_tokens": 7, "temperature": 0.5,
                        "logprobs": 5, "seed": 3, "stop": ["\n"]}

    def test_a_default_request_posts_only_its_set_fields(self):
        defaults = CompletionRequest._field_defaults
        assert self.posted(CompletionRequest(prompt="q")) == {
            "model": "model-x", "prompt": "q", "max_tokens": defaults["max_tokens"],
            "temperature": defaults["temperature"]}

    def test_an_empty_stop_is_not_posted(self):
        assert "stop" not in self.posted(CompletionRequest(prompt="q", stop=()))

    def test_the_prepared_request_is_json_with_the_bearer_key(self):
        reply = FakeResponse(payload=self.payload())

        class Capturing(requests.Session):
            def send(self, prepared, **kwargs):
                self.prepared = prepared
                return reply

        with Capturing() as session:
            backend = HttpBackend("http://host", "model-x", api_key="k", session=session)
            backend.complete(CompletionRequest(prompt="q"))
        assert session.prepared.url == "http://host/v1/completions"
        assert session.prepared.headers["Content-Type"] == "application/json"
        assert session.prepared.headers["Authorization"] == "Bearer k"
        assert json.loads(session.prepared.body) == self.posted(CompletionRequest(prompt="q"))

    def test_reply_without_logprobs_has_no_tokens(self):
        session = FakeSession(FakeResponse(payload=self.payload(with_logprobs=False)))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        completion = backend.complete(CompletionRequest(prompt="q"))
        assert "logprobs" not in session.last["json"]
        assert completion.text == " True"
        assert completion.tokens == completion.token_logprobs == completion.top_logprobs == ()

    def test_missing_logprobs_capability_error(self):
        session = FakeSession(FakeResponse(payload=self.payload(with_logprobs=False)))
        backend = HttpBackend("http://host", "model-x", api_key="k", session=session)
        with pytest.raises(CapabilityError, match="logprobs"):
            backend.complete(CompletionRequest(prompt="q", top_logprobs=5))

    def test_rate_limit_is_transport_error(self):
        session = FakeSession(FakeResponse(status_code=429, text="slow down"))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(TransportError):
            backend.complete(CompletionRequest(prompt="q"))

    def test_seed_is_forwarded(self):
        session = FakeSession(FakeResponse(payload=self.payload()))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        backend.complete(CompletionRequest(prompt="q", seed=7))
        assert session.last["json"]["seed"] == 7
        backend.complete(CompletionRequest(prompt="q"))
        assert "seed" not in session.last["json"]

    def test_server_error_is_retried(self):
        session = ScriptedSession(
            FakeResponse(status_code=503, text="busy"), FakeResponse(payload=self.payload())
        )
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        completion = complete(backend, CompletionRequest(prompt="q"))
        assert completion.text == " True"
        assert session.posts == 2

    def test_connection_error_is_retried(self):
        class DropsFirst(ScriptedSession):
            def post(self, url, json=None, headers=None, timeout=None):
                if self.posts == 0:
                    self.posts += 1
                    raise requests.ConnectionError("connection reset")
                return super().post(url, json, headers, timeout)

        session = DropsFirst(FakeResponse(payload=self.payload()))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        completion = complete(backend, CompletionRequest(prompt="q"))
        assert completion.text == " True"
        assert session.posts == 2

    def test_unknown_finish_reason_is_error(self):
        payload = self.payload()
        payload["choices"][0]["finish_reason"] = "content_filter"
        backend = HttpBackend("http://host", "m", api_key="k",
                              session=FakeSession(FakeResponse(payload=payload)))
        assert backend.complete(CompletionRequest(prompt="q")).finish_reason == "error"

    def test_client_error_is_not_retried(self):
        session = ScriptedSession(
            FakeResponse(status_code=400, text="bad request"), FakeResponse(payload=self.payload())
        )
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(BackendError, match="bad request") as info:
            complete(backend, CompletionRequest(prompt="q"))
        assert not isinstance(info.value, TransportError)
        assert session.posts == 1

    def test_misaligned_logprobs_are_malformed_and_not_retried(self):
        payload = self.payload()
        payload["choices"][0]["logprobs"]["token_logprobs"].append(-1.0)
        session = ScriptedSession(FakeResponse(payload=payload), FakeResponse(payload=payload))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(MalformedResponseError, match="align"):
            complete(backend, CompletionRequest(prompt="q", top_logprobs=5))
        assert session.posts == 1

    @pytest.mark.parametrize("text", [None, 5, ["True"]], ids=["null", "number", "list"])
    def test_text_not_a_string_is_malformed_and_not_retried(self, text):
        payload = self.payload()
        payload["choices"][0]["text"] = text
        session = ScriptedSession(FakeResponse(payload=payload), FakeResponse(payload=payload))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(MalformedResponseError, match="text must be a string"):
            complete(backend, CompletionRequest(prompt="q", top_logprobs=5))
        assert session.posts == 1

    @pytest.mark.parametrize("field, value, message", [
        ("token_logprobs", ["x"], "log-probability 'x' is invalid: it must be a number <= 0"),
        ("token_logprobs", [0.5], "log-probability 0.5 is invalid: it must be a number <= 0"),
        ("token_logprobs", [None], "log-probability None is invalid: it must be a number <= 0"),
        ("token_logprobs", [math.nan], "log-probability nan is invalid: it must be a number <= 0"),
        ("tokens", [5], "token 5 is invalid: it must be a string"),
        ("top_logprobs", [{" True": -0.1, " False": 0.5}], "log-probability 0.5 is invalid"),
        ("top_logprobs", [{" True": -0.1, " False": math.nan}], "log-probability nan is invalid"),
        ("token_logprobs", [False], "log-probability False is invalid: it must be a number <= 0"),
        ("top_logprobs", [{" True": -0.1, " False": False}], "log-probability False is invalid"),
        ("token_logprobs", [-10**400], f"log-probability {-10**400} is invalid"),
    ], ids=["logprob_a_string", "logprob_positive", "logprob_null", "logprob_nan",
            "token_a_number", "top_positive", "top_nan", "logprob_false", "top_false",
            "logprob_huge_int"])
    def test_unusable_values_are_malformed_and_not_retried(self, field, value, message):
        payload = self.payload()
        payload["choices"][0]["logprobs"][field] = value
        payload = json.loads(json.dumps(payload))  # as sent: NaN is the token `NaN`
        session = ScriptedSession(FakeResponse(payload=payload), FakeResponse(payload=payload))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(MalformedResponseError, match=re.escape(f"unusable completion: {message}")):
            complete(backend, CompletionRequest(prompt="q", top_logprobs=5))
        assert session.posts == 1

    def test_malformed_body(self):
        session = FakeSession(FakeResponse(payload={"nope": []}))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(MalformedResponseError):
            backend.complete(CompletionRequest(prompt="q"))

    def test_body_not_json_is_malformed_and_not_retried(self):
        session = ScriptedSession(FakeResponse(text="<html>"), FakeResponse(payload=self.payload()))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(MalformedResponseError, match="unparseable completion body: no json"):
            complete(backend, CompletionRequest(prompt="q"))
        assert session.posts == 1

    @pytest.mark.parametrize("body, message", [
        ({"choices": [{"text": " True", "logprobs": [1]}]}, "logprobs must be an object, not list"),
        ([{"choices": [{"text": " True"}]}], "list indices must be integers"),
        ({"choices": None}, "not subscriptable"),
        ({"choices": [[" True"]]}, "list indices must be integers"),
    ], ids=["logprobs_a_list", "body_a_list", "choices_null", "choice_a_list"])
    @pytest.mark.parametrize("top_logprobs", [0, 5])
    def test_body_of_the_wrong_shape_is_malformed_and_not_retried(
        self, body, message, top_logprobs
    ):
        session = ScriptedSession(FakeResponse(payload=body), FakeResponse(payload=body))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(MalformedResponseError, match=message):
            complete(backend, CompletionRequest(prompt="q", top_logprobs=top_logprobs))
        assert session.posts == 1

    def test_http_error_surfaces_body(self):
        session = FakeSession(FakeResponse(status_code=500, text="kaput"))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        with pytest.raises(Exception, match="kaput"):
            backend.complete(CompletionRequest(prompt="q"))

    @pytest.mark.parametrize("status", [429, 503, 500])
    @pytest.mark.parametrize("header, waits", [
        ("2", [2.0, 2.0]),
        ("120", [30.0, 30.0]),
        ("0", [0.5, 1.0]),
        ("Wed, 21 Oct 2026 07:28:00 GMT", [0.5, 1.0]),
        ("1.5", [0.5, 1.0]),
    ], ids=["seconds", "capped", "zero", "date", "malformed"])
    def test_retry_after_sets_the_wait(self, monkeypatch, status, header, waits):
        slept = []
        monkeypatch.setattr(backend_module, "BACKOFF_SECONDS", 0.5)
        monkeypatch.setattr(backend_module.time, "sleep", slept.append)
        busy = FakeResponse(status_code=status, text="busy", headers={"Retry-After": header})
        session = ScriptedSession(busy, busy, FakeResponse(payload=self.payload()))
        backend = HttpBackend("http://host", "m", api_key="k", session=session)
        assert complete(backend, CompletionRequest(prompt="q")).text == " True"
        assert session.posts == 3
        # Only a 429 or 503 asks for a wait; a 500's header is not read.
        assert slept == (waits if status != 500 else [0.5, 1.0])

    def test_without_a_session_builds_a_requests_session(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("building the backend sent a request")

        monkeypatch.setattr(requests.Session, "request", refuse)
        backend = HttpBackend("http://h", "m")
        assert isinstance(backend.session, requests.Session)


# Runs in a fresh interpreter and prints whether `requests` is loaded after
# each stage: import, a cached mock run that writes its report, `calibra
# metrics` on that report, and building an `HttpBackend`.
_REQUESTS_PROBE = """
import json
import sys

from click.testing import CliRunner

import calibra
from calibra.cli import main
from calibra.harness import RunConfig, run_eval

dataset, script, out = sys.argv[1:]
loaded = {"import": "requests" in sys.modules}
run_eval(RunConfig(
    dataset_path=[dataset], strategy_ids=["standard", "far_final"],
    extraction_method_ids=["token_prob"], backend={"kind": "mock", "script_path": script},
    worker_count=1, cache_path=out + "/cache.jsonl", out_dir=out,
))
loaded["run"] = "requests" in sys.modules
result = CliRunner().invoke(main, ["metrics", "--report", out])
assert result.exit_code == 0, result.output
loaded["metrics"] = "requests" in sys.modules
calibra.HttpBackend("http://h", "m")
loaded["http_backend"] = "requests" in sys.modules
print(json.dumps(loaded))
"""


def test_only_http_backend_loads_requests(e2e_dataset, e2e_script, tmp_path):
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", _REQUESTS_PROBE, str(e2e_dataset), str(e2e_script), str(out)],
        env=env, capture_output=True, encoding="utf-8", timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {
        "import": False, "run": False, "metrics": False, "http_backend": True,
    }
    assert (out / "cache.jsonl").stat().st_size > 0


def readme_call_counts() -> dict[str, str]:
    """Each strategy's `calls` cell in README.md's call-count table."""
    readme = (FIXTURES.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| calls | strategies |", 1)[1].split("\n\n", 1)[0]
    counts = {}
    for row in table.strip().splitlines()[1:]:
        calls, strategies = row.strip("|").split("|")
        for sid in re.findall(r"`(\w+)`", strategies):
            if sid in STRATEGY_IDS:
                counts[sid] = calls.strip()
    assert sorted(counts) == sorted(STRATEGY_IDS)
    return counts


class TestMockMatchesHttp:
    """The mock answers as an endpoint serving its script does, read by the same parser."""

    script = {"p": {"text": " True", "logprobs": [-0.1], "top_logprobs": [{" True": -0.1}]}}

    def test_a_run_over_http_writes_the_mocks_bytes(self, tmp_path, e2e_dataset, e2e_script):
        mock = load_mock_script(e2e_script)
        session = ScriptEndpoint(load_mock_script(e2e_script))
        http = HttpBackend("http://host", "m", api_key="k", session=session)
        outputs = []
        for name, backend in (("mock", mock), ("http", http)):
            out = tmp_path / name
            run_eval(e2e_config(e2e_dataset, e2e_script, tmp_path, out_dir=str(out)),
                     backend=backend)
            outputs.append({file: (out / file).read_bytes()
                            for file in ("report.json", "records.jsonl", "transcripts.jsonl")})
        assert outputs[0] == outputs[1]
        assert len(session.posts) == mock.call_count > 0

    def test_a_run_on_replies_like_a_real_endpoints(self, tmp_path):
        # A non-ASCII question, a free-form item and near-certain tokens'
        # logprobs, through a cache: their lines take encode_line's fallback.
        items = [
            QAItem(id="q1", question="Is café a French word?", gold_answers=("Yes",)),
            QAItem(id="q2", question="What is the capital of France?", gold_answers=("Paris",),
                   answer_kind="free_form"),
        ]
        answers = {"q1": {"text": " Yes, café is.", "logprobs": [-1e-05, -0.25, -3e-07, -0.5]},
                   "q2": {"text": " Paris", "logprobs": [-3e-07]}}
        thoughts = {"fact": "1. A café serves coffee.", "source": "1. A dictionary.",
                    "reflection": "The facts agree."}
        entries: dict = {}
        for item in items:
            for sid, steps in (("standard", {"answer": answers[item.id]}),
                               ("far_final", {**thoughts, "answer": answers[item.id]})):
                script = build_script(sid, item, steps)
                entries.update(script)
                answer_prompt, answer = list(script.items())[-1]
                context = f"{answer_prompt} {answer['text']}"
                add_p_true_entry(entries, context, answer["text"], {" A": -1e-05, " B": -11.5})
                add_verbalized_entry(entries, context, " 0.9")
        dataset = tmp_path / "dataset.jsonl"
        write_dataset(items, dataset)
        mock = mock_from_script(entries)
        session = ScriptEndpoint(mock_from_script(entries))
        http = HttpBackend("http://host", "m", api_key="k", session=session)
        outputs, caches = [], []
        for name, backend in (("mock", mock), ("http", http)):
            config = RunConfig(
                dataset_path=[str(dataset)], strategy_ids=["standard", "far_final"],
                extraction_method_ids=["token_prob", "p_true", "verbalized"], worker_count=1,
                cache_path=str(tmp_path / f"{name}.jsonl"), out_dir=str(tmp_path / name),
            )
            run_eval(config, backend=backend)
            outputs.append({file: (tmp_path / name / file).read_bytes()
                            for file in ("report.json", "records.jsonl", "transcripts.jsonl")})
            caches.append((tmp_path / f"{name}.jsonl").read_text(encoding="utf-8").splitlines())
        assert outputs[0] == outputs[1]
        assert len(session.posts) == mock.call_count > 0
        for lines in caches:
            for line in lines:
                assert line == LINE_ENCODER.encode(json.loads(line))
            assert any("1e-05" in line for line in lines)
            assert any("caf\\u00e9" in line for line in lines)
        assert caches[0] == caches[1]

    # Both items carry gold_facts for far_human_facts; self_ask asks follow-ups on q1 only.
    items = (
        QAItem(id="q1", question="Did Aristotle use a laptop?", gold_answers=("No",),
               answer_kind="boolean", gold_facts=("The first laptop was built in 1980.",)),
        QAItem(id="q2", question="What is the capital of France?", gold_answers=("Paris",),
               answer_kind="free_form", gold_facts=("Paris is the seat of government.",)),
    )
    # Each item's answer, and its self_consistency samples by seed; the first wins the vote.
    answers = {"q1": ("No", ["No", "Yes", "No"]), "q2": ("Paris", ["Paris", "Lyon", "Paris"])}

    def step_texts(self, item: QAItem) -> dict:
        answer, samples = self.answers[item.id]
        thoughts = ("knowledge", "reason", "decompose", "discussion", "fact", "source", "reflection")
        return {
            **{name: f"A {name} about {item.id}." for name in thoughts},
            "followup_check": "Yes." if item.id == "q1" else "No.",
            "followup_question": [f"Follow-up {k} on {item.id}?" for k in range(3)],
            "followup_answer": [f"Intermediate {k}." for k in range(3)],
            "sample": samples,
            "answer": {"text": f" {answer}", "logprobs": [-0.25]},
        }

    @pytest.mark.parametrize("strategy_id", STRATEGY_IDS)
    def test_every_strategy_with_every_method(self, tmp_path, strategy_id):
        entries: dict = {}
        for item in self.items:
            script = build_script(strategy_id, item, self.step_texts(item))
            entries.update(script)
            # The final prompt and the reply the probes read: self_consistency's first sample.
            prompt, reply = list(script.items())[-1]
            text = reply[0] if isinstance(reply, list) else reply["text"]
            add_p_true_entry(entries, f"{prompt} {text}", text, {" A": -0.2, " B": -1.8})
            add_verbalized_entry(entries, f"{prompt} {text}", " 0.8")
        dataset = tmp_path / "dataset.jsonl"
        write_dataset(self.items, dataset)
        mock = mock_from_script(entries)
        session = ScriptEndpoint(mock_from_script(entries))
        http = HttpBackend("http://host", "m", api_key="k", session=session)
        outputs = []
        for name, backend in (("mock", mock), ("http", http)):
            config = RunConfig(
                dataset_path=[str(dataset)], strategy_ids=[strategy_id],
                extraction_method_ids=["token_prob", "p_true", "verbalized"],
                self_consistency_n=3, worker_count=1, out_dir=str(tmp_path / name),
            )
            run_eval(config, backend=backend)
            outputs.append({file: (tmp_path / name / file).read_bytes()
                            for file in ("report.json", "records.jsonl", "transcripts.jsonl")})
        assert outputs[0] == outputs[1]

        # README's calls per evaluation, plus the p_true and verbalized probes.
        cell = readme_call_counts()[strategy_id]

        def calls(item: QAItem) -> int:
            if cell == "n":
                return config.self_consistency_n
            if cell == "2 or 8":
                return 8 if item.id == "q1" else 2
            return int(cell)

        expected = [calls(item) + 2 for item in self.items]
        assert len(session.posts) == mock.call_count == sum(expected)
        # One worker posts in task order, and each evaluation's probes come last.
        start = 0
        for count in expected:
            prompts = [post["prompt"] for post in session.posts[start:start + count]]
            probes = [p.endswith(P_TRUE_QUESTION + "\n") or p.endswith(VERBALIZED_SUFFIX)
                      for p in prompts]
            assert probes == [False] * (count - 2) + [True, True]
            assert prompts[-1].endswith(VERBALIZED_SUFFIX)
            start += count

    # One entry of each form the script takes, and an unscripted prompt.
    forms = {
        "text": " True",
        "texts": ["True", "False", "No"],
        "logprobs": {"text": "two words here", "logprobs": [-0.5, -1.5]},
        "more_logprobs": {"text": "one", "logprobs": [-0.5, -1.5]},
        "top_logprobs": script["p"],
        "empty": "",
        "misaligned": {"text": "True", "top_logprobs": [{}, {}]},
        "top_logprobs_not_objects": {"text": "True", "top_logprobs": [[["True", -0.1]]]},
        "nan": {"text": "True", "logprobs": [float("nan")]},
    }

    @pytest.mark.parametrize("prompt", [*forms, "unscripted"])
    def test_each_request_gets_the_same_completion(self, prompt):
        mock = mock_from_script(self.forms, fallback="unknown")
        session = ScriptEndpoint(mock_from_script(self.forms, fallback="unknown"))
        http = HttpBackend("http://host", "m", api_key="k", session=session)
        for top_logprobs, seed in itertools.product((0, 1, 5), (None, 1, 2)):
            request = CompletionRequest(prompt=prompt, top_logprobs=top_logprobs, seed=seed)
            outcomes = []
            for backend in (mock, http):
                try:
                    outcomes.append(backend.complete(request).to_dict())
                except BackendError as exc:
                    outcomes.append(f"{type(exc).__name__}: {exc}")
            # NaN != NaN, so the completions compare by their JSON.
            assert json.dumps(outcomes[0]) == json.dumps(outcomes[1]), request
            if top_logprobs == 0:
                assert outcomes[0]["tokens"] == outcomes[0]["top_logprobs"] == (), request
        assert len(session.posts) == mock.call_count == 9

    def test_unknown_fallback_asks_like_any_request(self):
        backend = mock_from_script({}, fallback="unknown")
        assert backend.complete(CompletionRequest(prompt="q")) == Completion("UNKNOWN", (), (), ())
        asked = backend.complete(CompletionRequest(prompt="q", top_logprobs=1))
        assert asked.token_logprobs == (0.0,)

    def test_token_prob_fails_without_logprobs(self):
        completion = mock_from_script(self.script).complete(CompletionRequest(prompt="p"))
        with pytest.raises(ConfidenceError, match="no token logprobs"):
            token_prob_confidence(completion)

    def test_logprobs_requested_scripted_verbatim(self):
        backend = mock_from_script(self.script)
        completion = backend.complete(CompletionRequest(prompt="p", top_logprobs=1))
        assert completion == Completion(" True", (" True",), (-0.1,), ({" True": -0.1},))
        assert token_prob_confidence(completion).value == pytest.approx(math.exp(-0.1))


class TestRunOverAnEndpointsFaults:
    """Replies a script cannot express, served to `run_eval` over `HttpBackend`."""

    # The first request of the e2e run: q1's answer under `standard`, scripted as
    # "False" with logprob -0.1. q2's is "False" with -0.5.
    q1_answer = f"Question: {E2E_ITEMS[0].question}\nAnswer:"
    q2_answer = f"Question: {E2E_ITEMS[1].question}\nAnswer:"
    files = ("report.json", "records.jsonl", "transcripts.jsonl")

    @staticmethod
    def body(text="False", logprob=-0.1, finish_reason="stop"):
        logprobs = {"tokens": [text], "token_logprobs": [logprob], "top_logprobs": [{text: logprob}]}
        return {"choices": [{"text": text, "finish_reason": finish_reason, "logprobs": logprobs}]}

    def run_both(self, tmp_path, e2e_dataset, e2e_script, queued):
        """The output files of the e2e run on the mock and over an endpoint with `queued`."""
        mock = load_mock_script(e2e_script)
        endpoint = ScriptEndpoint(load_mock_script(e2e_script), queued)
        http = HttpBackend("http://host", "m", api_key="k", session=endpoint)
        outputs = []
        for name, backend in (("mock", mock), ("http", http)):
            out = tmp_path / name
            run_eval(e2e_config(e2e_dataset, e2e_script, tmp_path, out_dir=str(out)),
                     backend=backend)
            outputs.append({file: (out / file).read_bytes() for file in self.files})
        return mock, endpoint, outputs

    @pytest.mark.parametrize("busy, waits", [
        (FakeResponse(status_code=503, text="busy"), [0.0]),
        (FakeResponse(status_code=429, text="slow down", headers={"Retry-After": "2"}), [2.0]),
    ], ids=["server_error", "rate_limited"])
    def test_a_retried_reply_writes_the_mocks_bytes(
        self, tmp_path, e2e_dataset, e2e_script, monkeypatch, busy, waits
    ):
        slept = []
        monkeypatch.setattr(backend_module.time, "sleep", slept.append)
        mock, endpoint, (expected, got) = self.run_both(
            tmp_path, e2e_dataset, e2e_script, {self.q1_answer: [busy]})
        assert got == expected
        assert len(endpoint.posts) == mock.call_count + 1
        assert slept == waits

    def test_finish_reasons_reach_the_transcript(self, tmp_path, e2e_dataset, e2e_script):
        queued = {self.q1_answer: [FakeResponse(payload=self.body(finish_reason="length"))],
                  self.q2_answer: [FakeResponse(payload=self.body(
                      logprob=-0.5, finish_reason="content_filter"))]}
        mock, endpoint, (expected, got) = self.run_both(tmp_path, e2e_dataset, e2e_script, queued)
        assert len(endpoint.posts) == mock.call_count
        for file in ("report.json", "records.jsonl"):
            assert got[file] == expected[file]
        reasons = {}
        for line in got["transcripts.jsonl"].splitlines():
            transcript = json.loads(line)
            for step in transcript["steps"]:
                reasons[step["prompt"]] = step["completion"]["finish_reason"]
        assert reasons.pop(self.q1_answer) == "length"
        assert reasons.pop(self.q2_answer) == "error"
        assert set(reasons.values()) == {"stop"}

    def fail_first(self, tmp_path, e2e_dataset, e2e_script, prompt, response, methods):
        """The error that ends the e2e run over an endpoint that first answers `prompt`
        with `response`, its causes' types, and how many times that prompt was posted."""
        endpoint = ScriptEndpoint(load_mock_script(e2e_script), {prompt: [response]})
        http = HttpBackend("http://host", "m", api_key="k", session=endpoint)
        config = e2e_config(e2e_dataset, e2e_script, tmp_path, extraction_method_ids=methods)
        with pytest.raises(Exception) as info:
            run_eval(config, backend=http)
        causes, cause = [], info.value.__cause__
        while cause is not None:
            causes, cause = causes + [type(cause)], cause.__cause__
        return info.value, causes, [post["prompt"] for post in endpoint.posts].count(prompt)

    def test_a_p_true_probe_without_logprobs_is_a_capability_error(
        self, tmp_path, e2e_dataset, e2e_script
    ):
        probe: dict = {}
        add_p_true_entry(probe, f"{self.q1_answer} False", "False", {" A": -0.1})
        (prompt,) = probe
        bare = FakeResponse(payload={"choices": [{"text": " A", "finish_reason": "stop"}]})
        error, causes, posts = self.fail_first(
            tmp_path, e2e_dataset, e2e_script, prompt, bare, ["token_prob", "p_true"])
        assert causes == [CapabilityError]
        assert cli._exit_code(error) == 2
        assert posts == 1

    def test_a_body_of_the_wrong_shape_is_malformed_and_not_retried(
        self, tmp_path, e2e_dataset, e2e_script
    ):
        error, causes, posts = self.fail_first(
            tmp_path, e2e_dataset, e2e_script, self.q1_answer,
            FakeResponse(payload={"choices": "x"}), ["token_prob"])
        assert MalformedResponseError in causes
        assert cli._exit_code(error) == 2
        assert posts == 1


BENCH = Path(__file__).resolve().parent.parent / "bench"

# Scripts at the edges where orjson and json could read a file apart, each
# with the part of its outcome that shows the edge: (file text, shown). The
# integers from 2**63 in magnitude are those orjson alone rounds to a float.
_ORACLE_SCRIPTS = {
    "nan_and_infinities": (
        '{"entries": {"p": {"text": "True", "logprobs": [NaN, Infinity, -Infinity]}}}',
        "(nan, inf, -inf)"),
    "surrogate_in_prompt": ('{"entries": {"\\ud800 p": "True"}}', "'\\ud800 p'"),
    "surrogate_in_reply": ('{"entries": {"p": ["\\udfff", "True"]}}', "('\\udfff', 'True')"),
    "non_ascii": ('{"entries": {"caf\u00e9 \u2615?": "na\u00efve \U0001f600", '
                  '"\\u00e9": "\\ud83d\\ude00"}}', "'\u00e9': MockResponse(texts=('\U0001f600',)"),
    "logprob_int64_min": (
        '{"entries": {"p": {"text": "True", "logprobs": [-9223372036854775808]}}}',
        "(-9223372036854775808,)"),
    "logprob_below_int64": (
        '{"entries": {"p": {"text": "True", "logprobs": [-9223372036854775809]}}}',
        "(-9223372036854775809,)"),
    "logprob_below_2_64": (
        '{"entries": {"p": {"text": "True", "logprobs": [-18446744073709551617]}}}',
        "(-18446744073709551617,)"),
    "top_logprob_2_64": (
        '{"entries": {"p": {"text": "True", "logprobs": [-1], '
        '"top_logprobs": [{"True": 18446744073709551616}]}}}',
        "({'True': 18446744073709551616},)"),
    "reply_20_digits": ('{"entries": {"p": [98765432109876543210]}}',
                        "not a string: 98765432109876543210"),
    "fallback_20_digits": ('{"fallback": -12345678901234567890, "entries": {}}',
                           "not -12345678901234567890"),
    "repeated_prompt": ('{"entries": {"p": "A", "q": "B", "p": "C"}}',
                        "{'p': MockResponse(texts=('C',)"),
    "bom": ('\ufeff{"entries": {}}', "Unexpected UTF-8 BOM"),
    "crlf": ('{\r\n  "fallback": "unknown",\r\n  "entries": {"p": "True"}\r\n}\r\n',
             "('unknown', {'p': MockResponse(texts=('True',)"),
    "overflowing_float": ('{"entries": {"p": {"text": "True", "logprobs": [-1e400]}}}',
                          "(-inf,)"),
    "top_level_list": ('[{"entries": {}}]', "a script must be a JSON object"),
}


def _script_outcome(read, path: Path) -> str:
    """The fallback and table of the backend `read(path)` builds, as one repr, or its error."""
    try:
        backend = read(path)
    except ScriptError as exc:
        return str(exc)
    return repr((backend.fallback, backend._responses))


def _read_by_json(path: Path) -> MockBackend:
    """The reader `load_mock_script` must match: `mock_from_script` of json's reading."""
    try:
        script = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(script, dict):
            raise ScriptError("a script must be a JSON object")
        return mock_from_script(script.get("entries", {}), script.get("fallback", "error"))
    except (TypeError, ValueError, ScriptError) as exc:
        raise ScriptError(f"{path}: {exc}") from exc


class TestLoadScript:
    def test_loads_json_file(self, tmp_path):
        path = tmp_path / "script.json"
        script = {"fallback": "unknown", "entries": {"p": "True"}}
        path.write_text(json.dumps(script), encoding="utf-8")
        backend = load_mock_script(path)
        assert backend.complete(CompletionRequest(prompt="p")).text == "True"
        assert backend.complete(CompletionRequest(prompt="other")).text == "UNKNOWN"

    @pytest.mark.parametrize("body, message", [
        ('{"entries": {"p": {"texts": 5}}}',
         "script entry for 'p': texts must be a list, not a number"),
        ('{"entries": {"p": {"texts": true}}}',
         "script entry for 'p': texts must be a list, not a boolean"),
        ('{"entries": {"p": {"texts": null}}}',
         "script entry for 'p': texts must be a list, not null"),
        ('{"entries": {"p": {"text": "A", "logprobs": 5}}}',
         "script entry for 'p': logprobs must be a list, not a number"),
        ('{"entries": {"p": 1}}', "unsupported script value for 'p'"),
        (b"\xff", "can't decode byte 0xff"),
    ])
    def test_a_bad_script_is_a_script_error_naming_the_file(self, tmp_path, body, message):
        path = tmp_path / "script.json"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body, encoding="utf-8")
        with pytest.raises(ScriptError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            load_mock_script(path)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "bad_value"])
    def test_load_pauses_and_restores_collector(self, tmp_path, monkeypatch, enabled, valid):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"entries": {"p": "True" if valid else 1}}), encoding="utf-8")
        build = backend_module.mock_from_script
        collecting = []  # the collector's state as the script is built

        def recording(entries, fallback):
            collecting.append(gc.isenabled())
            return build(entries, fallback)

        monkeypatch.setattr(backend_module, "mock_from_script", recording)
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if valid:
                load_mock_script(path)
            else:
                with pytest.raises(ScriptError, match="unsupported script value"):
                    load_mock_script(path)
            assert collecting == [False]
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("script, keys", [
        ({"fallback": "unknown", "entreis": {"p": "True"}}, ["entreis"]),
        ({"Question: x\nAnswer:": "True"}, ["Question: x\nAnswer:"]),
    ], ids=["misspelt_entries", "bare_entries"])
    def test_unknown_top_level_key_is_a_script_error(self, tmp_path, script, keys):
        # Either would otherwise load as a script of no entries.
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        message = f"{path}: unknown script keys: {keys}"
        with pytest.raises(ScriptError, match=f"^{re.escape(message)}$"):
            load_mock_script(path)

    @pytest.mark.parametrize("name", list(_ORACLE_SCRIPTS))
    def test_reads_as_json_does(self, tmp_path, name):
        text, shown = _ORACLE_SCRIPTS[name]
        path = tmp_path / "script.json"
        path.write_bytes(text.encode("utf-8"))
        outcome = _script_outcome(load_mock_script, path)
        assert outcome == _script_outcome(_read_by_json, path)
        assert shown in outcome

    @pytest.mark.parametrize("logprob, json_reads", [
        ("-0.5", 0), ("-Infinity", 1), ("-18446744073709551617", 1),
    ], ids=["orjson_reads_it", "orjson_refuses_it", "orjson_rounds_it"])
    def test_json_reads_a_script_only_where_orjson_cannot(self, tmp_path, monkeypatch, logprob,
                                                          json_reads):
        path = tmp_path / "script.json"
        path.write_text(f'{{"entries": {{"p": {{"text": "True", "logprobs": [{logprob}], '
                        f'"top_logprobs": [{{"True": {logprob}}}]}}, "q": "A"}}}}',
                        encoding="utf-8")
        reads = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: reads.append(text) or loads(text))
        load_mock_script(path)
        assert len(reads) == json_reads

    def test_reads_the_bench_and_e2e_scripts_as_json_does(self, tmp_path, e2e_script):
        spec = importlib.util.spec_from_file_location("bench_workload", BENCH / "workload.py")
        workload = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workload)
        paths = [e2e_script]
        for seed in (1, 5):
            workload.generate(seed, 250, tmp_path / str(seed))
            paths.append(tmp_path / str(seed) / "script.json")
        for path in paths:
            outcome = _script_outcome(load_mock_script, path)
            assert outcome.startswith("('error', {"), outcome[:200]
            assert outcome == _script_outcome(_read_by_json, path)

    def test_installed_orjson_reads_floats_as_json_does(self):
        # The script reader and the cache loader take orjson's reading of a
        # float for json's; the read-side twin of
        # TestEncodeLine::test_installed_orjson_writes_floats_in_range_as_json_does.
        rng = random.Random(21)

        def double():  # any finite double, subnormals included
            bits = rng.getrandbits(1) << 63 | rng.randrange(2047) << 52 | rng.getrandbits(52)
            return struct.unpack("<d", struct.pack("<Q", bits))[0]

        texts = [repr(double()) for _ in range(200_000)]
        texts += [repr(round(-rng.uniform(0.0, 30.0), rng.randint(0, 17))) for _ in range(100_000)]
        # Decimals longer than a double holds, which both must round alike.
        for _ in range(50_000):
            digits = "".join(rng.choices("0123456789", k=rng.randint(16, 24)))
            digits = rng.choice("123456789") + digits  # JSON allows no leading zero
            point = rng.randint(1, len(digits) - 1)
            exponent = rng.choice(["", f"e{rng.randint(-340, 280)}"])
            texts.append(f"{rng.choice(['', '-'])}{digits[:point]}.{digits[point:]}{exponent}")
        for start in range(0, len(texts), 10_000):
            batch = texts[start:start + 10_000]
            doc = f"[{','.join(batch)}]"
            # Every literal is a float to both; the bytes tell -0.0 from 0.0.
            if array("d", orjson.loads(doc)).tobytes() != array("d", json.loads(doc)).tobytes():
                bad = next(t for t in batch if repr(orjson.loads(t)) != repr(json.loads(t)))
                pytest.fail(f"orjson {orjson.__version__} reads {bad} as {orjson.loads(bad)!r}, "
                            f"json as {json.loads(bad)!r}")
