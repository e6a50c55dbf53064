"""A backend wrapper that adds request-determined latency, for offline latency-bound runs."""

from __future__ import annotations

import hashlib
import math
import threading
import time

# Most requests take 1-3 ms; one in twenty takes 8-12 ms (the tail).
TAIL_SHARE = 0.05


def request_delay(request) -> float:
    """Seconds to wait for `request`: a pure function of its fields."""
    key = repr((request.prompt, request.max_tokens, request.temperature,
                request.top_logprobs, request.seed, request.stop))
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    u = int.from_bytes(digest[:4], "big") / 2**32
    v = int.from_bytes(digest[4:], "big") / 2**32
    if u < TAIL_SHARE:
        return 0.008 + 0.004 * v
    return 0.001 + 0.002 * v


class LatencyBackend:
    """Wraps a backend; sleeps `request_delay(request)` before each call.

    Counts calls and the total delay slept. The wrapped backend's reply is
    returned unchanged.
    """

    def __init__(self, inner):
        self.inner = inner
        self._delays: list[float] = []
        self._lock = threading.Lock()

    @property
    def calls(self) -> int:
        return len(self._delays)

    @property
    def delay_s(self) -> float:
        # fsum is exact, so the total does not depend on thread arrival order.
        return math.fsum(self._delays)

    def complete(self, request):
        delay = request_delay(request)
        with self._lock:
            self._delays.append(delay)
        time.sleep(delay)
        return self.inner.complete(request)
