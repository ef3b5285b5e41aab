"""The one HTTP retry loop, shared by the chat and embedding providers: POST a
JSON payload, read one key of the JSON reply. Timeouts, connection errors,
5xx, 408, 429 and malformed replies are retried; any other 4xx fails at once.
Each provider keeps one ``requests.Session``, so its calls reuse a kept-alive
connection instead of paying a new TCP (and TLS) handshake each.
"""

from __future__ import annotations

import os
import time
from typing import Any

from .errors import ProviderUnavailable, Timeout

# Seconds slept before the second, third, ... attempt; the last entry repeats.
RETRY_BACKOFF_S = (0.5, 2.0)


class HttpJsonProvider:
    """Base of the HTTP providers; each sets the three string class attributes."""

    kind = ""  # names the endpoint in error messages
    api_key_env = ""  # environment variable read when no api_key is given
    reply_key = ""  # the key of the JSON reply that holds the result
    reply_type: type = object  # a result of another type is a malformed reply
    timeout = 30.0  # seconds per attempt unless the constructor is given one

    def __init__(self, endpoint: str, model: str = "", api_key: str | None = None,
                 timeout: float | None = None, max_attempts: int = 3):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(self.api_key_env, "")
        if timeout is not None:
            self.timeout = timeout
        self.max_attempts = max_attempts
        self._session: Any = None  # made by the first call

    def _post(self, payload: dict[str, Any]) -> Any:
        # Imported here so that offline runs never pay for loading it.
        import requests

        if self._session is None:
            self._session = requests.Session()
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(RETRY_BACKOFF_S[min(attempt, len(RETRY_BACKOFF_S)) - 1])
            try:
                resp = self._session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
                status = resp.status_code
                if 400 <= status < 500 and status not in (408, 429):
                    raise ProviderUnavailable(
                        f"{self.kind} endpoint rejected the request with HTTP {status}: "
                        f"{self.endpoint}"
                    )
                resp.raise_for_status()
                reply = resp.json()[self.reply_key]
                if not isinstance(reply, self.reply_type):
                    raise TypeError(f"{self.reply_key} is not a {self.reply_type.__name__}")
                return reply
            except (requests.RequestException, KeyError, TypeError, ValueError) as exc:
                last_error = exc
        if isinstance(last_error, requests.Timeout):
            raise Timeout(f"{self.kind} endpoint timed out: {self.endpoint}")
        raise ProviderUnavailable(
            f"{self.kind} endpoint failed after {self.max_attempts} attempts: {last_error}"
        )
