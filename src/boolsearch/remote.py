"""The one HTTP path to the remote chat model and the remote encoder.

Both clients POST a JSON body with an optional bearer token and share one
retry policy: MAX_ATTEMPTS attempts with exponential backoff, retrying
transport errors, 429 and 5xx, and failing at once on any other non-200
status. Failures are raised as the caller's BoolSearchError subclass.

requests is imported on the first call, not with this module, so a process
that makes no remote call never loads the HTTP and TLS stack.
"""

from __future__ import annotations

import time

from .errors import BoolSearchError

MAX_ATTEMPTS = 3


def post_json(
    url: str,
    body: dict,
    *,
    token: str | None,
    timeout: float,
    backoff: float,
    error: type[BoolSearchError],
):
    """POST body as JSON and return the decoded JSON reply.

    Failed attempt a (from 1) is followed by a sleep of backoff * 2**(a - 1)
    seconds before the next one. Error messages keep the HTTP status and the
    first 200 characters of the reply body.
    """
    import requests  # deferred: see the module docstring

    headers = {"Authorization": f"Bearer {token}"} if token else {}
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            response = requests.post(url, json=body, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            failure = error(f"request to {url} failed: {exc}")
        else:
            if response.status_code == 200:
                try:
                    return response.json()
                except ValueError:
                    raise error(
                        f"malformed reply from {url}: not JSON: {response.text[:200]!r}"
                    ) from None
            failure = error(
                f"{url} returned HTTP {response.status_code}: {response.text[:200]}"
            )
            if response.status_code != 429 and response.status_code < 500:
                raise failure
        if attempt == MAX_ATTEMPTS:
            raise failure
        time.sleep(backoff * 2 ** (attempt - 1))
