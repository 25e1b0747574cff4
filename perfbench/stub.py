"""An in-process HTTP session that serves generated entry pages.

``StubSession`` stands in for ``requests.Session`` in ``CachedHttpProvider``:
it answers ``get`` from pages held in memory, waits a fixed delay per
request to stand for network latency, and records every request and the
time it spent waiting. ``TransportGuard`` makes any call that reaches
``requests``' real transport fail, so a benchmark run can never touch the
network even if a provider were built without the stub.
"""

from __future__ import annotations

import time
import urllib.parse
from dataclasses import dataclass


@dataclass(frozen=True)
class StubResponse:
    status_code: int
    text: str
    url: str


class StubSession:
    """Serves ``pages[site_id][word]`` for the URLs of ``sites``.

    ``sites`` maps a provider id to its ``Site`` (the URL template). An
    unknown word gets a 404 with an empty body, as the real sites do.
    """

    def __init__(self, sites: dict, pages: dict[str, dict[str, str]], delay_s: float):
        self._prefixes = [
            (site.url_template.split("{word}", 1)[0], site_id) for site_id, site in sites.items()
        ]
        self.pages = pages
        self.delay_s = delay_s
        self.requests: list[tuple[str, str]] = []
        self.wait_s = 0.0

    def get(self, url: str, headers=None, timeout=None) -> StubResponse:
        for prefix, site_id in self._prefixes:
            if url.startswith(prefix):
                word = urllib.parse.unquote(url[len(prefix):])
                break
        else:
            raise ValueError(f"stub session has no site for {url!r}")
        self.requests.append((site_id, word))
        # Spin rather than sleep: a sleep this short overshoots by an amount
        # that varies with the host, which would swamp the work measured.
        start = time.perf_counter()
        deadline = start + self.delay_s
        while time.perf_counter() < deadline:
            pass
        self.wait_s += time.perf_counter() - start
        page = self.pages[site_id].get(word)
        if page is None:
            return StubResponse(404, "", url)
        return StubResponse(200, page, url)


class TransportGuard:
    """Replaces ``HTTPAdapter.send`` so any real request fails and is counted."""

    def __init__(self):
        self.violations: list[str] = []
        self._saved = None

    def __enter__(self) -> "TransportGuard":
        from requests.adapters import HTTPAdapter

        self._saved = HTTPAdapter.send

        def refuse(adapter, request, *args, **kwargs):
            self.violations.append(request.url)
            raise RuntimeError(f"benchmark run reached the real transport: {request.url}")

        HTTPAdapter.send = refuse
        return self

    def __exit__(self, *exc) -> None:
        from requests.adapters import HTTPAdapter

        HTTPAdapter.send = self._saved
