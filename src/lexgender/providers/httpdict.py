"""Live online-dictionary clients with an on-disk cache and polite pacing.

Each client serializes its own network access and waits at least
``min_request_interval`` between requests to the same host. Every fetched
entry (including "not found") is cached as one JSON file per word, written
atomically so interrupted runs never corrupt the cache; the cache is
consulted before the network.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import urllib.parse
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from ..errors import DataFormatError, TransportError, open_utf8
from .base import DefinitionSet, check_word, entry_definitions
from .htmlextract import extract_definitions_html

if TYPE_CHECKING:
    import requests


class Site(NamedTuple):
    url_template: str
    dialect: str


SITES = {
    "merriam_webster": Site("https://www.merriam-webster.com/dictionary/{word}", "mw"),
    "dictionary_com": Site("https://www.dictionary.com/browse/{word}", "dcom"),
}

_USER_AGENT = "lexgender/0.1 (lexical gender research tool)"


def cache_file(cache_root: str | Path, provider_id: str, word: str) -> Path:
    """Cache path for one (provider, word): percent-encoded word, JSON entry."""
    return Path(cache_root) / provider_id / (urllib.parse.quote(word, safe="") + ".json")


def write_entry_atomic(path: Path, entry: dict) -> None:
    """Write a cache entry via temp-file-then-rename so readers never see partial JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, ensure_ascii=False)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_entry(path: Path) -> object:
    """The parsed JSON of the cache file at ``path``; its schema is checked by the caller."""
    try:
        with open_utf8(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"corrupt cache entry {path}: {exc}") from exc


class CachedHttpProvider:
    """Definition lookups against one online dictionary, cache first.

    Safe for concurrent callers: cache writes are atomic and network access
    is serialized through a lock, which also enforces the minimum interval
    between requests.
    """

    deterministic = False

    def __init__(
        self,
        provider_id: str,
        cache_root: str | Path,
        min_request_interval: float = 1.0,
        session: requests.Session | None = None,
        timeout: float = 10.0,
    ):
        if provider_id not in SITES:
            raise ValueError(f"no site configured for provider {provider_id!r}")
        if min_request_interval <= 0:
            raise ValueError("min_request_interval must be > 0")
        self.provider_id = provider_id
        self.site = SITES[provider_id]
        self.cache_root = Path(cache_root)
        self.min_request_interval = min_request_interval
        self.timeout = timeout
        if session is None:
            import requests  # only live sources need it; offline runs never load it

            session = requests.Session()
        self.session = session
        self.request_count = 0
        self._lock = threading.Lock()
        self._last_request = 0.0

    def lookup(self, word: str) -> DefinitionSet | None:
        check_word(word)
        path = cache_file(self.cache_root, self.provider_id, word)
        if path.exists():
            entry = read_entry(path)
        else:
            entry = self._fetch(word)
            write_entry_atomic(path, entry)
        definitions = entry_definitions(entry, f"corrupt cache entry {path}", word)
        if definitions is None:
            return None
        return DefinitionSet(word=word, provider_id=self.provider_id, definitions=definitions)

    def _fetch(self, word: str) -> dict:
        import requests

        url = self.site.url_template.format(word=urllib.parse.quote(word, safe=""))
        with self._lock:
            wait = self._last_request + self.min_request_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            try:
                response = self.session.get(
                    url, headers={"User-Agent": _USER_AGENT}, timeout=self.timeout
                )
            except requests.RequestException as exc:
                raise TransportError(f"{self.provider_id}: request for {word!r} failed: {exc}") from exc
            finally:
                self._last_request = time.monotonic()
                self.request_count += 1
        if response.status_code == 404:
            return {"found": False, "definitions": []}
        if response.status_code != 200:
            raise TransportError(
                f"{self.provider_id}: HTTP {response.status_code} for {word!r}"
            )
        definitions = extract_definitions_html(response.text, self.site.dialect)
        return {"found": bool(definitions), "definitions": definitions}
