"""Live online-dictionary clients with an on-disk cache and polite pacing.

Each client serializes its own network access and waits at least
``min_request_interval`` between requests to the same host. Every fetched
entry (including "not found") is cached as one JSON file per word, written
atomically so interrupted runs never corrupt the cache; the cache is
consulted before the network.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import urllib.parse
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from ..errors import DataFormatError, TransportError, not_utf8
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
_MISSING = object()  # read_entry's answer for an absent entry; a file may hold JSON null
_MAX_NAME = 250  # bytes of an entry name before ".json", within the usual 255-byte file name limit
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0) | getattr(os, "O_NONBLOCK", 0)
_READ_SIZE = 1 << 16  # bytes asked of each os.read; nearly every entry fits in one
_new_definitions = DefinitionSet._make  # no field checks, so it builds what the constructor would


def _entry_path(provider_dir: str, word: str) -> str:
    """The cache file of ``word`` in one provider's directory: percent-encoded word, JSON entry.

    A name that would pass ``_MAX_NAME`` bytes keeps its first 185 and ends in "=" and the
    SHA-256 of the word; a percent-encoded word never holds "=", so no two words share a file.
    """
    name = urllib.parse.quote(word, safe="")
    if len(name) > _MAX_NAME:
        name = f"{name[:185]}={hashlib.sha256(word.encode()).hexdigest()}"
    return f"{provider_dir}{os.sep}{name}.json"


def cache_file(cache_root: str | Path, provider_id: str, word: str) -> Path:
    """Cache path for one (provider, word)."""
    return Path(_entry_path(os.path.join(cache_root, provider_id), word))


def write_entry_atomic(path: str, entry: dict) -> None:
    """Write a cache entry via temp-file-then-rename so readers never see partial JSON."""
    data = memoryview(json.dumps(entry, ensure_ascii=False).encode("utf-8"))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_entry(path: str) -> object:
    """The parsed JSON of the cache file at ``path``, or ``_MISSING``; the caller checks its schema.

    One ``os.open`` and reads into bytes, decoded once as strict UTF-8: ``json.loads``
    never sees the bytes, since it would take UTF-16 and UTF-32 as well.
    """
    try:
        fd = os.open(path, _READ_FLAGS)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
        finally:
            os.close(fd)
    except (FileNotFoundError, NotADirectoryError):
        return _MISSING
    except IsADirectoryError as exc:  # from os.read where a directory opens, as on Linux
        raise DataFormatError(f"corrupt cache entry {path}: a directory, not a file") from exc
    except BlockingIOError as exc:  # a FIFO with an idle writer; with no writer it reads b""
        raise DataFormatError(f"corrupt cache entry {path}: a pipe, not a file") from exc
    try:
        return json.loads(b"".join(chunks).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"corrupt cache entry {path}: {exc}") from exc


class CachedHttpProvider:
    """Definition lookups against one online dictionary, cache first.

    Safe for concurrent callers: a hit reads its entry without the lock, and a
    miss is probed again, then fetched, parsed and atomically written, under a
    lock that also enforces the minimum interval between requests. So callers
    that miss on the same word at once send one request.
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
        self._dir = os.path.join(cache_root, provider_id)
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
        path = _entry_path(self._dir, word)
        entry = read_entry(path)  # a warm hit never takes the lock
        if entry is _MISSING:
            with self._lock:
                entry = read_entry(path)  # another caller may have fetched it while this one waited
                if entry is _MISSING:
                    os.makedirs(self._dir, exist_ok=True)  # an unusable cache fails before the request
                    entry = self._fetch(word)
                    write_entry_atomic(path, entry)
        definitions = entry_definitions(entry, f"corrupt cache entry {path}", word)
        if definitions is None:
            return None
        return _new_definitions((word, self.provider_id, definitions))

    def _fetch(self, word: str) -> dict:
        """The entry for ``word`` from the network; the caller holds ``self._lock``.

        The one place a live lookup fails: a session error (any ``OSError``, which every
        ``requests`` error subclasses), a status other than 200 or 404, or an empty page
        raises TransportError naming the provider and the word.
        """
        url = self.site.url_template.format(word=urllib.parse.quote(word, safe=""))
        wait = self._last_request + self.min_request_interval - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        try:
            response = self.session.get(
                url, headers={"User-Agent": _USER_AGENT}, timeout=self.timeout
            )
        except OSError as exc:
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
        page = response.text  # requests decodes the body anew on every read
        if not page or page.isspace():
            raise TransportError(f"{self.provider_id}: empty page for {word!r}")
        definitions = extract_definitions_html(page, self.site.dialect)
        return {"found": bool(definitions), "definitions": definitions}
