"""Frozen JSON snapshots of dictionary content, for reproducible runs.

Snapshot file schema::

    {
      "provider": "<original provider id>",
      "captured_at": "<ISO-8601 timestamp>",
      "entries": {
        "<word>": {"found": true, "definitions": ["...", ...]},
        "<word>": {"found": false, "definitions": []}
      }
    }

Words are non-empty, trimmed and lowercase (any other key fails the load).
A word absent from ``entries`` and a word recorded with ``found: false``
both look up as not found.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from ..errors import DataFormatError, open_utf8
from .base import DefinitionSet, Provider, check_word, entry_definitions

_new_definitions = DefinitionSet._make  # no field checks, so it builds what the constructor would


class SnapshotProvider:
    """Definition lookups against a frozen snapshot file.

    Immutable after load; safe for concurrent lookups. The provider id is
    the one recorded in the file, so lookups reproduce the captured
    provider's results byte for byte.
    """

    deterministic = True

    def __init__(self, path: str | Path):
        self.path = Path(path)
        try:
            with open_utf8(self.path) as fh:
                data = json.load(fh)
            self.provider_id = data["provider"]
            self.captured_at = data.get("captured_at", "")
            entries = data["entries"].items()
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise DataFormatError(f"bad snapshot file {self.path}: {exc}") from exc
        # word -> definitions, or None for a word recorded as not found
        self._entries: dict[str, tuple[str, ...] | None] = {}
        source = f"bad snapshot file {self.path}"
        for word, entry in entries:
            try:
                check_word(word)
            except ValueError:
                raise DataFormatError(f"{source}: key {word!r} is not a trimmed lowercase word") from None
            self._entries[word] = entry_definitions(entry, source, word)

    def lookup(self, word: str) -> DefinitionSet | None:
        check_word(word)
        definitions = self._entries.get(word)
        if definitions is None:
            return None
        return _new_definitions((word, self.provider_id, definitions))


def snapshot_write(provider: Provider, words: Iterable[str], path: str | Path) -> dict:
    """Capture ``words`` from ``provider`` into a snapshot file.

    Unknown words are recorded explicitly as not found. Transport errors
    from live providers propagate; nothing is written in that case.
    Returns the snapshot object that was written.
    """
    from datetime import UTC, datetime  # only capturing needs it; loading never does

    entries: dict[str, dict] = {}
    for word in words:
        word = word.strip().lower()
        if not word or word in entries:
            continue
        found = provider.lookup(word)
        if found is None:
            entries[word] = {"found": False, "definitions": []}
        else:
            entries[word] = {"found": True, "definitions": list(found.definitions)}
    snapshot = {
        "provider": provider.provider_id,
        "captured_at": datetime.now(UTC).isoformat(timespec="seconds"),
        "entries": entries,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, ensure_ascii=False, indent=1, sort_keys=True)
        fh.write("\n")
    return snapshot
