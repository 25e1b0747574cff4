"""Dictionary providers: WNDB parser, cached HTTP clients, frozen snapshots.

The live-source names (``CachedHttpProvider``, ``SITES``, ``cache_file``,
``DIALECTS``, ``extract_definitions_html``) are imported on first access,
so offline runs never load the HTTP client or the HTML extractor.
"""

from __future__ import annotations

import importlib

from .base import DefinitionSet, Provider, check_word
from .snapshot import SnapshotProvider, snapshot_write
from .wndb import WordNetProvider, load_noun_index

_LIVE_NAMES = {
    "CachedHttpProvider": "httpdict",
    "SITES": "httpdict",
    "cache_file": "httpdict",
    "DIALECTS": "htmlextract",
    "extract_definitions_html": "htmlextract",
}


def __getattr__(name: str):
    if name not in _LIVE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LIVE_NAMES[name]}", __name__), name)


__all__ = [
    "CachedHttpProvider",
    "DefinitionSet",
    "DIALECTS",
    "Provider",
    "SITES",
    "SnapshotProvider",
    "WordNetProvider",
    "cache_file",
    "check_word",
    "extract_definitions_html",
    "load_noun_index",
    "snapshot_write",
]
