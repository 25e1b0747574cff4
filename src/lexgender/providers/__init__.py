"""Dictionary providers: WNDB parser, cached HTTP clients, frozen snapshots.

The snapshot provider and the ``Provider`` protocol load with the package.
The WNDB names (``WordNetProvider``, ``load_noun_index``) and the live-source
names (``CachedHttpProvider``, ``SITES``, ``cache_file``, ``DIALECTS``,
``extract_definitions_html``) are imported on first access, so a run that
reads only snapshots never loads the WNDB parser, the HTTP client or the
HTML extractor.
"""

from __future__ import annotations

import importlib

from .base import DefinitionSet, Provider, check_word
from .snapshot import SnapshotProvider, snapshot_write

_LAZY_NAMES = {  # name -> the module that defines it, imported on first access
    "WordNetProvider": "wndb",
    "load_noun_index": "wndb",
    "CachedHttpProvider": "httpdict",
    "SITES": "httpdict",
    "cache_file": "httpdict",
    "DIALECTS": "htmlextract",
    "extract_definitions_html": "htmlextract",
}


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __name__), name)


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
