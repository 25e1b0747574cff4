"""Exception types shared across the package, and the UTF-8 reader that raises them."""

from __future__ import annotations

from pathlib import Path
from typing import TextIO


class LexgenderError(Exception):
    """Base class for errors raised by this package."""


class TransportError(LexgenderError):
    """A live dictionary lookup failed: a session error, an HTTP status other than
    200 or 404, or an empty page, all raised in ``httpdict.CachedHttpProvider._fetch``.

    Deliberately distinct from a word simply being absent from a source:
    mapping transport failures to "not found" would silently bias the
    majority vote, so callers must handle them explicitly.
    """


class DataFormatError(LexgenderError):
    """An input file (gold list, tagged corpus, snapshot, WNDB) is malformed."""


def not_utf8(path: str | Path, exc: UnicodeDecodeError) -> DataFormatError:
    """The error for a file at ``path`` whose bytes ``exc`` found not to be UTF-8."""
    bad = exc.object[exc.start]
    return DataFormatError(f"{path}: not UTF-8 text (byte {bad:#04x}: {exc.reason})")


class open_utf8:
    """``path`` opened for reading as UTF-8 text, as a context manager.

    Bytes that are not UTF-8 raise DataFormatError naming the file, instead
    of a bare codec error (``not_utf8``). The data-file readers open through
    it; cached live entries are read as bytes by ``httpdict.read_entry``,
    which raises the same error.
    """

    def __init__(self, path: str | Path):
        self.path = path

    def __enter__(self) -> TextIO:
        self._fh = open(self.path, encoding="utf-8")
        return self._fh

    def __exit__(self, exc_type, exc, tb) -> None:
        self._fh.close()
        if isinstance(exc, UnicodeDecodeError):
            raise not_utf8(self.path, exc) from exc
