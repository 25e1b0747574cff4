"""Exception types shared across the package, and the UTF-8 reader that raises them."""

from __future__ import annotations

from pathlib import Path
from typing import TextIO


class LexgenderError(Exception):
    """Base class for errors raised by this package."""


class TransportError(LexgenderError):
    """A live dictionary lookup failed (network or page-parse failure).

    Deliberately distinct from a word simply being absent from a source:
    mapping transport failures to "not found" would silently bias the
    majority vote, so callers must handle them explicitly.
    """


class DataFormatError(LexgenderError):
    """An input file (gold list, tagged corpus, snapshot, WNDB) is malformed."""


class open_utf8:
    """``path`` opened for reading as UTF-8 text, as a context manager.

    Bytes that are not UTF-8 raise DataFormatError naming the file, instead
    of a bare codec error. A class, not a ``@contextmanager`` generator,
    because every cached live lookup opens a file through it and the
    generator costs several times more per open.
    """

    def __init__(self, path: str | Path):
        self.path = path

    def __enter__(self) -> TextIO:
        self._fh = open(self.path, encoding="utf-8")
        return self._fh

    def __exit__(self, exc_type, exc, tb) -> None:
        self._fh.close()
        if isinstance(exc, UnicodeDecodeError):
            bad = exc.object[exc.start]
            raise DataFormatError(
                f"{self.path}: not UTF-8 text (byte {bad:#04x}: {exc.reason})"
            ) from exc
