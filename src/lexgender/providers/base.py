"""Definition-lookup abstraction shared by all dictionary sources."""

from __future__ import annotations

from typing import NamedTuple, Protocol, runtime_checkable

from ..errors import DataFormatError


class DefinitionSet(NamedTuple):
    """Ordered definitions for one word from one source.

    Definition order is the source's sense order (earlier = more general
    sense) and is never rearranged. An empty ``definitions`` tuple means the
    word exists in the source but carries no usable noun definition, which
    is distinct from the word not being found at all (``lookup`` returns
    ``None`` for that).
    """

    word: str
    provider_id: str
    definitions: tuple[str, ...]


@runtime_checkable
class Provider(Protocol):
    """One dictionary source exposing ordered noun definitions per word."""

    provider_id: str
    #: True when repeated lookups can never observe different content
    #: (database files and snapshots; False for live HTTP sources).
    deterministic: bool

    def lookup(self, word: str) -> DefinitionSet | None:
        """Definitions for ``word`` in source order, or None if absent.

        ``word`` must be non-empty, trimmed, lowercase. Live providers raise
        TransportError on a session error, an HTTP status other than 200 or
        404, or an empty page; they never map such failures to None.
        """
        ...


def check_word(word: str) -> str:
    """Validate the lookup precondition; returns the word unchanged."""
    if not word or word != word.strip() or word != word.lower():
        raise ValueError(f"lookup expects a non-empty trimmed lowercase word, got {word!r}")
    return word


def entry_definitions(entry: object, source: str, word: str) -> tuple[str, ...] | None:
    """Definitions of one stored entry, or None for a word recorded as not found.

    Snapshot entries and live-cache files share this schema: a JSON object
    with a boolean ``found`` and a list of strings as ``definitions``.
    Anything else raises DataFormatError naming ``source`` and ``word``.
    """
    try:
        found = entry["found"]
        definitions = entry["definitions"]
        "".join(definitions)  # TypeError unless every item is a str
    except (KeyError, TypeError):
        found = definitions = None
    if type(found) is not bool or type(definitions) is not list:
        raise DataFormatError(
            f'{source}: entry {word!r} needs a boolean "found" '
            f'and a list of strings as "definitions"'
        )
    return tuple(definitions) if found else None
