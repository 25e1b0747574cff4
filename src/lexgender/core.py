"""Shared domain types: gender labels, the seed lexicon, classifier parameters.

Every other module builds on the types defined here. All of them are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class GenderLabel(str, enum.Enum):
    """Four-way classification outcome.

    NOT_FOUND is only ever produced by dictionary lookup failure, never by
    counting: equal gendered-word counts (including zero) yield NEUT.
    """

    MASC = "masc"
    FEM = "fem"
    NEUT = "neut"
    NOT_FOUND = "not_found"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Labels a gold-standard entry may carry (lookup failure is never gold).
GOLD_LABELS = (GenderLabel.MASC, GenderLabel.FEM, GenderLabel.NEUT)


def _checked_make(cls, iterable):
    """Build ``cls`` from an iterable through the checks in its ``__new__``.

    NamedTuple's own ``_make``, which ``_replace`` calls, skips ``__new__``.
    """
    return cls(*iterable)


class _SeedPair(NamedTuple):
    rank: int
    feminine: str
    masculine: str


class SeedPair(_SeedPair):
    """One definitively gendered feminine/masculine word pair."""

    __slots__ = ()

    def __new__(cls, rank: int, feminine: str, masculine: str):
        for form in (feminine, masculine):
            if not form or form != form.lower() or len(form.split()) != 1:
                raise ValueError(f"seed form must be a non-empty lowercase token: {form!r}")
        if feminine == masculine:
            raise ValueError("feminine and masculine forms must differ")
        return super().__new__(cls, rank, feminine, masculine)

    _make = classmethod(_checked_make)


# The plural map is a fixed hand-written table: the seed set is closed and
# contains irregular plurals (man/men, wife/wives) that suffix rules break on.
_PLURALS = {
    "woman": "women",
    "man": "men",
    "female": "females",
    "male": "males",
    "wife": "wives",
    "husband": "husbands",
    "daughter": "daughters",
    "son": "sons",
    "mother": "mothers",
    "father": "fathers",
    "girl": "girls",
    "boy": "boys",
    "sister": "sisters",
    "brother": "brothers",
    "aunt": "aunts",
    "uncle": "uncles",
}

_PAIRS = (
    SeedPair(1, "woman", "man"),
    SeedPair(2, "female", "male"),
    SeedPair(3, "wife", "husband"),
    SeedPair(4, "daughter", "son"),
    SeedPair(5, "mother", "father"),
    SeedPair(6, "girl", "boy"),
    SeedPair(7, "sister", "brother"),
    SeedPair(8, "aunt", "uncle"),
)


class _SeedLexicon(NamedTuple):
    pairs: tuple[SeedPair, ...]
    plurals: dict[str, str]
    #: Every seed form and seed plural -> (pair index, masculine?), built
    #: once at construction; the forms and the shortcut are read from it.
    #: It follows from the other two fields, so equality still means equal
    #: pairs and plurals.
    form_index: dict[str, tuple[int, bool]]


class SeedLexicon(_SeedLexicon):
    """The ordered gendered seed pairs plus the plural form of every seed.

    Pairs are ordered by rank, strictly ascending, so truncation to the
    first ``w`` pairs keeps the ``w`` best-ranked ones. Matching against
    the lexicon is case-insensitive by convention: callers lowercase at the
    boundary, the lexicon stores lowercase only.
    """

    __slots__ = ()

    def __new__(cls, pairs: tuple[SeedPair, ...], plurals: dict[str, str]):
        if any(a.rank >= b.rank for a, b in zip(pairs, pairs[1:])):
            raise ValueError("pair ranks must be strictly ascending")
        forms = [f for p in pairs for f in (p.feminine, p.masculine)]
        if len(set(forms)) != len(forms):
            raise ValueError("a seed form appears in more than one pair")
        for form in forms:
            if form not in plurals:
                raise ValueError(f"no plural entry for seed form {form!r}")
        if len(set(plurals.values())) != len(plurals):
            raise ValueError("plural map must be injective")
        index: dict[str, tuple[int, bool]] = {}
        for i, pair in enumerate(pairs):
            for singular, masculine in ((pair.feminine, False), (pair.masculine, True)):
                for form in (singular, plurals[singular]):
                    if index.setdefault(form, (i, masculine)) != (i, masculine):
                        raise ValueError(f"{form!r} is both a seed form and another seed's plural")
        return super().__new__(cls, pairs, plurals, index)

    @classmethod
    def _make(cls, iterable):  # rebuilds form_index from the pairs and plurals
        pairs, plurals, *_ = iterable
        return cls(pairs, plurals)

    def __getnewargs__(self):  # for copy and pickle, which call __new__ with these
        return self[:2]

    def check_w(self, w: int) -> None:
        """Raise ValueError unless ``1 <= w <=`` the number of pairs."""
        if not 1 <= w <= len(self.pairs):
            raise ValueError(f"w must be in 1..{len(self.pairs)}, got {w}")

    def _forms(self, w: int, masculine: bool) -> frozenset[str]:
        self.check_w(w)
        return frozenset(
            form for form, (i, masc) in self.form_index.items() if i < w and masc is masculine
        )

    def feminine_forms(self, w: int) -> frozenset[str]:
        """Feminine seed forms and their plurals for the first ``w`` pairs."""
        return self._forms(w, masculine=False)

    def masculine_forms(self, w: int) -> frozenset[str]:
        """Masculine seed forms and their plurals for the first ``w`` pairs."""
        return self._forms(w, masculine=True)

    def shortcut_label(self, word: str) -> GenderLabel | None:
        """Gender of ``word`` if it is itself a seed form or a seed plural.

        Consults all pairs regardless of any ``w`` truncation: a target word
        that literally is one of the definitively gendered words needs no
        dictionary at all.
        """
        found = self.form_index.get(word)
        if found is None:
            return None
        return GenderLabel.MASC if found[1] else GenderLabel.FEM


class _ClassifierParams(NamedTuple):
    d: int
    t: int
    w: int


class ClassifierParams(_ClassifierParams):
    """The three knobs limiting how much definition text is counted.

    d: number of definitions considered per dictionary (earlier senses are
       more general, so only the first d are used)
    t: number of tokens considered per definition
    w: number of seed pairs used for counting (rank order truncation), at
       most the lexicon's pairs (``SeedLexicon.check_w``)
    """

    __slots__ = ()

    def __new__(cls, d: int = 4, t: int = 20, w: int = 5):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        if w < 1:
            raise ValueError(f"w must be >= 1, got {w}")
        return super().__new__(cls, d, t, w)

    _make = classmethod(_checked_make)


#: Default grid-search ranges for each parameter.
GRID_D_RANGE = tuple(range(2, 11))
GRID_T_RANGE = (5, 10, 15, 20, 25, 30, 35)
GRID_W_RANGE = tuple(range(2, 9))


def default_lexicon() -> SeedLexicon:
    """The standard eight-pair seed lexicon with its plural table.

    Pure: repeated calls return structurally identical lexicons.
    """
    return SeedLexicon(pairs=_PAIRS, plurals=dict(_PLURALS))
