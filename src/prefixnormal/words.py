"""Binary words over the two-letter alphabet {a, b}, with a < b.

Words are plain Python strings containing only the characters ``a`` and
``b``; the empty string is the empty word.  Every function here that
takes a word reads it through parse_word, so it raises ParseError at the
first other symbol.  All positions in the public API are 1-based (a word
w has symbols w_1 ... w_n), matching the usual convention in
combinatorics on words.  Everything here but Record, the base of the
value classes, is a pure function over immutable values.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from itertools import accumulate
from operator import sub

# Accepted input alphabets for parse_word.  Canonical output is always a/b.
# In binary mode 1 maps to a and 0 maps to b.
ALPHABET_MAPS = {
    "ab": {"a": "a", "b": "b"},
    "binary": {"1": "a", "0": "b"},
}

_COMPLEMENT = str.maketrans("ab", "ba")
_A_ONES = bytes.maketrans(b"ab", b"\1\0")
_STEPS_AB = bytes.maketrans(b"\1\0", b"ab")


class ParseError(ValueError):
    """Raised for text that is not a word over the selected alphabet.

    ``position`` is the 1-based index of the first offending character.
    """

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class ParikhVector(namedtuple("ParikhVector", "a_count b_count")):
    """Symbol multiplicities (number of a's, number of b's) of a word."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return self.a_count + self.b_count


class Record:
    """Base of the value classes, lighter to import than dataclasses.  The
    annotated names of a subclass add its fields.  A record builds by
    position or keyword, runs __post_init__, equals the records of its
    class with equal fields, hashes by them and refuses assignment."""

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self._fields
        fields = dict(zip(names, args), **kwargs)
        if (len(args) > len(names) or fields.keys() != set(names)
                or kwargs.keys() & names[:len(args)]):
            raise TypeError(f"{type(self).__name__} takes {names} once each")
        self.__dict__.update(fields)
        self.__post_init__()

    def __post_init__(self):
        """Check the new record; each subclass adds its own checks."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen")

    __delattr__ = __setattr__


def parse_word(text: str, alphabet: str = "ab") -> str:
    """Parse ``text`` into a canonical a/b word.

    ``alphabet`` selects the accepted input symbols: "ab" (canonical) or
    "binary" (1 -> a, 0 -> b).  Raises ParseError at the first invalid
    character.
    """
    try:
        mapping = ALPHABET_MAPS[alphabet]
    except KeyError:
        raise ValueError(f"unknown alphabet {alphabet!r}; expected one of "
                         f"{sorted(ALPHABET_MAPS)}") from None
    if sum(map(text.count, mapping)) != len(text):
        for i, ch in enumerate(text, start=1):
            if ch not in mapping:
                raise ParseError(
                    f"invalid character {ch!r} at position {i} "
                    f"(alphabet {alphabet!r})", i)
    return text.translate(str.maketrans(mapping))


def parikh(w: str) -> ParikhVector:
    """Parikh vector of ``w``: (number of a's, number of b's).

    Raises ParseError at the first symbol other than a or b.
    """
    w = parse_word(w)
    a = w.count("a")
    return ParikhVector(a, len(w) - a)


def prefix_counts(w: str) -> list[int]:
    """counts[i] = number of a's in the first ``i`` symbols, i = 0..len(w).

    Raises ParseError at the first symbol other than a or b.
    """
    return list(accumulate(parse_word(w).encode().translate(_A_ONES),
                           initial=0))


def complement_counts(counts: Sequence[int]) -> list[int]:
    """k - counts[k] for every k: a-counts to b-counts, max-b to min-a."""
    return [k - v for k, v in enumerate(counts)]


def word_from_counts(counts: Sequence[int]) -> str:
    """The word with prefix a-counts ``counts``: inverse of prefix_counts."""
    return bytes(map(sub, counts[1:], counts)).translate(_STEPS_AB).decode()


def prefix_count(w: str, i: int) -> int:
    """Number of a's among the first ``i`` symbols of ``w`` (rank).

    ``i`` ranges over 0..len(w); the empty prefix counts 0.
    """
    w = parse_word(w)
    if not 0 <= i <= len(w):
        raise IndexError(f"prefix length {i} out of range 0..{len(w)}")
    return w.count("a", 0, i)


def pos_a(w: str, i: int) -> int:
    """1-based position of the ``i``-th a of ``w`` (select).

    Requires 1 <= i <= number of a's in ``w``.
    """
    w = parse_word(w)
    if i < 1:
        raise ValueError(f"occurrence index must be >= 1, got {i}")
    pos = -1
    for _ in range(i):
        pos = w.find("a", pos + 1)
        if pos < 0:
            raise ValueError(
                f"word has only {w.count('a')} a's, cannot select #{i}")
    return pos + 1


def a_positions(w: str) -> list[int]:
    """All 1-based positions of a's, in increasing order."""
    return [i + 1 for i, ch in enumerate(parse_word(w)) if ch == "a"]


def reverse(w: str) -> str:
    """Reversal of ``w`` (an involution)."""
    return parse_word(w)[::-1]


def complement(w: str) -> str:
    """Exchange a's and b's (an involution)."""
    return parse_word(w).translate(_COMPLEMENT)
