"""Binary words over the two-letter alphabet {a, b}, with a < b.

Words are plain Python strings containing only the characters ``a`` and
``b``; the empty string is the empty word.  All positions in the public
API are 1-based (a word w has symbols w_1 ... w_n), matching the usual
convention in combinatorics on words.  Everything here is a pure function
over immutable values.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from typing import NamedTuple

ALPHABET = "ab"

# Accepted input alphabets for parse_word.  Canonical output is always a/b.
# In binary mode 1 maps to a and 0 maps to b.
ALPHABET_MAPS = {
    "ab": {"a": "a", "b": "b"},
    "binary": {"1": "a", "0": "b"},
}

_COMPLEMENT = str.maketrans("ab", "ba")


class ParseError(ValueError):
    """Raised for text that is not a word over the selected alphabet.

    ``position`` is the 1-based index of the first offending character.
    """

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class ParikhVector(NamedTuple):
    """Symbol multiplicities (number of a's, number of b's) of a word."""

    a_count: int
    b_count: int

    @property
    def length(self) -> int:
        return self.a_count + self.b_count


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
    out = []
    for i, ch in enumerate(text, start=1):
        sym = mapping.get(ch)
        if sym is None:
            raise ParseError(
                f"invalid character {ch!r} at position {i} "
                f"(alphabet {alphabet!r})", i)
        out.append(sym)
    return "".join(out)


def parikh(w: str) -> ParikhVector:
    """Parikh vector of ``w``: (number of a's, number of b's)."""
    a = w.count("a")
    return ParikhVector(a, len(w) - a)


def prefix_counts(w: str) -> list[int]:
    """counts[i] = number of a's in the first ``i`` symbols, i = 0..len(w).

    Raises ParseError at the first symbol other than a or b.
    """
    if w.count("a") + w.count("b") != len(w):
        parse_word(w)  # raises ParseError at the first foreign symbol
    return list(accumulate((ch == "a" for ch in w), initial=0))


def complement_counts(counts: Sequence[int]) -> list[int]:
    """k - counts[k] for every k: a-counts to b-counts, max-b to min-a."""
    return [k - v for k, v in enumerate(counts)]


def word_from_counts(counts: Sequence[int]) -> str:
    """The word with prefix a-counts ``counts``: inverse of prefix_counts."""
    return "".join("a" if counts[k] > counts[k - 1] else "b"
                   for k in range(1, len(counts)))


def prefix_count(w: str, i: int) -> int:
    """Number of a's among the first ``i`` symbols of ``w`` (rank).

    ``i`` ranges over 0..len(w); the empty prefix counts 0.
    """
    if not 0 <= i <= len(w):
        raise IndexError(f"prefix length {i} out of range 0..{len(w)}")
    return w.count("a", 0, i)


def pos_a(w: str, i: int) -> int:
    """1-based position of the ``i``-th a of ``w`` (select).

    Requires 1 <= i <= number of a's in ``w``.
    """
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
    return [i + 1 for i, ch in enumerate(w) if ch == "a"]


def reverse(w: str) -> str:
    """Reversal of ``w`` (an involution)."""
    return w[::-1]


def complement(w: str) -> str:
    """Exchange a's and b's (an involution)."""
    return w.translate(_COMPLEMENT)
