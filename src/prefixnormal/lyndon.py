"""Lyndon words, necklaces and pre-necklaces over {a, b} with a < b.

A Lyndon word is strictly smaller than all of its proper nonempty
suffixes; a necklace is a power of a Lyndon word; a pre-necklace is a
prefix of a necklace (equivalently: a prefix of a Lyndon word, or a power
of b).  Every prefix normal word is a pre-necklace, which is what makes
these classifiers useful next to the normal-form machinery.

The pre-necklace and necklace tests run the standard O(n) incremental scan
that maintains p, the length of the Lyndon prefix-period: scanning left to
right, each symbol is compared against the symbol p positions back; a
smaller symbol kills the word, a larger one extends the period to the
current position, an equal one keeps it.  Every classifier raises
ParseError at the first symbol other than a or b.
"""

from __future__ import annotations

from .pnf import is_prefix_normal
from .words import Record, parse_word


def is_lyndon(w: str) -> bool:
    """True iff ``w`` is nonempty and strictly smaller than every proper
    nonempty suffix.  Empty words are not Lyndon by convention."""
    return _lyndon_bits(w)[0]


def is_necklace(w: str) -> bool:
    """True iff ``w`` is a power of a Lyndon word (nonempty)."""
    return _lyndon_bits(w)[1]


def is_pre_necklace(w: str) -> bool:
    """True iff ``w`` is a prefix of u^k for some Lyndon word u, k >= 1.

    The empty word qualifies vacuously.
    """
    return _lyndon_bits(w)[2]


def _lyndon_bits(w: str) -> tuple[bool, bool, bool]:
    """Whether ``w`` is Lyndon, a necklace and a pre-necklace, from one
    scan: a pre-necklace is Lyndon when its Lyndon prefix-period is its
    whole length, and a necklace when the period divides the length."""
    p, n = _lyndon_prefix_period(w), len(w)
    return n > 0 and p == n, n > 0 and p > 0 and n % p == 0, n == 0 or p > 0


def _lyndon_prefix_period(w: str) -> int:
    """Length of the Lyndon prefix-period of a pre-necklace, 0 if ``w``
    is not a pre-necklace."""
    parse_word(w)  # raises ParseError at the first foreign symbol
    p = 1
    for t in range(2, len(w) + 1):
        prev = w[t - 1 - p]
        cur = w[t - 1]
        if cur < prev:
            return 0
        if cur > prev:
            p = t
    return p


class WordClass(Record, frozen=True):
    """The four classification bits of one word.

    Lyndon implies necklace implies pre-necklace, and prefix normal
    implies pre-necklace.
    """

    is_lyndon: bool
    is_necklace: bool
    is_pre_necklace: bool
    is_prefix_normal: bool


def classify(w: str) -> WordClass:
    """Classify ``w`` against all four predicates; the three Lyndon bits
    come from one scan."""
    return WordClass(*_lyndon_bits(w), is_prefix_normal(w))
