"""Prefix normal forms and prefix-normality testing.

A word is prefix normal (w.r.t. a) when no factor has more a's than the
prefix of the same length.  Every word w has a unique prefix normal form:
the word whose prefix a-counts realize the max-a profile of w.  This module
builds the two normal forms (a-side and b-side) and decides prefix
normality by three interchangeable routes:

* profile comparison: the first length at which the max-a profile would
  exceed the prefix a-counts p, found from the pair inequality
  p[s + k] <= p[s] + p[k] without computing the profile
  (profiles.first_excess);
* position arithmetic over the a's only, O(m^2) for m a's:
  pos(i) + pos(j) - 1 <= pos(i+j-1) for all valid i, j;
* an incremental scan that grows the word one symbol at a time and applies
  the right-extension test.

The right-extension test: for prefix normal w, w·a stays prefix normal
iff every suffix of length k has strictly fewer a's than the prefix of
length k+1.  Appending b never breaks normality, and since the language is
prefix-closed, a failed word can never be repaired by extending it.
"""

from __future__ import annotations

from .profiles import (_check_bounds, _trusted, a_count_bounds,
                       first_excess, max_a_profile)
from .words import (ParseError, Record, a_positions, complement,
                    complement_counts, parse_word, prefix_counts,
                    word_from_counts)


def build_pnf_a(w: str) -> str:
    """The prefix normal form of ``w`` w.r.t. a.

    Reads the max-a profile and places an a exactly where it steps up.
    The result is the unique prefix normal word sharing w's profile.
    """
    return word_from_counts(max_a_profile(w).values)


def build_pnf_b(w: str) -> str:
    """The prefix normal form of ``w`` w.r.t. b (roles of a and b swapped)."""
    return complement(build_pnf_a(complement(w)))


class PnfPair(Record):
    """Both prefix normal forms of one source word.

    Checks what JumbledIndex checks: equal lengths, each side prefix normal
    (one first_excess call per side), then the index's total and order.
    Neither checks that some word has the pair: none has ("aabb", "baba").
    """

    pnf_a: str
    pnf_b: str

    def __post_init__(self):
        if len(self.pnf_a) != len(self.pnf_b):
            raise ValueError(
                f"component lengths differ: {len(self.pnf_a)} vs "
                f"{len(self.pnf_b)}")
        if first_excess(max_a := prefix_counts(self.pnf_a)):
            raise ValueError(f"{self.pnf_a!r} is not prefix normal (a-side)")
        min_a = prefix_counts(self.pnf_b)
        if first_excess(complement_counts(min_a)):
            raise ValueError(f"{self.pnf_b!r} is not prefix normal (b-side)")
        _check_bounds(max_a, min_a)

    @property
    def source_length(self) -> int:
        return len(self.pnf_a)


def pnf_pair(w: str) -> PnfPair:
    """Both normal forms of ``w`` from one kernel call; prefix normal by
    construction, so the pair skips PnfPair's check."""
    max_a, min_a = a_count_bounds(w)
    return _trusted(PnfPair, pnf_a=word_from_counts(max_a),
                    pnf_b=word_from_counts(min_a))


def _is_normal_by_positions(w: str) -> bool:
    # pos(i) + pos(j) - 1 <= pos(i+j-1) whenever i+j-1 <= number of a's.
    # The i = 1 instances force the first symbol to be an a (or no a at all).
    pos = a_positions(w)
    m = len(pos)
    for i in range(1, m + 1):
        for j in range(i, m - i + 2):
            if pos[i - 1] + pos[j - 1] - 1 > pos[i + j - 2]:
                return False
    return True


def _is_normal_by_scan(w: str) -> bool:
    # the verdict latches false, so the first False is the last
    return all(map(PrefixNormalTester().feed, parse_word(w)))


_METHODS = {
    "profile": lambda w: not first_excess(prefix_counts(w)),
    "positions": _is_normal_by_positions,
    "scan": _is_normal_by_scan,
}


def is_prefix_normal(w: str, method: str = "profile") -> bool:
    """True iff every factor of ``w`` has at most as many a's as the
    same-length prefix.

    ``method`` picks the implementation ("profile", "positions" or "scan");
    all three agree everywhere, the non-default ones exist for
    cross-validation.
    """
    try:
        impl = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{sorted(_METHODS)}") from None
    return impl(w)


def can_extend_with_a(w: str) -> bool:
    """For prefix normal ``w``, decide whether w·a is prefix normal.

    True iff for every 0 <= k < len(w) the suffix of length k has fewer
    a's than the prefix of length k+1.  That w itself is prefix normal is
    the caller's to know; it is not checked (is_prefix_normal does that).
    """
    return _a_extends(prefix_counts(w), len(w))


def _a_extends(prefix: list[int], n: int) -> bool:
    # For j in 1..n the suffix of length n - j, with prefix[n] - prefix[j]
    # a's, needs fewer than prefix[n + 1 - j]; j and n + 1 - j test alike.
    total = prefix[n]
    for j in range(1, (n + 1) // 2 + 1):
        if total >= prefix[j] + prefix[n + 1 - j]:
            return False
    return True


class PrefixNormalTester:
    """Online prefix-normality tester.

    Feed symbols one at a time; after each feed the tester reports whether
    the word read so far is prefix normal.  A b extension preserves
    normality, an a extension is decided by the right-extension test, and
    once the word has gone non-normal the verdict latches false (the
    language is prefix-closed).  A b costs O(1), an a fed to a normal word
    O(current length), so O(n^2) over a whole word at worst.  Single-owner
    state: not safe for concurrent use.
    """

    def __init__(self):
        self._prefix = [0]   # prefix a-counts, index 0..n
        self._normal = True

    @property
    def word(self) -> str:
        return word_from_counts(self._prefix)

    @property
    def is_normal(self) -> bool:
        return self._normal

    def feed(self, symbol: str) -> bool:
        """Append one symbol; return whether the word so far is normal.

        Raises ParseError, positioned in the word fed so far, for a
        symbol other than a or b.
        """
        if symbol not in ("a", "b"):
            i = len(self._prefix)
            raise ParseError(f"expected 'a' or 'b' at position {i}, got "
                             f"{symbol!r}", i)
        is_a = symbol == "a"
        if self._normal and is_a:
            self._normal = _a_extends(self._prefix, len(self._prefix) - 1)
        self._prefix.append(self._prefix[-1] + is_a)
        return self._normal


def normality_witness(w: str) -> str | None:
    """A factor with more a's than the same-length prefix, or None.

    Among violating factors the shortest wins, ties broken leftmost: k is
    the first length where max-a exceeds the prefix count (first_excess).
    """
    p = prefix_counts(w)
    if not (k := first_excess(p)):
        return None
    start = next(s for s in range(len(w) - k + 1) if p[s + k] - p[s] > p[k])
    return w[start:start + k]
