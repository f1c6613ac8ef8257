"""Prefix normal forms and prefix-normality testing.

A word is prefix normal (w.r.t. a) when no factor has more a's than the
prefix of the same length.  Every word w has a unique prefix normal form:
the word whose prefix a-counts realize the max-a profile of w.  This module
builds the two normal forms (a-side and b-side) and decides prefix
normality by three interchangeable routes:

* profile comparison: max-a profile equals the prefix a-counts;
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

from dataclasses import dataclass

from .profiles import a_count_bounds, max_a_profile, window_max
from .words import (a_positions, complement, complement_counts, prefix_counts,
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


@dataclass(frozen=True)
class PnfPair:
    """Both prefix normal forms of one source word.

    Validates that the components have equal length and are prefix normal
    on their respective sides (one kernel call).
    """

    pnf_a: str
    pnf_b: str

    def __post_init__(self):
        if len(self.pnf_a) != len(self.pnf_b):
            raise ValueError(
                f"component lengths differ: {len(self.pnf_a)} vs "
                f"{len(self.pnf_b)}")
        a_counts = prefix_counts(self.pnf_a)
        b_counts = complement_counts(prefix_counts(self.pnf_b))
        max_a, max_b = window_max([a_counts, b_counts])
        if max_a != a_counts:
            raise ValueError(f"{self.pnf_a!r} is not prefix normal (a-side)")
        if max_b != b_counts:
            raise ValueError(f"{self.pnf_b!r} is not prefix normal (b-side)")

    @classmethod
    def _trusted(cls, pnf_a: str, pnf_b: str) -> PnfPair:
        """A pair known to be valid, built without re-checking it."""
        pair = object.__new__(cls)
        pair.__dict__.update(pnf_a=pnf_a, pnf_b=pnf_b)
        return pair

    @property
    def source_length(self) -> int:
        return len(self.pnf_a)


def pnf_pair(w: str) -> PnfPair:
    """Both normal forms of ``w`` from one kernel call; prefix normal by
    construction, so the pair skips PnfPair's check."""
    max_a, min_a = a_count_bounds(w)
    return PnfPair._trusted(word_from_counts(max_a), word_from_counts(min_a))


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
    tester = PrefixNormalTester()
    ok = True
    for ch in w:
        ok = tester.feed(ch)
    return ok


_METHODS = {
    "profile": lambda w: normality_witness(w) is None,
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


def can_extend_with_a(w: str, validate: bool = False) -> bool:
    """For prefix normal ``w``, decide whether w·a is prefix normal.

    True iff for every 0 <= k < len(w) the suffix of length k has fewer
    a's than the prefix of length k+1.  The caller guarantees that ``w``
    itself is prefix normal; pass validate=True to have that checked
    (enumeration keeps it off on the hot path).
    """
    if validate and not is_prefix_normal(w):
        raise ValueError(f"{w!r} is not prefix normal")
    prefix = prefix_counts(w)
    suffix = prefix_counts(w[::-1])
    return all(suffix[k] < prefix[k + 1] for k in range(len(w)))


class PrefixNormalTester:
    """Online prefix-normality tester.

    Feed symbols one at a time; after each feed the tester reports whether
    the word read so far is prefix normal.  A b extension preserves
    normality, an a extension is decided by the right-extension test, and
    once the word has gone non-normal the verdict latches false (the
    language is prefix-closed).  Each feed costs O(current length), O(n^2)
    over a whole word.  Single-owner state: not safe for concurrent use.
    """

    def __init__(self):
        self._symbols: list[str] = []
        self._prefix = [0]   # prefix a-counts, index 0..n
        self._suffix = [0]   # suffix a-counts, index 0..n
        self._normal = True

    @property
    def word(self) -> str:
        return "".join(self._symbols)

    @property
    def is_normal(self) -> bool:
        return self._normal

    def feed(self, symbol: str) -> bool:
        """Append one symbol; return whether the word so far is normal."""
        if symbol not in ("a", "b"):
            raise ValueError(f"expected 'a' or 'b', got {symbol!r}")
        if self._normal and symbol == "a":
            n = len(self._symbols)
            self._normal = all(
                self._suffix[k] < self._prefix[k + 1] for k in range(n))
        is_a = symbol == "a"
        self._prefix.append(self._prefix[-1] + is_a)
        self._suffix = [0] + [c + is_a for c in self._suffix]
        self._symbols.append(symbol)
        return self._normal


def normality_witness(w: str) -> str | None:
    """A factor with more a's than the same-length prefix, or None.

    Among violating factors the shortest wins, ties broken leftmost: k is
    the first length where max-a exceeds the prefix count.
    """
    p = prefix_counts(w)
    (max_a,) = window_max([p])
    if max_a == p:
        return None
    k = next(k for k in range(1, len(w) + 1) if max_a[k] > p[k])
    start = next(s for s in range(len(w) - k + 1) if p[s + k] - p[s] > p[k])
    return w[start:start + k]
