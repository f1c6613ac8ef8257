"""Per-length factor statistics of a binary word.

For a word w and every length k, the three profiles computed here are the
maximum number of a's over all length-k factors (max-a), the analogous
maximum for b (max-b), and the minimum number of a's (min-a).  A profile is
stored as the plain integer array values[0..n] so downstream consumers can
answer length-indexed questions with one array read.

All come from one kernel: the per-length sliding window over prefix
counts, O(n^2) overall, run on a batch of count rows.  A word's a- and
b-counts are a batch of two, a census chunk a batch of 2^16 words.  Long
words and batches take the vectorized route over the same windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .words import complement, complement_counts, prefix_counts

# Below this length the plain-Python slide beats numpy's per-call overhead.
_VECTOR_CUTOFF = 64

_KINDS = ("max-a", "min-a", "max-b")


@dataclass(frozen=True)
class OnesProfile:
    """A length-indexed factor-count profile.

    values[k] is the max (or min) symbol count over length-k factors, for
    k = 0..n.  Every profile starts at 0 and moves in steps of 0 or 1, and
    no count can exceed the window length.
    """

    kind: str
    values: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        v = self.values
        if not v or v[0] != 0:
            raise ValueError("profile must start with values[0] = 0")
        for k in range(1, len(v)):
            if v[k] - v[k - 1] not in (0, 1):
                raise ValueError(
                    f"profile step at k={k} is {v[k] - v[k - 1]}, "
                    "expected 0 or 1")
            if v[k] > k:
                raise ValueError(f"values[{k}] = {v[k]} exceeds window length")

    @property
    def n(self) -> int:
        """Length of the profiled word."""
        return len(self.values) - 1

    def __getitem__(self, k: int) -> int:
        return self.values[k]


def window_max(rows):
    """out[r][k] = max over j of rows[r][j + k] - rows[r][j], k = 0..n.

    ``rows`` are prefix-count rows of length n + 1: a list of lists (the
    rows of one word; the result is lists of ints) or an (m, n + 1) integer array (the
    result is an int32 array).
    """
    n = len(rows[0]) - 1
    if isinstance(rows, list) and n < _VECTOR_CUTOFF:
        return [[0, *(max(map(sub, p[k:], p)) for k in range(1, n + 1))]
                for p in rows]
    import numpy as np
    p = np.asarray(rows, dtype=np.int32)
    out = np.zeros_like(p)
    for k in range(1, n + 1):
        out[:, k] = (p[:, k:] - p[:, :n - k + 1]).max(axis=1)
    return out.tolist() if isinstance(rows, list) else out


def a_count_bounds(w: str) -> tuple[list[int], list[int]]:
    """The max-a and min-a values of ``w`` from one kernel call."""
    counts = prefix_counts(w)
    max_a, max_b = window_max([counts, complement_counts(counts)])
    return max_a, complement_counts(max_b)


def max_a_profile(w: str) -> OnesProfile:
    """Maximum number of a's in a factor, for every factor length."""
    (values,) = window_max([prefix_counts(w)])
    return OnesProfile("max-a", tuple(values))


def max_b_profile(w: str) -> OnesProfile:
    """Maximum number of b's in a factor, for every factor length.

    Equals the max-a profile of the complement word.
    """
    return OnesProfile("max-b", max_a_profile(complement(w)).values)


def min_a_profile(w: str) -> OnesProfile:
    """Minimum number of a's in a factor, for every factor length.

    A window of length k holding the most b's holds the fewest a's, so
    values[k] = k - max_b[k].
    """
    return OnesProfile("min-a",
                       tuple(complement_counts(max_b_profile(w).values)))
