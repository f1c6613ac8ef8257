"""Exhaustive enumeration: counting, classes, and reference-table checks.

Prefix normal words are closed under truncation, so their tree grows
level by level, in this process: level d + 1 is level d with every valid
child appended, a before b, which keeps each level in lexicographic
order.  Counts up to n = 16 run on Python lists; longer ones and the
iterator grow int8 numpy blocks.  Pre-necklaces need no tree: their count
sums the binary Lyndon-word counts, and the FKM rule lists them.

The class census groups all 2^n words by prefix normal form into one
array of class sizes, one vectorized pass per chunk of words that share
all but their last b symbols, whose a-counts come off one shared table.
Representatives are decoded only for output.  Reference data for the
known count/class tables is frozen here and re-derived by verify_tables.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from .pnf import _a_extends, is_prefix_normal
from .profiles import _trusted, window_max
from .words import Record, parse_word

DEFAULT_COUNT_BOUND = 24
DEFAULT_CENSUS_BOUND = 20  # at most 30: census codes are int32

# Longest prefix normal count run on Python lists: they beat loading numpy
# up to about n = 18, and match numpy once loaded at n = 10; at 16, the
# `enumerate` default and the table length, they take 12 ms.
_LIST_MAX_N = 16

# Columns per batch: of a numpy level, never held whole, of a census chunk,
# or of decoded words.
_BATCH_COLUMNS = 1 << 14


# ---------------------------------------------------------------------------
# Level-by-level enumeration of prefix normal words
#
# A word with an a-child has a b-child right after it; the others have a
# b-child only.  A level is a list of rows or an int8 block of columns, one
# per word, window axis first, each the prefix a-counts P[0..d].  A word
# takes an a when P[j] + P[d + 1 - j] > P[d] for j = 1..(d + 1) // 2
# (pnf._a_extends).  int8 holds every count up to n = 63, far past what runs.

def _grow(prefix, d: int, has_a):
    """Block level d + 1 from level d and its a-child mask."""
    import numpy as np
    parent = np.repeat(np.arange(len(has_a)), 1 + has_a)
    is_a = np.append(parent[1:] == parent[:-1], False)  # a b twin follows
    block = np.take(prefix, parent, axis=1)
    return np.vstack([block, block[d] + is_a])


def _frontier(n: int, prefix=None, d: int = 0):
    """(depth, block, a-child mask) of level d, by default the root, and of
    each level below down to n: in column order, batch by batch."""
    import numpy as np
    prefix = np.zeros((1, 1), np.int8) if prefix is None else prefix
    h = (d + 1) // 2  # rows j and d + 1 - j for j = 1..h against row d
    has_a = (prefix[1:h + 1] + prefix[d:d - h:-1] > prefix[d]).all(axis=0)
    yield d, prefix, has_a
    if d < n:
        child = _grow(prefix, d, has_a)
        for lo in range(0, child.shape[1], _BATCH_COLUMNS):
            yield from _frontier(n, child[:, lo:lo + _BATCH_COLUMNS], d + 1)


def _texts(is_a) -> list[str]:
    """The words spelled by the 0/1 rows of ``is_a``, 1 for a."""
    import numpy as np
    m, n = is_a.shape
    lines = np.full((m, n + 1), ord("\n"), np.uint8)  # one line per word
    lines[:, :n] = ord("b") - is_a
    return lines.tobytes().decode("ascii").split("\n")[:-1]  # keeps n = 0


def _check_iter_length(n: int) -> None:
    if not 0 <= n <= DEFAULT_COUNT_BOUND:
        raise ValueError(f"length {n} outside 0..{DEFAULT_COUNT_BOUND}")


def iter_prefix_normal(n: int) -> Iterator[str]:
    """All prefix normal words of length ``n`` in lexicographic order; n
    above DEFAULT_COUNT_BOUND raises ValueError on the first next."""
    _check_iter_length(n)
    for d, prefix, _ in _frontier(n):
        if d == n:
            yield from _texts((prefix[1:] - prefix[:-1]).T)


def _tree_counts(max_n: int) -> list[int]:
    """Prefix normal words per length 0..max_n."""
    sizes = [1] + [0] * max_n
    if max_n <= _LIST_MAX_N:
        level = [(0,)]
        for d in range(max_n):
            level = [p + (p[d] + a,) for p in level
                     for a in ((1, 0) if _a_extends(p, d) else (0,))]
            sizes[d + 1] = len(level)
        return sizes
    import numpy as np
    # level max_n is only sized, off its parents' a-child masks
    for d, _, has_a in _frontier(max_n - 1):
        sizes[d + 1] += len(has_a) + int(np.count_nonzero(has_a))
    return sizes


# ---------------------------------------------------------------------------
# Pre-necklaces, from their theory: each is fixed by its Lyndon
# prefix-period p and the Lyndon word w[:p], so P(n) = L(1) + ... + L(n),
# and the FKM rule of Fredricksen, Kessler and Maiorana lists them in
# constant amortized time (Ruskey, Savage and Wang, 1992).

def iter_pre_necklaces(n: int) -> Iterator[str]:
    """All pre-necklaces of length ``n`` in lexicographic order, each next
    one the last a turned b and that prefix repeated; n above
    DEFAULT_COUNT_BOUND raises ValueError on the first next."""
    _check_iter_length(n)
    w = "a" * n
    yield w
    while (i := w.rfind("a")) >= 0:
        w = ((w[:i] + "b") * (n // (i + 1) + 1))[:n]
        yield w


def _pre_necklace_counts(max_n: int) -> list[int]:
    """Pre-necklaces per length 0..max_n, from the binary Lyndon-word
    counts L, which solve 2^i = sum of d L(d) over the divisors d of i."""
    lyndon = [0]
    for i in range(1, max_n + 1):
        lyndon.append(((1 << i) - sum(d * lyndon[d] for d in range(1, i)
                                      if i % d == 0)) // i)
    return [1] + [sum(lyndon[:i + 1]) for i in range(1, max_n + 1)]


def _check_jobs(jobs: int) -> None:
    """Counts and censuses run in this process; ``jobs`` is only checked."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _check_count_args(n: int, jobs: int) -> None:
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if n > DEFAULT_COUNT_BOUND:
        raise ValueError(f"length {n} exceeds the counting bound "
                         f"{DEFAULT_COUNT_BOUND}")
    _check_jobs(jobs)


def count_prefix_normal(n: int, jobs: int = 1) -> int:
    """Number of prefix normal words of length ``n``."""
    _check_count_args(n, jobs)
    return _tree_counts(n)[n]


def count_pre_necklaces(n: int, jobs: int = 1) -> int:
    """Number of pre-necklaces of length ``n``."""
    _check_count_args(n, jobs)
    return _pre_necklace_counts(n)[n]


class CountsRow(Record, frozen=True):
    """Counts for one word length; fields not computed stay None."""

    n: int
    count_prefix_normal: int | None
    count_pre_necklace: int | None

    def __post_init__(self):
        if (self.count_prefix_normal is not None
                and self.count_pre_necklace is not None
                and self.count_prefix_normal > self.count_pre_necklace):
            raise ValueError(
                "prefix normal words are pre-necklaces; counts "
                f"{self.count_prefix_normal} > {self.count_pre_necklace}")


def counts_table(max_n: int, what: str = "both",
                 jobs: int = 1) -> list[CountsRow]:
    """CountsRows for n = 1..max_n, for the selected languages.

    ``what`` selects "pnf", "prenecklace" or "both".
    """
    if what not in ("pnf", "prenecklace", "both"):
        raise ValueError(f"unknown selection {what!r}")
    _check_count_args(max_n, jobs)
    none = [None] * (max_n + 1)
    pn = _tree_counts(max_n) if what != "prenecklace" else none
    pl = _pre_necklace_counts(max_n) if what != "pnf" else none
    return [_trusted(CountsRow, n=n, count_prefix_normal=pn[n],
                     count_pre_necklace=pl[n]) for n in range(1, max_n + 1)]


# ---------------------------------------------------------------------------
# Class census

def _chunk_ranges(n: int) -> list[tuple[int, int]]:
    """Census chunks, each the widest power of two <= _BATCH_COLUMNS."""
    width = 1 << min(n, _BATCH_COLUMNS.bit_length() - 1)
    return [(s, s + width) for s in range(0, 1 << n, width)]


def _pnf_codes(n: int):
    """(first code, packed normal forms) of each chunk, in code order.

    Word code: a = 0, b = 1, first symbol in the most significant bit, so
    integer order is lexicographic order.  A chunk's 2^b words share their
    first n - b symbols; one reused block takes their a-counts, then one
    table of the a-counts of all 2^b tails plus the head's a-count.
    """
    import numpy as np
    chunks = _chunk_ranges(n)
    width = chunks[0][1]
    b = width.bit_length() - 1
    tails = ~np.arange(width)  # bit b - 1 - k set: an a at k
    table = np.zeros((b + 1, width), np.int8)
    for k in range(b):  # window axis first: one contiguous row per k
        table[k + 1] = table[k] + (tails >> (b - 1 - k) & 1)
    block = np.empty((n + 1, width), np.int8)
    for lo, _ in chunks:
        for j in range(n - b):
            block[j] = j - (lo >> n - j).bit_count()
        np.add(table, n - b - (lo >> b).bit_count(), out=block[n - b:])
        steps = np.zeros(width, np.int32)  # n <= DEFAULT_CENSUS_BOUND <= 30
        for step in np.diff(window_max(block.T).T, axis=0):  # 1 at an a
            steps <<= 1
            steps += step
        yield lo, np.subtract((1 << n) - 1, steps, out=steps)  # 1 at a b


def _classes(n: int) -> tuple:
    """The representatives' codes, in lexicographic order, and the class
    sizes; the array of 2^n sizes is freed before a word is decoded."""
    import numpy as np
    sizes = np.zeros(1 << n, dtype=np.int32)
    for _, chunk in _pnf_codes(n):
        codes, counts = np.unique(chunk, return_counts=True)
        sizes[codes] += counts
    reps = np.flatnonzero(sizes)
    return reps, sizes[reps]


def _code_texts(codes, n: int) -> list[str]:
    """The words of length ``n`` with these codes (see _pnf_codes)."""
    import numpy as np
    a_bytes = (~codes).astype(">u4").view(np.uint8).reshape(-1, 4)
    return _texts(np.unpackbits(a_bytes, axis=1)[:, 32 - n:])


class ClassCensus(Record):
    """Partition of all words of one length by shared prefix normal form.

    ``classes`` maps each normal form (the canonical class representative)
    to the class cardinality, keys in lexicographic order.
    """

    n: int
    classes: dict[str, int]
    total_words: int

    def __post_init__(self):
        if sum(self.classes.values()) != self.total_words:
            raise ValueError("class cardinalities must sum to the number "
                             "of words")

    def histogram(self) -> dict[int, int]:
        """How many classes have each cardinality."""
        return dict(sorted(Counter(self.classes.values()).items()))


def _check_census_args(n: int) -> None:
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    if n > DEFAULT_CENSUS_BOUND:
        raise ValueError(f"length {n} exceeds the census bound "
                         f"{DEFAULT_CENSUS_BOUND} (the census scans all 2^n "
                         "words)")


def class_census(n: int, jobs: int = 1) -> ClassCensus:
    """Group all 2^n words of length ``n`` by prefix normal form."""
    _check_census_args(n)
    _check_jobs(jobs)
    reps, sizes = _classes(n)
    classes: dict[str, int] = {}
    for lo in range(0, len(reps), _BATCH_COLUMNS):
        hi = lo + _BATCH_COLUMNS
        classes.update(zip(_code_texts(reps[lo:hi], n),
                           sizes[lo:hi].tolist()))
    return _trusted(ClassCensus, n=n, classes=classes, total_words=1 << n)


def max_class_size(n: int) -> int:
    """Largest class cardinality in the length-``n`` census."""
    _check_census_args(n)
    return int(_classes(n)[1].max())


def class_members(pnf: str) -> list[str]:
    """All words whose prefix normal form is ``pnf``, lexicographically.

    ``pnf`` must itself be prefix normal (it is its class representative).
    """
    n = len(parse_word(pnf))
    _check_census_args(n)  # before a kernel pass over a long word
    if not is_prefix_normal(pnf):
        raise ValueError(f"{pnf!r} is not prefix normal")
    import numpy as np
    target = int("0" + pnf.replace("a", "0").replace("b", "1"), 2)
    hits = [lo + np.flatnonzero(c == target) for lo, c in _pnf_codes(n)]
    return _code_texts(np.concatenate(hits), n)


# ---------------------------------------------------------------------------
# Reference tables

# Known counts for n = 1..16: prefix normal words and pre-necklaces.
PREFIX_NORMAL_COUNTS = (2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697,
                        1273, 2279, 4185, 7568)
PRE_NECKLACE_COUNTS = (2, 3, 5, 8, 14, 23, 41, 71, 127, 226, 412, 747,
                       1377, 2538, 4720, 8800)

# Largest class cardinality for n = 1..16.
MAX_CLASS_SIZES = (1, 2, 3, 4, 5, 6, 8, 10, 12, 18, 24, 30, 40, 60, 80, 111)

# Full census at n = 4: every class representative and cardinality.
CLASS_SIZES_N4 = {
    "aaaa": 1, "aaab": 2, "aaba": 2, "aabb": 3,
    "abab": 2, "abba": 1, "abbb": 4, "bbbb": 1,
}

# Full census at n = 8.
CLASS_SIZES_N8 = {
    "aaaaaaaa": 1, "aaabaabb": 6, "aabababa": 6, "abababba": 2,
    "aaaaaaab": 2, "aaababaa": 2, "aabababb": 9, "abababbb": 4,
    "aaaaaaba": 2, "aaababab": 6, "aababbaa": 2, "ababbaba": 1,
    "aaaaaabb": 3, "aaababba": 4, "aababbab": 8, "ababbabb": 6,
    "aaaaabaa": 2, "aaababbb": 8, "aababbba": 4, "ababbbab": 4,
    "aaaaabab": 4, "aaabbaaa": 1, "aababbbb": 10, "ababbbba": 2,
    "aaaaabba": 2, "aaabbaab": 4, "aabbaabb": 3, "ababbbbb": 6,
    "aaaaabbb": 4, "aaabbaba": 2, "aabbabab": 4, "abbabbab": 2,
    "aaaabaaa": 2, "aaabbabb": 6, "aabbabba": 3, "abbabbba": 2,
    "aaaabaab": 4, "aaabbbaa": 2, "aabbabbb": 8, "abbabbbb": 5,
    "aaaababa": 3, "aaabbbab": 4, "aabbbaab": 2, "abbbabbb": 4,
    "aaaababb": 6, "aaabbbba": 2, "aabbbaba": 2, "abbbbabb": 3,
    "aaaabbaa": 2, "aaabbbbb": 6, "aabbbabb": 6, "abbbbbab": 2,
    "aaaabbab": 4, "aabaabaa": 1, "aabbbbaa": 1, "abbbbbba": 1,
    "aaaabbba": 2, "aabaabab": 4, "aabbbbab": 4, "abbbbbbb": 8,
    "aaaabbbb": 5, "aabaabba": 2, "aabbbbba": 2, "bbbbbbbb": 1,
    "aaabaaab": 2, "aabaabbb": 4, "aabbbbbb": 7,
    "aaabaaba": 4, "aababaab": 2, "abababab": 2,
}

# Cardinality histogram of the n = 8 census: size -> number of classes.
CLASS_HISTOGRAM_N8 = {1: 7, 2: 24, 3: 5, 4: 16, 5: 2, 6: 9, 7: 1, 8: 4,
                      9: 1, 10: 1}


class TableExpectations(Record, frozen=True):
    """Reference cells recomputed by verify_tables."""

    prefix_normal_counts: tuple[int, ...] = PREFIX_NORMAL_COUNTS
    pre_necklace_counts: tuple[int, ...] = PRE_NECKLACE_COUNTS
    max_class_sizes: tuple[int, ...] = MAX_CLASS_SIZES
    class_sizes_n4: dict = CLASS_SIZES_N4  # each record gets a copy
    class_sizes_n8: dict = CLASS_SIZES_N8
    class_histogram_n8: dict = CLASS_HISTOGRAM_N8


class CellCheck(Record, frozen=True):
    label: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class VerificationReport(Record):
    cells: list[CellCheck]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def failures(self) -> list[CellCheck]:
        return [c for c in self.cells if not c.ok]


def verify_tables(expected: TableExpectations | None = None,
                  max_n: int | None = None,
                  jobs: int = 1) -> VerificationReport:
    """Recompute every reference cell and compare.

    ``max_n`` trims the per-length sequences (counts, max class sizes) for
    quick runs; the fixed-length censuses at n = 4 and n = 8 always run.
    """
    exp = expected if expected is not None else TableExpectations()
    limit = len(exp.prefix_normal_counts) if max_n is None else max_n
    if not 1 <= limit <= len(exp.prefix_normal_counts):
        raise ValueError(
            f"max_n must be in 1..{len(exp.prefix_normal_counts)}")
    _check_jobs(jobs)
    cells: list[CellCheck] = []

    for name, counts, found in (
            ("prefix-normal", exp.prefix_normal_counts, _tree_counts(limit)),
            ("pre-necklace", exp.pre_necklace_counts,
             _pre_necklace_counts(limit))):
        cells += [CellCheck(f"{name} count n={n}", counts[n - 1], found[n])
                  for n in range(1, limit + 1)]

    for n, sizes in ((4, exp.class_sizes_n4), (8, exp.class_sizes_n8)):
        result = class_census(n)
        found = result.classes
        cells.append(CellCheck(f"class count n={n}", len(sizes), len(found)))
        cells += [CellCheck(f"class size n={n} {rep}", size, found.get(rep))
                  for rep, size in sorted(sizes.items())]
    hist = result.histogram()  # the n = 8 census, the loop's last
    for size, classes in sorted(exp.class_histogram_n8.items()):
        cells.append(CellCheck(f"class histogram n=8 size={size}", classes,
                               hist.get(size)))

    cells += [CellCheck(f"max class size n={n}", exp.max_class_sizes[n - 1],
                        max_class_size(n)) for n in range(1, limit + 1)]
    return VerificationReport(cells)
