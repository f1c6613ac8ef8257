"""Exhaustive enumeration: counting, classes, and reference-table checks.

Counting walks the prefix-closed search tree: both the prefix normal
words and the pre-necklaces are closed under truncation, so a depth-first
walk that only ever extends valid words visits each one exactly once.

The class census groups all 2^n words of a length by their prefix normal
form.  It streams the words in fixed-size chunks (vectorized profile
computation per chunk, hash-keyed counters across chunks) so memory stays
flat, and can spread chunks over worker processes.  Parallel runs use at
most one worker per cpu and per task.  Reference data for the
known count/class tables is frozen here and re-derived by verify_tables.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from .lyndon import _lyndon_prefix_period
from .pnf import is_prefix_normal
from .profiles import window_max
from .words import prefix_counts

DEFAULT_COUNT_BOUND = 24
DEFAULT_CENSUS_BOUND = 20

# Chunk size (log2) for the streamed census; a chunk of 2^16 words keeps
# the per-chunk arrays a few megabytes at n = 20.
_CHUNK_BITS = 16

# Depth at which parallel runs split the search tree into root subtrees.
_SPLIT_DEPTH = 12

_DECODE = str.maketrans("01", "ab")


# ---------------------------------------------------------------------------
# Tree-walk enumeration

def _pn_subtree_counts(root: str, max_n: int) -> list[int]:
    """Per-depth node counts of the prefix normal tree under ``root``.

    counts[d] is the number of prefix normal words of length d that extend
    ``root`` (the root itself included); entries below len(root) stay 0.
    """
    counts = [0] * (max_n + 1)

    def walk(prefix: list[int], suffix: list[int]) -> None:
        depth = len(prefix) - 1
        counts[depth] += 1
        if depth == max_n:
            return
        if all(suffix[k] < prefix[k + 1] for k in range(depth)):
            walk([*prefix, prefix[-1] + 1], [0, *(c + 1 for c in suffix)])
        walk([*prefix, prefix[-1]], [0, *suffix])

    # prefix and suffix a-counts drive the right-extension test
    walk(prefix_counts(root), prefix_counts(root[::-1]))
    return counts


def _pl_subtree_counts(root: str, max_n: int) -> list[int]:
    """Per-depth node counts of the pre-necklace tree under ``root``."""
    counts = [0] * (max_n + 1)
    word = list(root)

    def walk(period: int) -> None:
        depth = len(word)
        counts[depth] += 1
        if depth == max_n:
            return
        if depth == 0:
            for ch in "ab":
                word.append(ch)
                walk(1)
                word.pop()
            return
        prev = word[depth - period]
        word.append(prev)
        walk(period)
        word.pop()
        if prev == "a":
            word.append("b")
            walk(depth + 1)
            word.pop()

    walk(_lyndon_prefix_period(root) if root else 0)
    return counts


def iter_prefix_normal(n: int) -> Iterator[str]:
    """All prefix normal words of length ``n`` in lexicographic order."""
    if n < 0:
        raise ValueError("length must be non-negative")
    buf: list[str] = []

    def walk(prefix: list[int], suffix: list[int]) -> Iterator[str]:
        depth = len(buf)
        if depth == n:
            yield "".join(buf)
            return
        if all(suffix[k] < prefix[k + 1] for k in range(depth)):
            buf.append("a")
            yield from walk([*prefix, prefix[-1] + 1],
                            [0, *(c + 1 for c in suffix)])
            buf.pop()
        buf.append("b")
        yield from walk([*prefix, prefix[-1]], [0, *suffix])
        buf.pop()

    yield from walk([0], [0])


def iter_pre_necklaces(n: int) -> Iterator[str]:
    """All pre-necklaces of length ``n`` in lexicographic order."""
    if n < 0:
        raise ValueError("length must be non-negative")
    word: list[str] = []

    def walk(period: int) -> Iterator[str]:
        depth = len(word)
        if depth == n:
            yield "".join(word)
            return
        if depth == 0:
            for ch in "ab":
                word.append(ch)
                yield from walk(1)
                word.pop()
            return
        prev = word[depth - period]
        word.append(prev)
        yield from walk(period)
        word.pop()
        if prev == "a":
            word.append("b")
            yield from walk(depth + 1)
            word.pop()

    yield from walk(0)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _map_tasks(fn: Callable, tasks: list, jobs: int) -> Iterator:
    """fn over ``tasks`` in order, on at most as many worker processes as
    ``jobs``, cpus and tasks; in this process when that is one."""
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks,
                            chunksize=max(1, len(tasks) // (workers * 4)))


def _tree_counts(kind: str, max_n: int, jobs: int) -> list[int]:
    _check_jobs(jobs)
    subtree = _pn_subtree_counts if kind == "pn" else _pl_subtree_counts
    if jobs == 1 or max_n <= _SPLIT_DEPTH + 1:
        return subtree("", max_n)
    split = _SPLIT_DEPTH
    counts = subtree("", split)[:split] + [0] * (max_n - split + 1)
    roots = list(iter_prefix_normal(split) if kind == "pn"
                 else iter_pre_necklaces(split))
    for part in _map_tasks(partial(subtree, max_n=max_n), roots, jobs):
        for d in range(split, max_n + 1):
            counts[d] += part[d]
    return counts


def _check_count_args(n: int, bound: int) -> None:
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if n > bound:
        raise ValueError(f"length {n} exceeds the counting bound {bound}")


def count_prefix_normal(n: int, bound: int = DEFAULT_COUNT_BOUND,
                        jobs: int = 1) -> int:
    """Number of prefix normal words of length ``n`` (tree walk)."""
    _check_count_args(n, bound)
    return _tree_counts("pn", n, jobs)[n]


def count_pre_necklaces(n: int, bound: int = DEFAULT_COUNT_BOUND,
                        jobs: int = 1) -> int:
    """Number of pre-necklaces of length ``n`` (tree walk)."""
    _check_count_args(n, bound)
    return _tree_counts("pl", n, jobs)[n]


@dataclass(frozen=True)
class CountsRow:
    """Counts for one word length; fields not computed stay None."""

    n: int
    count_prefix_normal: int | None
    count_pre_necklace: int | None
    max_class_size: int | None = None

    def __post_init__(self):
        if (self.count_prefix_normal is not None
                and self.count_pre_necklace is not None
                and self.count_prefix_normal > self.count_pre_necklace):
            raise ValueError(
                "prefix normal words are pre-necklaces; counts "
                f"{self.count_prefix_normal} > {self.count_pre_necklace}")
        if self.max_class_size is not None and self.max_class_size > 2 ** self.n:
            raise ValueError("class size cannot exceed the number of words")


def counts_table(max_n: int, what: str = "both",
                 bound: int = DEFAULT_COUNT_BOUND,
                 jobs: int = 1) -> list[CountsRow]:
    """CountsRows for n = 1..max_n, one tree walk per selected language.

    ``what`` selects "pnf", "prenecklace" or "both".
    """
    if what not in ("pnf", "prenecklace", "both"):
        raise ValueError(f"unknown selection {what!r}")
    _check_count_args(max_n, bound)
    pn = _tree_counts("pn", max_n, jobs) if what != "prenecklace" else None
    pl = _tree_counts("pl", max_n, jobs) if what != "pnf" else None
    return [CountsRow(n,
                      pn[n] if pn is not None else None,
                      pl[n] if pl is not None else None)
            for n in range(1, max_n + 1)]


# ---------------------------------------------------------------------------
# Class census

def _pnf_codes(n: int, start: int, stop: int):
    """Packed normal forms of the words with codes start..stop-1.

    Word code: a = 0, b = 1, first symbol in the most significant bit, so
    integer order is lexicographic order.  The returned array holds the
    same packing of each word's prefix normal form.
    """
    import numpy as np
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (np.arange(start, stop, dtype=np.int64)[:, None] >> shifts) & 1
    prefix = np.zeros((stop - start, n + 1), dtype=np.int32)
    np.cumsum(1 - bits, axis=1, dtype=np.int32, out=prefix[:, 1:])
    steps = np.diff(window_max(prefix), axis=1)
    return (1 - steps).astype(np.int64) @ (np.int64(1) << shifts)


def _census_chunk(n: int, bounds: tuple[int, int]) -> dict[int, int]:
    import numpy as np
    uniq, cnt = np.unique(_pnf_codes(n, *bounds), return_counts=True)
    return dict(zip(uniq.tolist(), cnt.tolist()))


def _decode(code: int, n: int) -> str:
    return format(code, f"0{n}b").translate(_DECODE)


def _chunk_ranges(n: int) -> list[tuple[int, int]]:
    size = 1 << min(n, _CHUNK_BITS)
    return [(s, min(s + size, 1 << n)) for s in range(0, 1 << n, size)]


@dataclass
class ClassCensus:
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
        hist: dict[int, int] = {}
        for size in self.classes.values():
            hist[size] = hist.get(size, 0) + 1
        return dict(sorted(hist.items()))

    def max_class_size(self) -> int:
        return max(self.classes.values())


def _check_census_args(n: int, bound: int) -> None:
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    if n > bound:
        raise ValueError(f"length {n} exceeds the census bound {bound} "
                         "(the census scans all 2^n words)")


def class_census(n: int, bound: int = DEFAULT_CENSUS_BOUND,
                 jobs: int = 1) -> ClassCensus:
    """Group all 2^n words of length ``n`` by prefix normal form."""
    _check_census_args(n, bound)
    _check_jobs(jobs)
    if n == 0:
        return ClassCensus(0, {"": 1}, 1)
    acc: dict[int, int] = {}
    for part in _map_tasks(partial(_census_chunk, n), _chunk_ranges(n),
                           jobs):
        for code, cnt in part.items():
            acc[code] = acc.get(code, 0) + cnt
    return ClassCensus(
        n, {_decode(code, n): acc[code] for code in sorted(acc)}, 1 << n)


def max_class_size(n: int, bound: int = DEFAULT_CENSUS_BOUND,
                   jobs: int = 1) -> int:
    """Largest class cardinality in the length-``n`` census."""
    return class_census(n, bound=bound, jobs=jobs).max_class_size()


def class_members(pnf: str, bound: int = DEFAULT_CENSUS_BOUND) -> list[str]:
    """All words whose prefix normal form is ``pnf``, lexicographically.

    ``pnf`` must itself be prefix normal (it is its class representative).
    """
    if not is_prefix_normal(pnf):
        raise ValueError(f"{pnf!r} is not prefix normal")
    n = len(pnf)
    _check_census_args(n, bound)
    if n == 0:
        return [""]
    target = int(pnf.replace("a", "0").replace("b", "1"), 2)
    members = []
    for lo, hi in _chunk_ranges(n):
        codes = _pnf_codes(n, lo, hi)
        for word_code in (codes == target).nonzero()[0]:
            members.append(_decode(lo + int(word_code), n))
    return members


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


@dataclass(frozen=True)
class TableExpectations:
    """Reference cells recomputed by verify_tables."""

    prefix_normal_counts: tuple[int, ...] = PREFIX_NORMAL_COUNTS
    pre_necklace_counts: tuple[int, ...] = PRE_NECKLACE_COUNTS
    max_class_sizes: tuple[int, ...] = MAX_CLASS_SIZES
    class_sizes_n4: dict = field(default_factory=lambda: dict(CLASS_SIZES_N4))
    class_sizes_n8: dict = field(default_factory=lambda: dict(CLASS_SIZES_N8))
    class_histogram_n8: dict = field(
        default_factory=lambda: dict(CLASS_HISTOGRAM_N8))


@dataclass(frozen=True)
class CellCheck:
    label: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass
class VerificationReport:
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
    cells: list[CellCheck] = []

    pn = _tree_counts("pn", limit, jobs)
    pl = _tree_counts("pl", limit, jobs)
    for n in range(1, limit + 1):
        cells.append(CellCheck(f"prefix-normal count n={n}",
                               exp.prefix_normal_counts[n - 1], pn[n]))
    for n in range(1, limit + 1):
        cells.append(CellCheck(f"pre-necklace count n={n}",
                               exp.pre_necklace_counts[n - 1], pl[n]))

    census4 = class_census(4, jobs=jobs)
    cells.append(CellCheck("class count n=4", len(exp.class_sizes_n4),
                           len(census4.classes)))
    for rep, size in sorted(exp.class_sizes_n4.items()):
        cells.append(CellCheck(f"class size n=4 {rep}", size,
                               census4.classes.get(rep)))

    census8 = class_census(8, jobs=jobs)
    cells.append(CellCheck("class count n=8", len(exp.class_sizes_n8),
                           len(census8.classes)))
    for rep, size in sorted(exp.class_sizes_n8.items()):
        cells.append(CellCheck(f"class size n=8 {rep}", size,
                               census8.classes.get(rep)))
    hist = census8.histogram()
    for size, classes in sorted(exp.class_histogram_n8.items()):
        cells.append(CellCheck(f"class histogram n=8 size={size}", classes,
                               hist.get(size)))

    for n in range(1, limit + 1):
        cells.append(CellCheck(f"max class size n={n}",
                               exp.max_class_sizes[n - 1],
                               max_class_size(n, jobs=jobs)))
    return VerificationReport(cells)
