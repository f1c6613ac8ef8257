"""Exhaustive enumeration: counting, classes, and reference-table checks.

Prefix normal words are closed under truncation, so their tree grows
level by level, in this process: level d + 1 is level d with every valid
child appended, a before b, which keeps each level in lexicographic
order.  Counts up to n = 16 run on Python lists until numpy is loaded;
longer ones and the iterator grow int8 numpy blocks.  Pre-necklaces need no
tree: their count sums the binary Lyndon-word counts, and the FKM rule lists
them.

The class census groups all 2^n words by prefix normal form into one
array of class sizes, one vectorized pass per chunk of words that share
their first and their last r symbols, whose a-counts come off one shared
table.  A word's reversal has its normal forms, so of each chunk and its
reversed twin only one is slid, and its classes count twice.
Representatives are decoded only for output, a batch at a time that `classes`
text writes as one byte array (its JSON builds the dict); class_members lists
a class by a pruned search, without numpy (0.3-5 ms at n = 18, 7-23 ms on the
largest at n = 20).  Known tables are frozen and re-derived by verify_tables.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterator
from itertools import islice
from operator import gt

from .pnf import _a_extends, is_prefix_normal
from .profiles import _slide, _trusted
from .words import Record, parse_word, prefix_counts

DEFAULT_COUNT_BOUND = 24
DEFAULT_CENSUS_BOUND = 20  # at most 30: census codes are int32

# Longest prefix normal count run on Python lists while numpy is not loaded:
# they beat loading numpy up to about n = 18, and match numpy once loaded at
# n = 10; at 16, the `enumerate` default and the table length, they take 12 ms.
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


def _texts(letters) -> list[str]:
    """The words spelled by the rows of the byte array ``letters``."""
    import numpy as np
    m, n = letters.shape
    lines = np.full((m, n + 1), ord("\n"), np.uint8)  # one line per word
    lines[:, :n] = letters
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
            yield from _texts(ord("b") - (prefix[1:] - prefix[:-1]).T)


def _tree_counts(max_n: int) -> list[int]:
    """Prefix normal words per length 0..max_n: on lists only while numpy
    is not loaded (profiles._slide's rule for the ledger), else on blocks
    past n = 0."""
    sizes = [1] + [0] * max_n
    if max_n <= (0 if "numpy" in sys.modules else _LIST_MAX_N):
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


class CountsRow(Record):
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

def _pnf_codes(n: int):
    """(weight, first code, packed normal forms) of the chunks slid, in code
    order: each normal form stands for ``weight`` words.

    Word code: a = 0, b = 1, first symbol in the most significant bit, so
    integer order is lexicographic order.  A chunk's 2^m words share their
    first r and their last r symbols, head h and end e, for the fewest r
    that leave m <= log2(_BATCH_COLUMNS); the word of middle t has code
    first | t << r.  One reused block takes their a-counts: the head's,
    then one table of the a-counts of all 2^m middles, then the end's.  A
    word and its reversal share their normal forms (the factors of one are
    the other's reversed), so chunk (h, e) and its twin (e^R, h^R) hold the
    same codes: the twin that orders first is slid, with weight 2, or 1
    when the chunk is its own twin.
    """
    import numpy as np
    r = min(n // 2, max(0, n - _BATCH_COLUMNS.bit_length() + 2) // 2)
    m = n - 2 * r
    width = 1 << m
    tails = ~np.arange(width)  # bit m - 1 - k set: an a at k
    table = np.zeros((m + 1, width), np.int8)
    for k in range(m):  # window axis first: one contiguous row per k
        table[k + 1] = table[k] + (tails >> (m - 1 - k) & 1)
    block = np.empty((n + 1, width), np.int8)
    ends = range(1 << r)  # the codes of the r-symbol heads and ends
    rev = [int(f"{x:0{r}b}"[::-1], 2) for x in ends]
    counts = [np.array([[j - (x >> r - j).bit_count()] for j in range(r + 1)],
                       np.int8) for x in ends]  # the prefix a-counts of each
    for h in ends:
        for e in ends:
            if (twin := rev[e] << r | rev[h]) < (pair := h << r | e):
                continue  # slid as its twin
            block[:r + 1] = counts[h]
            np.add(table, counts[h][r], out=block[r:r + m + 1])
            np.add(block[r + m], counts[e][1:], out=block[r + m + 1:])
            steps = np.zeros(width, np.int32)  # n <= DEFAULT_CENSUS_BOUND
            for step in np.diff(_slide(block), axis=0):  # 1 at an a
                steps <<= 1
                steps += step
            yield (1 + (twin != pair), h << n - r | e,
                   np.subtract((1 << n) - 1, steps, out=steps))  # 1 at a b


def _classes(n: int) -> tuple:
    """The representatives' codes, in lexicographic order, and the class
    sizes; the array of 2^n sizes is freed before a word is decoded."""
    import numpy as np
    sizes = np.zeros(1 << n, dtype=np.int32)
    for weight, _, chunk in _pnf_codes(n):
        codes, counts = np.unique(chunk, return_counts=True)
        sizes[codes] += weight * counts
    reps = np.flatnonzero(sizes)
    return reps, sizes[reps]


def _code_letters(codes, n: int):
    """The uint8 letters, a row per code, of the words of length ``n`` with
    these codes (see _pnf_codes)."""
    import numpy as np
    code_bytes = codes.astype(">u4")[:, None].view(np.uint8)  # 4 a row
    return np.unpackbits(code_bytes, axis=1)[:, 32 - n:] + ord("a")


def _histogram(tally: Counter) -> dict[int, int]:
    """Classes per size, in size order: the one rule of text and JSON."""
    return dict(sorted(tally.items()))


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
        return _histogram(Counter(self.classes.values()))


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
    for lo in range(0, len(reps), _BATCH_COLUMNS):  # a batch decoded at once
        hi = lo + _BATCH_COLUMNS
        classes.update(zip(_texts(_code_letters(reps[lo:hi], n)),
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
    _check_census_args(n)  # before the normality test reads a longer word
    if not is_prefix_normal(pnf):
        raise ValueError(f"{pnf!r} is not prefix normal")
    f, found = prefix_counts(pnf), []  # f: every member's max-a profile
    caps = [[min(r, v) for v in f] for r in range(f[n] + 1)]  # min(r, f[j])
    def grow(w, s, todo):
        # s[i]: a's in w's last i symbols; todo: the k no factor fills to f[k]
        d, rest = len(w), n - len(w) - 1
        if d == n:  # with no factor above f, its profile is f if todo is []
            found.extend([w] * (not todo))
            return
        for x in 1, 0:  # a before b; cut on a suffix above f, else on r > rest
            t = [0, *[v + 1 for v in s]] if x else [0, *s]
            if x and any(map(gt, t, f)) or (r := f[n] - t[-1]) > rest:
                continue
            g, todo2 = caps[r], [k for k in todo if k > d + 1 or t[k] < f[k]]
            for k in todo2:  # can w's last i symbols and k - i new reach f[k]?
                hi = k - 1 if k <= d + 1 else d + 1
                if t[hi] + g[k - hi] >= f[k]:
                    continue
                for i in range(max(0, k - rest), hi):
                    if t[i] + g[k - i] >= f[k]:
                        break
                else:
                    break
            else:
                grow(w + "ba"[x], t, todo2)

    grow("", [0], range(1, n + 1))
    return found


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


class CellCheck(Record):
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


def verify_tables(max_n: int | None = None,
                  jobs: int = 1) -> VerificationReport:
    """Recompute every reference cell and compare.

    ``max_n`` trims the per-length sequences (counts, max class sizes) for
    quick runs; the fixed-length censuses at n = 4 and n = 8 always run.
    """
    limit = len(PREFIX_NORMAL_COUNTS) if max_n is None else max_n
    if not 1 <= limit <= len(PREFIX_NORMAL_COUNTS):
        raise ValueError(f"max_n must be in 1..{len(PREFIX_NORMAL_COUNTS)}")
    _check_jobs(jobs)
    # the censuses run first, so that the tree counts find numpy loaded
    censuses = [(n, sizes, class_census(n))
                for n, sizes in ((4, CLASS_SIZES_N4), (8, CLASS_SIZES_N8))]
    max_sizes = [max_class_size(n) for n in range(1, limit + 1)]
    cells: list[CellCheck] = []

    for name, counts, found in (
            ("prefix-normal", PREFIX_NORMAL_COUNTS, _tree_counts(limit)),
            ("pre-necklace", PRE_NECKLACE_COUNTS,
             _pre_necklace_counts(limit))):
        cells += [CellCheck(f"{name} count n={n}", counts[n - 1], found[n])
                  for n in range(1, limit + 1)]

    for n, sizes, result in censuses:
        found = result.classes
        cells.append(CellCheck(f"class count n={n}", len(sizes), len(found)))
        cells += [CellCheck(f"class size n={n} {rep}", size, found.get(rep))
                  for rep, size in sorted(sizes.items())]
    hist = result.histogram()  # the n = 8 census, the loop's last
    for size, classes in sorted(CLASS_HISTOGRAM_N8.items()):
        cells.append(CellCheck(f"class histogram n=8 size={size}", classes,
                               hist.get(size)))

    cells += [CellCheck(f"max class size n={n}", MAX_CLASS_SIZES[n - 1],
                        found) for n, found in enumerate(max_sizes, 1)]
    return VerificationReport(cells)


# ---------------------------------------------------------------------------
# The output of the enumerate, classes and verify-tables commands: kept here,
# which only those commands load, so that no other command compiles it


def _columns_table(rows: list[tuple[str, list[object]]]) -> str:
    """Rows of (label, cells) printed as aligned columns."""
    label_w = max(len(label) for label, _ in rows)
    table = [list(map(str, cells)) for _, cells in rows]
    lens = [list(map(len, row)) for row in table]
    widths = list(map(max, lens[0], *lens))  # one-row tables too: max(x, x)
    return "\n".join(
        f"{label.ljust(label_w)}  {'  '.join(map(str.rjust, row, widths))}"
        for (label, _), row in zip(rows, table))


def _write_lines(lines) -> None:
    """Write the iterator ``lines`` to stdout 4096 at a time: unbuffered,
    stdout makes a syscall of every write, and one write would hold all the
    text at once."""
    while block := "".join(islice(lines, 4096)):
        sys.stdout.write(block)


def _class_lines(letters, sizes) -> str:
    """The lines "word size" of the letter rows ``letters`` and their
    sizes, built as one byte array: each size right-aligned on zero bytes,
    which are then dropped."""
    import numpy as np
    m, n = letters.shape
    digits = sizes[:, None] // 10 ** np.arange(len(str(sizes.max())))[::-1]
    lines = np.zeros((m, n + digits.shape[1] + 2), np.uint8)
    lines[:, :n] = letters
    lines[:, n] = ord(" ")
    lines[:, n + 1:-1] = np.where(digits > 0, digits % 10 + ord("0"), 0)
    lines[:, -1] = ord("\n")
    return lines.tobytes().replace(b"\0", b"").decode("ascii")


def _cmd_enumerate(args, print_json) -> int:
    rows = counts_table(args.max_n, what=args.what, jobs=args.jobs)
    if args.format == "json":
        print_json([{"n": r.n, "prefixNormal": r.count_prefix_normal,
                      "preNecklace": r.count_pre_necklace} for r in rows])
    elif args.format == "csv":
        print("n,prefix_normal,pre_necklace")
        for r in rows:
            a = "" if r.count_prefix_normal is None else r.count_prefix_normal
            b = "" if r.count_pre_necklace is None else r.count_pre_necklace
            print(f"{r.n},{a},{b}")
    else:
        table = [("n", [r.n for r in rows])]
        if args.what != "prenecklace":
            table.append(("prefix-normal",
                          [r.count_prefix_normal for r in rows]))
        if args.what != "pnf":
            table.append(("pre-necklace",
                          [r.count_pre_necklace for r in rows]))
        print(_columns_table(table))
    return 0


def _cmd_classes(args, print_json) -> int:
    _check_jobs(args.jobs)  # class_members takes no jobs
    if args.members is not None:
        if args.histogram:
            raise ValueError("--histogram applies to --n, not to --members")
        rep = parse_word(args.members, args.alphabet)
        if args.n is not None and args.n != len(rep):
            raise ValueError(f"--n {args.n} disagrees with the length of "
                             f"{rep!r}")
        members = class_members(rep)
        if args.format == "json":
            print_json({"pnf": rep, "members": members})
        else:
            _write_lines(f"{m}\n" for m in members)
        return 0
    if args.n is None:
        raise ValueError("either --n or --members is required")
    if args.format == "json":  # json.dumps needs the whole document
        result = class_census(args.n)
        doc = {"n": result.n, "classes": result.classes}
        if args.histogram:
            doc["histogram"] = {str(k): v
                                for k, v in result.histogram().items()}
        print_json(doc)
        return 0
    _check_census_args(args.n)  # the text path skips class_census
    reps, sizes = _classes(args.n)
    for lo in range(0, len(reps), _BATCH_COLUMNS):
        hi = lo + _BATCH_COLUMNS
        sys.stdout.write(_class_lines(_code_letters(reps[lo:hi], args.n),
                                      sizes[lo:hi]))
    if args.histogram:
        print("size classes")
        _write_lines(f"{size} {count}\n" for size, count
                     in _histogram(Counter(sizes.tolist())).items())
    return 0


def _cmd_verify_tables(args, print_json) -> int:
    report = verify_tables(max_n=args.max_n, jobs=args.jobs)
    for cell in report.cells:
        if cell.ok:
            print(f"ok   {cell.label}")
        else:
            print(f"FAIL {cell.label}: expected {cell.expected}, "
                  f"got {cell.actual}")
    good = len(report.cells) - len(report.failures)
    print(f"{good}/{len(report.cells)} cells match")
    return 0 if report.all_ok else 1
