"""Reference answers the benchmark checks the CLI's output against.

Nothing here imports the package under test.  Per-word answers come from
implementations written for this directory alone (window counts by numpy,
Lyndon classes by Duval's scan, class members by brute force over all
words); census answers are counts frozen from the seed commit's output.
"""

from __future__ import annotations

import numpy as np

# Counts for n = 1..22 as printed by `enumerate --max-n 22` at the seed.
PREFIX_NORMAL_COUNTS = (
    2, 3, 5, 8, 14, 23, 41, 70, 125, 218, 395, 697, 1273, 2279, 4185, 7568,
    13997, 25500, 47414, 87024, 162456, 299947)
PRE_NECKLACE_COUNTS = (
    2, 3, 5, 8, 14, 23, 41, 71, 127, 226, 412, 747, 1377, 2538, 4720, 8800,
    16510, 31042, 58636, 111013, 210871, 401428)

# `classes --n 20 --histogram` at the seed: sha256 of the whole stdout,
# and the histogram it ends with (class size -> number of classes).
CLASSES_N20_SHA256 = (
    "8910799bead8993987544c1500a154beaa7ac0ff71cb25a05673b6f87e623dba")
CLASS_HISTOGRAM_N20 = {
    1: 166, 2: 13781, 3: 195, 4: 19812, 5: 100, 6: 8044, 7: 65, 8: 12365,
    9: 115, 10: 2412, 11: 24, 12: 8303, 13: 13, 14: 956, 15: 63, 16: 4628,
    17: 7, 18: 1829, 19: 2, 20: 2034, 21: 45, 22: 239, 23: 5, 24: 3413,
    25: 12, 26: 91, 27: 43, 28: 663, 29: 2, 30: 706, 31: 2, 32: 1089,
    33: 18, 34: 75, 35: 10, 36: 1205, 38: 46, 39: 5, 40: 662, 42: 267,
    43: 1, 44: 183, 45: 17, 46: 20, 47: 1, 48: 820, 49: 4, 50: 83, 51: 6,
    52: 50, 54: 189, 55: 5, 56: 174, 58: 8, 60: 328, 62: 8, 63: 9, 64: 152,
    65: 1, 66: 79, 68: 58, 70: 42, 72: 272, 74: 7, 75: 3, 76: 36, 77: 1,
    78: 22, 80: 126, 81: 7, 82: 8, 84: 88, 85: 1, 86: 1, 88: 59, 90: 54,
    92: 7, 93: 1, 96: 95, 97: 1, 98: 5, 99: 4, 100: 30, 102: 24, 104: 12,
    105: 1, 106: 1, 108: 42, 109: 1, 110: 19, 111: 1, 112: 19, 113: 1,
    114: 13, 116: 3, 118: 2, 120: 45, 124: 3, 125: 1, 126: 18, 128: 14,
    130: 2, 132: 27, 134: 1, 135: 2, 136: 11, 140: 9, 141: 1, 142: 1,
    144: 27, 148: 7, 150: 4, 152: 7, 153: 2, 154: 3, 155: 1, 156: 6, 159: 1,
    160: 14, 162: 2, 164: 6, 165: 2, 168: 5, 170: 5, 172: 3, 174: 1, 176: 7,
    180: 6, 184: 1, 186: 1, 188: 2, 190: 1, 192: 7, 194: 1, 198: 1, 200: 5,
    204: 8, 220: 2, 222: 4, 232: 1, 234: 1, 236: 2, 240: 6, 246: 3, 252: 1,
    255: 1, 259: 1, 272: 3, 280: 1, 296: 2, 306: 1, 330: 2, 354: 1, 370: 1,
    420: 1, 492: 1, 596: 1,
}

# `verify-tables` prints one line per reference cell; the seed has 138.
VERIFY_CELLS = 138


def prefix_counts(w: str) -> np.ndarray:
    """p[i] = number of a's among the first i symbols, i = 0..n."""
    p = np.zeros(len(w) + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(w.encode(), dtype=np.uint8) == ord("a"),
              out=p[1:])
    return p


def max_counts(p: np.ndarray) -> np.ndarray:
    """out[k] = max over length-k windows of p[j + k] - p[j], k = 0..n."""
    n = len(p) - 1
    out = np.zeros(n + 1, dtype=np.int64)
    for k in range(1, n + 1):
        out[k] = (p[k:] - p[:n + 1 - k]).max()
    return out


class WordFacts:
    """Everything the per-word CLI commands print, derived from scratch."""

    def __init__(self, w: str):
        n = len(w)
        self.word = w
        self.prefix = prefix_counts(w)
        b_prefix = np.arange(n + 1) - self.prefix
        self.max_a = max_counts(self.prefix)
        self.max_b = max_counts(b_prefix)
        self.min_a = np.arange(n + 1) - self.max_b
        self.pnf_a = "".join("a" if s else "b" for s in np.diff(self.max_a))
        self.pnf_b = "".join("b" if s else "a" for s in np.diff(self.max_b))

    @property
    def is_prefix_normal(self) -> bool:
        return bool((self.max_a == self.prefix).all())

    def witness(self) -> str | None:
        """Shortest factor with more a's than the same-length prefix,
        leftmost among the shortest."""
        bad = np.nonzero(self.max_a > self.prefix)[0]
        if not len(bad):
            return None
        k = int(bad[0])
        p = self.prefix
        start = int(np.argmax(p[k:] - p[:len(p) - k] > p[k]))
        return self.word[start:start + k]

    def occurs(self, x: int, y: int) -> bool:
        k = x + y
        return k <= len(self.word) and self.min_a[k] <= x <= self.max_a[k]


def lyndon_bits(w: str) -> dict[str, bool]:
    """Lyndon / necklace / pre-necklace bits from the first step of
    Duval's factorization: w is a pre-necklace iff the scan reaches the
    end, with period p; a necklace iff p divides n; Lyndon iff p = n."""
    n = len(w)
    j, k = 1, 0
    while j < n and w[k] <= w[j]:
        k = 0 if w[k] < w[j] else k + 1
        j += 1
    period = j - k
    pre = j == n
    necklace = pre and n % period == 0
    return {"is_lyndon": necklace and period == n,
            "is_necklace": necklace,
            "is_pre_necklace": pre}


def all_words_max_counts(n: int) -> np.ndarray:
    """Row c holds the max-a counts (k = 1..n) of the word whose bits are
    c's binary digits, most significant first, with 0 for a."""
    codes = np.arange(1 << n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n - 1, -1, -1)) & 1
    p = np.zeros((1 << n, n + 1), dtype=np.int8)
    np.cumsum(1 - bits, axis=1, out=p[:, 1:])
    out = np.empty((1 << n, n), dtype=np.int8)
    for k in range(1, n + 1):
        out[:, k - 1] = (p[:, k:] - p[:, :n + 1 - k]).max(axis=1)
    return out


def class_members(rep: str) -> list[str]:
    """All words of len(rep) whose a-side normal form is ``rep``, by brute
    force over every word of that length, in lexicographic order."""
    n = len(rep)
    target = prefix_counts(rep)[1:].astype(np.int8)
    hits = np.nonzero((all_words_max_counts(n) == target).all(axis=1))[0]
    return [format(int(c), f"0{n}b").translate(_DECODE) for c in hits]


def all_prefix_normal(words: list[str]) -> bool:
    """Are all the given words (of one length) prefix normal?"""
    if not words:
        return True
    n = len(words[0])
    a = np.frombuffer("".join(words).encode(), dtype=np.uint8)
    a = (a.reshape(len(words), n) == ord("a")).astype(np.int32)
    p = np.zeros((len(words), n + 1), dtype=np.int32)
    np.cumsum(a, axis=1, out=p[:, 1:])
    for k in range(1, n + 1):
        if ((p[:, k:] - p[:, :n + 1 - k]).max(axis=1) > p[:, k]).any():
            return False
    return True


def runs(w: str) -> int:
    """Number of maximal runs of one symbol."""
    return sum(1 for i in range(len(w)) if i == 0 or w[i] != w[i - 1])


_DECODE = str.maketrans("01", "ab")
