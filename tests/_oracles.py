"""Brute-force reference implementations shared by the test modules.

Everything here works by explicit factor enumeration over string slices or
by rotation comparison, deliberately avoiding the algorithms under test.
The cross-check predicates at the end restate prefix normality in other
terms, and the filter count and Lyndon completion check run the library's
own predicates over every word.  The depth-first tree walkers at the end
enumerate both languages one node at a time, independently of the
level-by-level frontier the library counts with.  The two formatters
at the very end print the profile table and the region SVG one cell and
one point at a time, and ``assert_same_text`` compares their output.
"""

from __future__ import annotations

import os
import random
from itertools import product
from typing import Iterator

import pytest

from prefixnormal import geometry, is_lyndon, is_prefix_normal, word_path
from prefixnormal.lyndon import _lyndon_prefix_period
from prefixnormal.pnf import _a_extends
from prefixnormal.words import prefix_counts, word_from_counts


def words_of_length(n: int):
    """All a/b words of length n, lexicographically."""
    for tup in product("ab", repeat=n):
        yield "".join(tup)


def words_up_to(max_n: int):
    for n in range(max_n + 1):
        yield from words_of_length(n)


def factors(w: str):
    for i in range(len(w)):
        for j in range(i + 1, len(w) + 1):
            yield w[i:j]


def brute_max_profile(w: str, symbol: str) -> list[int]:
    vals = [0] * (len(w) + 1)
    for f in factors(w):
        c = f.count(symbol)
        if c > vals[len(f)]:
            vals[len(f)] = c
    return vals


def brute_min_a_profile(w: str) -> list[int]:
    vals = list(range(len(w) + 1))
    vals[0] = 0
    for f in factors(w):
        c = f.count("a")
        if c < vals[len(f)]:
            vals[len(f)] = c
    return vals


def brute_window_max(rows) -> list[list[int]]:
    """out[r][k] = max over j of rows[r][j + k] - rows[r][j], one length k
    at a time, scanning every window."""
    return [[max(p[j + k] - p[j] for j in range(len(p) - k))
             for k in range(len(p))] for p in rows]


def scan_window_max(rows) -> list[list[int]]:
    """brute_window_max with each length's windows scanned by one int64
    numpy reduction, for words too long for the pure-Python scan."""
    import numpy as np
    out = []
    for p in rows:
        q = np.asarray(p, dtype=np.int64)
        out.append([0, *(int((q[k:] - q[:-k]).max())
                         for k in range(1, len(q)))])
    return out


def excess_by_scan(w: str) -> tuple[int, str | None]:
    """The first length k at which scan_window_max exceeds the prefix
    a-counts of ``w`` (0 if none does), and the leftmost factor of that
    length with more a's than the prefix (None if k is 0)."""
    p = prefix_counts(w)
    (max_a,) = scan_window_max([p])
    k = next((k for k in range(1, len(p)) if max_a[k] > p[k]), 0)
    if not k:
        return 0, None
    start = next(s for s in range(len(w) - k + 1) if p[s + k] - p[s] > p[k])
    return k, w[start:start + k]


def brute_is_prefix_normal(w: str) -> bool:
    return all(f.count("a") <= w[:len(f)].count("a") for f in factors(w))


def brute_normality_witness(w: str) -> str | None:
    """Shortest, then leftmost, factor with more a's than the prefix."""
    for k in range(1, len(w) + 1):
        bound = w[:k].count("a")
        for start in range(len(w) - k + 1):
            if w[start:start + k].count("a") > bound:
                return w[start:start + k]
    return None


def brute_parikh_set(w: str) -> set[tuple[int, int]]:
    vectors = {(0, 0)}
    for f in factors(w):
        a = f.count("a")
        vectors.add((a, len(f) - a))
    return vectors


def brute_is_lyndon(w: str) -> bool:
    """Strictly smallest among all rotations (hence primitive)."""
    return bool(w) and all(w < w[i:] + w[:i] for i in range(1, len(w)))


def brute_pre_necklaces(max_n: int) -> set[str]:
    """Every prefix, up to length max_n, of a power of a Lyndon word."""
    out = {""}
    for n in range(1, max_n + 1):
        for u in words_of_length(n):
            if brute_is_lyndon(u):
                power = u * (max_n // n + 1)
                for k in range(1, max_n + 1):
                    out.add(power[:k])
    return out


def random_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice("ab") for _ in range(length))


def with_prefix_pasted(rng: random.Random, pnf: str) -> str:
    """``pnf``, a prefix normal word of 16 or more symbols, with a stretch
    of its second half overwritten by a prefix u of it and one more a,
    where u is followed by a b in ``pnf``: ua then has more a's than the
    prefix of its length, so the word is not prefix normal."""
    n = len(pnf)
    u = pnf[:rng.choice([m for m in range(n // 16, n // 4)
                         if pnf[m] == "b"])]
    i = rng.randrange(n // 2, n - len(u))
    return pnf[:i] + u + "a" + pnf[i + len(u) + 1:]


def _a_counts(w: str) -> list[int]:
    p = [0] * (len(w) + 1)
    for i, ch in enumerate(w):
        p[i + 1] = p[i] + (ch == "a")
    return p


def check_prefix_subadditivity(w: str) -> bool:
    """P(j) - P(i) <= P(j-i) for all 0 <= i <= j, over prefix a-counts.

    Holds exactly on prefix normal words; a cross-check predicate.
    """
    n = len(w)
    p = _a_counts(w)
    return all(
        p[j] - p[i] <= p[j - i]
        for j in range(n + 1) for i in range(j + 1))


def check_factor_select_bound(w: str) -> bool:
    """Every factor containing i >= 1 a's spans at least pos(i) positions,
    where pos(i) is the position of the i-th a.

    Holds exactly on prefix normal words; a cross-check predicate.
    """
    pos = [i + 1 for i, ch in enumerate(w) if ch == "a"]
    n = len(w)
    p = _a_counts(w)
    for start in range(n):
        for end in range(start + 1, n + 1):
            i = p[end] - p[start]
            if i >= 1 and end - start < pos[i - 1]:
                return False
    return True


def count_prefix_normal_by_filter(n: int) -> int:
    """Counting by filter: test all 2^n words one by one."""
    if n < 0:
        raise ValueError("length must be non-negative")
    return sum(is_prefix_normal(w) for w in words_of_length(n))


def lyndon_completion_check(w: str) -> bool:
    """Whether w·b^len(w) is a Lyndon word.

    Requires at least one a in ``w``.  Guaranteed true when ``w`` is prefix
    normal; for other words the outcome carries no contract.
    """
    if "a" not in w:
        raise ValueError("word must contain at least one 'a'")
    return is_lyndon(w + "b" * len(w))


# ---------------------------------------------------------------------------
# Tree-walk enumeration
#
# A walker yields (depth, state) at every node under ``root`` down to depth
# ``max_n``, in lexicographic preorder.  The state, one buffer written in
# place and valid until the walker resumes, holds the path: the walk's
# stack.  A node descends to its a-child if any, else its b-child; only an
# a has a next sibling, so after a leaf the deepest a below root turns b.

def pn_walk(root: str, max_n: int) -> Iterator[tuple[int, list[int]]]:
    """Prefix normal words; the state is the prefix a-count list, whose
    entries 0..depth belong to the current word."""
    depth = top = len(root)
    prefix = prefix_counts(root) + [0] * (max_n - top)
    while True:
        yield depth, prefix
        if depth < max_n:
            prefix[depth + 1] = prefix[depth] + _a_extends(prefix, depth)
            depth += 1
            continue
        while depth > top and prefix[depth] == prefix[depth - 1]:
            depth -= 1
        if depth == top:
            return
        prefix[depth] -= 1


def pl_walk(root: str, max_n: int) -> Iterator[tuple[int, list[str]]]:
    """Pre-necklaces; the state is the symbol list, word[1..depth] the
    current word and word[0] a sentinel a.  word[1..d], with Lyndon
    prefix-period p = period[d], extends by word[d + 1 - p], keeping p, and
    if that is an a also by b, with period d + 1.  The empty word has
    period 1 and reads the sentinel, so it has both children."""
    depth = top = len(root)
    word = ["a", *root] + ["a"] * (max_n - top)
    period = [0] * (max_n + 1)
    period[top] = _lyndon_prefix_period(root)
    while True:
        yield depth, word
        if depth < max_n:
            depth += 1
            word[depth] = word[depth - period[depth - 1]]
            period[depth] = period[depth - 1]
            continue
        while depth > top and word[depth] == "b":
            depth -= 1
        if depth == top:
            return
        word[depth] = "b"
        period[depth] = depth


# kind -> (walker, word of a state at the walker's full depth)
WALKS = {"pn": (pn_walk, word_from_counts),
         "pl": (pl_walk, lambda word: "".join(word[1:]))}


def subtree_counts(kind: str, root: str, max_n: int) -> list[int]:
    """Nodes per depth of the ``kind`` tree under ``root``, root included."""
    counts = [0] * (max_n + 1)
    for depth, _ in WALKS[kind][0](root, max_n):
        counts[depth] += 1
    return counts


def walk_words(kind: str, n: int) -> list[str]:
    """The words of length ``n`` in the ``kind`` tree, in walk order."""
    walk, decode = WALKS[kind]
    return [decode(state) for depth, state in walk("", n) if depth == n]


def profile_table_by_cells(max_a: list[int], max_b: list[int]) -> str:
    """The ``profiles`` text table with every cell formatted and padded on
    its own to the widest cell of its column."""
    rows = [("k", list(range(len(max_a)))), ("F_a", max_a), ("F_b", max_b)]
    label_w = max(len(label) for label, _ in rows)
    table = [[str(cell) for cell in cells] for _, cells in rows]
    widths = [max(len(row[k]) for row in table) for k in range(len(max_a))]
    return "\n".join(
        label.ljust(label_w) + "  "
        + "  ".join(cell.rjust(wd) for cell, wd in zip(row, widths))
        for (label, _), row in zip(rows, table))


def svg_by_points(reg, w: str, unit: int = 16,
                  suffix_paths: bool = False) -> str:
    """``reg.svg(w, unit, suffix_paths)`` with every point mapped to pixels
    and formatted on its own, and every suffix path drawn from its own
    ``word_path``."""
    n, pad = len(w), 1
    y_hi, y_lo = max(reg.upper), min(reg.lower)
    width = (n + 2 * pad) * unit
    height = (y_hi - y_lo + 2 * pad) * unit

    def px(x: int, y: int) -> tuple[int, int]:
        return (pad + x) * unit, (pad + y_hi - y) * unit

    def polyline(points, style: str) -> str:
        coords = " ".join(f"{x},{y}" for x, y in points)
        return f'<polyline points="{coords}" style="{style}"/>'

    upper_pts = [px(k, y) for k, y in enumerate(reg.upper)]
    lower_pts = [px(k, y) for k, y in enumerate(reg.lower)]
    polygon = " ".join(f"{x},{y}" for x, y in upper_pts + lower_pts[::-1])
    (ax0, ay0), (ax1, _) = px(0, 0), px(n, 0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<polygon points="{polygon}" style="{geometry._STYLE_REGION}"/>',
        f'<line x1="{ax0}" y1="{ay0}" x2="{ax1}" y2="{ay0}" '
        f'style="{geometry._STYLE_AXIS}"/>',
    ]
    if suffix_paths:
        for start in range(1, n):
            parts.append(polyline([px(x, y) for x, y in word_path(w[start:])],
                                  geometry._STYLE_SUFFIX))
    parts.append(polyline(upper_pts, geometry._STYLE_UPPER))
    parts.append(polyline(lower_pts, geometry._STYLE_LOWER))
    parts.append(polyline([px(x, y) for x, y in word_path(w)],
                          geometry._STYLE_WORD))
    parts.append(f'<circle cx="{ax0}" cy="{ay0}" r="3" fill="#000000"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """Fail naming the first byte where ``got`` and ``want`` differ:
    pytest's own report on two unequal lines of 10^4 cells or points each
    takes minutes."""
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        lo = max(i - 40, 0)
        pytest.fail(f"text differs at byte {i}: {got[lo:i + 40]!r} != "
                    f"{want[lo:i + 40]!r}")
