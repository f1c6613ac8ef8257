"""Brute-force reference implementations shared by the test modules.

Everything here works by explicit factor enumeration over string slices or
by rotation comparison, deliberately avoiding the algorithms under test.
The cross-check predicates at the end restate prefix normality in other
terms, and the filter count and Lyndon completion check run the library's
own predicates over every word.
"""

from __future__ import annotations

import random
from itertools import product

from prefixnormal import is_lyndon, is_prefix_normal


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
