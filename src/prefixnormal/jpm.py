"""Jumbled pattern matching index over a binary text.

The index stores, for every factor length k, the maximum and minimum
number of a's over all length-k factors.  Because the a-counts occurring
at a fixed length form a contiguous interval, a Parikh vector (x, y)
occurs in the text iff min_a[x+y] <= x <= max_a[x+y]: two array reads.

The index and the pair of prefix normal forms carry the same information
and convert to each other in one O(n) pass, so two texts have equal factor
Parikh-vector sets exactly when both their normal forms coincide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .pnf import PnfPair
from .profiles import OnesProfile, a_count_bounds
from .words import ParikhVector, prefix_counts, word_from_counts

INDEX_FORMAT_VERSION = 1

DEFAULT_ORACLE_BOUND = 1000


@dataclass(frozen=True)
class JumbledIndex:
    """Constant-time occurrence index: the (max-a, min-a) profile pair.

    Immutable after construction; concurrent queries are plain array reads.
    """

    n: int
    max_a: OnesProfile
    min_a: OnesProfile

    def __post_init__(self):
        if self.max_a.kind != "max-a" or self.min_a.kind != "min-a":
            raise ValueError("index needs a max-a and a min-a profile")
        if self.max_a.n != self.n or self.min_a.n != self.n:
            raise ValueError("profile lengths disagree with text length")
        for k in range(self.n + 1):
            if self.min_a[k] > self.max_a[k]:
                raise ValueError(
                    f"min_a[{k}] = {self.min_a[k]} exceeds "
                    f"max_a[{k}] = {self.max_a[k]}")


def build_index(w: str) -> JumbledIndex:
    """Index ``w`` for Parikh-vector occurrence queries."""
    max_a, min_a = a_count_bounds(w)
    return JumbledIndex(len(w), OnesProfile("max-a", tuple(max_a)),
                        OnesProfile("min-a", tuple(min_a)))


def query(ix: JumbledIndex, q: tuple[int, int]) -> bool:
    """Does some factor of the indexed text have Parikh vector ``q``?

    Constant time.  Vectors longer than the text (and vectors with a
    negative component) occur nowhere and return False.
    """
    x, y = q
    if x < 0 or y < 0:
        return False
    k = x + y
    if k > ix.n:
        return False
    return ix.min_a[k] <= x <= ix.max_a[k]


def index_from_pnf(p: PnfPair) -> JumbledIndex:
    """Rebuild the index from a normal-form pair in one O(n) pass.

    The pair must describe one source word: the a-count of the a-side form
    and the b-count of the b-side form have to sum to the length.
    """
    n = p.source_length
    a_total = p.pnf_a.count("a")
    b_total = p.pnf_b.count("b")
    if a_total + b_total != n:
        raise ValueError(
            f"inconsistent pair: {a_total} a's plus {b_total} b's "
            f"cannot make a word of length {n}")
    # The b-side form has its a's where min-a steps up.
    max_a, min_a = prefix_counts(p.pnf_a), prefix_counts(p.pnf_b)
    return JumbledIndex(n, OnesProfile("max-a", tuple(max_a)),
                        OnesProfile("min-a", tuple(min_a)))


def pnf_from_index(ix: JumbledIndex) -> PnfPair:
    """Read both prefix normal forms off the index.

    The a-side form puts an a at every step of max_a; the b-side form puts
    a b at every step of the b-count profile k - min_a[k].  Exact inverse
    of index_from_pnf.  The pair is checked, as an index may come from a
    file.
    """
    return PnfPair(word_from_counts(ix.max_a.values),
                   word_from_counts(ix.min_a.values))


def parikh_set_equal(w: str, w2: str) -> bool:
    """Do ``w`` and ``w2`` have the same set of factor Parikh vectors?

    Equivalent to both prefix normal forms, that is both indexes,
    coinciding; no factor enumeration happens.
    """
    return a_count_bounds(w) == a_count_bounds(w2)


def parikh_set_oracle(w: str, bound: int = DEFAULT_ORACLE_BOUND) -> set[ParikhVector]:
    """The exact factor Parikh-vector set, by enumerating all O(n^2) factors.

    A brute-force reference for tests and small inputs; refuses words
    longer than ``bound``.
    """
    n = len(w)
    if n > bound:
        raise ValueError(f"word length {n} exceeds oracle bound {bound}")
    pref = prefix_counts(w)
    vectors = {ParikhVector(0, 0)}
    for start in range(n):
        for end in range(start + 1, n + 1):
            a = pref[end] - pref[start]
            vectors.add(ParikhVector(a, end - start - a))
    return vectors


def index_to_json(ix: JumbledIndex) -> str:
    """Serialize to the versioned on-disk JSON form."""
    doc = {
        "version": INDEX_FORMAT_VERSION,
        "n": ix.n,
        "maxA": list(ix.max_a.values),
        "minA": list(ix.min_a.values),
    }
    return json.dumps(doc)


def index_from_json(text: str) -> JumbledIndex:
    """Parse the JSON form back into an index, validating all invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("index document must be a JSON object")
    version = doc.get("version")
    # type() rejects JSON true and false, which isinstance counts as ints
    if type(version) is not int or version != INDEX_FORMAT_VERSION:
        raise ValueError(f"unsupported index version {version!r}")
    try:
        n = doc["n"]
        max_vals = doc["maxA"]
        min_vals = doc["minA"]
    except KeyError as exc:
        raise ValueError(f"index document missing field {exc}") from exc
    if not (type(n) is int and type(max_vals) is list
            and type(min_vals) is list
            and all(type(v) is int for v in max_vals + min_vals)):
        raise ValueError("index fields must be an integer n and integer "
                         "lists maxA and minA")
    return JumbledIndex(n, OnesProfile("max-a", tuple(max_vals)),
                        OnesProfile("min-a", tuple(min_vals)))
