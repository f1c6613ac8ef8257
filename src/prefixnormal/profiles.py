"""Per-length factor statistics of a binary word.

For a word w and every length k, the three profiles computed here are the
maximum number of a's over all length-k factors (max-a), the analogous
maximum for b (max-b), and the minimum number of a's (min-a).  A profile is
stored as the plain integer array values[0..n] so downstream consumers can
answer length-indexed questions with one array read.

All come from one kernel over a batch of prefix-count rows: a word's a-
and b-counts are a batch of two, a census chunk a batch of 2^14 words.
Both paths slide windows only from the starts of runs, since a best
window can always be moved onto a run start or onto a suffix: O(n * rho)
for a word with rho runs.  A word slides on one Python int per row, a
field per window length, while _room leaves it packed work; other words
and batches slide in numpy passes over as many run starts as fit a budget.

Prefix normality (first_excess) is decided without a profile, from the
pair inequality p[s + k] <= p[s] + p[k] at the 1-run starts s.  Long words
bound it for a block of lengths at a time and compare exactly only inside
the blocks whose bound fails: on the normal forms of random texts of 10^4
symbols, 7 in 10^4 blocks, so their index files are checked packed.
"""

from __future__ import annotations

from math import isqrt
from operator import gt, sub
from struct import pack, unpack

from .words import Record, complement, complement_counts, prefix_counts

_PACKED_FIELDS, _PACKED_STARTS, _packed_spent = 10 << 20, 512, 0  # _room
_EXIT_FIELDS = 1 << 16  # how far a row's exact work may pass its block work
_BLOCK_BUDGET = 1 << 16  # elements _slide gathers per pass

_KINDS = ("max-a", "min-a", "max-b")


class OnesProfile(Record):
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
        self.__dict__["values"] = v = tuple(self.values)  # hashable
        if not v or v[0] != 0:
            raise ValueError("profile must start with values[0] = 0")
        if not {0, 1}.issuperset(map(sub, v[1:], v[:-1])):  # at C speed
            k = next(k for k in range(1, len(v))
                     if v[k] - v[k - 1] not in (0, 1))
            raise ValueError(f"profile step at k={k} is {v[k] - v[k - 1]}, "
                             "expected 0 or 1")

    @property
    def n(self) -> int:
        """Length of the profiled word."""
        return len(self.values) - 1

    def __getitem__(self, k: int) -> int:
        return self.values[k]


def _trusted(cls, **fields):
    """A ``cls`` holding ``fields``, its checks skipped: only for values valid
    by construction, from one kernel call on a word or a checked index."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_bounds(max_a, min_a):
    """Raise ValueError unless an index's rows max_a and min_a of length
    n + 1 make a word of length n and min_a never passes max_a."""
    n = len(max_a) - 1
    a_total, b_total = max_a[n], n - min_a[n]
    if a_total + b_total != n:  # one window of length n
        raise ValueError(f"inconsistent index: {a_total} a's plus "
                         f"{b_total} b's cannot make a word of length {n}")
    if any(map(gt, min_a, max_a)):  # C speed
        k = next(k for k in range(n + 1) if min_a[k] > max_a[k])
        raise ValueError(f"min_a[{k}] = {min_a[k]} "
                         f"exceeds max_a[{k}] = {max_a[k]}")


def _room(n, spend=0):
    """The packed-work fields left to a row of n symbols once it is charged
    ``spend``: window_max and first_excess route a row by this alone.  8-bit
    rows (n < 128) see the whole ledger and are never charged; rows of 32768
    symbols or more get none; 16-bit rows share _PACKED_FIELDS, numpy's import
    time (35-41 ms) at first_excess's 3.1-3.4 ns a field, a slide start taking
    1/_PACKED_STARTS (packed vs numpy on two rows: 37/55 us at n = 64, 630/31
    ms on a random 1.6*10^4).  A charge of it all closes it, at any n."""
    global _packed_spent
    width = _count_dtype(n)
    if width == "int16" or spend == _PACKED_FIELDS:
        _packed_spent = min(_packed_spent + spend, _PACKED_FIELDS)
    return (_PACKED_FIELDS if width == "int8" else
            _PACKED_FIELDS - _packed_spent if width == "int16" else 0)


def window_max(rows):
    """out[r][k] = max over j of rows[r][j + k] - rows[r][j], k = 0..n.

    ``rows`` are the prefix-count lists of one word, each of length n + 1
    and stepping by 0 or 1, each slid on its own; the result is lists of
    ints.
    """
    n = len(rows[0]) - 1
    if (room := _room(n)) > 0:
        packs = list(map(_packed, rows))
        fields = sum(m.count(b"\0\1") for *_, m in packs) * (
            _PACKED_FIELDS // _PACKED_STARTS)
        if fields <= room:
            _room(n, fields)
            return list(map(_packed_slide, rows, packs))
    return [_slide(p)[:, 0].tolist() for p in rows]


def _packed(p):
    """p's struct format, field width w, p as one int with p[k] in field k,
    ones (1 in each field) and marks, where b"\0\1" at s is a 1-run start."""
    w = 8 if _count_dtype(len(p) - 1) == "int8" else 16  # by n, as _slide
    fmt = f"<{len(p)}{'B' if w == 8 else 'H'}"  # little-endian
    v = int.from_bytes(pack(fmt, *p), "little")
    ones = int.from_bytes(b"\1\0"[:w // 8] * len(p), "little")
    steps = v - (v << w & (1 << w * len(p)) - 1)  # never borrows
    return fmt, w, v, ones, steps.to_bytes(len(p) * w // 8, "little")[::w // 8]


def _packed_slide(p, packed):
    """window_max of count list p, packed = _packed(p): out starts as the
    suffix counts, then takes per 1-run start s the fieldwise max with D[k]
    = p[s + k] - p[s] (0 past n - s), by the high bit of out + 2^(w-1) - D."""
    fmt, w, v, ones, marks = packed
    high, fill = ones << w - 1, (1 << w) - 1
    out = p[-1] * ones - int.from_bytes(pack(fmt, *p[::-1]), "little")
    s = -1
    while (s := marks.find(b"\0\1", s + 1)) >= 0:
        d = (v >> w * s) - p[s] * (ones >> w * s)
        out = d ^ ((out ^ d) & ((((out | high) - d) & high) >> w - 1) * fill)
    return list(unpack(fmt, out.to_bytes(len(p) * w // 8, "little")))


def first_excess(p):
    """The shortest length k at which a factor has more a's than p[k], or 0.

    p[s + k] <= p[s] + p[k] is symmetric in s and k, so a shortest failing
    window starts at t >= k, on an a (else one symbol less fails); slid
    left over each a after an a, it still fails, up to a 1-run start t.
    Lengths k <= k0 = 2B + 1, B = isqrt(n) // 8 or 1, take a C-speed pass
    each.  Then each 1-run start t bounds k <= min(t, n - t, best - 1) a
    block of lengths [jB, jB + B) at a time: p[t + k] - p[t] - p[k] <=
    p[t + jB + B - 1] - p[t] - p[jB], all j at once on fields as in
    _packed_slide (field j of packs[t % B] >> w * (t // B) holds p[t + jB
    + B - 1], p[n] past n), where 2^(w-1) + p[jB] + p[t] minus that field
    loses its high bit.  At B = 1 that is the exact test; else the span of
    the blocks that fail it is compared exactly, from byte slices of p.
    A row goes packed if its _room holds its estimated block work, and is
    charged as it leaves.  It leaves for numpy before exact work would pass
    its room, pass its block work by _EXIT_FIELDS or take its cost past its
    estimate plus _EXIT_FIELDS, these two only if the room would not hold
    it at B = 1: so a balanced word, whose blocks all fail the bound,
    leaves early.  Other rows compare _slide with p."""
    n = len(p) - 1
    B = isqrt(n) >> 3 or 1  # so 8-bit rows (n < 128) take B = 1
    if (room := _room(n)) <= 0:
        return _slid_excess(p)
    _, w, v, ones, marks = _packed(p)
    starts = marks.count(b"\0\1")
    est, worst = starts * (n // 2 // B + 256), starts * (n // 2 + 256)
    if (room := room - est) < 0:  # room is now for exact work
        return _slid_excess(p)
    allow = worst if worst <= room else _EXIT_FIELDS  # worst: at B = 1
    spare, stop, used = -allow, est + allow, 0
    top = v | (high := ones << w - 1)  # 2^(w-1) + p[k] in field k
    k0 = 2 * B + 1  # 3 at B = 1; k <= k0 covers blocks 0 and 1
    for k in range(1, min(n, k0) + 1):  # every window of length k
        fit = high >> w * k  # fields 0..n-k; the others overflow
        if (top + p[k] * ones - (v >> w * k)) & fit != fit:
            return k
    ones &= (1 << w * (n // B + 1)) - 1  # a field per block from here
    top, packs = v, [v]
    if B > 1:  # top: p[jB] in field j (then p[n]); packs as above
        s, pb = p + p[-1:] * (B - 1), v.to_bytes(2 * n + 2, "little")
        rs = (0, *range(B - 1, 2 * B - 1))
        top, *packs = [int.from_bytes(pack(f"<{len(q)}H", *q), "little")
                       for q in (s[r::B] for r in rs)]
    # 2^(w-1) + p[jB] in field j, and 2B more in blocks 0 and 1, so that
    # these, decided above, never fail the bound
    top = (top | ones << w - 1) + 2 * B * (ones & (1 << 2 * w) - 1)
    best, t = n + 1, 0
    while best > k0 + 1 and (t := marks.find(b"\0\1", t + 1)) > 0:
        k = t if t + t < n else n - t  # min() is slower
        k = k if k < best else best - 1
        used += k // B + 256
        fields = (1 << w * (k // B + 1)) - 1
        x = ((top & fields) - (packs[t % B] >> w * (t // B) & fields)
             + p[t] * (ones & fields))
        if miss := (x & high) ^ (high & fields):
            j = (miss & -miss).bit_length() // w - 1
            if B > 1:  # blocks j.. fail the bound: compare their span
                lo, hi = j * B, min(miss.bit_length() // w * B, k + 1)
                c = hi - lo + 256
                room, spare = room - c, spare + 2 * c
                if room < 0 or not spare <= used + c <= stop:
                    _room(n, used)
                    return _slid_excess(p)
                used += c
                h = high >> w * (n + 1 - hi + lo)  # fields 0..hi-lo-1
                miss = h ^ h & ((int.from_bytes(pb[2 * lo:2 * hi], "little")
                                 | h) + p[t] * (h >> w - 1) - int.from_bytes(
                                     pb[2 * (t + lo):2 * (t + hi)], "little"))
                j = lo + (miss & -miss).bit_length() // w - 1 if miss else best
            best = j
    _room(n, used)
    return best % (n + 1)


def _slid_excess(p):
    """first_excess read off the numpy slide, which closes the ledger: the
    first k whose max exceeds p[k] (argmax of no excess is 0), whatever
    sequence type p is."""
    return int((_slide(p)[:, 0] > p).argmax())


def _count_dtype(n: int) -> str:  # the narrowest signed dtype for 0..n
    return "int8" if n < 128 else "int16" if n < 32768 else "int32"


def _slide(q):
    """window_max down each column of q, a count list or an (n + 1, m)
    array, as one C-ordered block in _count_dtype(n), not copied if q is
    one.  A best window that starts on a 0-step and is not a suffix slides
    right without losing count; one that starts on a 1-step after another
    1-step slides left without losing count.  So the suffixes and the
    windows from the starts of 1-runs, in any column, reach every max.
    A pass reduces the next max(1, _BLOCK_BUDGET // (L * m)) starts, L
    windows each, read from win[s, k] = q[s + k] over q padded below with
    -1: a padded window's -1 - q[s] >= -1 - n fits and never wins."""
    import numpy as np
    _room(len(q) - 1, _PACKED_FIELDS)  # numpy is loaded: close the ledger
    q = np.ascontiguousarray(q, _count_dtype(len(q) - 1)).reshape(len(q), -1)
    n1, m = q.shape
    out = q[-1] - q[::-1]
    steps = np.diff(q, axis=0)
    steps[1:] &= 1 - steps[:-1]  # keep the first step of each 1-run
    starts = np.flatnonzero(steps.any(axis=1))
    i, win = 0, None
    while i < len(starts):
        L = n1 - int(starts[i])
        block = starts[i:i + max(1, _BLOCK_BUDGET // (L * m))]
        i += len(block)
        if len(block) > 1 and win is None:
            pad = np.concatenate((q, np.full((n1 - 1, m), -1, q.dtype)))
            win = np.ndarray((n1, *q.shape), q.dtype, pad,
                             strides=(pad.strides[0], *pad.strides))
        # a pass's temporary is freed in the call, so the next pass reuses it
        np.maximum(out[:L], (win[block, :L] - q[block, None]).max(axis=0)
                   if len(block) > 1 else q[-L:] - q[-L], out=out[:L])
    return out


def _maxima(w: str) -> list[list[int]]:
    """The max-a and max-b values of ``w`` from one kernel call."""
    counts = prefix_counts(w)
    return window_max([counts, complement_counts(counts)])


def a_count_bounds(w: str) -> tuple[list[int], list[int]]:
    """The max-a and min-a values of ``w`` from one kernel call."""
    max_a, max_b = _maxima(w)
    return max_a, complement_counts(max_b)


def max_a_profile(w: str) -> OnesProfile:
    """Maximum number of a's in a factor, for every factor length."""
    (values,) = window_max([prefix_counts(w)])
    return _trusted(OnesProfile, kind="max-a", values=tuple(values))


def max_b_profile(w: str) -> OnesProfile:
    """Maximum number of b's in a factor, for every factor length.

    Equals the max-a profile of the complement word.
    """
    return _trusted(OnesProfile, kind="max-b",
                    values=max_a_profile(complement(w)).values)


def min_a_profile(w: str) -> OnesProfile:
    """Minimum number of a's in a factor, for every factor length.

    A window of length k holding the most b's holds the fewest a's, so
    values[k] = k - max_b[k].
    """
    return _trusted(OnesProfile, kind="min-a",
                    values=tuple(complement_counts(max_b_profile(w).values)))
