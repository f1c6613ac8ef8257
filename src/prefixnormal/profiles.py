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
field per window length: 8 bits below n = 128, and 16 bits below 32768
while the run starts the process slid so fit a ledger.  Other words and
batches slide in vectorized passes over as many run starts as fit an
element budget, on a block stored window axis first in a narrow dtype.
"""

from __future__ import annotations

from operator import sub
from struct import pack, unpack

from .words import Record, complement, complement_counts, prefix_counts

# Packed vs numpy _slide on two rows: 37/55 us at n = 64, 5/1.7 ms at 10^4
# in few runs, 630/31 for a random 1.6*10^4; first_excess keeps up packed.
# So 16-bit words go packed while a ~20 ms ledger (numpy's import: ~41)
# lasts: a compared field 4.4 ns, a 1-run start 256, a slide start 1/512.
_PACKED_FIELDS, _PACKED_STARTS, _packed_spent = 9 << 19, 512, 0
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
        v = self.values
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
    """A ``cls`` holding ``fields``, its checks skipped: only for values
    made from one kernel call on a word, which are valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def window_max(rows):
    """out[r][k] = max over j of rows[r][j + k] - rows[r][j], k = 0..n.

    ``rows`` are prefix-count rows of length n + 1, each stepping by 0 or
    1: a list of lists (the rows of one word, each slid as its own block;
    the result is lists of ints) or an (m, n + 1) integer array, slid as
    the one (n + 1, m) block rows.T (the result is an array of its dtype).
    """
    global _packed_spent
    if not isinstance(rows, list):
        return _slide(rows.T).T.astype(rows.dtype, copy=False)
    n = len(rows[0]) - 1
    if n < 128 or n < 32768 and _packed_spent < _PACKED_FIELDS:
        packs = list(map(_packed, rows))
        fields = (n >= 128) * sum(m.count(b"\0\1") for *_, m in packs) * (
            _PACKED_FIELDS // _PACKED_STARTS)
        if _packed_spent + fields <= _PACKED_FIELDS:
            _packed_spent += fields
            return list(map(_packed_slide, rows, packs))
    return [_slide(p)[:, 0].tolist() for p in rows]


def _packed(p):
    """p's struct format and field width w, p as one int with p[k] in field
    k, and its steps after a 0 byte, where b"\0\1" at s marks a 1-run start."""
    w = 8 if _count_dtype(len(p) - 1) == "int8" else 16  # by n, as _slide
    fmt = f"<{len(p)}{'B' if w == 8 else 'H'}"  # little-endian
    v = int.from_bytes(pack(fmt, *p), "little")
    steps = v - (v << w & (1 << w * len(p)) - 1)  # never borrows
    return fmt, w, v, steps.to_bytes(len(p) * w // 8, "little")[::w // 8]


def _packed_slide(p, packed):
    """window_max of count list p, n < 32768, packed = _packed(p): on ints
    with p[k] in field k of w = 8 (n < 128) or 16 bits, out starts as the
    suffix counts, then takes per 1-run start s the fieldwise max with D[k]
    = p[s + k] - p[s] (0 past n - s), by the high bit of out + 2^(w-1) - D."""
    fmt, w, v, marks = packed
    ones = int.from_bytes(b"\1\0"[:w // 8] * len(p), "little")
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
    Past a C-speed pass per k <= 3, each 1-run start t compares fields
    k <= min(t, n - t, best - 1) at once, as in _packed_slide: 2^(w-1) +
    p[k] + p[t] - p[t + k] loses its high bit where the window fails.
    Words of 16-bit fields do so while the ledger lasts; then they, like
    longer words, compare _slide with p."""
    global _packed_spent
    n = len(p) - 1
    if rent := n < 128 or n < 32768 and _packed_spent < _PACKED_FIELDS:
        _, w, v, marks = _packed(p)
        rent = n < 128 or _PACKED_FIELDS >= (
            _packed_spent + marks.count(b"\0\1") * (n // 2 + 256))
    if not rent:
        max_a = _slide(p)[:, 0].tolist()
        if max_a == p:
            return 0
        return next(k for k, m in enumerate(max_a) if m > p[k])  # stops early
    ones = int.from_bytes(b"\1\0"[:w // 8] * (n + 1), "little")
    top = v | (high := ones << w - 1)  # 2^(w-1) + p[k] in field k
    for k in range(1, min(n, 3) + 1):  # every window of length k
        fit = high >> w * k  # fields 0..n-k; the others overflow
        if (top + p[k] * ones - (v >> w * k)) & fit != fit:
            return k
    best, t = n + 1, 0
    while best > 4 and (t := marks.find(b"\0\1", t + 1)) > 0:  # 4 is final
        k = t if t + t < n else n - t  # min() is slower
        k = k if k < best else best - 1
        _packed_spent += (n >= 128) * (k + 256)  # 8-bit rows rent free
        fields = (1 << w * (k + 1)) - 1
        x = (top & fields) - (v >> w * t & fields) + p[t] * (ones & fields)
        if miss := (x & high) ^ (high & fields):
            best = (miss & -miss).bit_length() // w - 1
    return best % (n + 1)


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
    global _packed_spent
    import numpy as np
    _packed_spent = _PACKED_FIELDS  # numpy is loaded: stop renting
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
