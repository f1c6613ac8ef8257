"""Lattice-path view of a word and of its factor Parikh-vector region.

A word draws as a path from the origin: each a steps one unit up-right,
each b one unit down-right, so after i symbols the path sits at
(i, a-count minus b-count).  Drawing every suffix the same way sweeps out
a region; its column x holds exactly the heights y reachable by factors of
length x, i.e. the points with lower[x] <= y <= upper[x] and x = y (mod 2).
Such a point corresponds to the factor Parikh vector
((x + y) / 2, (x - y) / 2), and the boundaries are the paths of the two
prefix normal forms: upper[k] = 2*max_a[k] - k, lower[k] = 2*min_a[k] - k.

The SVG and CSV emitters are deterministic: same word and options, same
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profiles import a_count_bounds
from .words import ParikhVector, prefix_counts

RENDER_BOUND = 10_000

_STYLE_REGION = "fill:#cfe3f5;stroke:none"
_STYLE_SUFFIX = "fill:none;stroke:#9aa7b0;stroke-width:1"
_STYLE_UPPER = "fill:none;stroke:#1f77b4;stroke-width:2"
_STYLE_LOWER = "fill:none;stroke:#2ca02c;stroke-width:2"
_STYLE_WORD = "fill:none;stroke:#000000;stroke-width:2"
_STYLE_AXIS = "stroke:#d0d0d0;stroke-width:1"


def word_path(w: str) -> list[tuple[int, int]]:
    """Lattice points of the word's path, starting at the origin."""
    return [(i, 2 * c - i) for i, c in enumerate(prefix_counts(w))]


@dataclass(frozen=True)
class RegionProfile:
    """Column-wise bounds of the factor region.

    upper[x] and lower[x] are the highest and lowest path heights over
    factors of length x; both boundaries move by exactly one unit per
    column.
    """

    upper: tuple[int, ...]
    lower: tuple[int, ...]

    def __post_init__(self):
        if len(self.upper) != len(self.lower):
            raise ValueError("boundary lengths differ")
        if not self.upper or self.upper[0] != 0 or self.lower[0] != 0:
            raise ValueError("boundaries must start at the origin")
        for k in range(1, len(self.upper)):
            if abs(self.upper[k] - self.upper[k - 1]) != 1:
                raise ValueError(f"upper boundary step at {k} is not a "
                                 "unit diagonal")
            if abs(self.lower[k] - self.lower[k - 1]) != 1:
                raise ValueError(f"lower boundary step at {k} is not a "
                                 "unit diagonal")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("lower boundary exceeds upper boundary")

    @property
    def n(self) -> int:
        return len(self.upper) - 1

    def contains(self, x: int, y: int) -> bool:
        """Is (x, y) a factor Parikh-vector point of the region?"""
        if not 0 <= x <= self.n or (x - y) % 2:
            return False
        return self.lower[x] <= y <= self.upper[x]

    def parikh_at(self, x: int, y: int) -> ParikhVector:
        """Parikh vector named by the lattice point (x, y)."""
        if (x - y) % 2:
            raise ValueError(f"({x}, {y}) has odd parity, no Parikh vector")
        return ParikhVector((x + y) // 2, (x - y) // 2)


def region(w: str) -> RegionProfile:
    """Factor region of ``w`` bounded by the two normal-form paths."""
    max_a, min_a = a_count_bounds(w)
    return RegionProfile(
        upper=tuple(2 * v - k for k, v in enumerate(max_a)),
        lower=tuple(2 * v - k for k, v in enumerate(min_a)),
    )


def region_csv(w: str) -> str:
    """CSV of the region: k, upper_y, lower_y, F_a, f_a."""
    reg = region(w)
    lines = ["k,upper_y,lower_y,F_a,f_a"]
    for k, (hi, lo) in enumerate(zip(reg.upper, reg.lower)):
        lines.append(f"{k},{hi},{lo},{(hi + k) // 2},{(lo + k) // 2}")
    return "\n".join(lines) + "\n"


def _polyline(points: list[tuple[int, int]], style: str) -> str:
    coords = " ".join(f"{x},{y}" for x, y in points)
    return f'<polyline points="{coords}" style="{style}"/>'


def render_svg(w: str, unit: int = 16, suffix_paths: bool = False) -> str:
    """Deterministic SVG of the word path and its factor region.

    Draws the filled region polygon, the two boundary paths (the normal
    forms), the word's own path, and optionally every suffix path.
    """
    n = len(w)
    if n > RENDER_BOUND:
        raise ValueError(f"word length {n} exceeds render bound "
                         f"{RENDER_BOUND}")
    if unit < 1:
        raise ValueError("unit must be a positive integer")
    reg = region(w)
    pad = 1
    y_hi = max(reg.upper)
    y_lo = min(reg.lower)
    width = (n + 2 * pad) * unit
    height = (y_hi - y_lo + 2 * pad) * unit

    def px(x: int, y: int) -> tuple[int, int]:
        # y axis flipped: more a's renders upward
        return (pad + x) * unit, (pad + y_hi - y) * unit

    upper_pts = [px(k, y) for k, y in enumerate(reg.upper)]
    lower_pts = [px(k, y) for k, y in enumerate(reg.lower)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
    ]
    polygon = " ".join(f"{x},{y}" for x, y in upper_pts + lower_pts[::-1])
    parts.append(f'<polygon points="{polygon}" style="{_STYLE_REGION}"/>')
    ax0, ay0 = px(0, 0)
    ax1, _ = px(n, 0)
    parts.append(f'<line x1="{ax0}" y1="{ay0}" x2="{ax1}" y2="{ay0}" '
                 f'style="{_STYLE_AXIS}"/>')
    if suffix_paths:
        for start in range(1, n):
            pts = [px(x, y) for x, y in word_path(w[start:])]
            parts.append(_polyline(pts, _STYLE_SUFFIX))
    parts.append(_polyline(upper_pts, _STYLE_UPPER))
    parts.append(_polyline(lower_pts, _STYLE_LOWER))
    parts.append(_polyline([px(x, y) for x, y in word_path(w)], _STYLE_WORD))
    parts.append(f'<circle cx="{ax0}" cy="{ay0}" r="3" fill="#000000"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
