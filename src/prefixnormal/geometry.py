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

from .profiles import OnesProfile, _trusted, a_count_bounds
from .words import ParikhVector, Record, prefix_counts

RENDER_BOUND = 10_000
# Suffix paths draw about n^2 / 2 points: a 17 MB SVG at n = 2000.
SUFFIX_PATHS_BOUND = 2000

_STYLE_REGION = "fill:#cfe3f5;stroke:none"
_STYLE_SUFFIX = "fill:none;stroke:#9aa7b0;stroke-width:1"
_STYLE_UPPER = "fill:none;stroke:#1f77b4;stroke-width:2"
_STYLE_LOWER = "fill:none;stroke:#2ca02c;stroke-width:2"
_STYLE_WORD = "fill:none;stroke:#000000;stroke-width:2"
_STYLE_AXIS = "stroke:#d0d0d0;stroke-width:1"


def word_path(w: str) -> list[tuple[int, int]]:
    """Lattice points of the word's path, starting at the origin."""
    return [(i, 2 * c - i) for i, c in enumerate(prefix_counts(w))]


class RegionProfile(Record):
    """Column-wise bounds of the factor region.

    upper[x] and lower[x] are the highest and lowest path heights over
    factors of length x: the jumbled index drawn on the lattice, with
    max_a[x] = (upper[x] + x) / 2 and min_a[x] = (lower[x] + x) / 2.
    """

    upper: tuple[int, ...]
    lower: tuple[int, ...]

    def __post_init__(self):
        self.__dict__.update(upper=tuple(self.upper), lower=tuple(self.lower))
        # on the lattice, each boundary is an a-count profile, and the pair
        # is checked as the index it is
        for k, (hi, lo) in enumerate(zip(self.upper, self.lower)):
            if (hi + k) % 2 or (lo + k) % 2:
                raise ValueError(f"boundary point in column {k} is off the "
                                 "lattice")
        max_a, min_a = (tuple((y + k) // 2 for k, y in enumerate(heights))
                        for heights in (self.upper, self.lower))
        from .jpm import JumbledIndex  # only a checked region loads jpm
        JumbledIndex(self.n, OnesProfile("max-a", max_a),
                     OnesProfile("min-a", min_a))

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

    def csv(self) -> str:
        """CSV of the region: k, upper_y, lower_y, F_a, f_a."""
        lines = ["k,upper_y,lower_y,F_a,f_a"]
        for k, (hi, lo) in enumerate(zip(self.upper, self.lower)):
            lines.append(f"{k},{hi},{lo},{(hi + k) // 2},{(lo + k) // 2}")
        return "\n".join(lines) + "\n"

    def svg(self, w: str, unit: int = 16, suffix_paths: bool = False) -> str:
        """Deterministic SVG of the word path and this region, which must
        be the region of ``w``.

        Draws the filled region polygon, the two boundary paths (the normal
        forms), the word's own path, and optionally every suffix path.
        """
        n = len(w)
        check_render(n, unit, suffix_paths)
        if n != self.n:
            raise ValueError(f"word length {n} differs from region length "
                             f"{self.n}")
        y_hi, y_lo = max(self.upper), min(self.lower)
        width = (n + 2) * unit  # one unit of padding on each side
        height = (y_hi - y_lo + 2) * unit
        heights = [y for _, y in word_path(w)]
        # each x and each drawn height formatted once, more a's drawn higher;
        # suffix heights are differences of heights, so lo <= 0 <= hi spans
        # them all, and ys puts a negative y where it indexes from the end
        lo = min(y_lo, min(heights) - max(heights))
        hi = max(y_hi, max(heights) - min(heights))
        xs = [f"{(1 + x) * unit}," for x in range(n + 1)]
        ys = [str((1 + y_hi - y) * unit)
              for y in (*range(hi + 1), *range(lo, 0))]

        def points(hs) -> list[str]:
            return list(map(str.__add__, xs, map(ys.__getitem__, hs)))

        upper, lower = points(self.upper), points(self.lower)
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<polygon points="{" ".join(upper + lower[::-1])}" '
            f'style="{_STYLE_REGION}"/>',
            f'<line x1="{unit}" y1="{ys[0]}" x2="{(n + 1) * unit}" '
            f'y2="{ys[0]}" style="{_STYLE_AXIS}"/>',
        ]
        if suffix_paths:
            for start, h0 in enumerate(heights[1:n], 1):
                suffix = [y - h0 for y in heights[start:]]
                parts.append(_polyline(points(suffix), _STYLE_SUFFIX))
        parts += [_polyline(upper, _STYLE_UPPER),
                  _polyline(lower, _STYLE_LOWER),
                  _polyline(points(heights), _STYLE_WORD),
                  f'<circle cx="{unit}" cy="{ys[0]}" r="3" fill="#000000"/>',
                  "</svg>"]
        return "\n".join(parts) + "\n"


def region(w: str) -> RegionProfile:
    """Factor region of ``w`` bounded by the two normal-form paths."""
    max_a, min_a = a_count_bounds(w)
    return _trusted(RegionProfile,
                    upper=tuple(2 * v - k for k, v in enumerate(max_a)),
                    lower=tuple(2 * v - k for k, v in enumerate(min_a)))


def region_csv(w: str) -> str:
    """CSV of the region: k, upper_y, lower_y, F_a, f_a."""
    return region(w).csv()


def check_render(n: int, unit: int, suffix_paths: bool) -> None:
    """Reject a word too long to render as asked, or a unit not an int >= 1."""
    if n > RENDER_BOUND:
        raise ValueError(f"word length {n} exceeds render bound "
                         f"{RENDER_BOUND}")
    if suffix_paths and n > SUFFIX_PATHS_BOUND:
        raise ValueError(f"word length {n} exceeds the suffix-path bound "
                         f"{SUFFIX_PATHS_BOUND}")
    if type(unit) is not int or unit < 1:
        raise ValueError("unit must be a positive integer")


def _polyline(points: list[str], style: str) -> str:
    return f'<polyline points="{" ".join(points)}" style="{style}"/>'


def render_svg(w: str, unit: int = 16, suffix_paths: bool = False) -> str:
    """Deterministic SVG of the word path and its factor region."""
    check_render(len(w), unit, suffix_paths)  # before the kernel runs
    return region(w).svg(w, unit, suffix_paths)
