import random
import xml.etree.ElementTree as ET

import pytest

from prefixnormal import (RegionProfile, build_index, build_pnf_a,
                          build_pnf_b, query, region, region_csv, render_svg,
                          word_path)
from prefixnormal.geometry import SUFFIX_PATHS_BOUND

from _oracles import (assert_same_text, random_word, svg_by_points,
                      words_up_to)

EXAMPLE_WORD = "ababbaabaabbbaaabbab"


def test_word_path_examples():
    assert word_path("") == [(0, 0)]
    assert word_path("ab") == [(0, 0), (1, 1), (2, 0)]
    assert word_path("aab") == [(0, 0), (1, 1), (2, 2), (3, 1)]


def test_region_examples():
    reg = region(EXAMPLE_WORD)
    assert reg.upper[5] == 2 * 4 - 5 == 3
    assert reg.lower[5] == 2 * 2 - 5 == -1
    reg = region("aaaa")
    assert reg.upper == reg.lower == (0, 1, 2, 3, 4)
    reg = region("ab")
    assert reg.upper == (0, 1, 0)
    assert reg.lower == (0, -1, 0)


def test_region_validation():
    with pytest.raises(ValueError):
        RegionProfile(upper=(0, 2), lower=(0, -1))
    with pytest.raises(ValueError):
        RegionProfile(upper=(0, -1), lower=(0, 1))
    with pytest.raises(ValueError):
        RegionProfile(upper=(1, 0), lower=(1, 0))
    with pytest.raises(ValueError):
        RegionProfile(upper=(0, 1), lower=(0,))


def test_region_with_one_boundary_off_the_lattice_is_rejected():
    # upper only, then lower only; each other boundary is on the lattice
    for upper, lower in (((0, 1, 1), (0, -1, 0)), ((0, 1, 2), (0, -1, -1))):
        with pytest.raises(ValueError, match="column 2 is off the lattice"):
            RegionProfile(upper, lower)


def test_region_holds_one_height_in_the_last_column():
    # the whole word is its only factor of length n, so column n holds one
    # point; the index check rejects both pairs
    for upper, lower in (((0, 1), (0, -1)), ((0, 1, 2), (0, 1, 0))):
        with pytest.raises(ValueError):
            RegionProfile(upper, lower)
    # one point in every column, yet no word draws the path b, a: its
    # normal forms would be "ba" on both sides
    with pytest.raises(ValueError, match="no word has this index"):
        RegionProfile((0, -1, 0), (0, -1, 0))


def test_membership_matches_queries():
    for w in words_up_to(10):
        reg = region(w)
        ix = build_index(w)
        for x in range(len(w) + 1):
            for y in range(-x - 1, x + 2):
                inside = reg.contains(x, y)
                if (x - y) % 2:
                    assert not inside
                    continue
                assert inside == query(ix, ((x + y) // 2, (x - y) // 2))


def test_parikh_at():
    reg = region("aabb")
    assert reg.parikh_at(3, 1) == (2, 1)
    with pytest.raises(ValueError):
        reg.parikh_at(3, 0)


def test_boundaries_are_normal_form_paths():
    rng = random.Random(2501)
    words = list(words_up_to(8)) + [
        random_word(rng, rng.randint(0, 120)) for _ in range(40)]
    for w in words:
        reg = region(w)
        assert list(reg.upper) == [y for _, y in word_path(build_pnf_a(w))]
        assert list(reg.lower) == [y for _, y in word_path(build_pnf_b(w))]


def test_suffix_paths_stay_inside_region():
    for w in words_up_to(9):
        reg = region(w)
        for start in range(len(w) + 1):
            for x, y in word_path(w[start:]):
                assert reg.lower[x] <= y <= reg.upper[x]


def test_csv_output():
    csv = region_csv("ab")
    assert csv == ("k,upper_y,lower_y,F_a,f_a\n"
                   "0,0,0,0,0\n"
                   "1,1,-1,1,0\n"
                   "2,0,0,1,1\n")


def test_svg_deterministic_and_well_formed():
    first = render_svg(EXAMPLE_WORD, suffix_paths=True)
    second = render_svg(EXAMPLE_WORD, suffix_paths=True)
    assert first == second
    assert render_svg(EXAMPLE_WORD) == render_svg(EXAMPLE_WORD)
    assert render_svg(EXAMPLE_WORD) != first  # options change the bytes
    root = ET.fromstring(first)
    assert root.tag.endswith("svg")


def test_svg_polygon_vertex_count():
    for w in ("", "a", "ab", "aabbab", EXAMPLE_WORD):
        root = ET.fromstring(render_svg(w))
        polygons = [el for el in root.iter()
                    if el.tag.endswith("polygon")]
        assert len(polygons) == 1
        points = polygons[0].attrib["points"].split()
        assert len(points) == 2 * (len(w) + 1)


def test_svg_empty_word_has_origin_marker():
    root = ET.fromstring(render_svg(""))
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 1


def test_render_bounds():
    with pytest.raises(ValueError):
        render_svg("ab" * 6000)
    with pytest.raises(ValueError):
        render_svg("ab", unit=0)


@pytest.mark.parametrize("unit", [2.5, 2.0, True, "3", None])
def test_render_rejects_a_unit_that_is_not_an_int(unit):
    # 2.5 drew width="10.0" coordinates and True drew at 1 px
    with pytest.raises(ValueError, match="unit must be a positive integer"):
        render_svg("ab", unit=unit)
    with pytest.raises(ValueError, match="unit must be a positive integer"):
        region("ab").svg("ab", unit=unit)


def test_suffix_paths_bound():
    w = "ab" * (SUFFIX_PATHS_BOUND // 2) + "a"
    assert render_svg(w).startswith("<svg")
    with pytest.raises(ValueError, match="suffix-path bound"):
        render_svg(w, suffix_paths=True)
    with pytest.raises(ValueError, match="suffix-path bound"):
        region(w).svg(w, suffix_paths=True)


def test_svg_rejects_a_word_of_another_length():
    with pytest.raises(ValueError,
                       match="^word length 3 differs from region length 2$"):
        region("ab").svg("abb")


# svg bytes for a word whose path leaves its region, as the per-point
# formatter drew them
SVG_OFF_REGION = {
    ("aaaa", "bbbb"):
        '<svg xmlns="http://www.w3.org/2000/svg" width="96" height="96" '
        'viewBox="0 0 96 96">\n'
        '<polygon points="16,80 32,64 48,48 64,32 80,16 80,16 64,32 48,48 '
        '32,64 16,80" style="fill:#cfe3f5;stroke:none"/>\n'
        '<line x1="16" y1="80" x2="80" y2="80" '
        'style="stroke:#d0d0d0;stroke-width:1"/>\n'
        '<polyline points="16,80 32,64 48,48 64,32 80,16" '
        'style="fill:none;stroke:#1f77b4;stroke-width:2"/>\n'
        '<polyline points="16,80 32,64 48,48 64,32 80,16" '
        'style="fill:none;stroke:#2ca02c;stroke-width:2"/>\n'
        '<polyline points="16,80 32,96 48,112 64,128 80,144" '
        'style="fill:none;stroke:#000000;stroke-width:2"/>\n'
        '<circle cx="16" cy="80" r="3" fill="#000000"/>\n</svg>\n',
    ("abab", "bbaa"):
        '<svg xmlns="http://www.w3.org/2000/svg" width="96" height="64" '
        'viewBox="0 0 96 64">\n'
        '<polygon points="16,32 32,16 48,32 64,16 80,32 80,32 64,48 48,32 '
        '32,48 16,32" style="fill:#cfe3f5;stroke:none"/>\n'
        '<line x1="16" y1="32" x2="80" y2="32" '
        'style="stroke:#d0d0d0;stroke-width:1"/>\n'
        '<polyline points="16,32 32,16 48,32 64,16 80,32" '
        'style="fill:none;stroke:#1f77b4;stroke-width:2"/>\n'
        '<polyline points="16,32 32,48 48,32 64,48 80,32" '
        'style="fill:none;stroke:#2ca02c;stroke-width:2"/>\n'
        '<polyline points="16,32 32,48 48,64 64,48 80,32" '
        'style="fill:none;stroke:#000000;stroke-width:2"/>\n'
        '<circle cx="16" cy="32" r="3" fill="#000000"/>\n</svg>\n',
}


@pytest.mark.parametrize("region_word, word", sorted(SVG_OFF_REGION))
def test_svg_draws_any_word_of_the_region_length(region_word, word):
    # "bbbb" runs below the region of "aaaa" and "bbaa" below that of
    # "abab": the svg still draws it, point for point
    expected = SVG_OFF_REGION[region_word, word]
    assert region(region_word).svg(word) == expected
    assert svg_by_points(region(region_word), word) == expected
    for suffix_paths in (False, True):
        assert_same_text(region(region_word).svg(word, 3, suffix_paths),
                         svg_by_points(region(region_word), word, 3,
                                       suffix_paths))


@pytest.mark.parametrize("unit", [1, 3, 16])
def test_svg_matches_the_per_point_oracle(unit):
    rng = random.Random(unit)
    lengths = [0, 1, 2, 3, 300, *(rng.randrange(4, 300) for _ in range(5))]
    for n in lengths:
        w, other = random_word(rng, n), random_word(rng, n)
        # ``other`` draws over the region of ``w``, often outside it
        for reg, word in ((region(w), w), (region(w), other),
                          (region("a" * n), "b" * n)):
            for suffix_paths in (False, True):
                assert_same_text(reg.svg(word, unit, suffix_paths),
                                 svg_by_points(reg, word, unit, suffix_paths))
