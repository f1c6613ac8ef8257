import concurrent.futures
import os
import random

import pytest

from prefixnormal import (ClassCensus, CountsRow, TableExpectations,
                          build_pnf_a, class_census, class_members,
                          count_pre_necklaces, count_prefix_normal,
                          counts_table,
                          is_prefix_normal, iter_pre_necklaces,
                          iter_prefix_normal, max_class_size, reverse,
                          verify_tables)
from prefixnormal import census
from prefixnormal.census import (CLASS_SIZES_N4, CLASS_SIZES_N8,
                                 DEFAULT_COUNT_BOUND)
from prefixnormal.words import ParseError

from _oracles import (brute_pre_necklaces, count_prefix_normal_by_filter,
                      subtree_counts, walk_words, words_of_length)


def test_count_prefix_normal_examples():
    assert count_prefix_normal(1) == 2
    assert count_prefix_normal(4) == 8
    assert count_prefix_normal(8) == 70
    assert count_prefix_normal(12) == 697
    assert count_prefix_normal(16) == 7568


def test_count_pre_necklaces_examples():
    assert count_pre_necklaces(7) == 41 == count_prefix_normal(7)
    assert count_pre_necklaces(8) == 71
    assert count_pre_necklaces(16) == 8800


def test_count_bounds():
    with pytest.raises(ValueError):
        count_prefix_normal(0)
    with pytest.raises(ValueError, match="exceeds the counting bound 24"):
        count_prefix_normal(25)
    with pytest.raises(ValueError):
        count_pre_necklaces(30)
    with pytest.raises(ValueError, match="exceeds the census bound 20"):
        class_census(21)


def test_backtracking_agrees_with_filter():
    for n in range(1, 15):
        assert count_prefix_normal(n) == count_prefix_normal_by_filter(n)


def test_tree_counts_monotone_thm4():
    rows = counts_table(14)
    for row in rows:
        assert row.count_prefix_normal <= row.count_pre_necklace
        if row.n <= 7:
            assert row.count_prefix_normal == row.count_pre_necklace
        else:
            assert row.count_prefix_normal < row.count_pre_necklace


def test_counts_table_selection():
    rows = counts_table(5, what="pnf")
    assert [r.count_prefix_normal for r in rows] == [2, 3, 5, 8, 14]
    assert all(r.count_pre_necklace is None for r in rows)
    rows = counts_table(5, what="prenecklace")
    assert [r.count_pre_necklace for r in rows] == [2, 3, 5, 8, 14]
    with pytest.raises(ValueError):
        counts_table(5, what="everything")


def test_built_results_equal_checked_constructions():
    # counts_table and class_census build their results without running
    # the constructors' checks; they equal what the checked ones build
    assert counts_table(3) == [CountsRow(1, 2, 2), CountsRow(2, 3, 3),
                               CountsRow(3, 5, 5)]
    assert class_census(4) == ClassCensus(4, CLASS_SIZES_N4, 16)
    assert counts_table(2, what="pnf")[1] == CountsRow(2, 3, None)


def test_counts_row_validation():
    with pytest.raises(ValueError):
        CountsRow(8, 71, 70)


def test_iterators_lexicographic_and_complete():
    for n in range(13):
        normals = list(iter_prefix_normal(n))
        assert normals == sorted(normals)
        assert normals == [w for w in words_of_length(n)
                           if is_prefix_normal(w)]
    reference = brute_pre_necklaces(12)
    for n in range(13):
        pl = list(iter_pre_necklaces(n))
        assert pl == sorted(pl)
        assert pl == [w for w in words_of_length(n) if w in reference]


def test_class_census_n4_table():
    census = class_census(4)
    assert census.classes == CLASS_SIZES_N4
    assert census.total_words == 16
    assert sum(census.classes.values()) == 16


def test_class_census_n8_table():
    census = class_census(8)
    assert len(census.classes) == 70
    assert census.classes == CLASS_SIZES_N8
    assert census.classes["aababbbb"] == 10
    assert census.histogram() == {1: 7, 2: 24, 3: 5, 4: 16, 5: 2, 6: 9,
                                  7: 1, 8: 4, 9: 1, 10: 1}


def test_census_against_per_word_grouping(monkeypatch):
    # the vectorized census must match a plain dictionary census built by
    # running the normal-form constructor on every word; batches of 7
    # representatives split the decoding anywhere, and widths 7, 2 and 1
    # give chunks of 4, 2 and 1 words, over tables of 2, 1 and 0 symbols
    for batch in (census._BATCH_COLUMNS, 7, 1, 2):
        monkeypatch.setattr(census, "_BATCH_COLUMNS", batch)
        for n in range(9):
            groups = {}
            for w in words_of_length(n):
                groups.setdefault(build_pnf_a(w), []).append(w)
            result = class_census(n)
            assert result.classes == {rep: len(ws)
                                      for rep, ws in groups.items()}
            assert result.total_words == 2 ** n
        if batch == 7:  # 64 chunks at n = 8
            for rep, members in groups.items():
                assert class_members(rep) == members


def _packed_pnf(n, code):
    w = format(code, f"0{n}b").translate(str.maketrans("01", "ab"))
    return int(build_pnf_a(w).translate(str.maketrans("ab", "01")), 2)


def test_pnf_codes_match_packed_normal_forms():
    for n in range(1, 11):
        assert [c for _, codes in census._pnf_codes(n)
                for c in codes.tolist()] == [
            _packed_pnf(n, code) for code in range(1 << n)]
    # n = 14 is one chunk whose table is the whole word, n = 15 the first
    # census whose chunks share a one-symbol head
    rng = random.Random(2207)
    for n in (17, 14, 15):
        chunks = list(census._pnf_codes(n))
        assert [(lo, lo + len(codes)) for lo, codes in chunks] == (
            census._chunk_ranges(n))
        for lo, codes in chunks:
            for code in rng.sample(range(lo, lo + len(codes)), 1000):
                assert codes[code - lo] == _packed_pnf(n, code)


def test_census_partition_properties():
    census = class_census(8)
    assert sum(census.classes.values()) == census.total_words
    for rep in census.classes:
        assert is_prefix_normal(rep)
        members = class_members(rep)
        assert len(members) == census.classes[rep]
        assert members == sorted(members)
        # exactly one prefix normal member: the representative
        assert [m for m in members if is_prefix_normal(m)] == [rep]
        for m in members:
            assert build_pnf_a(m) == rep
            assert reverse(m) in members


def test_class_members_examples():
    assert class_members("aabababa") == [
        "aabababa", "aabbaaba", "abaababa", "abaabbaa", "ababaaba",
        "abababaa"]
    assert class_members("abba") == ["abba"]
    assert class_members("aabb") == ["aabb", "baab", "bbaa"]
    with pytest.raises(ValueError):
        class_members("baa")


def test_class_members_parses_before_the_bound_check():
    # a foreign symbol past the census bound is a parse error, not a
    # length error
    with pytest.raises(ParseError) as err:
        class_members("a" * 20 + "0")
    assert err.value.position == 21


def test_max_class_size_examples():
    assert max_class_size(1) == 1
    assert max_class_size(7) == 8
    assert max_class_size(10) == 18


def test_max_class_size_matches_census():
    for n in range(13):
        assert max_class_size(n) == max(class_census(n).classes.values())


def test_class_members_across_chunks():
    # n = 17 takes eight chunks: the words starting with a fill the first
    # four, those starting with b the last four
    assert len(census._chunk_ranges(17)) == 8
    rep = build_pnf_a("bbaababaabbabaaba")
    members = class_members(rep)
    assert {m[0] for m in members} == {"a", "b"}
    # a normal form keeps the letter counts: the word is its own factor
    assert members == [w for w in words_of_length(17)
                       if w.count("a") == rep.count("a")
                       and build_pnf_a(w) == rep]


def test_class_census_validation():
    with pytest.raises(ValueError):
        ClassCensus(2, {"aa": 1, "ab": 1}, 4)


def test_subtree_counts_sum_to_serial_counts():
    # the walkers restart from any root: the trees under all roots of
    # length 6 partition the serial tree below depth 6
    for kind, roots, counts in (
            ("pn", iter_prefix_normal(6), census._tree_counts(14)),
            ("pl", iter_pre_necklaces(6), census._pre_necklace_counts(14))):
        total = [0] * 15
        for root in roots:
            part = subtree_counts(kind, root, 14)
            assert part[:6] == [0] * 6 and part[6] == 1
            total = [t + c for t, c in zip(total, part)]
        assert total[6:] == counts[6:]


def test_frontier_counts_match_walkers(monkeypatch):
    # lists up to the cutoff and blocks above it, so n < 19 spans both
    # sides of it; with the cutoff at 0, blocks at every length
    assert census._LIST_MAX_N + 1 < 19
    for cut in (census._LIST_MAX_N, 0):
        monkeypatch.setattr(census, "_LIST_MAX_N", cut)
        for n in range(19):
            assert census._tree_counts(n) == subtree_counts("pn", "", n)
    # the pre-necklaces: the Lyndon-word sum and the FKM words
    for n in range(19):
        assert census._pre_necklace_counts(n) == subtree_counts("pl", "", n)
        assert list(iter_pre_necklaces(n)) == walk_words("pl", n)


def test_iterators_match_walkers():
    cut = census._LIST_MAX_N
    for kind, words in (("pn", iter_prefix_normal),
                        ("pl", iter_pre_necklaces)):
        for n in (*range(15), cut - 1, cut, cut + 1):
            assert list(words(n)) == walk_words(kind, n)


def test_frontier_batches_split_anywhere(monkeypatch):
    # batches of 7 columns cut across twins and leave short last batches
    monkeypatch.setattr(census, "_BATCH_COLUMNS", 7)
    monkeypatch.setattr(census, "_LIST_MAX_N", 0)
    for n in range(13):
        assert census._tree_counts(n) == subtree_counts("pn", "", n)
        assert list(iter_prefix_normal(n)) == walk_words("pn", n)


def test_iterators_reject_lengths_out_of_range():
    for words in (iter_prefix_normal, iter_pre_necklaces):
        for n in (-1, DEFAULT_COUNT_BOUND + 1):
            it = words(n)  # raises on the first next, not on the call
            with pytest.raises(ValueError, match="length"):
                next(it)


def test_parallel_paths_match_serial():
    assert count_prefix_normal(14, jobs=2) == count_prefix_normal(14)
    assert count_pre_necklaces(14, jobs=2) == count_pre_necklaces(14)
    assert class_census(17, jobs=2).classes == class_census(17).classes


def test_verify_tables_passes():
    import time
    start = time.perf_counter()
    report = verify_tables(max_n=8)
    elapsed = time.perf_counter() - start
    assert report.all_ok
    assert not report.failures
    labels = [c.label for c in report.cells]
    assert "prefix-normal count n=8" in labels
    assert "class size n=4 aabb" in labels
    assert elapsed < 1.0


def test_verify_tables_flags_tampered_cells():
    tampered = TableExpectations(
        prefix_normal_counts=(2, 3, 5, 8, 14, 23, 41, 71),
        pre_necklace_counts=(2, 3, 5, 8, 14, 23, 41, 71),
        max_class_sizes=(1, 2, 3, 4, 5, 6, 8, 10),
        class_sizes_n4={**CLASS_SIZES_N4, "aabb": 5},
        class_sizes_n8=dict(CLASS_SIZES_N8),
        class_histogram_n8={1: 7, 2: 24, 3: 5, 4: 16, 5: 2, 6: 9, 7: 1,
                            8: 4, 9: 1, 10: 1},
    )
    report = verify_tables(expected=tampered, max_n=8)
    assert not report.all_ok
    failed = {c.label for c in report.failures}
    assert failed == {"prefix-normal count n=8", "class size n=4 aabb"}


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of the pools started; a stub pool records its size
    and runs the tasks here, so no worker process starts."""
    sizes = []

    class StubPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    return sizes


def test_jobs_clamped_to_cpus_and_tasks(monkeypatch, pool_sizes):
    # every count and census runs in this process whatever jobs says
    sizes = pool_sizes
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert count_prefix_normal(14, jobs=1000) == 2279
    serial = class_census(18).classes
    assert class_census(18, jobs=1000).classes == serial
    assert sizes == []                       # 16 chunks
    assert class_census(17, jobs=1000).classes == class_census(17).classes
    assert sizes == []                       # 8 chunks
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert count_pre_necklaces(14, jobs=8) == 2538
    assert class_census(18, jobs=8).classes == serial
    assert sizes == []                       # unknown cpu count


def test_split_paths_match_serial_in_process(monkeypatch, pool_sizes):
    # counting runs in this process whatever jobs says
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for n in (14, 18):
        assert counts_table(n, jobs=2) == counts_table(n)
    assert count_pre_necklaces(14, jobs=2) == count_pre_necklaces(14)
    assert pool_sizes == []
    assert verify_tables(max_n=16, jobs=2).all_ok
    assert pool_sizes == []


@pytest.mark.parametrize("jobs", [0, -5])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        count_prefix_normal(4, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        class_census(4, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        verify_tables(max_n=2, jobs=jobs)
