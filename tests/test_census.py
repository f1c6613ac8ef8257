import pytest

from prefixnormal import (ClassCensus, CountsRow, TableExpectations,
                          build_pnf_a, class_census, class_members,
                          count_pre_necklaces, count_prefix_normal,
                          counts_table,
                          is_prefix_normal, iter_pre_necklaces,
                          iter_prefix_normal, max_class_size, reverse,
                          verify_tables)
from prefixnormal import census
from prefixnormal.census import CLASS_SIZES_N4, CLASS_SIZES_N8

from _oracles import (brute_pre_necklaces, count_prefix_normal_by_filter,
                      words_of_length)


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
    with pytest.raises(ValueError):
        count_prefix_normal(25)
    with pytest.raises(ValueError):
        count_pre_necklaces(30)
    with pytest.raises(ValueError):
        count_prefix_normal(5, bound=4)
    with pytest.raises(ValueError):
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


def test_counts_row_validation():
    with pytest.raises(ValueError):
        CountsRow(8, 71, 70)
    with pytest.raises(ValueError):
        CountsRow(2, 3, 4, max_class_size=5)


def test_iterators_lexicographic_and_complete():
    for n in range(9):
        normals = list(iter_prefix_normal(n))
        assert normals == sorted(normals)
        assert normals == [w for w in words_of_length(n)
                           if is_prefix_normal(w)]
    reference = brute_pre_necklaces(10)
    for n in range(9):
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


def test_census_against_per_word_grouping():
    # the vectorized census must match a plain dictionary census built by
    # running the normal-form constructor on every word
    for n in range(9):
        expected = {}
        for w in words_of_length(n):
            expected[build_pnf_a(w)] = expected.get(build_pnf_a(w), 0) + 1
        census = class_census(n)
        assert census.classes == expected
        assert census.total_words == 2 ** n


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


def test_max_class_size_examples():
    assert max_class_size(1) == 1
    assert max_class_size(7) == 8
    assert max_class_size(10) == 18


def test_class_census_validation():
    with pytest.raises(ValueError):
        ClassCensus(2, {"aa": 1, "ab": 1}, 4)


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


def test_jobs_clamped_to_cpus_and_tasks(monkeypatch):
    # a stub pool records its size and runs the tasks here, so no worker
    # process starts
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

    monkeypatch.setattr(census, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
    assert count_prefix_normal(14, jobs=1000) == 2279
    assert sizes == [3]                      # cpu count: 697 root tasks
    assert class_census(17, jobs=1000).classes == class_census(17).classes
    assert sizes == [3, 2]                   # task count: 2 chunks
    monkeypatch.setattr(census.os, "cpu_count", lambda: None)
    assert count_pre_necklaces(14, jobs=8) == 2538
    assert sizes == [3, 2]                   # unknown cpu count: serial


@pytest.mark.parametrize("jobs", [0, -5])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        count_prefix_normal(4, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        class_census(4, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        verify_tables(max_n=2, jobs=jobs)
