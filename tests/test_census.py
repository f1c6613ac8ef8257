import random
import sys
from collections import Counter

import numpy as np
import pytest

from prefixnormal import (ClassCensus, CountsRow, build_pnf_a,
                          class_census, class_members,
                          count_pre_necklaces, count_prefix_normal,
                          counts_table,
                          is_prefix_normal, iter_pre_necklaces,
                          iter_prefix_normal, max_class_size, reverse,
                          verify_tables)
from prefixnormal import census
from prefixnormal.census import (CLASS_SIZES_N4, CLASS_SIZES_N8,
                                 DEFAULT_COUNT_BOUND, PREFIX_NORMAL_COUNTS)
from prefixnormal.words import ParseError

from _oracles import (brute_pre_necklaces, class_members_by_scan,
                      count_prefix_normal_by_filter, packed_normal_forms,
                      random_word, reversed_codes, subtree_counts,
                      walk_words, words_of_length, words_up_to)

# The five largest classes at n = 20, with 596, 492, 420, 370 and 354
# members: the longest lists `classes --members` can print.
LARGEST_CLASSES_N20 = ("aaababababababababab", "aaababababababababbb",
                       "aabababababababababb", "aababababababababbbb",
                       "aaaababababababababb")


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
    # class_members lists each class of n = 8 as that grouping does
    for rep, members in groups.items():
        assert class_members(rep) == members


def _packed_pnf(n, code):
    w = format(code, f"0{n}b").translate(str.maketrans("01", "ab"))
    return int(build_pnf_a(w).translate(str.maketrans("ab", "01")), 2)


def test_pnf_codes_match_packed_normal_forms():
    # up to n = 10 the weighted codes are the normal forms of all 2^n words
    for n in range(1, 11):
        weighted = Counter()
        for weight, _, codes in census._pnf_codes(n):
            for code in codes.tolist():
                weighted[code] += weight
        assert weighted == Counter(_packed_pnf(n, code)
                                   for code in range(1 << n))
    # chunks fixed on r = 0, 1, 2 and 3 symbols a side: a chunk (h, e) is
    # slid unless its twin (e^R, h^R) orders first, and is its twin's
    # weight too; its skipped twin holds its reversed words, whose normal
    # forms are its own
    rng = random.Random(2207)
    for n, r in ((14, 0), (15, 1), (17, 2), (20, 3)):
        rev = {x: int(f"{x:0{r}b}"[::-1], 2) for x in range(1 << r)}
        slid = [(h, e) for h in rev for e in rev if (rev[e], rev[h]) >= (h, e)]
        assert len(slid) == (4 ** r + 2 ** r) // 2
        chunks = list(census._pnf_codes(n))
        assert [(weight, lo) for weight, lo, _ in chunks] == [
            (1 + ((rev[e], rev[h]) != (h, e)), h << n - r | e)
            for h, e in slid]
        fixed = (1 << n) - (1 << n - r) | (1 << r) - 1  # the head and end bits
        for (h, e), (_, lo, codes) in zip(slid, chunks):
            assert len(codes) == 1 << n - 2 * r
            for t in rng.sample(range(len(codes)), 1000):
                assert codes[t] == _packed_pnf(n, lo | t << r)
            words = reversed_codes(lo | np.arange(len(codes)) << r, n)
            assert set((words & fixed).tolist()) == {rev[e] << n - r | rev[h]}
            assert (np.sort(packed_normal_forms(words, n))
                    == np.sort(codes)).all()


def test_pnf_chunks_hold_the_most_words_a_batch_fits(monkeypatch):
    # 2^m words fixed on r = (n - m) / 2 symbols a side: the largest m of
    # n's parity with 2^m <= the batch width, or m = 1 for odd n at width 1
    for batch, lengths in ((1, 13), (2, 13), (7, 13), (1 << 14, 21)):
        monkeypatch.setattr(census, "_BATCH_COLUMNS", batch)
        for n in range(lengths):
            _, _, codes = next(census._pnf_codes(n))
            assert len(codes) == 1 << max(
                m for m in range(n % 2, n + 1, 2) if 1 << m <= batch or m < 2)


def test_reversal_keeps_the_normal_form():
    # the fact the census weights rest on: w and its reversal have the
    # same factor Parikh vectors, so one normal form
    for w in words_up_to(12):
        assert build_pnf_a(w) == build_pnf_a(w[::-1]), w


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


def test_class_members_starting_with_either_letter_at_n17():
    # a class whose members start with a and with b, against every word of
    # 17 symbols with its letter counts and normal form
    rep = build_pnf_a("bbaababaabbabaaba")
    members = class_members(rep)
    assert {m[0] for m in members} == {"a", "b"}
    # a normal form keeps the letter counts: the word is its own factor
    assert members == [w for w in words_of_length(17)
                       if w.count("a") == rep.count("a")
                       and build_pnf_a(w) == rep]


def test_class_members_agree_with_the_census_exhaustively():
    # every class up to n = 12, in order, as large as the census counts
    # it; up to n = 9 exactly the words the scan of all 2^n words finds
    for n in range(13):
        for rep, size in class_census(n).classes.items():
            members = class_members(rep)
            assert len(members) == size and members == sorted(members), rep
            if n <= 9:
                assert members == class_members_by_scan(rep)


def test_class_members_agree_with_the_scan_on_long_words():
    rng = random.Random(2323)
    reps = [build_pnf_a(random_word(rng, n))
            for n in (17, 18, 19, 20) for _ in range(25)]
    reps += [*LARGEST_CLASSES_N20, "a" * 20, "b" * 20, "a" * 10 + "b" * 10,
             "ab" * 10, "a" + "b" * 19, "", "a", "b"]
    for rep in sorted(reps, key=len):  # the scan keeps one length's codes
        assert class_members(rep) == class_members_by_scan(rep), rep
    assert [len(class_members(rep)) for rep in LARGEST_CLASSES_N20] == [
        596, 492, 420, 370, 354]


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
    # with numpy loaded, blocks at every length past 0 whatever the cutoff;
    # the next test pins the lists, which count only while it is not
    assert census._LIST_MAX_N + 1 < 19
    for cut in (census._LIST_MAX_N, 0):
        monkeypatch.setattr(census, "_LIST_MAX_N", cut)
        for n in range(19):
            assert census._tree_counts(n) == subtree_counts("pn", "", n)
    # the pre-necklaces: the Lyndon-word sum and the FKM words
    for n in range(19):
        assert census._pre_necklace_counts(n) == subtree_counts("pl", "", n)
        assert list(iter_pre_necklaces(n)) == walk_words("pl", n)


def test_tree_counts_take_lists_only_while_numpy_is_unloaded(monkeypatch):
    # numpy loaded, the frontier counts every length past 0; hidden from
    # sys.modules, as in a fresh process, lists count up to the cutoff
    cut = census._LIST_MAX_N
    walked, calls = subtree_counts("pn", "", cut + 1), []
    frontier = census._frontier
    monkeypatch.setattr(census, "_frontier",
                        lambda *args: calls.append(args) or frontier(*args))
    for n in range(cut + 2):
        calls.clear()
        assert census._tree_counts(n) == walked[:n + 1]
        assert bool(calls) == (n > 0), n
    monkeypatch.delitem(sys.modules, "numpy")  # the lists import nothing
    calls.clear()
    for n in range(cut + 1):
        assert census._tree_counts(n) == walked[:n + 1]
    assert calls == []


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


def test_verify_tables_flags_tampered_cells(monkeypatch):
    assert PREFIX_NORMAL_COUNTS[7] == 70
    monkeypatch.setattr(census, "PREFIX_NORMAL_COUNTS",
                        PREFIX_NORMAL_COUNTS[:7] + (71,)
                        + PREFIX_NORMAL_COUNTS[8:])
    monkeypatch.setattr(census, "CLASS_SIZES_N4",
                        {**CLASS_SIZES_N4, "aabb": 5})
    report = verify_tables(max_n=8)
    assert not report.all_ok
    failed = {c.label for c in report.failures}
    assert failed == {"prefix-normal count n=8", "class size n=4 aabb"}


def test_jobs_clamped_to_cpus_and_tasks():
    # every count and census gives the serial result whatever jobs says;
    # test_census_starts_no_process checks that none starts a process
    assert count_prefix_normal(14, jobs=1000) == 2279
    serial = class_census(18).classes
    assert class_census(18, jobs=1000).classes == serial
    assert class_census(17, jobs=1000).classes == class_census(17).classes
    assert count_pre_necklaces(14, jobs=8) == 2538
    assert class_census(18, jobs=8).classes == serial


def test_split_paths_match_serial_in_process():
    for n in (14, 18):
        assert counts_table(n, jobs=2) == counts_table(n)
    assert count_pre_necklaces(14, jobs=2) == count_pre_necklaces(14)
    assert verify_tables(max_n=16, jobs=2).all_ok


@pytest.mark.parametrize("jobs", [0, -5])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        count_prefix_normal(4, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        class_census(4, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        verify_tables(max_n=2, jobs=jobs)
