import random

import pytest

from prefixnormal import (ParikhVector, ParseError, build_index, build_pnf_a,
                          complement, is_prefix_normal, normality_witness,
                          parikh, parse_word, pnf_pair, pos_a, prefix_count,
                          prefix_counts, region, reverse)

from _oracles import random_word, words_up_to

EXAMPLE_WORD = "ababbaabaabbbaaabbab"


def test_parse_empty():
    assert parse_word("") == ""


def test_parse_ab():
    assert parse_word("abab") == "abab"
    assert len(parse_word("abab")) == 4


def test_parse_rejects_with_position():
    with pytest.raises(ParseError) as info:
        parse_word("abc")
    assert info.value.position == 3


def test_parse_binary_alphabet():
    # 1 maps to a, 0 maps to b
    assert parse_word("1100", alphabet="binary") == "aabb"
    with pytest.raises(ParseError) as info:
        parse_word("10a", alphabet="binary")
    assert info.value.position == 3
    with pytest.raises(ValueError):
        parse_word("ab", alphabet="greek")


def test_parikh_examples():
    assert parikh("") == (0, 0)
    assert parikh("aabb") == (2, 2)
    assert parikh(EXAMPLE_WORD) == (10, 10)
    assert parikh("aabb") == ParikhVector(2, 2)
    assert parikh("aabb").length == 4


def test_prefix_count_examples():
    assert prefix_count("abab", 0) == 0
    assert prefix_count("abab", 3) == 2
    assert prefix_count(EXAMPLE_WORD, 20) == 10


def test_prefix_count_range():
    with pytest.raises(IndexError):
        prefix_count("ab", 3)
    with pytest.raises(IndexError):
        prefix_count("ab", -1)


def test_pos_a_examples():
    assert pos_a("aaaa", 3) == 3
    assert pos_a("abab", 2) == 3
    assert pos_a("babb", 1) == 2


def test_pos_a_errors():
    with pytest.raises(ValueError):
        pos_a("abab", 3)
    with pytest.raises(ValueError):
        pos_a("bb", 1)
    with pytest.raises(ValueError):
        pos_a("ab", 0)


def test_reverse():
    assert reverse("") == ""
    assert reverse("aab") == "baa"
    assert reverse(reverse("ababb")) == "ababb"


def test_complement():
    assert complement("aabb") == "bbaa"
    assert complement("") == ""
    assert complement(complement("ababb")) == "ababb"


def test_rank_select_relations_exhaustive():
    for w in words_up_to(8):
        m = w.count("a")
        for i in range(1, m + 1):
            p = pos_a(w, i)
            assert prefix_count(w, p) == i
            assert w[p - 1] == "a"
        for i in range(len(w) + 1):
            assert prefix_count(w, i) == w[:i].count("a")
            if prefix_count(w, i) >= 1:
                assert pos_a(w, prefix_count(w, i)) <= i


def test_factor_count_is_prefix_difference():
    rng = random.Random(2101)
    for _ in range(200):
        w = random_word(rng, rng.randint(0, 60))
        i = rng.randint(0, len(w))
        j = rng.randint(i, len(w))
        assert prefix_count(w, j) - prefix_count(w, i) == w[i:j].count("a")


def test_parikh_under_reverse_and_complement():
    rng = random.Random(2102)
    for _ in range(200):
        w = random_word(rng, rng.randint(0, 60))
        assert parikh(reverse(w)) == parikh(w)
        a, b = parikh(w)
        assert parikh(complement(w)) == (b, a)


def test_prefix_counts_matches_rank():
    assert prefix_counts("") == [0]
    assert prefix_counts("abba") == [0, 1, 1, 1, 2]
    for w in words_up_to(6):
        assert prefix_counts(w) == [prefix_count(w, i)
                                    for i in range(len(w) + 1)]


@pytest.mark.parametrize("fn", [prefix_counts, build_pnf_a, pnf_pair,
                                build_index, region, normality_witness,
                                is_prefix_normal])
def test_foreign_symbols_are_rejected(fn):
    # no symbol other than a is silently read as b
    for text, position in (("abc", 3), ("xyz", 1), ("ab" * 40 + "A", 81)):
        with pytest.raises(ParseError) as info:
            fn(text)
        assert info.value.position == position
