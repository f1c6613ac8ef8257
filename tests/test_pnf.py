import random

import pytest

from prefixnormal import (ParseError, PnfPair, PrefixNormalTester,
                          build_pnf_a, build_pnf_b, can_extend_with_a,
                          is_prefix_normal, max_a_profile, normality_witness,
                          pnf_pair, prefix_count, reverse)
from _oracles import (brute_is_prefix_normal, brute_normality_witness,
                      check_factor_select_bound, check_prefix_subadditivity,
                      random_word, words_up_to)

EXAMPLE_WORD = "ababbaabaabbbaaabbab"


def test_build_pnf_a_examples():
    assert build_pnf_a(EXAMPLE_WORD) == "aaababbabaabbababbab"
    assert build_pnf_a("aaaa") == "aaaa"
    assert build_pnf_a("baaa") == "aaab"


def test_build_pnf_b_examples():
    assert build_pnf_b(EXAMPLE_WORD) == "bbbaababababaabababa"
    assert build_pnf_b("bbbb") == "bbbb"
    assert build_pnf_b("ab") == "ba"


def test_is_prefix_normal_examples():
    assert not is_prefix_normal("aabbaaba")
    assert is_prefix_normal("abab")
    assert not is_prefix_normal("aabbabaabbb")
    assert not is_prefix_normal("aabbabaa")
    assert is_prefix_normal("bbbb")
    assert not is_prefix_normal("ba")
    assert not is_prefix_normal("bba")
    assert not is_prefix_normal("bab")


def test_is_prefix_normal_unknown_method():
    with pytest.raises(ValueError):
        is_prefix_normal("ab", method="guess")


@pytest.mark.parametrize("text", ["abc", "xa"])
def test_every_method_parses_its_word(text):
    with pytest.raises(ParseError) as default:
        is_prefix_normal(text)
    for method in ("profile", "positions", "scan"):
        with pytest.raises(ParseError) as info:
            is_prefix_normal(text, method=method)
        assert str(info.value) == str(default.value)
        assert info.value.position == default.value.position


def test_all_methods_agree_with_oracle_exhaustive():
    for w in words_up_to(12):
        expected = brute_is_prefix_normal(w)
        assert is_prefix_normal(w, method="profile") == expected
        assert is_prefix_normal(w, method="positions") == expected
        assert is_prefix_normal(w, method="scan") == expected


def test_methods_agree_exhaustive_14():
    for w in words_up_to(14):
        a = is_prefix_normal(w, method="profile")
        assert is_prefix_normal(w, method="positions") == a
        assert is_prefix_normal(w, method="scan") == a


def test_methods_agree_random_longer():
    rng = random.Random(2301)
    for _ in range(100_000):
        w = random_word(rng, rng.randint(15, 30))
        a = is_prefix_normal(w, method="profile")
        assert is_prefix_normal(w, method="positions") == a
        assert is_prefix_normal(w, method="scan") == a


def test_characterization_conditions_exhaustive():
    # the subadditivity and factor-span conditions hold exactly on the
    # prefix normal words
    for w in words_up_to(10):
        expected = brute_is_prefix_normal(w)
        assert check_prefix_subadditivity(w) == expected
        assert check_factor_select_bound(w) == expected


def test_can_extend_examples():
    assert can_extend_with_a("aab")
    assert can_extend_with_a("ab")
    assert can_extend_with_a("abb")
    assert is_prefix_normal("abba")
    assert not can_extend_with_a("b")


def test_can_extend_agrees_with_oracle():
    for w in words_up_to(12):
        if brute_is_prefix_normal(w):
            assert can_extend_with_a(w) == brute_is_prefix_normal(w + "a")
            # appending b always preserves normality
            assert brute_is_prefix_normal(w + "b")


def test_online_tester_sequences():
    tester = PrefixNormalTester()
    assert [tester.feed(c) for c in "aabbaaba"] == [True] * 7 + [False]
    assert tester.word == "aabbaaba"
    assert not tester.is_normal

    tester = PrefixNormalTester()
    assert [tester.feed(c) for c in "bbb"] == [True, True, True]

    tester = PrefixNormalTester()
    assert [tester.feed(c) for c in "ba"] == [True, False]


def test_online_tester_matches_prefix_statuses():
    rng = random.Random(2302)
    for _ in range(300):
        w = random_word(rng, rng.randint(0, 40))
        tester = PrefixNormalTester()
        for k, ch in enumerate(w, start=1):
            assert tester.feed(ch) == brute_is_prefix_normal(w[:k])


def test_online_tester_rejects_bad_symbol():
    with pytest.raises(ValueError):
        PrefixNormalTester().feed("x")


def test_online_tester_positions_a_bad_symbol():
    tester = PrefixNormalTester()
    assert tester.feed("a") and tester.feed("b")
    with pytest.raises(ParseError) as info:
        tester.feed("c")
    assert info.value.position == 3
    assert tester.word == "ab"


def test_idempotence_and_reversal():
    rng = random.Random(2303)
    words = list(words_up_to(10)) + [
        random_word(rng, rng.randint(0, 200)) for _ in range(100)]
    for w in words:
        u = build_pnf_a(w)
        assert build_pnf_a(u) == u
        assert build_pnf_a(reverse(w)) == u
        v = build_pnf_b(w)
        assert build_pnf_b(v) == v
        assert build_pnf_b(reverse(w)) == v


def test_prefix_closure_and_extensions():
    for w in words_up_to(9):
        if not brute_is_prefix_normal(w):
            continue
        for k in range(len(w) + 1):
            assert is_prefix_normal(w[:k])
        for k in range(3):
            assert is_prefix_normal("a" * k + w)
            assert is_prefix_normal(w + "b" * k)


def test_left_extension_universality():
    for w in words_up_to(10):
        assert is_prefix_normal("a" * len(w) + w)


def test_construction_realizes_profile():
    rng = random.Random(2304)
    words = list(words_up_to(9)) + [
        random_word(rng, rng.randint(0, 150)) for _ in range(60)]
    for w in words:
        u = build_pnf_a(w)
        values = max_a_profile(w).values
        assert all(prefix_count(u, k) == values[k]
                   for k in range(len(w) + 1))


def test_pnf_pair_type():
    pair = pnf_pair(EXAMPLE_WORD)
    assert pair.pnf_a == "aaababbabaabbababbab"
    assert pair.pnf_b == "bbbaababababaabababa"
    assert pair.source_length == 20
    with pytest.raises(ValueError):
        PnfPair("ba", "ba")
    with pytest.raises(ValueError):
        PnfPair("ab", "ab")
    with pytest.raises(ValueError):
        PnfPair("ab", "b")


def test_witness_examples():
    assert normality_witness("aabbaaba") == "aaba"
    assert normality_witness("abab") is None
    assert normality_witness("") is None


def test_witness_shortest_then_leftmost():
    for w in words_up_to(10):
        assert normality_witness(w) == brute_normality_witness(w)
