import random
from math import isqrt

import pytest

from prefixnormal import (ParseError, PnfPair, PrefixNormalTester,
                          build_pnf_a, build_pnf_b, can_extend_with_a,
                          complement, is_prefix_normal, max_a_profile,
                          normality_witness, pnf_pair, prefix_count,
                          prefix_counts, profiles, reverse)
from _oracles import (brute_is_prefix_normal, brute_normality_witness,
                      check_factor_select_bound, check_prefix_subadditivity,
                      excess_by_scan, random_word, sturmian,
                      with_excess_at, with_prefix_pasted, words_up_to)
from prefixnormal.words import complement_counts

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


def test_first_excess_is_where_max_a_first_exceeds_the_prefix():
    for w in words_up_to(14):
        p = prefix_counts(w)
        (max_a,) = profiles.window_max([p])
        first = next((k for k in range(1, len(p)) if max_a[k] > p[k]), 0)
        assert profiles.first_excess(p) == first, w


def _flipped(w: str, i: int) -> str:
    return w[:i] + "ab"[w[i] == "a"] + w[i + 1:]


@pytest.mark.parametrize("state", ["fresh", "spent"])
@pytest.mark.parametrize("n", [63, 64, 127, 128, 1000, 3000])
def test_first_excess_on_flipped_normal_forms(ledger, state, n):
    # a PNF, whole or with one symbol flipped, makes the run-start pass
    # scan every start; a pasted prefix fails where only that pass looks
    rng = random.Random(2417 + n)
    reset = ledger.close if state == "spent" else ledger.set
    for _ in range(3):
        pnf = build_pnf_a(random_word(rng, n))
        for w in (pnf, *(_flipped(pnf, rng.randrange(n)) for _ in range(3)),
                  with_prefix_pasted(rng, pnf)):
            reset()
            k, witness = excess_by_scan(w)
            assert profiles.first_excess(prefix_counts(w)) == k
            if n >= 128:  # the numpy fallback closes the ledger
                assert ledger.closed == (state == "spent")
            assert normality_witness(w) == witness


@pytest.mark.parametrize("state", ["fresh", "spent"])
@pytest.mark.parametrize("n", [255, 256, 257, 3000, 10 ** 4])
def test_first_excess_in_blocks_matches_the_scan(ledger, state, n):
    # B = isqrt(n) >> 3 goes from 1 to 2 at n = 256.  Balanced words fail
    # the block bound everywhere: with B > 1 they go to numpy part way,
    # unless the ledger would hold them at B = 1
    rng = random.Random(2432 + n)
    reset = ledger.close if state == "spent" else ledger.set
    pnf = build_pnf_a(random_word(rng, n))
    late = rng.randrange(3 * n // 4, n)  # a late flip keeps most normal
    words = [pnf, _flipped(pnf, late), with_prefix_pasted(rng, pnf),
             "ab" * (n // 2), "ba" * (n // 2), build_pnf_a(sturmian(n)),
             sturmian(n)]
    for w in words:
        reset()
        k, witness = excess_by_scan(w)
        assert profiles.first_excess(prefix_counts(w)) == k
        assert profiles.first_excess(complement_counts(prefix_counts(
            w))) == excess_by_scan(complement(w))[0]
        reset()
        assert normality_witness(w) == witness


@pytest.mark.parametrize("state", ["fresh", "spent"])
@pytest.mark.parametrize("n", [3000, 10 ** 4])
def test_first_excess_at_the_edges_of_the_blocks(ledger, state, n):
    # lengths up to k0 = 2B + 1 take a C-speed pass each, k0 + 1 is the
    # first the blocks decide, and [3B, 4B) is one block
    B = isqrt(n) >> 3
    k0 = 2 * B + 1
    rng = random.Random(2433 + n)
    reset = ledger.close if state == "spent" else ledger.set
    for k in (k0, k0 + 1, 3 * B, 4 * B - 1):
        w = with_excess_at(rng, n, k)
        reset()
        assert profiles.first_excess(prefix_counts(w)) == k


def test_a_32768_symbol_word_reads_the_numpy_slide_and_closes_the_ledger(
        monkeypatch, ledger):
    # numpy is loaded then, so a later 16-bit word reads the slide too
    word = _flipped(("a" * 300 + "b" * 200) * 66, 32400)[:32768]
    k, _ = excess_by_scan(word)
    pnf = build_pnf_a(random_word(random.Random(2419), 300))
    slides = []
    slide = profiles._slide

    def counted(q):
        slides.append(len(q))
        return slide(q)

    monkeypatch.setattr(profiles, "_slide", counted)
    ledger.set()  # build_pnf_a charged it
    assert k > 0
    assert profiles.first_excess(prefix_counts(word)) == k
    assert profiles.first_excess(prefix_counts(pnf)) == 0
    assert slides == [32769, 301]


def test_first_excess_reads_a_tuple_as_it_reads_a_list(monkeypatch, ledger):
    # JumbledIndex decides the tuples its profiles hold.  A 16-bit row goes
    # packed on a fresh ledger and to numpy on a closed one; a row of 32768
    # symbols or more always goes to numpy.  Either way a tuple gives the
    # list's answer, prefix normal (0) or not.
    slides, slide = [], profiles._slide
    monkeypatch.setattr(profiles, "_slide",
                        lambda q: slides.append(len(q)) or slide(q))
    late = "a" * 100 + "b" + "a" * 101  # first excess at k = 101
    for b_run, numpy_route in ((1500, False), (32700, True)):
        rows = {0: prefix_counts("a" * b_run + "b" * b_run),
                101: prefix_counts(late + "b" * b_run)}
        for reset in (ledger.set, ledger.close):
            numpy = numpy_route or reset == ledger.close
            for k, p in rows.items():
                for row in (p, tuple(p)):
                    reset()
                    slides.clear()
                    assert profiles.first_excess(row) == k, (b_run, k)
                    assert slides == ([len(p)] if numpy else [])


@pytest.mark.parametrize("n", [124, 125, 126, 127, 128, 32765, 32766, 32767])
def test_first_excess_of_near_constant_words_at_the_field_top(ledger, n):
    # Fields past n - k of the k <= 3 pass hold 2^(w-1) + p[j] + p[k],
    # which overflows once p[j] + p[k] reaches 2^(w-1); they must not count
    sides = {"a" * n: (0, 0), "b" * n: (0, 0),
             "a" * (n - 1) + "b": (0, 1), "b" + "a" * (n - 1): (1, 0)}
    for w, (a_side, b_side) in sides.items():
        p = prefix_counts(w)
        assert profiles.first_excess(p) == a_side
        assert profiles.first_excess(complement_counts(p)) == b_side
        assert normality_witness(w) == ("a" if a_side else None)
        assert is_prefix_normal(w) == (not a_side)
        pair = pnf_pair(w)
        assert PnfPair(pair.pnf_a, pair.pnf_b) == pair
    assert ledger.balance < profiles._PACKED_FIELDS  # all packed


def test_pnf_pair_rejects_a_b_side_failure_alone():
    rng = random.Random(2418)
    for n in (5, 300):
        pair = pnf_pair(random_word(rng, n))
        bad_b = next(b for b in map(_flipped, [pair.pnf_b] * n, range(n))
                     if not is_prefix_normal(complement(b)))
        with pytest.raises(ValueError) as err:
            PnfPair(pair.pnf_a, bad_b)
        assert str(err.value) == f"{bad_b!r} is not prefix normal (b-side)"
