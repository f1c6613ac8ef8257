import inspect
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefixnormal
from prefixnormal import (ALPHABET_MAPS, ParikhVector, ParseError,
                          PrefixNormalTester, a_positions, build_index,
                          build_pnf_a, classify, complement, is_lyndon,
                          is_necklace, is_pre_necklace, is_prefix_normal,
                          normality_witness, parikh, parse_word, pnf_pair,
                          pos_a, prefix_count, prefix_counts, region,
                          reverse)

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


@pytest.mark.parametrize("alphabet", ["ab", "binary"])
def test_parse_matches_a_per_character_scan(alphabet):
    mapping = ALPHABET_MAPS[alphabet]
    pool = "".join(mapping) * 30 + "ab10x"  # 3 of its 65 symbols foreign
    rng = random.Random(2409)
    for _ in range(300):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 80)))
        bad = [i for i, ch in enumerate(text, start=1) if ch not in mapping]
        if bad:
            i = bad[0]
            with pytest.raises(ParseError) as info:
                parse_word(text, alphabet)
            assert info.value.position == i
            assert str(info.value) == (f"invalid character {text[i - 1]!r} "
                                       f"at position {i} "
                                       f"(alphabet {alphabet!r})")
        else:
            assert parse_word(text, alphabet) == "".join(map(mapping.get,
                                                             text))


def test_parikh_examples():
    assert parikh("") == (0, 0)
    assert parikh("aabb") == (2, 2)
    assert parikh(EXAMPLE_WORD) == (10, 10)
    assert parikh("aabb") == ParikhVector(2, 2)
    assert parikh("aabb").length == 4
    v = ParikhVector(b_count=2, a_count=3)
    assert repr(v) == "ParikhVector(a_count=3, b_count=2)"
    assert v == (3, 2) and hash(v) == hash((3, 2)) and v.length == 5
    assert ParikhVector._fields == ("a_count", "b_count")
    assert (v.a_count, v.b_count) == tuple(v) == (3, 2)
    with pytest.raises(AttributeError):
        v.a_count = 1
    with pytest.raises(AttributeError):
        v.extra = 1
    copy = pickle.loads(pickle.dumps(v))
    assert type(copy) is ParikhVector and copy == v


def test_parikh_rejects_foreign_symbols():
    # "abc" once counted as one a and two b's
    for text, position in (("abc", 3), ("xa", 1)):
        with pytest.raises(ParseError) as info:
            parikh(text)
        with pytest.raises(ParseError) as expected:
            prefix_counts(text)
        assert str(info.value) == str(expected.value)
        assert info.value.position == position


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
                                is_prefix_normal, is_lyndon, is_necklace,
                                is_pre_necklace, classify])
def test_foreign_symbols_are_rejected(fn):
    # no symbol other than a is silently read as b; by code point, "bc"
    # and "ax" were Lyndon words while "bb" is not
    for text, position in (("abc", 3), ("xyz", 1), ("ab" * 40 + "A", 81),
                           ("bc", 2), ("ax", 2)):
        with pytest.raises(ParseError) as info:
            fn(text)
        assert info.value.position == position


@pytest.mark.parametrize("fn, args, position", [
    (prefix_count, ("abc", 3), 3),
    (pos_a, ("xax", 1), 1),
    (a_positions, ("xa",), 1),
    (complement, ("abc",), 3),
    (reverse, ("x1",), 1),
], ids=["prefix_count", "pos_a", "a_positions", "complement", "reverse"])
def test_rank_select_and_involutions_reject_foreign_symbols(fn, args,
                                                           position):
    with pytest.raises(ParseError) as info:
        fn(*args)
    assert info.value.position == position


def _feed_each(w):
    tester = PrefixNormalTester()
    for symbol in w:
        tester.feed(symbol)


# The other arguments of the word readers that take more than a word.
_MORE_ARGS = {"prefix_count": (0,), "pos_a": (1,),
              "parikh_set_equal": ("ab",)}


def _word_readers():
    """Every exported function whose first argument is a word, then
    parse_word, the second word of parikh_set_equal and the online tester."""
    for name in prefixnormal.__all__:
        fn = getattr(prefixnormal, name)
        if inspect.isfunction(fn) and next(
                iter(inspect.signature(fn).parameters)) in ("w", "pnf"):
            yield lambda w, fn=fn: fn(w, *_MORE_ARGS.get(fn.__name__, ()))
    yield parse_word
    yield lambda w: prefixnormal.parikh_set_equal("ab", w)
    yield _feed_each


# left draws its length first, so symbols past position 128 are drawn
@settings(max_examples=200)
@given(st.integers(0, 200).flatmap(
           lambda n: st.text("ab", min_size=n, max_size=n)),
       st.characters(exclude_characters="ab"), st.text(max_size=5))
def test_every_word_reader_rejects_a_foreign_symbol(left, symbol, right):
    readers = list(_word_readers())
    assert len(readers) == 31
    for read in readers:
        with pytest.raises(ParseError) as info:
            read(left + symbol + right)
        assert info.value.position == len(left) + 1
