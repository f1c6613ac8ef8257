import random

import numpy as np
import pytest

from prefixnormal import (JumbledIndex, OnesProfile, PnfPair, build_index,
                          index_from_json, index_from_pnf, index_to_json,
                          parikh_set_equal, parikh_set_oracle, pnf_from_index,
                          pnf_pair, query, reverse)

from _oracles import brute_parikh_set, random_word, words_of_length, words_up_to

EXAMPLE_WORD = "ababbaabaabbbaaabbab"
EXAMPLE_FA = (0, 1, 2, 3, 3, 4, 4, 4, 5, 5, 6, 7, 7, 7, 8, 8, 9, 9, 9, 10, 10)
EXAMPLE_FB = (0, 1, 2, 3, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 8, 8, 9, 9, 10, 10)


def test_build_examples():
    assert build_index("").max_a.values == (0,)
    assert build_index("").min_a.values == (0,)
    ix = build_index(EXAMPLE_WORD)
    assert ix.max_a.values == EXAMPLE_FA
    assert ix.min_a.values == tuple(k - v for k, v in enumerate(EXAMPLE_FB))
    ix = build_index("aabb")
    assert ix.max_a.values == (0, 1, 2, 2, 2)
    assert ix.min_a.values == (0, 0, 0, 1, 2)


def test_query_examples():
    ix = build_index(EXAMPLE_WORD)
    assert query(ix, (0, 0))
    assert query(build_index(""), (0, 0))
    assert query(ix, (4, 1))
    assert not query(ix, (5, 0))
    assert query(build_index("aabb"), (1, 1))
    assert not query(ix, (11, 10))  # longer than the text
    assert not query(ix, (-1, 2))


def test_index_validation():
    with pytest.raises(ValueError):
        JumbledIndex(2, OnesProfile("max-a", (0, 0, 1)),
                     OnesProfile("min-a", (0, 1, 1)))
    with pytest.raises(ValueError):
        JumbledIndex(2, OnesProfile("max-a", (0, 1, 1)),
                     OnesProfile("max-a", (0, 0, 0)))
    with pytest.raises(ValueError):
        JumbledIndex(3, OnesProfile("max-a", (0, 1, 1)),
                     OnesProfile("min-a", (0, 0, 0)))


def test_index_from_pnf_examples():
    ix = index_from_pnf(PnfPair("aaababbabaabbababbab",
                                "bbbaababababaabababa"))
    assert ix == build_index(EXAMPLE_WORD)
    with pytest.raises(ValueError):
        index_from_pnf(PnfPair("aaaa", "bbbb"))
    ix = index_from_pnf(PnfPair("ab", "ba"))
    assert ix.max_a.values == (0, 1, 1)
    assert ix.min_a.values == (0, 0, 1)


def test_pnf_from_index_examples():
    pair = pnf_from_index(build_index(EXAMPLE_WORD))
    assert pair == PnfPair("aaababbabaabbababbab", "bbbaababababaabababa")
    assert pnf_from_index(build_index("")) == PnfPair("", "")
    assert pnf_from_index(build_index("aabb")) == PnfPair("aabb", "bbaa")


def test_round_trip_exhaustive():
    for w in words_up_to(10):
        pair = pnf_pair(w)
        ix = index_from_pnf(pair)
        assert ix == build_index(w)
        assert pnf_from_index(ix) == pair
        assert index_from_pnf(pnf_from_index(ix)) == ix


def test_round_trip_random_long():
    rng = random.Random(2401)
    for _ in range(50):
        w = random_word(rng, rng.randint(0, 200))
        pair = pnf_pair(w)
        assert pnf_from_index(index_from_pnf(pair)) == pair


def test_parikh_set_equal_examples():
    assert parikh_set_equal("aabb", "bbaa")
    assert brute_parikh_set("aabb") == brute_parikh_set("bbaa")
    assert not parikh_set_equal("abba", "abab")
    rng = random.Random(2402)
    for _ in range(50):
        w = random_word(rng, rng.randint(0, 120))
        assert parikh_set_equal(w, reverse(w))


def test_parikh_set_characterization_all_pairs():
    # grouping every word of a length by its factor Parikh-vector set and
    # by its normal-form pair must produce the same partition, which is
    # the all-pairs statement in one pass
    for n in range(11):
        by_pset = {}
        by_pair = {}
        for w in words_of_length(n):
            by_pset.setdefault(frozenset(brute_parikh_set(w)), set()).add(w)
            pair = pnf_pair(w)
            by_pair.setdefault((pair.pnf_a, pair.pnf_b), set()).add(w)
        assert set(map(frozenset, by_pset.values())) == \
            set(map(frozenset, by_pair.values()))


def test_oracle_examples():
    assert parikh_set_oracle("") == {(0, 0)}
    assert parikh_set_oracle("ab") == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert parikh_set_oracle("aa") == {(0, 0), (1, 0), (2, 0)}
    with pytest.raises(ValueError):
        parikh_set_oracle("ab" * 30, bound=50)


def test_oracle_matches_slice_enumeration():
    for w in words_up_to(10):
        assert parikh_set_oracle(w) == brute_parikh_set(w)


def test_interval_property_exhaustive():
    for w in words_up_to(10):
        ix = build_index(w)
        occurring = brute_parikh_set(w)
        for k in range(len(w) + 1):
            xs = sorted(x for x, y in occurring if x + y == k)
            assert xs == list(range(ix.min_a[k], ix.max_a[k] + 1))
            hits = [x for x in range(k + 1) if query(ix, (x, k - x))]
            assert hits == xs


def test_query_agrees_with_oracle_random():
    # index content versus the factor-enumeration oracle on random texts,
    # with spot queries at and around the interval boundaries
    rng = random.Random(2403)
    for _ in range(10_000):
        w = random_word(rng, rng.randint(0, 200))
        n = len(w)
        ix = build_index(w)
        occurring = parikh_set_oracle(w)
        by_len = {}
        for a, b in occurring:
            by_len.setdefault(a + b, []).append(a)
        lo = np.array([min(by_len[k]) for k in range(n + 1)])
        hi = np.array([max(by_len[k]) for k in range(n + 1)])
        assert (np.asarray(ix.min_a.values) == lo).all()
        assert (np.asarray(ix.max_a.values) == hi).all()
        assert all(len(set(by_len[k])) == hi[k] - lo[k] + 1
                   for k in range(n + 1))
        for _ in range(10):
            k = rng.randint(0, n)
            edge = rng.choice((ix.min_a[k] - 1, ix.min_a[k],
                               ix.max_a[k], ix.max_a[k] + 1))
            expected = (edge, k - edge) in occurring
            assert query(ix, (edge, k - edge)) == expected
        assert not query(ix, (n + 1, 0))


def test_json_round_trip():
    ix = build_index(EXAMPLE_WORD)
    assert index_from_json(index_to_json(ix)) == ix
    doc = index_to_json(build_index(""))
    assert index_from_json(doc).n == 0


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        index_from_json("not json at all {")
    with pytest.raises(ValueError):
        index_from_json('{"version": 9, "n": 0, "maxA": [0], "minA": [0]}')
    with pytest.raises(ValueError):
        index_from_json('{"version": 1, "n": 0, "maxA": [0]}')
    with pytest.raises(ValueError):
        index_from_json('[1, 2]')
    with pytest.raises(ValueError):
        index_from_json('{"version": 1, "n": 1, "maxA": [0, 2],'
                        ' "minA": [0, 0]}')


@pytest.mark.parametrize("fields", [
    '"version": 1, "n": 1, "maxA": 5, "minA": [0, 0]',
    '"version": 1, "n": 1, "maxA": [0, 1], "minA": "00"',
    '"version": 1, "n": true, "maxA": [0, 1], "minA": [0, 0]',
    '"version": 1, "n": 1.0, "maxA": [0, 1], "minA": [0, 0]',
    '"version": 1, "n": 1, "maxA": [0, true], "minA": [0, false]',
    '"version": 1, "n": 1, "maxA": [0, 1], "minA": null',
    '"version": true, "n": 0, "maxA": [0], "minA": [0]',
])
def test_json_rejects_wrong_field_types(fields):
    with pytest.raises(ValueError):
        index_from_json("{" + fields + "}")
