import pytest

from prefixnormal import (WordClass, classify, is_lyndon, is_necklace,
                          is_pre_necklace, is_prefix_normal)

from _oracles import (brute_is_lyndon, brute_is_prefix_normal,
                      brute_pre_necklaces, lyndon_completion_check,
                      words_of_length, words_up_to)


def test_is_lyndon_examples():
    assert is_lyndon("aabbabaabbb")
    assert not is_lyndon("abab")
    assert is_lyndon("a")
    assert is_lyndon("b")
    assert not is_lyndon("")


def test_is_lyndon_against_rotation_oracle():
    for w in words_up_to(12):
        assert is_lyndon(w) == brute_is_lyndon(w)


def test_is_pre_necklace_examples():
    assert is_pre_necklace("aabbabaa")
    assert is_pre_necklace("bbb")
    assert not is_pre_necklace("ba")
    assert is_pre_necklace("")


def test_pre_necklace_against_extension_oracle():
    reference = brute_pre_necklaces(14)
    for w in words_up_to(14):
        assert is_pre_necklace(w) == (w in reference)


def test_is_necklace():
    assert is_necklace("abab")
    assert is_necklace("bbb")
    assert is_necklace("ab")
    assert not is_necklace("aabbabaa")
    assert not is_necklace("")
    # a pre-necklace that is not a full period repetition
    assert is_pre_necklace("aba") and not is_necklace("aba")


def test_lyndon_completion_examples():
    assert lyndon_completion_check("abab") and is_lyndon("ababbbbb")
    assert lyndon_completion_check("a") and is_lyndon("ab")
    # one-directional: non-normal input carries no contract, only a result
    assert isinstance(lyndon_completion_check("aabbaaba"), bool)
    with pytest.raises(ValueError):
        lyndon_completion_check("bbb")


def test_completion_holds_on_prefix_normal():
    for w in words_up_to(12):
        if "a" in w and brute_is_prefix_normal(w):
            assert lyndon_completion_check(w)


def test_prefix_normal_words_are_pre_necklaces():
    for w in words_up_to(14):
        if is_prefix_normal(w):
            assert is_pre_necklace(w)


def test_shortest_pre_necklace_witness():
    # no pre-necklace outside the prefix normal words up to length 7,
    # exactly one at length 8
    for n in range(8):
        assert not [w for w in words_of_length(n)
                    if is_pre_necklace(w) and not is_prefix_normal(w)]
    witnesses = [w for w in words_of_length(8)
                 if is_pre_necklace(w) and not is_prefix_normal(w)]
    assert witnesses == ["aabbabaa"]


def test_non_containment_witnesses():
    assert is_prefix_normal("abab") and not is_lyndon("abab")
    assert is_lyndon("aabbabaabbb") and not is_prefix_normal("aabbabaabbb")


def test_classify():
    c = classify("abab")
    assert c == WordClass(is_lyndon=False, is_necklace=True,
                          is_pre_necklace=True, is_prefix_normal=True)
    c = classify("")
    assert c == WordClass(is_lyndon=False, is_necklace=False,
                          is_pre_necklace=True, is_prefix_normal=True)


def test_classification_implication_chain():
    for w in words_up_to(12):
        c = classify(w)
        if c.is_lyndon:
            assert c.is_necklace
        if c.is_necklace:
            assert c.is_pre_necklace
        if c.is_prefix_normal:
            assert c.is_pre_necklace
