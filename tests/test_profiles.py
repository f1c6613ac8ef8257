import io
import random

import pytest

from prefixnormal import (OnesProfile, PnfPair, build_index, build_pnf_a,
                          census, class_census, cli, geometry, is_prefix_normal,
                          jpm, max_a_profile, max_b_profile, min_a_profile,
                          normality_witness, pnf, pnf_from_index, pnf_pair,
                          profiles, region, region_csv, reverse)

from _oracles import (brute_max_profile, brute_min_a_profile, random_word,
                      words_up_to)

EXAMPLE_WORD = "ababbaabaabbbaaabbab"
EXAMPLE_FA = [0, 1, 2, 3, 3, 4, 4, 4, 5, 5, 6, 7, 7, 7, 8, 8, 9, 9, 9, 10, 10]
EXAMPLE_FB = [0, 1, 2, 3, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 8, 8, 9, 9, 10, 10]


def test_max_a_examples():
    assert list(max_a_profile("").values) == [0]
    assert list(max_a_profile(EXAMPLE_WORD).values) == EXAMPLE_FA
    assert list(max_a_profile("bbb").values) == [0, 0, 0, 0]


def test_max_b_examples():
    assert list(max_b_profile(EXAMPLE_WORD).values) == EXAMPLE_FB
    assert list(max_b_profile("aaa").values) == [0, 0, 0, 0]
    assert list(max_b_profile("ab").values) == [0, 1, 1]


def test_min_a_examples():
    assert min_a_profile(EXAMPLE_WORD).values[5] == 5 - 3
    assert list(min_a_profile("aaaa").values) == [0, 1, 2, 3, 4]
    assert list(min_a_profile("aabb").values) == [0, 0, 0, 1, 2]


def test_profile_metadata():
    p = max_a_profile("abba")
    assert p.kind == "max-a" and p.n == 4 and p[2] == 1


def test_oracle_equivalence_exhaustive():
    for w in words_up_to(10):
        assert list(max_a_profile(w).values) == brute_max_profile(w, "a")
        assert list(max_b_profile(w).values) == brute_max_profile(w, "b")
        assert list(min_a_profile(w).values) == brute_min_a_profile(w)


def test_oracle_equivalence_random_long():
    # covers the vectorized branch of the window computation
    rng = random.Random(2201)
    for _ in range(40):
        w = random_word(rng, rng.randint(64, 160))
        assert list(max_a_profile(w).values) == brute_max_profile(w, "a")
        assert list(min_a_profile(w).values) == brute_min_a_profile(w)


def _check_subadditive(values):
    n = len(values) - 1
    for j in range(n + 1):
        for i in range(j + 1):
            assert values[j] - values[i] <= values[j - i]


def test_subadditivity_exhaustive():
    for w in words_up_to(10):
        _check_subadditive(max_a_profile(w).values)


def test_subadditivity_random():
    rng = random.Random(2202)
    for _ in range(60):
        w = random_word(rng, rng.randint(0, 300))
        v = max_a_profile(w).values
        n = len(v) - 1
        for d in range(n + 1):
            assert max(v[j] - v[j - d] for j in range(d, n + 1)) <= v[d]


def test_duality_and_reversal():
    rng = random.Random(2203)
    words = list(words_up_to(8)) + [
        random_word(rng, rng.randint(0, 200)) for _ in range(100)]
    for w in words:
        min_a = min_a_profile(w).values
        max_b = max_b_profile(w).values
        assert all(min_a[k] + max_b[k] == k for k in range(len(w) + 1))
        assert max_a_profile(w).values == max_a_profile(reverse(w)).values


def test_step_invariant_on_produced_profiles():
    rng = random.Random(2204)
    for _ in range(100):
        w = random_word(rng, rng.randint(0, 120))
        for prof in (max_a_profile(w), max_b_profile(w), min_a_profile(w)):
            v = prof.values
            assert v[0] == 0
            assert all(v[k] - v[k - 1] in (0, 1) for k in range(1, len(v)))
            assert all(v[k] <= k for k in range(len(v)))


def test_profile_validation_rejects_bad_arrays():
    with pytest.raises(ValueError):
        OnesProfile("max-a", (0, 2))
    with pytest.raises(ValueError):
        OnesProfile("max-a", (1, 1))
    with pytest.raises(ValueError):
        OnesProfile("max-a", ())
    with pytest.raises(ValueError):
        OnesProfile("max-a", (0, 1, 0))
    with pytest.raises(ValueError):
        OnesProfile("median", (0, 1))


def test_one_kernel_call_per_word_and_per_chunk(monkeypatch, capsys):
    calls = []
    kernel = profiles.window_max

    def counted(rows):
        calls.append(len(rows))
        return kernel(rows)

    for module in (census, cli, geometry, jpm, pnf, profiles):
        if hasattr(module, "window_max"):
            monkeypatch.setattr(module, "window_max", counted)

    def kernel_calls(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    long_word = random_word(random.Random(2205), 300)
    for w in (EXAMPLE_WORD, long_word, build_pnf_a(long_word)):
        pair = pnf_pair(w)
        ix = build_index(w)
        for fn, args in ((pnf_pair, (w,)), (build_index, (w,)),
                         (PnfPair, (pair.pnf_a, pair.pnf_b)),
                         (pnf_from_index, (ix,)), (region, (w,)),
                         (region_csv, (w,)), (normality_witness, (w,)),
                         (is_prefix_normal, (w,))):
            assert kernel_calls(fn, *args) == 1, (fn.__name__, len(w))

    words = [EXAMPLE_WORD, long_word, "ab"]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(words) + "\n"))
    assert kernel_calls(cli.main, ["profiles", "-"]) == len(words)
    capsys.readouterr()

    assert kernel_calls(class_census, 17) == len(census._chunk_ranges(17))
