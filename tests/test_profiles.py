import io
import json
import os
import random
import re
import subprocess
import sys
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prefixnormal import (OnesProfile, PnfPair, build_index, build_pnf_a,
                          census, class_census, cli, geometry, index_from_pnf,
                          is_prefix_normal, jpm, max_a_profile, max_b_profile,
                          min_a_profile, normality_witness, pnf,
                          pnf_from_index, pnf_pair, profiles, region,
                          region_csv, reverse)

from prefixnormal.words import complement_counts, prefix_counts

from _oracles import (brute_max_profile, brute_min_a_profile,
                      brute_window_max, random_word, scan_window_max,
                      sturmian, words_of_length, words_up_to)

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


def _rows(w, both):
    counts = prefix_counts(w)
    return [counts, complement_counts(counts)] if both else [counts]


@st.composite
def run_words(draw):
    """Words made of a few runs, some of them long."""
    lengths = draw(st.lists(st.integers(1, 120), max_size=6))
    first = draw(st.sampled_from("ab"))
    other = "b" if first == "a" else "a"
    return "".join((first, other)[i % 2] * m for i, m in enumerate(lengths))


@given(st.one_of(st.text("ab", min_size=62, max_size=66),
                 st.text("ab", max_size=300), run_words()),
       st.booleans())
def test_window_max_matches_brute_scan(w, both):
    rows = _rows(w, both)
    assert profiles.window_max(rows) == brute_window_max(rows)


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 300])
@pytest.mark.parametrize("unit", ["a", "b", "ab", "ba", "aab"])
def test_window_max_on_periodic_words(n, unit):
    rows = _rows((unit * n)[:n], True)
    assert profiles.window_max(rows) == brute_window_max(rows)


@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.text("ab", min_size=n, max_size=n),
                       min_size=1, max_size=50)))
def test_window_max_on_census_shaped_arrays(words):
    rows = [prefix_counts(w) for w in words]
    out = profiles._slide(np.array(rows, dtype=np.int32).T)
    assert out.shape == (len(rows[0]), len(rows))
    assert out.T.tolist() == brute_window_max(rows)


@pytest.mark.parametrize("n", [0, 1, 2, 9])
def test_window_max_on_a_whole_census_chunk(n):
    rows = [prefix_counts(w) for w in words_of_length(n)]
    out = profiles._slide(np.array(rows, dtype=np.int32).T)
    assert out.T.tolist() == brute_window_max(rows)


def _closed_form_bounds(a1, b, a2):
    """max-a and min-a of a^a1 b^b a^a2: a window holds at most k a's from
    one a-block, or all but the b-block's b symbols when it covers it."""
    n = a1 + b + a2
    return ([max(min(k, max(a1, a2)), k - b) for k in range(n + 1)],
            [max(0, k - b) for k in range(n + 1)])


@pytest.mark.parametrize("n", [127, 128, 129, 32767, 32768, 32769])
def test_window_max_at_dtype_boundaries(n):
    # a^n, b^n, a^i b^j and a^i b^j a^k around the int8 and int16 limits
    for a1, b, a2 in ((n, 0, 0), (0, n, 0), (n // 2, n - n // 2, 0),
                      (1, n - 1, 0), (n // 3, n // 3, n - 2 * (n // 3)),
                      (1, n - 2, 1), (0, 1, n - 1)):
        w = "a" * a1 + "b" * b + "a" * a2
        max_a, min_a = _closed_form_bounds(a1, b, a2)
        max_b = complement_counts(min_a)
        assert profiles.window_max(_rows(w, True)) == [max_a, max_b]
        assert profiles.a_count_bounds(w) == (max_a, min_a)


@st.composite
def words_to_300(draw):
    """Words of n <= 300 symbols, with n = 0, 1, 127 and 128 drawn
    explicitly: all a's, all b's, random, or a few runs."""
    n = draw(st.one_of(st.sampled_from([0, 1, 127, 128]),
                       st.integers(0, 300)))
    kind = draw(st.sampled_from(["a", "b", "random", "runs"]))
    if kind == "random":
        return draw(st.text("ab", min_size=n, max_size=n))
    if kind == "runs":
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
        order = draw(st.sampled_from(["ab", "ba"]))
        return "".join(order[i % 2] * (hi - lo) for i, (lo, hi)
                       in enumerate(zip([0, *cuts], [*cuts, n])))
    return kind * n


@given(words_to_300())
def test_packed_slide_matches_numpy_and_brute_scan(w):
    for p in _rows(w, True):
        expected = brute_window_max([p])
        assert [profiles._slide(p)[:, 0].tolist()] == expected
        assert profiles.window_max([p]) == expected
        if len(w) < 128:  # 8-bit fields
            assert [profiles._packed_slide(p, profiles._packed(p))] == expected


@st.composite
def words_128_to_2000(draw):
    """Words of 128 <= n <= 2000 symbols, with n = 128 drawn explicitly:
    all a's, all b's, random, or a few runs."""
    n = draw(st.one_of(st.just(128), st.integers(128, 2000)))
    kind = draw(st.sampled_from(["a", "b", "random", "runs"]))
    if kind == "random":
        return random_word(draw(st.randoms(use_true_random=False)), n)
    if kind == "runs":
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
        order = draw(st.sampled_from(["ab", "ba"]))
        return "".join(order[i % 2] * (hi - lo) for i, (lo, hi)
                       in enumerate(zip([0, *cuts], [*cuts, n])))
    return kind * n


@given(words_128_to_2000())
def test_packed_slide_on_16_bit_fields(w):
    rows = _rows(w, True)
    expected = (brute_window_max if len(w) <= 1000 else scan_window_max)(rows)
    assert [profiles._slide(p)[:, 0].tolist() for p in rows] == expected
    packed = map(profiles._packed, rows)
    assert list(map(profiles._packed_slide, rows, packed)) == expected


def test_16_bit_words_slide_packed_while_the_budget_lasts(monkeypatch,
                                                         ledger):
    # An 8-bit word (n < 128) always slides packed.  A 16-bit word slides
    # packed while the run starts slid so, its own included, stay within
    # _PACKED_STARTS, numpy loaded or not, and takes _slide after that.
    paths = []
    for name in ("_packed_slide", "_slide"):
        real = getattr(profiles, name)
        monkeypatch.setattr(profiles, name, lambda *args, real=real,
                            name=name: paths.append(name) or real(*args))
    rng, spent, seen = random.Random(2412), 0, set()
    for i in range(60):
        n = (127, 128)[i] if i < 2 else rng.randrange(128, 256)
        w = (random_word if i % 2 else _few_runs_word)(rng, n)
        spent += (n >= 128) * len(re.findall("a+|b+", w))  # both rows
        path = ("_packed_slide" if n < 128 or spent <= profiles._PACKED_STARTS
                else "_slide")
        rows, paths[:] = _rows(w, True), []
        assert profiles.window_max(rows) == brute_window_max(rows)
        assert paths == [path, path]
        seen.add((n >= 128, path))
    assert seen == {(False, "_packed_slide"), (True, "_packed_slide"),
                    (True, "_slide")}
    # a random word has more run starts than the whole budget
    ledger.set()
    rows, paths[:] = _rows(random_word(rng, 2000), True), []
    assert profiles.window_max(rows) == scan_window_max(rows)
    assert paths == ["_slide", "_slide"]


def test_one_ledger_serves_the_slide_and_first_excess(monkeypatch, ledger):
    # The slide's run starts and first_excess's fields draw on one ledger,
    # and the first numpy slide, from any caller, closes it for both.
    w = build_pnf_a(random_word(random.Random(2422), 300))
    slides, real = [], profiles._slide
    monkeypatch.setattr(profiles, "_slide",
                        lambda q: slides.append(len(q)) or real(q))
    ledger.set()  # build_pnf_a charged it
    rows, starts = _rows(w, True), len(re.findall("a+|b+", w))
    expected = scan_window_max(rows)
    assert profiles.window_max(rows) == expected
    slid = starts * (profiles._PACKED_FIELDS // profiles._PACKED_STARTS)
    assert ledger.balance == slid
    assert profiles.first_excess(rows[0]) == 0
    assert slid < ledger.balance < profiles._PACKED_FIELDS
    assert slides == []
    assert profiles._slide(np.array(rows).T).T.tolist() == expected
    assert ledger.closed
    assert profiles.window_max(rows) == expected
    assert profiles.first_excess(rows[0]) == 0
    assert slides == [301] * 4


_ROUTE_SCRIPT = """
import json, sys
from prefixnormal import profiles
from prefixnormal.words import complement_counts, prefix_counts
slide, slid = profiles._slide, []
def counted(q):
    slid.append(profiles._packed_spent)
    return slide(q)
profiles._slide = counted
for name, w in json.load(sys.stdin):
    p, slid[:] = prefix_counts(w), []
    out = (profiles.window_max([p, complement_counts(p)])
           if name == "window_max" else profiles.first_excess(p))
    print(json.dumps([out, slid, profiles._packed_spent]))
"""


def _routes_in_a_new_process(calls):
    """[result, ledger balance at each numpy slide, balance after] of each
    (kernel name, word) call, run in order in one new process."""
    src = str(Path(profiles.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _ROUTE_SCRIPT],
                          input=json.dumps(calls), capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _long_runs_word(rng, n):
    runs = []
    while sum(map(len, runs)) < n:
        runs.append("ab"[len(runs) % 2] * rng.randint(1, n // 8))
    return "".join(runs)[:n]


def test_kernel_routes_and_ledger_balances_are_pinned():
    # A characterisation of the route rule: two fixed sequences of rows,
    # each from the ledger of a new process, through window_max (both rows
    # of a word) and first_excess (its a-row).  Each call pins its result,
    # the balance every numpy slide starts from (none: the packed route)
    # and the balance after it.  A 16-bit row that does not fit and a
    # balanced row handed to numpy part way close the ledger; 8-bit rows
    # stay packed on a closed one, and 32768-symbol rows take numpy.
    rng, pnf = random.Random(2441), lambda n: build_pnf_a(random_word(rng, n))
    shut, three_runs = profiles._PACKED_FIELDS, "a" * 12000 + "b" * 9000 + (
        "a" * 11768)
    sequences = [[
        ("window_max", random_word(rng, 100), None, [], 0),
        ("first_excess", pnf(127), 0, [], 0),
        ("window_max", _long_runs_word(rng, 128), None, [], 307200),
        ("first_excess", pnf(128), 0, [], 317891),
        ("window_max", _long_runs_word(rng, 16000), None, [], 625091),
        ("first_excess", pnf(3000), 0, [], 1003031),
        ("first_excess", random_word(rng, 16000), 3, [], 1003031),
        ("first_excess", pnf(16000), 0, [], 4034432),
        ("window_max", random_word(rng, 300), None, [], 7372672),
        ("window_max", random_word(rng, 1000), None, [7372672, shut], shut),
        ("first_excess", pnf(100), 0, [], shut),
        ("first_excess", pnf(300), 0, [shut], shut),
    ], [
        ("first_excess", "ab" * 5000, 0, [224051], shut),
        ("window_max", _long_runs_word(rng, 1000), None, [shut, shut], shut),
        ("window_max", random_word(rng, 120), None, [], shut),
        ("first_excess", three_runs, 0, [shut], shut),
        ("window_max", three_runs, None, [shut, shut], shut),
    ]]
    for calls in sequences:
        got = _routes_in_a_new_process([call[:2] for call in calls])
        assert len(got) == len(calls)
        for (name, w, excess, slid, balance), (out, *route) in zip(calls, got):
            assert route == [slid, balance], (name, len(w))
            if name == "first_excess":
                assert out == excess, len(w)
            elif w == three_runs:
                max_a, min_a = _closed_form_bounds(12000, 9000, 11768)
                assert out == [max_a, complement_counts(min_a)]
            else:
                assert out == scan_window_max(_rows(w, True)), len(w)


def _block_estimate(p, B=None):
    """The fields first_excess reserves for the block scan of the row p:
    its 1-run starts times n // 2 // B + 256, at its own B by default."""
    n = len(p) - 1
    starts = sum(p[t + 1] - p[t] > (t and p[t] - p[t - 1]) for t in range(n))
    return starts * (n // 2 // (B or isqrt(n) >> 3 or 1) + 256)


def test_balanced_rows_go_to_numpy_within_their_estimate(monkeypatch,
                                                         ledger):
    # Every block of a balanced row fails the bound.  At 10^4 symbols and
    # more it would not fit the ledger at B = 1, so its exact work may pass
    # its block work by _EXIT_FIELDS only: it goes to numpy early, having
    # charged at most its estimate plus _EXIT_FIELDS.
    handed, real = [], profiles._slide
    monkeypatch.setattr(profiles, "_slide", lambda q: handed.append(
        ledger.balance) or real(q))
    for w in ("ab" * 5000, build_pnf_a(sturmian(10 ** 4)), "ab" * 8000,
              build_pnf_a(sturmian(16000))):
        p = prefix_counts(w)
        for spent in (0, profiles._PACKED_FIELDS // 3):
            ledger.set(spent)
            handed.clear()
            assert profiles.first_excess(p) == 0
            assert len(handed) == 1
            assert spent < handed[0] <= spent + _block_estimate(p) + (
                profiles._EXIT_FIELDS)
            assert handed[0] <= profiles._PACKED_FIELDS
    # one that fits at B = 1 decides packed, however many blocks fail
    ledger.set()
    handed.clear()
    assert profiles.first_excess(prefix_counts("ab" * 1500)) == 0
    assert handed == [] and ledger.balance < profiles._PACKED_FIELDS


def test_first_excess_never_passes_the_ledger(monkeypatch, ledger):
    # a row rents only if its block estimate fits, and its exact work never
    # takes the ledger past _PACKED_FIELDS; a row handed to numpy has
    # charged at most its estimate plus _EXIT_FIELDS
    rng = random.Random(2434)
    rows = [prefix_counts(build_pnf_a(random_word(rng, n)))
            for n in (16000, 10 ** 4, 3000, 16000, 16000)]
    rows[2:2] = [prefix_counts("ab" * 3000), prefix_counts("ab" * 5000)]
    slides, real = [], profiles._slide
    monkeypatch.setattr(profiles, "_slide", lambda q: slides.append(
        ledger.balance) or real(q))
    for start in range(0, profiles._PACKED_FIELDS, 1 << 20):
        ledger.set(start)
        slides.clear()
        for p in rows:
            spent = ledger.balance
            assert profiles.first_excess(p) == 0
            if spent < profiles._PACKED_FIELDS and not slides:
                assert ledger.balance <= profiles._PACKED_FIELDS
            elif spent < profiles._PACKED_FIELDS:  # handed to numpy
                assert slides[0] <= min(profiles._PACKED_FIELDS, spent + (
                    _block_estimate(p) + profiles._EXIT_FIELDS))
        assert slides


def test_rows_rent_exactly_what_the_room_holds(monkeypatch, ledger):
    # A row goes packed while the room left holds its block estimate (at
    # n < 256, B = 1: no exact work), and a balanced row of B > 1 decides
    # packed while the room would also hold it at B = 1; a field less
    # sends either to numpy.  A row with no 1-run start costs nothing: it
    # goes packed while a field is left, to numpy once the ledger is
    # closed, and at 32768 symbols however much is left.
    slides, real = [], profiles._slide
    monkeypatch.setattr(profiles, "_slide",
                        lambda q: slides.append(len(q)) or real(q))
    fields = profiles._PACKED_FIELDS
    normal = prefix_counts(build_pnf_a(random_word(random.Random(2442), 200)))
    balanced = prefix_counts("ab" * 1500)
    for p, room in ((normal, _block_estimate(normal)), (balanced, (
            _block_estimate(balanced) + _block_estimate(balanced, 1)))):
        for less, route in ((0, []), (1, [len(p)])):
            ledger.set(fields - room + less)
            slides.clear()
            assert profiles.first_excess(p) == 0
            assert slides == route
    for n, room in ((200, 1), (200, 0), (32768, fields)):
        p = prefix_counts("b" * n)
        ledger.set(fields - room)
        slides.clear()
        assert profiles.first_excess(p) == 0
        assert profiles.window_max([p]) == [[0] * (n + 1)]
        assert slides == ([] if room and n < 32768 else [n + 1] * 2)


def test_packed_slide_at_the_last_16_bit_length():
    # a^a1 b^b a^a2 with n = 32767, the longest word with 16-bit fields
    a1, b, a2 = 12000, 9000, 11767
    w = "a" * a1 + "b" * b + "a" * a2
    max_a, min_a = _closed_form_bounds(a1, b, a2)
    expected = [max_a, complement_counts(min_a)]
    rows = _rows(w, True)
    packed = map(profiles._packed, rows)
    assert list(map(profiles._packed_slide, rows, packed)) == expected
    assert [profiles._slide(p)[:, 0].tolist() for p in rows] == expected


def _few_runs_word(rng, n):
    runs = []
    while sum(map(len, runs)) < n:
        runs.append("ab"[len(runs) % 2] * rng.randint(1, 60))
    return "".join(runs)[:n]


@pytest.mark.parametrize("starts", [2, 3, 7])
def test_window_max_in_blocks_of_run_starts(monkeypatch, starts):
    # A budget of `starts` windows of full length per column: a row whose
    # first run start is 0 (the a-row of a word starting with a, else the
    # b-row) takes exactly that many starts in its first pass, and every
    # later pass takes at least as many.
    rng = random.Random(2410 + starts)
    for i in range(40):
        n = rng.randint(64, 300)
        w = (random_word if i % 2 else _few_runs_word)(rng, n)
        rows = _rows(w, True)
        monkeypatch.setattr(profiles, "_BLOCK_BUDGET", starts * (n + 1))
        assert profiles.window_max(rows) == brute_window_max(rows)
        batch = [prefix_counts(random_word(rng, n)) for _ in range(5)]
        monkeypatch.setattr(profiles, "_BLOCK_BUDGET", starts * (n + 1) * 5)
        out = profiles._slide(np.array(batch, dtype=np.int32).T)
        assert out.T.tolist() == brute_window_max(batch)


@pytest.mark.parametrize("n", [127, 128, 129, 32767, 32768])
def test_blocked_padding_at_dtype_limits(n):
    # A padded window's count, -1 - rows[s], must stay inside the kernel
    # dtype and below every real count; random words of these lengths
    # slide in blocks under the default budget.
    rows = _rows(random_word(random.Random(2411 + n), n), True)
    oracle = brute_window_max if n < 1000 else scan_window_max
    assert profiles.window_max(rows) == oracle(rows)


@pytest.mark.parametrize("n", [0, 1, 9, 70])
def test_window_max_array_dtypes_and_layouts(n):
    rng = random.Random(2206 + n)
    rows = [prefix_counts(random_word(rng, n)) for _ in range(40)]
    expected = brute_window_max(rows)
    for dtype in (np.int8, np.int32):
        out = profiles._slide(np.array(rows, dtype=dtype).T)
        assert out.T.tolist() == expected
    block = np.ascontiguousarray(np.array(rows, dtype=np.int8).T)
    out = profiles._slide(block)
    assert out.dtype == np.int8 and out.T.tolist() == expected


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


def test_profile_step_error_names_the_first_bad_step():
    # a 0-step before the bad one: the rescan must skip steps of 0 and 1
    with pytest.raises(ValueError, match=r"step at k=2 is 2, expected 0 or 1"):
        OnesProfile("max-a", (0, 0, 2))


def test_trusted_builds_pass_the_public_checks():
    # The builders skip the constructors' checks; rebuilding each value
    # through its public constructor must accept it and give it back.
    rng = random.Random(2408)
    words = list(words_up_to(10)) + [random_word(rng, n)
                                     for n in (63, 64, 300, 2000)]
    for w in words:
        for prof in (max_a_profile(w), max_b_profile(w), min_a_profile(w)):
            assert OnesProfile(prof.kind, prof.values) == prof
        ix = build_index(w)
        rebuilt = jpm.JumbledIndex(
            ix.n, OnesProfile(ix.max_a.kind, ix.max_a.values),
            OnesProfile(ix.min_a.kind, ix.min_a.values))
        assert rebuilt == ix
        for pair in (pnf_pair(w), pnf_from_index(ix)):
            assert PnfPair(pair.pnf_a, pair.pnf_b) == pair
        reg = region(w)
        assert geometry.RegionProfile(reg.upper, reg.lower) == reg


def test_one_kernel_call_per_word_and_per_chunk(monkeypatch, capsys,
                                               tmp_path):
    # (window_max or census _slide calls, first_excess calls): a normality
    # decision makes one first_excess call per side it decides, and no
    # window_max call
    calls, sides = [], []
    kernel, decide = profiles.window_max, profiles.first_excess

    def counted(rows):
        calls.append(len(rows))
        return kernel(rows)

    def counted_decision(p):
        sides.append(len(p))
        return decide(p)

    for module in (cli, geometry, jpm, pnf, profiles):
        if hasattr(module, "window_max"):
            monkeypatch.setattr(module, "window_max", counted)
        if hasattr(module, "first_excess"):
            monkeypatch.setattr(module, "first_excess", counted_decision)
    slide = census._slide  # the census slides its chunks itself
    monkeypatch.setattr(census, "_slide",
                        lambda q: calls.append(q.shape[1]) or slide(q))

    def kernel_calls(fn, *args):
        calls.clear()
        sides.clear()
        fn(*args)
        return len(calls), len(sides)

    decided_sides = {PnfPair: 2, pnf_from_index: 0, index_from_pnf: 0,
                     normality_witness: 1, is_prefix_normal: 1}
    long_word = random_word(random.Random(2205), 300)
    for w in (EXAMPLE_WORD, long_word, build_pnf_a(long_word)):
        pair = pnf_pair(w)
        ix = build_index(w)
        for fn, args in ((pnf_pair, (w,)), (build_index, (w,)),
                         (PnfPair, (pair.pnf_a, pair.pnf_b)),
                         (pnf_from_index, (ix,)), (index_from_pnf, (pair,)),
                         (region, (w,)),
                         (region_csv, (w,)), (normality_witness, (w,)),
                         (is_prefix_normal, (w,))):
            expected = ((0, decided_sides[fn]) if fn in decided_sides
                        else (1, 0))
            assert kernel_calls(fn, *args) == expected, (fn.__name__, len(w))

    words = [EXAMPLE_WORD, long_word, "ab"]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(words) + "\n"))
    assert kernel_calls(cli.main, ["profiles", "-"]) == (len(words), 0)
    capsys.readouterr()
    for w in (EXAMPLE_WORD, long_word):
        argv = ["region", w, "-o", str(tmp_path / "r.svg"),
                "--csv", str(tmp_path / "r.csv")]
        assert kernel_calls(cli.main, argv) == (1, 0)

    # one kernel call per chunk of 2^13 words fixed on r = 2 symbols a
    # side, one of each pair of reversed twins: (4^r + 2^r) / 2
    assert kernel_calls(class_census, 17) == (10, 0)

    for w in (EXAMPLE_WORD, long_word):
        index_file = str(tmp_path / "ix.json")
        cli.main(["index", "build", w, "-o", index_file])
        assert kernel_calls(cli.main, ["index", "pnf", index_file]) == (0, 2)
        assert kernel_calls(cli.main, ["index", "query", index_file,
                                       "3", "2"]) == (0, 2)
    capsys.readouterr()


@pytest.fixture
def kernel_rows(monkeypatch):
    """The number of rows of each kernel call made while the test runs; a
    first_excess call decides one row."""
    calls = []
    kernel, decide = profiles.window_max, profiles.first_excess

    def counted(rows):
        calls.append(len(rows))
        return kernel(rows)

    def counted_decision(p):
        calls.append(1)
        return decide(p)

    for module in (cli, geometry, jpm, pnf, profiles):
        if hasattr(module, "window_max"):
            monkeypatch.setattr(module, "window_max", counted)
        if hasattr(module, "first_excess"):
            monkeypatch.setattr(module, "first_excess", counted_decision)
    slide = census._slide
    monkeypatch.setattr(census, "_slide",
                        lambda q: calls.append(q.shape[1]) or slide(q))
    return calls


def test_members_bound_checked_before_the_kernel(capsys, kernel_rows):
    word = "b" + "a" * 5000  # not prefix normal
    assert cli.main(["classes", "--members", word]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: length 5001 exceeds the census bound")
    assert word not in err and len(err) < 100
    assert kernel_rows == []
