"""Tests of the benchmark itself: its checks, spec and trace plumbing.

    python3 -m pytest -q bench

These run a handful of small CLI calls and take a few seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import reference as ref
import run
import tracing
import workloads as wl

WORDS = ["ab", "aabbaaba", "abababbabbab" * 7,
         wl.random_word(random.Random(3), 300)]


def cli_output(call: wl.Call, tmp_path):
    with run.Launcher() as launch:
        o = launch.run(call.argv, tmp_path, call.stdin)
    return o.code, o.stdout


@pytest.mark.parametrize("kind", ["pnf", "test", "profiles", "classify"])
def test_corrupted_batch_output_fails(kind, tmp_path):
    facts = {w: ref.WordFacts(w) for w in WORDS}
    call = wl.batch_call(kind, WORDS, [wl.band_of(len(w)) for w in WORDS],
                         facts)
    code, out = cli_output(call, tmp_path)
    assert call.judge(code, out, tmp_path) == [True] * len(WORDS)

    # Flip one symbol in the last word's output: only that item fails.
    lines = out.splitlines()
    last = lines[-1]
    pos = max(last.rfind("a"), last.rfind("b"), last.rfind("1"))
    flipped = {"a": "b", "b": "a", "1": "2"}[last[pos]]
    lines[-1] = last[:pos] + flipped + last[pos + 1:]
    bad = "\n".join(lines) + "\n"
    assert call.judge(code, bad, tmp_path) == [True] * 3 + [False]
    # A dropped line shifts every later block; a wrong exit fails all.
    assert not all(call.judge(code, "\n".join(lines[1:]), tmp_path))
    assert call.judge(code + 5, out, tmp_path) == [False] * len(WORDS)


def test_census_checks_catch_corruption():
    rows = ["n " + " ".join(map(str, range(1, 23))),
            "prefix-normal " + " ".join(map(str, ref.PREFIX_NORMAL_COUNTS)),
            "pre-necklace " + " ".join(map(str, ref.PRE_NECKLACE_COUNTS))]
    good = "\n".join(rows) + "\n"
    assert all(wl._enumerate_check(good, None))
    bad = good.replace(" 87024 ", " 87025 ")
    assert wl._enumerate_check(bad, None).count(False) == 1

    cells = [f"ok   cell {i}" for i in range(ref.VERIFY_CELLS)]
    total = f"{ref.VERIFY_CELLS}/{ref.VERIFY_CELLS} cells match"
    assert all(wl._verify_check("\n".join(cells + [total]), None))
    cells[5] = "FAIL cell 5: expected 1, got 2"
    assert wl._verify_check("\n".join(cells + [total]), None).count(
        False) == 1

    hist = "\n".join(f"{k} {v}" for k, v in ref.CLASS_HISTOGRAM_N20.items())
    verdicts = wl._classes_check("aaab 1\nsize classes\n" + hist, None)
    assert verdicts[0] is False and verdicts[2] is False


def test_members_reference_matches_small_class():
    # The n = 4 census frozen in the package: class aabb has 3 members.
    assert len(ref.class_members("aabb")) == 3
    members = ref.class_members("aabab")
    assert members == sorted(members) and "aabab" in members
    for w in members:
        assert ref.WordFacts(w).pnf_a == "aabab"


def test_same_seed_same_inputs():
    a, b = wl.build_stream(7), wl.build_stream(7)
    assert a.steps[0].calls[0].stdin == b.steps[0].calls[0].stdin
    other = wl.build_stream(8)
    assert other.steps[0].calls[0].stdin != a.steps[0].calls[0].stdin
    counts = {band: a.steps[0].calls[0].bands.count(band)
              for band in wl.STREAM_COUNTS}
    assert counts == wl.STREAM_COUNTS


def test_spec_matches_benchmark_json():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == run.spec()


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copytree(run.ROOT / run.BENCH_DIR, tmp_path / run.BENCH_DIR,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         "stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_needs_ten_samples_beyond():
    assert tracing.tail(list(range(15))) == 14
    assert tracing.tail(list(range(20))) == 9
    assert tracing.tail(list(range(100))) == 89
    assert tracing.tail(list(range(1000))) == 989


def test_self_time_excludes_children():
    tr = tracing.Tracer("t")
    tr.spans = [["outer", 0, 100, -1, None], ["inner", 10, 40, 0, None],
                ["inner", 50, 60, 0, None], ["leaf", 12, 20, 1, None],
                ["inner", 200, 205, -1, None]]
    table = tr.self_times()
    assert table["outer"]["self_ms"] == pytest.approx(60 / 1e6)
    assert table["inner"]["self_ms"] == pytest.approx(37 / 1e6)
    assert table["inner"]["count"] == 3
    # Only the two spans opened inside `outer` have it as parent.
    assert tr.select("inner", parent_prefix="outer") == pytest.approx(
        [30 / 1e9, 10 / 1e9])
