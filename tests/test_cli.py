import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import accumulate
from operator import le, sub
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefixnormal
from prefixnormal import census, cli, geometry, jpm, profiles
from prefixnormal.census import (CLASS_HISTOGRAM_N8, CLASS_SIZES_N8,
                                 PREFIX_NORMAL_COUNTS, class_members)
from prefixnormal.cli import main
from prefixnormal.geometry import SUFFIX_PATHS_BOUND
from prefixnormal.pnf import build_pnf_a

from _oracles import (assert_same_text, class_members_by_scan, excess_by_scan,
                      profile_table_by_cells, random_word, with_prefix_pasted)

EXAMPLE_WORD = "ababbaabaabbbaaabbab"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pnf_text(capsys):
    code, out, _ = run(capsys, "pnf", EXAMPLE_WORD)
    assert code == 0
    assert out == ("PNF_a: aaababbabaabbababbab\n"
                   "PNF_b: bbbaababababaabababa\n")


def test_pnf_json(capsys):
    code, out, _ = run(capsys, "pnf", "--format", "json", "aabb")
    assert code == 0
    assert json.loads(out) == {"word": "aabb", "pnfA": "aabb",
                               "pnfB": "bbaa"}


def test_pnf_binary_alphabet(capsys):
    code, out, _ = run(capsys, "pnf", "--alphabet", "binary", "1100")
    assert code == 0
    assert out.startswith("PNF_a: aabb")


def test_test_verdicts(capsys):
    code, out, _ = run(capsys, "test", "aabbaaba")
    assert code == 1
    assert out == "not-normal\nwitness: aaba\n"
    code, out, _ = run(capsys, "test", "abab")
    assert code == 0
    assert out == "normal\n"


def test_test_json(capsys):
    code, out, _ = run(capsys, "test", "--format", "json", "aabbaaba")
    assert code == 1
    assert json.loads(out) == {"word": "aabbaaba", "normal": False,
                               "witness": "aaba"}


def test_stdin_batch(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("abab\naabbaaba\n\n"))
    code, out, _ = run(capsys, "test", "-")
    assert code == 1
    assert out == "normal\nnot-normal\nwitness: aaba\n"


@pytest.mark.parametrize("command", ["pnf", "test", "profiles", "classify"])
def test_stdin_batch_goes_on_after_a_bad_line(capsys, monkeypatch, command):
    expected = "".join(run(capsys, command, w)[1]
                       for w in ("abab", "aabbaaba"))
    monkeypatch.setattr("sys.stdin", io.StringIO("abab\nabxb\n\naabbaaba\n"))
    code, out, err = run(capsys, command, "-")
    assert (code, out) == (2, expected)
    assert err == ("error: line 2: invalid character 'x' at position 3 "
                   "(alphabet 'ab')\n")


def test_stdin_batch_writes_each_result_before_reading_on(capsys,
                                                         monkeypatch):
    written = []

    def lines():
        yield "aabbaaba\n"
        written.append(capsys.readouterr().out)
        yield "abab\n"

    monkeypatch.setattr("sys.stdin", lines())
    code, out, _ = run(capsys, "test", "-")
    assert written == ["not-normal\nwitness: aaba\n"]
    assert (code, out) == (1, "normal\n")


def test_profiles_text(capsys):
    code, out, _ = run(capsys, "profiles", "ab")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["k", "0", "1", "2"]
    assert lines[1].split() == ["F_a", "0", "1", "1"]
    assert lines[2].split() == ["F_b", "0", "1", "1"]


def test_profiles_json(capsys):
    code, out, _ = run(capsys, "profiles", "--format", "json", "aabb")
    assert code == 0
    assert json.loads(out) == {
        "n": 4,
        "Fa": [0, 1, 2, 2, 2],
        "Fb": [0, 1, 2, 2, 2],
        "fa": [0, 0, 0, 1, 2],
    }


@pytest.mark.parametrize("order", ["increasing", "decreasing"])
def test_profile_table_matches_the_per_cell_oracle(capsys, monkeypatch,
                                                  order):
    # lengths on both sides of each new column width, in an order that
    # grows the padded-number cache from empty or fills the short widths
    # last; the empty word comes as an argument, since a batch skips blank
    # lines
    monkeypatch.setattr(cli, "_PADDED", {})
    rng = random.Random(order)
    lengths = [1, 9, 10, 99, 100, 999, 1000, 10_000]
    if order == "decreasing":
        lengths.reverse()
    words = [random_word(rng, n) for n in lengths]
    expected = {w: profile_table_by_cells(
        list(profiles.max_a_profile(w).values),
        list(profiles.max_b_profile(w).values)) + "\n"
        for w in ["", *words]}
    assert expected[""] == "k    0\nF_a  0\nF_b  0\n"
    if order == "increasing":
        assert run(capsys, "profiles", "") == (0, expected[""], "")
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(words) + "\n"))
    code, out, err = run(capsys, "profiles", "-")
    assert (code, err) == (0, "")
    assert_same_text(out, "".join(expected[w] for w in words))
    if order == "decreasing":
        assert run(capsys, "profiles", "") == (0, expected[""], "")
    # each width holds the numbers up to the longest word, and no more
    assert [len(cli._PADDED[d]) for d in range(1, 6)] == [
        10, 100, 1000, 10_000, 10_001]


def test_query_command(capsys):
    code, out, _ = run(capsys, "query", EXAMPLE_WORD, "4", "1")
    assert (code, out) == (0, "occurs\n")
    code, out, _ = run(capsys, "query", EXAMPLE_WORD, "5", "0")
    assert (code, out) == (1, "absent\n")


def test_index_round_trip(capsys, tmp_path):
    path = tmp_path / "index.json"
    code, out, _ = run(capsys, "index", "build", EXAMPLE_WORD,
                       "-o", str(path))
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["version"] == 1 and doc["n"] == 20
    assert doc["maxA"][5] == 4 and doc["minA"][5] == 2

    code, out, _ = run(capsys, "index", "query", str(path), "4", "1")
    assert (code, out) == (0, "occurs\n")
    code, out, _ = run(capsys, "index", "query", str(path), "5", "0")
    assert (code, out) == (1, "absent\n")

    code, out, _ = run(capsys, "index", "pnf", str(path))
    assert code == 0
    assert out == ("PNF_a: aaababbabaabbababbab\n"
                   "PNF_b: bbbaababababaabababa\n")


def test_index_build_stdout(capsys):
    code, out, _ = run(capsys, "index", "build", "aabb")
    assert code == 0
    assert json.loads(out) == {"version": 1, "n": 4,
                               "maxA": [0, 1, 2, 2, 2],
                               "minA": [0, 0, 0, 1, 2]}


def test_index_errors(capsys, tmp_path):
    code, _, err = run(capsys, "index", "query", str(tmp_path / "no.json"),
                       "1", "1")
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "index", "pnf", str(bad))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("command", ["query", "pnf"])
def test_deeply_nested_index_is_usage_error(capsys, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    extra = ["1", "1"] if command == "query" else []
    code, out, err = run(capsys, "index", command, str(deep), *extra)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: index document nested too deeply"]


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "abab")
    assert code == 0
    assert json.loads(out) == {"is_lyndon": False, "is_necklace": True,
                               "is_pre_necklace": True,
                               "is_prefix_normal": True}


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n"] + [str(i) for i in range(1, 9)]
    assert lines[1].split() == ["prefix-normal", "2", "3", "5", "8", "14",
                                "23", "41", "70"]
    assert lines[2].split() == ["pre-necklace", "2", "3", "5", "8", "14",
                                "23", "41", "71"]


def test_enumerate_csv_and_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--max-n", "4",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,prefix_normal,pre_necklace", "1,2,2",
                                "2,3,3", "3,5,5", "4,8,8"]
    code, out, _ = run(capsys, "enumerate", "--max-n", "3", "--what", "pnf",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"n": 1, "prefixNormal": 2, "preNecklace": None},
        {"n": 2, "prefixNormal": 3, "preNecklace": None},
        {"n": 3, "prefixNormal": 5, "preNecklace": None},
    ]


def test_classes_output(capsys):
    code, out, _ = run(capsys, "classes", "--n", "4")
    assert code == 0
    assert out.splitlines()[:3] == ["aaaa 1", "aaab 2", "aaba 2"]
    code, out, _ = run(capsys, "classes", "--n", "4", "--histogram",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"]["abbb"] == 4
    assert doc["histogram"] == {"1": 3, "2": 3, "3": 1, "4": 1}


def test_classes_members(capsys):
    code, out, _ = run(capsys, "classes", "--members", "aabb")
    assert code == 0
    assert out.splitlines() == ["aabb", "baab", "bbaa"]
    code, _, err = run(capsys, "classes", "--n", "5", "--members", "aabb")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "classes")
    assert code == 2 and "error:" in err


def test_classes_members_rejects_histogram(capsys, monkeypatch):
    # a member list has no histogram: a usage error, before any census
    monkeypatch.setattr(census, "class_members", None)
    for word in ("aabb", "a" * 30):
        code, out, err = run(capsys, "classes", "--members", word,
                             "--histogram")
        assert (code, out) == (2, "")
        assert err == ("error: --histogram applies to --n, not to "
                       "--members\n")


def test_classes_histogram_text(capsys):
    code, out, err = run(capsys, "classes", "--n", "8", "--histogram")
    assert (code, err) == (0, "")
    assert out == "".join(
        [f"{rep} {size}\n" for rep, size in sorted(CLASS_SIZES_N8.items())]
        + ["size classes\n"]
        + [f"{size} {n}\n" for size, n in sorted(CLASS_HISTOGRAM_N8.items())])


def _census_text(result):
    """The `classes --n N --histogram` text of the census ``result``."""
    return "".join(
        [f"{rep} {size}\n" for rep, size in result.classes.items()]
        + ["size classes\n"]
        + [f"{size} {n}\n" for size, n in result.histogram().items()])


def _no_census_work(*args):
    raise AssertionError("census work started")


def test_classes_text_streams_without_building_the_census(capsys,
                                                          monkeypatch):
    # the text path writes its classes a decoded batch at a time and never
    # builds a ClassCensus; batches of 7, 2 and 1 classes split it anywhere
    expected = [_census_text(census.class_census(n)) for n in range(10)]
    monkeypatch.setattr(census, "class_census", _no_census_work)
    code, out, err = run(capsys, "classes", "--n", "8", "--histogram")
    assert (code, err) == (0, "")
    assert out == "".join(
        [f"{rep} {size}\n" for rep, size in sorted(CLASS_SIZES_N8.items())]
        + ["size classes\n"]
        + [f"{size} {n}\n" for size, n in sorted(CLASS_HISTOGRAM_N8.items())])
    for batch in (7, 2, 1):
        monkeypatch.setattr(census, "_BATCH_COLUMNS", batch)
        for n, text in enumerate(expected):
            assert run(capsys, "classes", "--n", str(n), "--histogram") == (
                0, text, "")


def test_classes_text_at_the_real_batch_width(capsys, monkeypatch):
    # n = 18 has 25 500 classes: two decode batches of 2^14
    result = census.class_census(18)
    assert census._BATCH_COLUMNS < len(result.classes) <= (
        2 * census._BATCH_COLUMNS)
    decoded, code_letters = [], census._code_letters

    def counted(codes, n):
        decoded.append(len(codes))
        return code_letters(codes, n)

    monkeypatch.setattr(census, "_code_letters", counted)
    code, out, err = run(capsys, "classes", "--n", "18", "--histogram")
    assert (code, err) == (0, "")
    assert decoded == [census._BATCH_COLUMNS,
                       len(result.classes) - census._BATCH_COLUMNS]
    lines = out.splitlines()
    cut = lines.index("size classes")
    assert lines[:cut] == [f"{rep} {size}"
                           for rep, size in result.classes.items()]
    assert lines[cut + 1:] == [f"{size} {n}"
                               for size, n in result.histogram().items()]


def test_classes_text_and_json_histograms_agree(capsys):
    for n in range(13):
        histogram = census.class_census(n).histogram()
        _, out, _ = run(capsys, "classes", "--n", str(n), "--histogram")
        text = out.split("size classes\n")[1].splitlines()
        assert dict(map(int, line.split()) for line in text) == histogram
        _, out, _ = run(capsys, "classes", "--n", str(n), "--histogram",
                        "--format", "json")
        assert json.loads(out)["histogram"] == {
            str(size): count for size, count in histogram.items()}
        assert list(histogram) == sorted(histogram)


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_classes_checks_jobs_then_the_bound_before_any_census(capsys,
                                                              monkeypatch,
                                                              fmt):
    # the order the jobs check and the census bound are reported in
    monkeypatch.setattr(census, "_classes", _no_census_work)
    assert run(capsys, "classes", "--n", "21", "--jobs", "0", *fmt) == (
        2, "", "error: jobs must be at least 1, got 0\n")
    assert run(capsys, "classes", "--n", "21", *fmt) == (
        2, "", "error: length 21 exceeds the census bound 20 (the census "
        "scans all 2^n words)\n")


def test_classes_members_json(capsys):
    code, out, _ = run(capsys, "classes", "--members", "aababbbb",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"pnf": "aababbbb", "members": class_members("aababbbb")}
    assert len(doc["members"]) == CLASS_SIZES_N8["aababbbb"]


def test_classes_negative_length_is_usage_error(capsys):
    code, out, err = run(capsys, "classes", "--n", "-1")
    assert (code, out) == (2, "")
    assert err == "error: length must be non-negative, got -1\n"


def test_verify_tables_reports_failed_cells(capsys, monkeypatch):
    monkeypatch.setattr(census, "PREFIX_NORMAL_COUNTS",
                        (2, 3, 6) + PREFIX_NORMAL_COUNTS[3:])
    code, out, _ = run(capsys, "verify-tables", "--max-n", "4")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("ok   ")] == [
        "FAIL prefix-normal count n=3: expected 6, got 5",
        f"{len(lines) - 2}/{len(lines) - 1} cells match"]


def test_region_files(capsys, tmp_path):
    svg_path = tmp_path / "out.svg"
    csv_path = tmp_path / "out.csv"
    code, out, _ = run(capsys, "region", "ab", "-o", str(svg_path),
                       "--csv", str(csv_path))
    assert code == 0 and out == ""
    assert svg_path.read_text().startswith("<svg")
    assert csv_path.read_text().startswith("k,upper_y,lower_y")
    code, out, _ = run(capsys, "region", "ab")
    assert code == 0 and out.startswith("<svg")


def test_verify_tables_small(capsys):
    code, out, _ = run(capsys, "verify-tables", "--max-n", "6")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("ok") for line in lines[:-1])
    assert lines[-1].endswith("cells match")


def test_malformed_word_is_usage_error(capsys):
    code, _, err = run(capsys, "pnf", "abc")
    assert code == 2
    assert "position 3" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_determinism(capsys):
    first = run(capsys, "profiles", EXAMPLE_WORD)
    second = run(capsys, "profiles", EXAMPLE_WORD)
    assert first == second
    first = run(capsys, "region", EXAMPLE_WORD)
    second = run(capsys, "region", EXAMPLE_WORD)
    assert first == second


def test_index_with_wrong_field_types_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for doc in ('{"version": 1, "n": 1, "maxA": 5, "minA": [0, 0]}',
                '{"version": 1, "n": true, "maxA": [0, 1], "minA": [0, 0]}'):
        bad.write_text(doc)
        for argv in (["index", "query", str(bad), "1", "0"],
                     ["index", "pnf", str(bad)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1


def test_impossible_index_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for doc in ('{"version":1,"n":2,"maxA":[0,0,1],"minA":[0,0,0]}',
                '{"version":1,"n":2,"maxA":[0,1,2],"minA":[0,0,0]}',
                '{"version":1,"n":3,"maxA":[0,0,1,1],"minA":[0,0,0,1]}'):
        bad.write_text(doc)
        for argv in (["index", "query", str(bad), "1", "1"],
                     ["index", "pnf", str(bad)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("n", [10 ** 4, 16000])
def test_long_index_with_a_step_moved_is_rejected(capsys, tmp_path, n):
    # maxA of a random text with a late 0-step moved into its leading run
    # of a's: the steps stay 0/1, the totals and min <= max still hold, but
    # the a-side form now has a factor aaaa after its prefix aaab
    ix = jpm.build_index(random_word(random.Random(2435 + n), n))
    max_a, min_a = list(ix.max_a.values), list(ix.min_a.values)
    steps = list(map(sub, max_a[1:], max_a))
    late = max(k for k in range(3 * n // 4) if not steps[k])
    assert steps[:5] == [1] * 5
    steps[3], steps[late] = 0, 1
    moved = list(accumulate(steps, initial=0))
    assert all(map(le, min_a, moved))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "n": n, "maxA": moved,
                               "minA": min_a}))
    for argv in (["index", "query", str(bad), "1", "1"],
                 ["index", "pnf", str(bad)]):
        assert run(capsys, *argv) == (2, "",
                                      "error: no word has this index\n")


def test_index_profile_error_names_the_first_bad_step(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version":1,"n":2,"maxA":[0,0,2],"minA":[0,0,0]}')
    code, out, err = run(capsys, "index", "query", str(bad), "1", "1")
    assert (code, out) == (2, "")
    assert err == "error: profile step at k=2 is 2, expected 0 or 1\n"


def test_suffix_paths_bound(capsys, monkeypatch, tmp_path):
    w = "ab" * (SUFFIX_PATHS_BOUND // 2) + "a"
    out_path = str(tmp_path / "r.svg")
    code, out, _ = run(capsys, "region", w, "-o", out_path)
    assert (code, out) == (0, "")
    # rejected before the region is computed
    monkeypatch.setattr(geometry, "region", None)
    code, out, err = run(capsys, "region", w, "-o", out_path,
                         "--suffix-paths")
    assert (code, out) == (2, "")
    assert "suffix-path bound" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["enumerate", "--max-n", "4", "--jobs", "0"],
    ["enumerate", "--max-n", "16", "--jobs", "-5"],
    ["classes", "--n", "4", "--jobs", "-5"],
    ["verify-tables", "--max-n", "2", "--jobs", "0"],
    ["classes", "--members", "abba", "--jobs", "0"],
    ["classes", "--members", "abba", "--jobs", "-3", "--format", "json"],
])
def test_jobs_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_short_commands_leave_numpy_unloaded():
    src = str(Path(prefixnormal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import sys, prefixnormal.cli as cli\n"
              "assert cli.main(['pnf', 'ab']) == 0\n"
              "assert cli.main(['enumerate', '--max-n', '1']) == 0\n"
              "print('numpy' in sys.modules)\n"
              "print('concurrent.futures.process' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False", "False"]


# A command line for each row of README's table of the modules each
# command loads, and whether it loads json.
_TABLE_COMMANDS = {
    "`profiles`": (["profiles", "ab"], False),
    "`pnf`, `test`": (["pnf", "ab"], False),
    "`classify`": (["classify", "ab"], True),
    "`query`, `index build`, `index query`": (["query", "ab", "1", "1"],
                                              False),
    "`index pnf`": (["index", "pnf", "{index}"], True),
    "`region`": (["region", "ab", "-o", "{svg}"], False),
    "`enumerate`, `classes`, `verify-tables`": (["enumerate", "--max-n",
                                                 "3"], False),
}


def _readme_module_table():
    """README's table of the modules each command loads: {its commands
    cell: module names}, where "the above and X" adds X to the row above."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    first = lines.index("| command | modules loaded |") + 2
    table, above = {}, set()
    for line in lines[first:]:
        if not line.startswith("|"):
            return table
        commands, modules = (c.strip() for c in line.strip("|").split("|"))
        names = set(re.findall(r"`(\w+)`", modules))
        above = names | (above if modules.startswith("the above") else set())
        table[commands] = above


def test_each_command_imports_only_what_it_runs(tmp_path, capsys):
    # -v logs every module loaded; -X importtime misses `from . import x`
    src = str(Path(prefixnormal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    index, svg = tmp_path / "ix.json", tmp_path / "r.svg"
    index.write_text(jpm.index_to_json(jpm.build_index("ab")))
    table = _readme_module_table()
    assert table.keys() == _TABLE_COMMANDS.keys()
    for row, (argv, loads_json) in _TABLE_COMMANDS.items():
        argv = [arg.format(index=index, svg=svg) for arg in argv]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        proc = subprocess.run(
            [sys.executable, "-v", "-m", "prefixnormal.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, expected), row
        imported = {line.split("'")[1] for line in proc.stderr.splitlines()
                    if line.startswith("import '")}
        package = {name.split(".")[1] for name in imported
                   if name.startswith("prefixnormal.")}
        assert package == table[row], row
        assert ("json" in imported) == loads_json, row
        assert not imported & {"numpy", "dataclasses", "inspect"}, row


def _run_in_fresh_process(argvs, stdin="", numpy=False):
    """Run each argv through cli.main in one fresh process, numpy imported
    first if ``numpy``; what it wrote to stdout and the names of the
    modules it then holds."""
    src = str(Path(prefixnormal.__file__).resolve().parents[1])
    script = ("import sys, prefixnormal.cli as cli\n"
              + "import numpy\n" * numpy +
              f"for argv in {argvs!r}:\n"
              "    assert cli.main(argv) in (0, 1), argv\n"
              "print(*sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], input=stdin,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    end = proc.stdout.rfind("\n", 0, -1) + 1  # the modules' line starts
    return proc.stdout[:end], set(proc.stdout[end:].split())


def _modules_loaded_by(argvs):
    """The names of the modules a fresh process holds after running each
    argv through cli.main."""
    return _run_in_fresh_process(argvs)[1]


def test_short_commands_leave_dataclasses_and_inspect_unloaded(tmp_path):
    # together they pull in ast, dis and tokenize: most of the package's
    # own start-up before the records stopped using dataclasses
    ix = str(tmp_path / "ix.json")
    for argvs, stdin in (
            ([["pnf", "ab"]], ""),
            ([["enumerate", "--max-n", "1"]], ""),
            ([["test", "-"], ["classify", "-"]], "ab\nba\naabab\nbbaba\n"),
            ([["index", "build", "aabab", "-o", ix],
              ["index", "query", ix, "2", "1"]], "")):
        loaded = _run_in_fresh_process(argvs, stdin)[1]
        assert "prefixnormal.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}, argvs


def test_imports_and_short_commands_leave_typing_unloaded():
    # -S, because a site hook may load typing before the package does
    src = str(Path(prefixnormal.__file__).resolve().parents[1])
    argvs = [["pnf", "ab"], ["test", "ab"], ["classify", "ab"],
             ["index", "build", "abba"], ["classes", "--members", "aab"]]
    script = ("import sys\n"
              f"sys.path.insert(0, {src!r})\n"
              "import prefixnormal.words\n"
              "typed = ['typing' in sys.modules and 'words']\n"
              "import prefixnormal.cli as cli\n"
              f"for argv in {argvs!r}:\n"
              "    assert cli.main(argv) in (0, 1), argv\n"
              "    typed.append('typing' in sys.modules and argv)\n"
              "for name in ('census', 'geometry', 'jpm', 'lyndon'):\n"
              "    __import__('prefixnormal.' + name)\n"
              "    typed.append('typing' in sys.modules and name)\n"
              "print([step for step in typed if step])\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _few_runs_text(n, shift=0):
    """n symbols in runs of 100..299 symbols."""
    runs = [100 + (37 * i + shift) % 200 for i in range(n // 100 + 1)]
    return "".join("ab"[i % 2] * m for i, m in enumerate(runs))[:n]


def test_census_commands_run_as_main_load_cli_once():
    # `python -m prefixnormal.cli` runs cli as __main__, so a module that
    # imported prefixnormal.cli would compile and run it a second time
    src = str(Path(prefixnormal.__file__).resolve().parents[1])
    script = ("import atexit, runpy, sys\n"
              "atexit.register(lambda: print(*sys.modules, file=sys.stderr))\n"
              "sys.argv[1:] = sys.argv[2:]\n"
              "runpy.run_module('prefixnormal.cli', run_name='__main__')\n")
    for argv in (["enumerate", "--max-n", "2", "--format", "json"],
                 ["classes", "--n", "2", "--format", "json"],
                 ["verify-tables", "--max-n", "1"]):
        proc = subprocess.run([sys.executable, "-c", script, "-", *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        loaded = set(proc.stderr.split())
        assert "prefixnormal.census" in loaded, argv
        assert "prefixnormal.cli" not in loaded, argv


def test_words_shorter_than_128_leave_numpy_unloaded():
    word = ("aab" * 43)[:127]
    loaded = _modules_loaded_by([["pnf", word], ["test", word]])
    assert "prefixnormal.profiles" in loaded and "numpy" not in loaded


def test_long_few_run_words_leave_numpy_unloaded(tmp_path):
    word = _few_runs_text(10 ** 4)
    ix, svg, csv = (str(tmp_path / f) for f in ("ix.json", "r.svg", "r.csv"))
    argvs = [["index", "build", word, "-o", ix], ["index", "pnf", ix],
             ["index", "query", ix, "3", "4"],
             ["region", word, "-o", svg, "--csv", csv], ["pnf", word]]
    packed = []
    for argv in argvs:  # each a process of its own, as on the command line
        out, loaded = _run_in_fresh_process([argv])
        assert "prefixnormal.profiles" in loaded and "numpy" not in loaded
        packed.append(out)
    files = [Path(f).read_bytes() for f in (ix, svg, csv)]
    out, loaded = _run_in_fresh_process(argvs, numpy=True)
    assert out == "".join(packed)
    assert [Path(f).read_bytes() for f in (ix, svg, csv)] == files


def test_class_members_leave_numpy_unloaded():
    # an 18-symbol class of the census bench and the largest one at n = 20
    reps = ("aaaaabbaaaababaabb", "aaababababababababab")
    out, loaded = _run_in_fresh_process(
        [["classes", "--members", rep, *fmt]
         for rep in reps for fmt in ([], ["--format", "json"])])
    assert "prefixnormal.census" in loaded and "numpy" not in loaded
    want = ""
    for rep in reps:
        members = class_members_by_scan(rep)
        want += "".join(f"{m}\n" for m in members)
        want += json.dumps({"pnf": rep, "members": members}) + "\n"
    assert out == want


def test_pre_necklace_counts_leave_numpy_unloaded():
    loaded = _modules_loaded_by([
        ["enumerate", "--max-n", "24", "--what", "prenecklace",
         "--format", fmt] for fmt in ("text", "csv", "json")])
    assert "prefixnormal.census" in loaded and "numpy" not in loaded


def test_numpy_loads_past_the_packed_run_start_budget():
    # A word's call slides packed from as many run starts as the word
    # has runs; this batch of few-run words has more than the budget.
    batch, runs = [], 0
    while runs <= profiles._PACKED_STARTS:
        batch.append(_few_runs_text(10 ** 4, shift=len(batch)))
        runs += len(re.findall("a+|b+", batch[-1]))
    stdin = "\n".join(batch) + "\n"
    out, loaded = _run_in_fresh_process([["pnf", "-"]], stdin)
    assert "numpy" in loaded
    assert out == _run_in_fresh_process([["pnf", "-"]], stdin, True)[0]
    word = random_word(random.Random(2413), 2000)
    out, loaded = _run_in_fresh_process([["pnf", word]])
    assert "numpy" in loaded
    assert out == _run_in_fresh_process([["pnf", word]], numpy=True)[0]


def test_test_and_classify_batches_leave_numpy_unloaded():
    # 16-bit words decide packed while the ledger lasts
    rng = random.Random(2419)
    words = [random_word(rng, 256 + 96 * i) for i in range(9)]
    stdin = "\n".join(words + [build_pnf_a(w) for w in words]) + "\n"
    for command in ("test", "classify"):
        out, loaded = _run_in_fresh_process([[command, "-"]], stdin)
        assert "prefixnormal.pnf" in loaded and "numpy" not in loaded
        assert out == _run_in_fresh_process([[command, "-"]], stdin, True)[0]


def test_8_bit_words_leave_the_ledger_to_16_bit_ones():
    # 600 prefix normal 100-symbol words would spend the whole ledger at
    # k + 256 a walked start; 8-bit words rent free, as in window_max
    rng = random.Random(2422)
    words = [build_pnf_a(random_word(rng, n)) for n in [100] * 600 + [300] * 5]
    stdin = "\n".join(words) + "\n"
    out, loaded = _run_in_fresh_process([["test", "-"]], stdin)
    assert "prefixnormal.pnf" in loaded and "numpy" not in loaded
    assert out == _run_in_fresh_process([["test", "-"]], stdin, True)[0]
    assert out == "normal\n" * len(words)


def test_constant_words_at_the_top_of_8_bit_fields(capsys, tmp_path):
    ix = str(tmp_path / "ix.json")
    for word in ("a" * 127, "a" * 126, "a" * 126 + "b", "b" * 127):
        assert main(["test", word]) == 0
        assert main(["index", "build", word, "-o", ix]) == 0
        assert main(["index", "pnf", ix]) == 0
        pair = prefixnormal.pnf_pair(word)
        assert capsys.readouterr().out == (
            f"normal\nPNF_a: {pair.pnf_a}\nPNF_b: {pair.pnf_b}\n")


def test_test_on_a_long_random_normal_form_leaves_numpy_unloaded():
    # its blocks of lengths fit the ledger, and few fail the block bound
    word = build_pnf_a(random_word(random.Random(2420), 16000))
    out, loaded = _run_in_fresh_process([["test", word]])
    assert out == "normal\n" and "numpy" not in loaded
    assert out == _run_in_fresh_process([["test", word]], numpy=True)[0]


def test_a_batch_too_costly_for_the_ledger_loads_numpy():
    # each form's block estimate is about 4.2 million fields: the third
    # no longer fits, so it and the fourth read the numpy slide
    rng = random.Random(2436)
    stdin = "".join(build_pnf_a(random_word(rng, 16000)) + "\n"
                    for _ in range(4))
    out, loaded = _run_in_fresh_process([["test", "-"]], stdin)
    assert out == "normal\n" * 4 and "numpy" in loaded
    assert out == _run_in_fresh_process([["test", "-"]], stdin, True)[0]


def test_index_files_of_long_random_texts_decide_without_numpy(tmp_path):
    # index build slides numpy as before; index pnf and index query check
    # both normal forms packed
    rng = random.Random(2437)
    for n in (10 ** 4, 16000):
        ix = str(tmp_path / f"ix{n}.json")
        loaded = _modules_loaded_by(
            [["index", "build", random_word(rng, n), "-o", ix]])
        assert "numpy" in loaded
        argvs = [["index", "pnf", ix], ["index", "query", ix, "5", "4"]]
        for argv in argvs:
            loaded = _modules_loaded_by([argv])
            assert "prefixnormal.jpm" in loaded and "numpy" not in loaded
        assert _run_in_fresh_process(argvs)[0] == _run_in_fresh_process(
            argvs, numpy=True)[0]


@pytest.mark.parametrize("state", ["fresh", "spent"])
def test_test_witness_of_long_normal_forms_changed_late(capsys, ledger, state):
    rng = random.Random(2421)
    reset = ledger.close if state == "spent" else ledger.set
    words = []
    for n in (127, 128, 2000):
        pnf = build_pnf_a(random_word(rng, n))
        i = rng.randrange(3 * n // 4, n)  # a late flip keeps most normal
        words += [pnf[:i] + "ab"[pnf[i] == "a"] + pnf[i + 1:],
                  with_prefix_pasted(rng, pnf)]
    for word in words:
        k, witness = excess_by_scan(word)
        reset()
        assert main(["test", word]) == (1 if k else 0)
        assert capsys.readouterr().out == (
            f"not-normal\nwitness: {witness}\n" if k else "normal\n")
        reset()
        assert main(["test", "--format", "json", word]) == (1 if k else 0)
        assert capsys.readouterr().out == json.dumps(
            {"word": word, "normal": not k, "witness": witness}) + "\n"


def test_query_and_region_leave_json_unloaded(tmp_path):
    svg = str(tmp_path / "r.svg")
    loaded = _modules_loaded_by([["query", "ab", "1", "1"],
                                 ["region", EXAMPLE_WORD, "-o", svg]])
    assert "prefixnormal.jpm" in loaded and "json" not in loaded


def test_stdin_lines_decode_as_utf8_whatever_the_io_encoding():
    src = str(Path(prefixnormal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "prefixnormal.cli", "pnf", "-"],
        input=b"ab\nabba\n\xff\n", env=env, capture_output=True,
        timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b"PNF_a: ab\nPNF_b: ba\nPNF_a: abba\nPNF_b: bbaa\n"
    assert proc.stderr == (b"error: line 3: invalid character '\\udcff' "
                           b"at position 1 (alphabet 'ab')\n")


@pytest.mark.parametrize("argv", [
    ["enumerate", "--max-n", "16"],                   # the list counts
    ["enumerate", "--max-n", "18", "--format", "csv"],  # the numpy counts
    ["classes", "--n", "12", "--histogram", "--format", "json"],
    ["classes", "--members", "aabab"],
    ["verify-tables", "--max-n", "6"],
])
def test_output_does_not_depend_on_jobs(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    for jobs in ("1", "2", "7"):
        assert run(capsys, *argv, "--jobs", jobs) == (code, out, err)


def _run_with_closed(redirect, argv):
    """Run the CLI in a fresh process whose stdin (``<&-``) or stdout
    (``>&-``) is closed before Python starts."""
    src = str(Path(prefixnormal.__file__).resolve().parents[1])
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m",
         "prefixnormal.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("redirect, argv", [
    ("<&-", ["pnf", "-"]),
    ("<&-", ["test", "--format", "json", "-"]),
    (">&-", ["pnf", "ab"]),
    (">&-", ["classes", "--n", "3"]),
    (">&-", ["region", "ab"]),
    (">&-", ["verify-tables", "--max-n", "1"]),
])
def test_closed_standard_stream_is_usage_error(redirect, argv):
    # not a traceback, a verdict's exit 1, or output dropped with exit 0
    proc = _run_with_closed(redirect, argv)
    stream = "stdin" if redirect == "<&-" else "stdout"
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {stream} is closed\n"


def test_closed_stream_unused_by_the_command(tmp_path):
    # a word argument reads no stdin, and -o writes no stdout
    proc = _run_with_closed("<&-", ["pnf", "ab"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "PNF_a: ab\nPNF_b: ba\n", "")
    for argv in (["region", "ab", "-o", str(tmp_path / "r.svg")],
                 ["index", "build", "ab", "-o", str(tmp_path / "i.json")]):
        proc = _run_with_closed(">&-", argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert Path(argv[-1]).read_text().endswith("\n")


def test_census_starts_no_process():
    src = str(Path(prefixnormal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import sys, prefixnormal.cli as cli\n"
              "assert cli.main(['classes', '--n', '17', '--jobs', '2']) == 0\n"
              "assert cli.main(['enumerate', '--max-n', '18', '--jobs', '2'])"
              " == 0\n"
              "assert cli.main(['verify-tables', '--max-n', '16', '--jobs',"
              " '2']) == 0\n"
              "print('concurrent.futures.process' in sys.modules)\n"
              "print('multiprocessing' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["False", "False"]


# ---------------------------------------------------------------------------
# Every well-formed command line ends in a defined exit code

_VERDICT_COMMANDS = {"test", "query", "index query", "verify-tables"}

_WORDS = st.one_of(st.text("ab", max_size=200), st.text("01", max_size=200),
                   st.text("ab01x", max_size=200))
# counts and censuses past n = 10 take seconds; huge values are rejected
_SIZES = st.one_of(st.integers(-3, 10), st.sampled_from([25, 10 ** 30,
                                                         -10 ** 30]))
_INTS = st.one_of(st.integers(-3, 10), st.integers(-10 ** 30, 10 ** 30))
_LINES = st.lists(st.one_of(st.just(""), st.text("ab01x ", max_size=30)),
                  max_size=5)


def _opt(flag, values):
    """``[flag, value]`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _flag(flag):
    return st.sampled_from([[], [flag]])


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Index files good and bad, and paths to write to."""
    root = tmp_path_factory.mktemp("cli")
    docs = {"good.json": '{"version":1,"n":4,"maxA":[0,1,2,2,2],'
                         '"minA":[0,0,0,1,2]}',
            "broken.json": "{broken",
            "deep.json": "[" * 100_000,
            "impossible.json": '{"version":1,"n":2,"maxA":[0,1,2],'
                               '"minA":[0,0,0]}',
            "types.json": '{"version":1,"n":true,"maxA":[0,1],'
                          '"minA":[0,0]}'}
    for name, doc in docs.items():
        (root / name).write_text(doc)
    return {"index": [str(root / name) for name in [*docs, "missing.json"]],
            "output": [str(root / "out"), str(root)]}


@st.composite
def _command_lines(draw, files):
    """A command line that argparse accepts, and the stdin it reads."""
    alphabet = draw(_opt("--alphabet", st.sampled_from(["ab", "binary"])))
    word = draw(st.one_of(_WORDS, st.just("-")))
    fmt = st.sampled_from(["text", "json"])
    output = _opt("-o", st.sampled_from(files["output"]))
    index = st.sampled_from(files["index"])
    jobs = _opt("--jobs", _INTS)
    argv = draw(st.sampled_from([
        ["pnf"], ["test"], ["profiles"], ["classify"], ["query"],
        ["index", "build"], ["index", "query"], ["index", "pnf"],
        ["enumerate"], ["classes"], ["region"], ["verify-tables"]]))
    command = " ".join(argv)
    if command in ("pnf", "test", "profiles"):
        argv += alphabet + draw(_opt("--format", fmt)) + [word]
    elif command == "classify":
        argv += alphabet + [word]
    elif command == "query":
        argv += alphabet + [draw(_WORDS), str(draw(_INTS)),
                            str(draw(_INTS))]
    elif command == "index build":
        argv += alphabet + [draw(_WORDS)] + draw(output)
    elif command == "index query":
        argv += [draw(index), str(draw(_INTS)), str(draw(_INTS))]
    elif command == "index pnf":
        argv += [draw(index)]
    elif command == "enumerate":
        argv += (draw(_opt("--max-n", _SIZES))
                 + draw(_opt("--what", st.sampled_from(
                     ["pnf", "prenecklace", "both"])))
                 + draw(_opt("--format", st.sampled_from(
                     ["text", "csv", "json"]))) + draw(jobs))
    elif command == "classes":
        members = st.one_of(st.text("ab", max_size=10),
                            st.text("ab01x", max_size=10),
                            st.text("ab", min_size=21, max_size=40))
        argv += (alphabet + draw(_opt("--n", _SIZES))
                 + draw(_opt("--members", members))
                 + draw(_flag("--histogram")) + draw(_opt("--format", fmt))
                 + draw(jobs))
    elif command == "region":
        argv += (alphabet + [draw(_WORDS)] + draw(output)
                 + draw(_opt("--csv", st.sampled_from(files["output"])))
                 + draw(_flag("--suffix-paths"))
                 + draw(_opt("--unit", _INTS)))
    else:
        argv += draw(_opt("--max-n", _SIZES)) + draw(jobs)
    return command, argv, "\n".join(draw(_LINES)) + "\n"


@settings(max_examples=300)
@given(data=st.data())
def test_every_command_line_exits_0_1_or_2(cli_files, data):
    command, argv, stdin = data.draw(_command_lines(cli_files))
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert code != 1 or command in _VERDICT_COMMANDS
    assert all(line.startswith("error:")
               for line in err.getvalue().splitlines())
