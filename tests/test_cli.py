import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prefixnormal
from prefixnormal.cli import main

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
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("abab\naabbaaba\n\n"))
    code, out, _ = run(capsys, "test", "-")
    assert code == 1
    assert out == "normal\nnot-normal\nwitness: aaba\n"


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


@pytest.mark.parametrize("argv", [
    ["enumerate", "--max-n", "4", "--jobs", "0"],
    ["enumerate", "--max-n", "16", "--jobs", "-5"],
    ["classes", "--n", "4", "--jobs", "-5"],
    ["verify-tables", "--max-n", "2", "--jobs", "0"],
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
              "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
