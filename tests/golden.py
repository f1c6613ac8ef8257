"""Golden CLI corpus: the frozen bytes of every subcommand's output.

A case runs one or more command lines through ``cli.main`` in this
process, in a temporary directory of its own.  golden_cli.json records,
per case, the command lines, the stdin spec, the input files, the exit
code of each command line, and the length and sha256 of stdout, of stderr
and of every file the case wrote.  Inputs are named by short specs and
rebuilt here from fixed seeds, so the file stays small:

- ``@random:N``, ``@runs:N`` (a few runs, the first of a's), ``@bruns:N``
  (the first of b's), ``@a:N`` and ``@b:N`` are words of N symbols, and
  ``@bin-<kind>:N`` is the same word in the binary alphabet (1 for a);
- ``{tmp}`` is the case's directory, in the command lines and in what
  is hashed;
- ``stdin`` names a batch of ``_BATCHES``, and ``closed`` names a
  standard stream closed for the call (``stdin`` or ``stdout``);
- ``inputs`` maps a file name in the case's directory to a document of
  ``BAD_INDEXES``.

argparse formats help and usage errors per Python version, so a case
that ended in argparse's exit is compared only on the Python version
that wrote the file.

Write the file with ``PYTHONPATH=src python tests/golden.py``, or list
the cases whose bytes differ from it with ``... --check``.  Rewriting it
changes the output contract: say which cases changed, and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from functools import cache
from pathlib import Path

from prefixnormal import cli

CORPUS = Path(__file__).with_name("golden_cli.json")

# index documents the loader must refuse with one error line
BAD_INDEXES = {
    "empty": "",
    "not-json": "not json at all {",
    "version-9": '{"version": 9, "n": 0, "maxA": [0], "minA": [0]}',
    "no-minA": '{"version": 1, "n": 0, "maxA": [0]}',
    "list": "[1, 2]",
    "max-step-2": '{"version": 1, "n": 1, "maxA": [0, 2], "minA": [0, 0]}',
    "maxA-int": '{"version": 1, "n": 1, "maxA": 5, "minA": [0, 0]}',
    "minA-str": '{"version": 1, "n": 1, "maxA": [0, 1], "minA": "00"}',
    "n-bool": '{"version": 1, "n": true, "maxA": [0, 1], "minA": [0, 0]}',
    "n-float": '{"version": 1, "n": 1.0, "maxA": [0, 1], "minA": [0, 0]}',
    "bool-values":
        '{"version": 1, "n": 1, "maxA": [0, true], "minA": [0, false]}',
    "minA-null": '{"version": 1, "n": 1, "maxA": [0, 1], "minA": null}',
    "version-bool": '{"version": true, "n": 0, "maxA": [0], "minA": [0]}',
    "min-above-max":
        '{"version": 1, "n": 2, "maxA": [0, 1, 1], "minA": [0, 1, 2]}',
    "deep-list": "[" * 100_000,
    "deep-object": '{"n": ' * 100_000,
}

_BATCHES = {
    "mixed": ["ab", "", "@random:63", "  abba  ", "abca", "@runs:300", "\t",
              "b", b"a\xffb", "ab\r", "aßb", "@random:128",
              "@bruns:2000", "@a:64", ""],
    "short": [f"@random:{n}" for n in range(8, 64, 4)]
             + [f"@runs:{n}" for n in range(8, 64, 8)],
    "long": ["@runs:10000", "@bruns:10000", "@random:2000", "@runs:16000",
             "@random:16000"],
    "binary": ["@bin-random:64", "10", "", "1a0", "@bin-runs:300", "ab"],
    "empty": [],
}

_LENGTHS = (0, 1, 63, 64, 127, 128, 300, 2000, 10_000, 16_000)


@cache
def word(spec: str) -> str:
    """The word a ``@kind:N`` spec names, from a seed of its own."""
    kind, n = spec.removeprefix("@").rsplit(":", 1)
    binary, kind = kind.startswith("bin-"), kind.removeprefix("bin-")
    n = int(n)
    rng = random.Random(f"{kind}:{n}")
    if kind == "random":
        w = "".join(rng.choice("ab") for _ in range(n))
    elif kind in ("runs", "bruns"):
        runs, order = [], "ab" if kind == "runs" else "ba"
        while sum(map(len, runs)) < n:
            runs.append(order[len(runs) % 2] * rng.randint(1, max(1, n // 6)))
        w = "".join(runs)[:n]
    else:
        w = kind * n
    return w.translate(str.maketrans("ab", "10")) if binary else w


def _batch(name: str) -> bytes:
    lines = _BATCHES[name]
    if not lines:
        return b""
    text = b"\n".join(line if isinstance(line, bytes) else
                       (word(line) if line.startswith("@") else line).encode()
                       for line in lines)
    return text if name == "short" else text + b"\n"  # short: unterminated


def _digest(data: bytes) -> str:
    return f"{len(data)} {hashlib.sha256(data).hexdigest()}"


def _call(argv: list[str], case: dict, out: io.BytesIO,
          err: io.BytesIO) -> tuple[int, bool]:
    """Exit code of one command line, and whether argparse ended it."""
    stdin = None
    if case.get("closed") != "stdin":
        stdin = io.TextIOWrapper(io.BytesIO(_batch(case.get("stdin")
                                                   or "empty")), "utf-8")
    stdout = io.TextIOWrapper(out, "utf-8", "surrogateescape")
    stderr = io.TextIOWrapper(err, "utf-8", "backslashreplace")
    saved = sys.stdin, sys.stdout, sys.stderr, os.environ.get("COLUMNS")
    sys.stdin, sys.stderr = stdin, stderr
    sys.stdout = None if case.get("closed") == "stdout" else stdout
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal
    try:
        return cli.main(argv), False
    except SystemExit as exc:
        return exc.code, True
    finally:
        sys.stdin, sys.stdout, sys.stderr, columns = saved
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
        for stream in (stdout, stderr):
            stream.flush()
            stream.detach()  # keep the buffer open for reading


def run_case(case: dict) -> dict:
    """What the case's command lines do now, in the corpus's terms."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs = case.get("inputs", {})
        for name, doc in inputs.items():
            Path(tmp, name).write_text(BAD_INDEXES[doc], encoding="utf-8")
        out, err, exits, by_argparse = io.BytesIO(), io.BytesIO(), [], False
        for argv in case["run"]:
            argv = [word(a) if a.startswith("@") else a.replace("{tmp}", tmp)
                    for a in argv]
            code, ended = _call(argv, case, out, err)
            exits.append(code)
            by_argparse |= ended
        result = {"exit": exits}
        for key, data in (("stdout", out), ("stderr", err)):
            result[key] = _digest(data.getvalue().replace(tmp.encode(),
                                                          b"{tmp}"))
        result["files"] = {p.name: _digest(p.read_bytes())
                           for p in sorted(Path(tmp).iterdir())
                           if p.name not in inputs}
    if by_argparse:
        result["argparse"] = True
    return result


def recorded(case: dict) -> dict:
    """The part of a corpus case that run_case reproduces."""
    return {k: case[k] for k in ("exit", "stdout", "stderr", "files",
                                 "argparse") if k in case}


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _word_cases(w: str) -> list[list[list[str]]]:
    """The command lines run on the word ``w`` names, one list a case."""
    n = int(w.rsplit(":", 1)[1])
    x, y = str(n // 3), str(n - n // 3 - n // 4)
    ix = "{tmp}/ix.json"
    runs = [[["pnf", w]], [["pnf", w, "--format", "json"]], [["test", w]],
            [["test", w, "--format", "json"]], [["profiles", w]],
            [["profiles", w, "--format", "json"]], [["classify", w]],
            [["query", w, x, y]], [["index", "build", w]],
            [["index", "build", w, "-o", ix], ["index", "pnf", ix],
             ["index", "query", ix, x, y], ["index", "query", ix, y, x]]]
    if n <= 2000:
        runs.append([["region", w]])
    runs.append([["region", w, "-o", "{tmp}/r.svg", "--csv",
                  "{tmp}/r.csv"]])
    return runs


def _cases() -> list[dict]:
    cases = []

    def add(*run, **spec):
        cases.append({"run": [list(argv) for argv in run], **spec})

    words = ["@random:0"] + [f"@{kind}:{n}" for n in _LENGTHS[1:]
                             for kind in ("random", "runs")]
    words += ["@bruns:128", "@bruns:10000", "@a:128", "@b:300", "@a:2000"]
    for w in words:
        for run in _word_cases(w):
            add(*run)
    for w in ("@bin-random:64", "@bin-runs:300"):
        for run in _word_cases(w)[::2]:
            add(*([*argv, "--alphabet", "binary"] if argv[0] != "index"
                  or argv[1] == "build" else argv for argv in run))
    for command in ("pnf", "test", "profiles", "classify"):
        formats = [[]] if command == "classify" else [[], ["--format",
                                                           "json"]]
        for fmt in formats:
            for batch in ("mixed", "short", "long"):
                add([command, "-", *fmt], stdin=batch)
        add([command, "-", "--alphabet", "binary"], stdin="binary")
        add([command, "-"], stdin="empty")
        add([command, "-"], closed="stdin")
    add(["query", "-", "1", "1"], stdin="mixed")
    add(["pnf", "ab"], closed="stdout")
    add(["classes", "--n", "3"], closed="stdout")
    add(["region", "ab"], closed="stdout")
    add(["region", "ab", "-o", "{tmp}/r.svg"], closed="stdout")
    # region options and bounds
    add(["region", "@random:300", "--suffix-paths"])
    add(["region", "@runs:300", "--suffix-paths", "--unit", "3", "-o",
         "{tmp}/r.svg"])
    add(["region", "@random:2000", "--suffix-paths", "-o", "{tmp}/r.svg"])
    add(["region", "@random:2001", "--suffix-paths", "-o", "{tmp}/r.svg"])
    add(["region", "@runs:10001", "-o", "{tmp}/r.svg"])
    add(["region", "aabab", "--unit", "1"])
    add(["region", "aabab", "-o", "", "--csv", ""])
    add(["index", "build", "aabab", "-o", ""])
    for unit in ("0", "-3"):
        add(["region", "ab", "--unit", unit])
    # index files
    for doc in BAD_INDEXES:
        add(["index", "pnf", "{tmp}/bad.json"], inputs={"bad.json": doc})
        add(["index", "query", "{tmp}/bad.json", "1", "0"],
            inputs={"bad.json": doc})
    add(["index", "pnf", "{tmp}/missing.json"])
    add(["index", "build", "", "-o", "{tmp}/ix.json"],
        ["index", "query", "{tmp}/ix.json", "0", "0"],
        ["index", "query", "{tmp}/ix.json", "1", "0"])
    # census
    for fmt in ("text", "csv", "json"):
        add(["enumerate", "--format", fmt])
        add(["enumerate", "--max-n", "24", "--format", fmt])
        for what in ("pnf", "prenecklace"):
            add(["enumerate", "--max-n", "18", "--what", what,
                 "--format", fmt])
    for argv in (["--max-n", "1"], ["--max-n", "17", "--jobs", "2"],
                 ["--max-n", "25"], ["--max-n", "0"], ["--max-n", "-1"],
                 ["--max-n", "4", "--jobs", "0"],
                 ["--max-n", "25", "--jobs", "0"]):
        add(["enumerate", *argv])
    for argv in (["--n", "20", "--histogram"],
                 ["--n", "20", "--histogram", "--format", "json"],
                 ["--n", "4"], ["--n", "8", "--histogram"],
                 ["--n", "8", "--format", "json"], ["--n", "1"],
                 ["--n", "0"], ["--n", "17", "--jobs", "2"],
                 ["--n", "21"], ["--n", "-1"], [],
                 ["--n", "3", "--jobs", "0"],
                 ["--members", "aabab"], ["--members", "aabab", "--n", "5"],
                 ["--members", "aabab", "--format", "json"],
                 ["--members", "aababbabaab", "--format", "json"],
                 ["--members", "11010", "--alphabet", "binary"],
                 ["--members", ""], ["--members", "abba"],
                 ["--members", "aabab", "--n", "6"], ["--members", "abxa"],
                 ["--members", "a" * 21],
                 ["--members", "abba", "--jobs", "0"]):
        add(["classes", *argv])
    for argv in ([], ["--max-n", "8"], ["--max-n", "1"], ["--max-n", "16",
                 "--jobs", "2"], ["--max-n", "17"], ["--max-n", "0"],
                 ["--max-n", "2", "--jobs", "0"]):
        add(["verify-tables", *argv])
    # word and argument errors
    for argv in (["pnf", "abxa"], ["test", "ab ba"], ["profiles", "ABBA"],
                 ["classify", "abc"], ["pnf", "0a1", "--alphabet", "binary"],
                 ["query", "abxa", "1", "1"], ["query", "ab", "-1", "1"],
                 ["query", "ab", "3", "0"], ["index", "build", "abxa"],
                 ["region", "abxa"], ["pnf", "-x"], ["pnf", ""],
                 ["test", ""], ["classify", ""], ["profiles", ""]):
        add(argv)
    for argv in ([], ["bogus"], ["pnf"], ["query", "ab", "x", "1"],
                 ["pnf", "ab", "--format", "xml"],
                 ["enumerate", "--what", "all"], ["index"],
                 ["index", "query", "f"], ["region", "ab", "--unit", "2.5"],
                 ["pnf", "ab", "--alphabet", "dna"],
                 ["enumerate", "--max-n", "x"], ["classes", "--bogus"]):
        add(argv)
    # help of every parser
    for argv in ([], ["pnf"], ["test"], ["profiles"], ["query"],
                 ["classify"], ["index"], ["index", "build"],
                 ["index", "query"], ["index", "pnf"], ["enumerate"],
                 ["classes"], ["region"], ["verify-tables"]):
        add([*argv, "--help"])
    for case in cases:
        case["id"] = " | ".join(" ".join(a if len(a) < 24 else a[:20] + "..."
                                         for a in argv)
                                for argv in case["run"])
        case["id"] += "".join(f" [{k}={case[k]}]" for k in ("stdin",
                              "closed") if k in case)
        case["id"] += "".join(f" [{name}={doc}]" for name, doc
                              in case.get("inputs", {}).items())
    ids = [case["id"] for case in cases]
    assert len(set(ids)) == len(ids), "case ids must be unique"
    return cases


def write() -> None:
    cases = [{**case, **run_case(case)} for case in _cases()]
    lines = ",\n".join(json.dumps(case) for case in cases)  # one a line
    CORPUS.write_text(f'{{"python": "{python_version()}", "cases": [\n'
                      f"{lines}\n]}}\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {CORPUS}")


def check() -> int:
    """Print each case whose bytes differ from the corpus; 1 if any."""
    corpus, failed = load(), 0
    for case in corpus["cases"]:
        if case.get("argparse") and corpus["python"] != python_version():
            continue
        if run_case(case) != recorded(case):
            print(f"differs: {case['id']}")
            failed += 1
    print(f"{failed} of {len(corpus['cases'])} cases differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check() if sys.argv[1:] == ["--check"] else write())
