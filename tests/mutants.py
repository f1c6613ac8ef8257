"""Mutation audit: flip one thing at a time in the package's source and
check that the tests notice.

    python tests/mutants.py census:_pnf_codes census:_classes --work DIR

A target is a module of ``src/prefixnormal`` (every function in it) or
one function, ``module:name``, a method as ``module:Class.name``.  Inside a
target a mutant flips one thing: a comparison, an arithmetic, bit or
augmented-assignment operator, ``and``/``or``, a unary operator (dropped),
an int constant (+1) or the test of an ``if`` (negated).  Code outside
functions (docstrings, frozen tables, module constants) is never mutated.

The source tree, less ``.git``, is copied into DIR once (a fresh temporary
folder by default).  Each mutant is written into the copy and runs three
stages of tests, each with ``-x``, until one fails: the module's own test
file, then the golden CLI corpus, then all of ``tests`` but the checks
that read the source itself (its line width and this tool's own tests).  Each stage first runs once on the unmutated copy, which must
pass.  A mutant that no stage kills survives unless EQUIVALENT lists it
with the reason it cannot change a result.  Exits 1 if any unlisted mutant
survives.  This file is a tool, not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "prefixnormal")
MEMORY_LIMIT = 1 << 30  # bytes of address space a stage may map
STAGE_TIMEOUT = 600  # seconds; a stage that runs longer kills its mutant

COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
           ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
           ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
           ast.IsNot: ast.Is}
BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
          ast.FloorDiv: ast.Mult, ast.Div: ast.Mult, ast.Mod: ast.FloorDiv,
          ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
          ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in",
           ast.Is: "is", ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-",
           ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/", ast.Mod: "%",
           ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>",
           ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.And: "and",
           ast.Or: "or"}

# Survivors that cannot change a result, keyed as the report prints them:
# "module:function: original line => mutated line".
EQUIVALENT = {
    "census:_pnf_codes: r = min(n // 2, max(0, n - _BATCH_COLUMNS.bit_length()"
    " + 2) // 2) => r = min(n // 2, max(1, n - _BATCH_COLUMNS.bit_length()"
    " + 2) // 2)":
        "max(0, x) // 2 and max(1, x) // 2 differ at no x: both are 0 for"
        " every x <= 1",
    "census:_classes: sizes = np.zeros(1 << n, dtype=np.int32) => sizes ="
    " np.zeros(2 << n, dtype=np.int32)":
        "memory only: no code reaches the second half of the array, so"
        " flatnonzero finds the same classes",
    "census:_tree_counts: for a in ((1, 0) if _a_extends(p, d) else (0,))]"
    " => for a in ((2, 0) if _a_extends(p, d) else (0,))]":
        "counts alone cannot tell: with every a-step 2 each prefix count"
        " doubles, and P[j] + P[d + 1 - j] > P[d] decides as before",
}


def _functions(tree: ast.Module, name: str | None):
    """(qualified name, node) of the functions a target names."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    found = [(q, f) for q, f in found if name is None or q == name]
    if not found:
        raise SystemExit(f"no function {name!r}")
    return found


def _segment(lines: list[str], node) -> tuple[int, int, int, int]:
    """(line, column, end line, end column) of ``node``, 0-based lines and
    character columns."""
    def col(line, byte):
        return len(lines[line].encode("utf-8")[:byte].decode("utf-8"))
    return (node.lineno - 1, col(node.lineno - 1, node.col_offset),
            node.end_lineno - 1, col(node.end_lineno - 1, node.end_col_offset))


def _between(lines, first, second):
    """The span between the end of ``first`` and the start of ``second``."""
    return (*_segment(lines, first)[2:], *_segment(lines, second)[:2])


def _splice(lines, span, text):
    """``lines`` joined, with ``span`` replaced by ``text``."""
    line, col, end_line, end_col = span
    return "".join([*lines[:line], lines[line][:col], text,
                    lines[end_line][end_col:], *lines[end_line + 1:]])


def _text(lines, span):
    line, col, end_line, end_col = span
    if line == end_line:
        return lines[line][col:end_col]
    return "".join([lines[line][col:], *lines[line + 1:end_line],
                    lines[end_line][:end_col]])


def _set(holder, field, index, value):
    """Put ``value`` in ``holder``'s ``field`` (item ``index`` of a list
    field); return what was there."""
    if index is None:
        old = getattr(holder, field)
        setattr(holder, field, value)
    else:
        old = getattr(holder, field)[index]
        getattr(holder, field)[index] = value
    return old


def _flips(node, lines, parent):
    """(edits, flip) of each one-thing flip at ``node``: edits are (span,
    text) replacements of the source, flip makes the same change to the
    tree in place and returns what undoes it.  ``parent`` is (holder,
    field, index) of the node."""
    def op_flip(holder, field, index, new):
        def flip():
            old = _set(holder, field, index, new())
            return lambda: _set(holder, field, index, old)
        return flip

    def swap(first, second, old, new, flip):
        span = _between(lines, first, second)
        gap = _text(lines, span)
        if SYMBOLS[old] in gap:
            yield [(span, gap.replace(SYMBOLS[old], SYMBOLS[new], 1))], flip

    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE:
                new = COMPARE[type(op)]
                left = node.left if i == 0 else node.comparators[i - 1]
                yield from swap(left, node.comparators[i], type(op), new,
                                op_flip(node, "ops", i, new))
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and (
            type(node.op) in BINARY):
        new = BINARY[type(node.op)]
        left, right = ((node.left, node.right) if isinstance(node, ast.BinOp)
                       else (node.target, node.value))
        yield from swap(left, right, type(node.op), new,
                        op_flip(node, "op", None, new))
    elif isinstance(node, ast.BoolOp):  # every and (or) of the node at once
        new, old = BOOLEAN[type(node.op)], SYMBOLS[type(node.op)]
        spans = [_between(lines, a, b)
                 for a, b in zip(node.values, node.values[1:])]
        yield ([(s, _text(lines, s).replace(old, SYMBOLS[new], 1))
                for s in spans], op_flip(node, "op", None, new))
    elif isinstance(node, (ast.If, ast.IfExp)):
        span = _segment(lines, node.test)
        yield ([(span, f"not ({_text(lines, span)})")],
               op_flip(node, "test", None,
                       lambda: ast.UnaryOp(ast.Not(), node.test)))
    if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.Invert, ast.USub, ast.Not)):  # dropped
        yield ([(_segment(lines, node),
                 _text(lines, _segment(lines, node.operand)))],
               op_flip(*parent, lambda: node.operand))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield ([(_segment(lines, node), str(node.value + 1))],
               op_flip(*parent, lambda: ast.Constant(node.value + 1)))


def mutants(module: str, name: str | None = None):
    """(key, mutated source) of every mutant of ``module``'s functions, or
    of the one function ``name``; a flip whose spliced text does not parse
    to the flipped tree is left out."""
    source = (ROOT / PACKAGE / f"{module}.py").read_text("utf-8")
    lines = source.splitlines(keepends=True)
    tree = ast.parse(source)
    parents = {}
    for holder in ast.walk(tree):
        for field, value in ast.iter_fields(holder):
            if isinstance(value, list):
                parents.update((child, (holder, field, i))
                               for i, child in enumerate(value))
            elif isinstance(value, ast.AST):
                parents[value] = (holder, field, None)
    seen = set()
    for qualname, function in _functions(tree, name):
        for node in list(ast.walk(function)):
            for edits, flip in list(_flips(node, lines, parents.get(node))):
                mutated = lines
                for span, text in reversed(edits):  # the last first
                    mutated = _splice(mutated, span, text).splitlines(True)
                mutated = "".join(mutated)
                undo = flip()
                expected = ast.dump(function)
                undo()
                try:
                    same = ast.dump(dict(_functions(
                        ast.parse(mutated), qualname))[qualname]) == expected
                except SyntaxError:
                    same = False
                if not same or mutated in seen:
                    continue
                seen.add(mutated)
                first = edits[0][0][0]
                yield (f"{module}:{qualname}: {lines[first].strip()} => "
                       f"{mutated.splitlines()[first].strip()}"), mutated


def _limit_memory():
    """Cap a stage's address space at MEMORY_LIMIT: a mutant that sizes an
    array by 2^(n + 2r) dies of MemoryError, not the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


class Stages:
    """The test stages of one module, run in the copy ``tree``."""

    def __init__(self, tree: Path, module: str):
        own = Path("tests", f"test_{module}.py")
        self.tree, self.checked = tree, set()
        self.stages = [[str(own)]] if (tree / own).exists() else []
        self.stages += [["tests/test_golden.py"],  # source checks left out
                        ["tests", "--ignore", "tests/test_mutants.py",
                         "--deselect", "tests/test_exports.py::"
                         "test_no_source_line_is_over_79_columns"]]

    def _passes(self, stage) -> bool:
        env = dict(os.environ, PYTHONPATH=str(self.tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider", *stage], cwd=self.tree, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=STAGE_TIMEOUT, preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return False
        return proc.returncode == 0

    def killer(self, path: Path, original: str, mutated: str) -> int | None:
        """The number of the first stage that fails on ``mutated``, None
        if every stage passes."""
        for number, stage in enumerate(self.stages, 1):
            if number not in self.checked:
                path.write_text(original, "utf-8")
                if not self._passes(stage):
                    raise SystemExit(f"stage {stage} fails unmutated")
                self.checked.add(number)
            path.write_text(mutated, "utf-8")
            try:
                if not self._passes(stage):
                    return number
            finally:
                path.write_text(original, "utf-8")
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("targets", nargs="+",
                        help="module or module:function of src/prefixnormal")
    parser.add_argument("--work", type=Path, default=None,
                        help="folder for the copy (default: a temporary one)")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants' keys and run nothing")
    args = parser.parse_args(argv)
    targets = [(t.partition(":")[0], t.partition(":")[2] or None)
               for t in args.targets]
    if args.list:
        for module, name in targets:
            for key, _ in mutants(module, name):
                print(key)
        return 0
    work = Path(args.work or tempfile.mkdtemp(prefix="mutants-"))
    tree = work / "tree"
    if tree.exists():  # only a copy this tool made
        shutil.rmtree(tree)
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    start, tally = time.perf_counter(), Counter()
    for module, name in targets:
        path = tree / PACKAGE / f"{module}.py"
        original = path.read_text("utf-8")
        stages = Stages(tree, module)
        for key, mutated in mutants(module, name):
            stage = stages.killer(path, original, mutated)
            verdict = ("killed" if stage else
                       "equivalent" if key in EQUIVALENT else "SURVIVED")
            tally[verdict] += 1
            print(f"{verdict}{f' at stage {stage}' * bool(stage)}: {key}",
                  flush=True)
    print(f"{sum(tally.values())} mutants: {tally['killed']} killed, "
          f"{tally['equivalent']} listed equivalent, {tally['SURVIVED']} "
          f"survived, in {time.perf_counter() - start:.0f} s")
    return 1 if tally["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main())
