"""The mutation audit tool, tests/mutants.py, checked without running a
mutant: what it makes of one function, and that its list of equivalent
mutants names only mutants it makes."""

import ast

import mutants

SOURCE = (mutants.ROOT / mutants.PACKAGE / "census.py").read_text()


def test_one_flip_per_mutant_in_the_tree_count_route():
    found = dict(mutants.mutants("census", "_tree_counts"))
    route = ('census:_tree_counts: if max_n <= (0 if "numpy" in sys.modules '
             'else _LIST_MAX_N): => if ')
    assert {key[len(route):] for key in found if key.startswith(route)} == {
        'not (max_n <= (0 if "numpy" in sys.modules else _LIST_MAX_N)):',
        'max_n < (0 if "numpy" in sys.modules else _LIST_MAX_N):',
        'max_n <= (1 if "numpy" in sys.modules else _LIST_MAX_N):',
        'max_n <= (0 if "numpy" not in sys.modules else _LIST_MAX_N):',
        'max_n <= (0 if not ("numpy" in sys.modules) else _LIST_MAX_N):'}
    for source in found.values():  # one line changed, the rest as it was
        assert source != SOURCE
        ast.parse(source)
        old, new = SOURCE.splitlines(), source.splitlines()
        assert len(old) == len(new)
        assert sum(a != b for a, b in zip(old, new)) == 1


def test_listed_equivalents_are_mutants_the_tool_makes():
    for key in mutants.EQUIVALENT:
        module, name = key.split(":")[:2]
        assert key in dict(mutants.mutants(module, name)), key
