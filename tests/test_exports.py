import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prefixnormal

# Every name the package exported when its __init__ imported each module.
EXPORTS = {
    "words": ["ALPHABET_MAPS", "ParikhVector", "ParseError", "a_positions",
              "complement", "parikh", "parse_word", "pos_a", "prefix_count",
              "prefix_counts", "reverse"],
    "profiles": ["OnesProfile", "max_a_profile", "max_b_profile",
                 "min_a_profile"],
    "pnf": ["PnfPair", "PrefixNormalTester", "build_pnf_a", "build_pnf_b",
            "can_extend_with_a", "is_prefix_normal", "normality_witness",
            "pnf_pair"],
    "jpm": ["JumbledIndex", "build_index", "index_from_json",
            "index_from_pnf", "index_to_json", "parikh_set_equal",
            "parikh_set_oracle", "pnf_from_index", "query"],
    "lyndon": ["WordClass", "classify", "is_lyndon", "is_necklace",
               "is_pre_necklace"],
    "census": ["ClassCensus", "CountsRow", "VerificationReport",
               "class_census", "class_members", "count_pre_necklaces",
               "count_prefix_normal", "counts_table", "iter_pre_necklaces",
               "iter_prefix_normal", "max_class_size", "verify_tables"],
    "geometry": ["RegionProfile", "region", "region_csv", "render_svg",
                 "word_path"],
}


def test_every_export_resolves_by_import_and_by_getattr():
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"prefixnormal.{module}")
        assert getattr(prefixnormal, module) is owner
        for name in names:
            ns = {}
            exec(f"from prefixnormal import {name}", ns)
            assert ns[name] is getattr(prefixnormal, name)
            assert ns[name] is getattr(owner, name)
    assert prefixnormal.__version__ == "0.1.0"


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from prefixnormal import *", ns)
    assert set(ns) - {"__builtins__"} == set(prefixnormal.__all__)
    assert sorted(prefixnormal.__all__) == sorted(
        name for names in EXPORTS.values() for name in names)
    assert set(dir(prefixnormal)) >= set(prefixnormal.__all__) | set(EXPORTS)


def test_submodule_resolves_in_a_fresh_process():
    src = str(Path(prefixnormal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = ("import sys, prefixnormal\n"
              "print('prefixnormal.census' in sys.modules)\n"
              "print(sum(prefixnormal.census.class_census(4).classes"
              ".values()))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "16"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        prefixnormal.no_such_name
    for name in ("no_such_name", "TableExpectations"):  # the latter dropped
        with pytest.raises(ImportError):
            exec(f"from prefixnormal import {name}", {})


# The parameters of the census functions and the oracle.  Their size bounds
# are the fixed DEFAULT_*_BOUND constants, not parameters.
SIGNATURES = {
    "count_prefix_normal": ["n", "jobs"],
    "count_pre_necklaces": ["n", "jobs"],
    "counts_table": ["max_n", "what", "jobs"],
    "class_census": ["n", "jobs"],
    "verify_tables": ["max_n", "jobs"],
    "max_class_size": ["n"],
    "class_members": ["pnf"],
    "iter_prefix_normal": ["n"],
    "iter_pre_necklaces": ["n"],
    "parikh_set_oracle": ["w"],
}


def test_census_and_oracle_parameters_are_pinned():
    for name, params in SIGNATURES.items():
        signature = inspect.signature(getattr(prefixnormal, name))
        assert list(signature.parameters) == params, name


def test_traced_bench_replay_can_still_pass_jobs():
    # Every count and census runs in one process, so the library reads
    # ``jobs`` only to check it; the keyword stays because the bench's
    # traced replay (bench/tracing.py) makes these five calls.
    for name, args, kwargs in (
            ("verify_tables", (), {"jobs": 2}),
            ("counts_table", (22,), {"what": "both", "jobs": 2}),
            ("class_census", (20,), {"jobs": 2}),
            ("count_prefix_normal", (22,), {"jobs": 2}),
            ("count_pre_necklaces", (22,), {"jobs": 2})):
        inspect.signature(getattr(prefixnormal, name)).bind(*args, **kwargs)


# One valid value of each public record class, by its fields in order.
PROFILE_AB = prefixnormal.OnesProfile("max-a", (0, 1, 1))
RECORDS = {
    "OnesProfile": {"kind": "max-a", "values": (0, 1, 1)},
    "PnfPair": {"pnf_a": "ab", "pnf_b": "ba"},
    "JumbledIndex": {"n": 2, "max_a": PROFILE_AB,
                     "min_a": prefixnormal.OnesProfile("min-a", (0, 0, 1))},
    "RegionProfile": {"upper": (0, 1, 0), "lower": (0, -1, 0)},
    "WordClass": {"is_lyndon": True, "is_necklace": True,
                  "is_pre_necklace": True, "is_prefix_normal": True},
    "CountsRow": {"n": 2, "count_prefix_normal": 3, "count_pre_necklace": 3},
    "ClassCensus": {"n": 1, "classes": {"a": 1, "b": 1}, "total_words": 2},
    "CellCheck": {"label": "cell", "expected": 1, "actual": 1},
    "VerificationReport": {
        "cells": [prefixnormal.census.CellCheck("c", 1, 2)]},
}
UNHASHABLE = {"ClassCensus", "VerificationReport"}  # dict and list fields


def _record_class(name):
    return getattr(prefixnormal, name, None) or getattr(
        prefixnormal.census, name)


@pytest.mark.parametrize("name", RECORDS)
def test_records_build_by_position_and_by_keyword(name):
    cls, fields = _record_class(name), RECORDS[name]
    rec = cls(*fields.values())
    assert rec == cls(**fields) and not rec != cls(**fields)
    assert [getattr(rec, f) for f in fields] == list(fields.values())
    assert repr(rec) == f"{name}(" + ", ".join(
        f"{f}={v!r}" for f, v in fields.items()) + ")"
    with pytest.raises(TypeError):
        cls(*fields.values(), unknown_field=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{next(iter(fields)): 1})  # given twice
    with pytest.raises(TypeError):
        cls(*fields.values(), 1)  # one too many
    with pytest.raises(TypeError):
        cls(*list(fields.values())[:-1])


@pytest.mark.parametrize("name", RECORDS)
def test_frozen_records_refuse_assignment_and_hash_by_value(name):
    cls, fields = _record_class(name), RECORDS[name]
    rec, field = cls(**fields), next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.unknown_field = 1
    assert rec == cls(**fields)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(cls(**fields))


def test_records_take_no_class_keyword_and_no_field_default():
    with pytest.raises(TypeError):
        class Mutable(prefixnormal.words.Record, frozen=False):
            x: int
    for name in RECORDS:
        cls = _record_class(name)
        assert not set(cls._fields) & set(vars(cls)), name


def test_records_of_different_classes_never_compare_equal():
    census = prefixnormal.census
    assert census.CountsRow(1, 2, 2) != census.CellCheck(1, 2, 2)
    assert census.CellCheck(1, 2, 2) != (1, 2, 2)

    class Cell(census.CellCheck):
        pass

    assert Cell("c", 1, 1) != census.CellCheck("c", 1, 1)


def test_trusted_records_equal_constructed_ones():
    assert prefixnormal.max_a_profile("ab") == PROFILE_AB
    assert prefixnormal.pnf_pair("ab") == prefixnormal.PnfPair("ab", "ba")
    assert prefixnormal.build_index("ab") == prefixnormal.JumbledIndex(
        **RECORDS["JumbledIndex"])
    assert prefixnormal.region("ab") == prefixnormal.RegionProfile(
        (0, 1, 0), (0, -1, 0))
    assert prefixnormal.counts_table(2)[1] == prefixnormal.CountsRow(2, 3, 3)
    assert prefixnormal.classify("ab") == prefixnormal.WordClass(
        True, True, True, True)


def test_records_built_from_lists_equal_and_hash_as_from_tuples():
    def records(seq):
        max_a = prefixnormal.OnesProfile("max-a", seq((0, 1, 1)))
        min_a = prefixnormal.OnesProfile("min-a", seq((0, 0, 1)))
        return (max_a, prefixnormal.JumbledIndex(2, max_a, min_a),
                prefixnormal.RegionProfile(seq((0, 1, 0)), seq((0, -1, 0))))

    for from_lists, from_tuples in zip(records(list), records(tuple)):
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)


def test_no_source_line_is_over_79_columns():
    package = Path(prefixnormal.__file__).resolve().parent
    long = [f"{path.name}:{i}" for path in sorted(package.glob("*.py"))
            for i, line in enumerate(path.read_text("utf-8").splitlines(), 1)
            if len(line) > 79]
    assert long == []
