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
    "census": ["ClassCensus", "CountsRow", "TableExpectations",
               "VerificationReport", "class_census", "class_members",
               "count_pre_necklaces", "count_prefix_normal", "counts_table",
               "iter_pre_necklaces", "iter_prefix_normal", "max_class_size",
               "verify_tables"],
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
    with pytest.raises(ImportError):
        exec("from prefixnormal import no_such_name", {})


# The parameters of the census functions and the oracle.  Their size bounds
# are the fixed DEFAULT_*_BOUND constants, not parameters.
SIGNATURES = {
    "count_prefix_normal": ["n", "jobs"],
    "count_pre_necklaces": ["n", "jobs"],
    "counts_table": ["max_n", "what", "jobs"],
    "class_census": ["n", "jobs"],
    "verify_tables": ["expected", "max_n", "jobs"],
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
    # traced replay (bench/tracing.py) calls these five with jobs=.
    for name in ("count_prefix_normal", "count_pre_necklaces",
                 "counts_table", "class_census", "verify_tables"):
        inspect.signature(getattr(prefixnormal, name)).bind(4, jobs=2)
