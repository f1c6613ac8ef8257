import importlib.util
from pathlib import Path

import pytest

import golden

CORPUS = golden.load()


@pytest.mark.parametrize("case", CORPUS["cases"], ids=lambda c: c["id"])
def test_cli_bytes_match_the_golden_corpus(case):
    if case.get("argparse") and CORPUS["python"] != golden.python_version():
        pytest.skip("argparse formats help and usage errors per Python "
                    "version")
    assert golden.run_case(case) == golden.recorded(case)


def test_corpus_keeps_the_bench_census_hash():
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    (case,) = [c for c in CORPUS["cases"]
               if c["run"] == [["classes", "--n", "20", "--histogram"]]]
    assert case["stdout"].split()[1] == reference.CLASSES_N20_SHA256


def test_corpus_cases_are_the_generated_ones():
    # the recorded command lines, stdin and input files are exactly what
    # the generator builds, so no case is lost or edited by hand
    fields = ("id", "run", "stdin", "closed", "inputs")
    assert [{k: c[k] for k in fields if k in c} for c in CORPUS["cases"]] \
        == golden._cases()
