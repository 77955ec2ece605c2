"""The mutant catalogue still applies to the code.

Each row of `mutants.json` is a defect the tests were shown to catch,
written as one exact text replacement in `src/`. `run_mutants.py`
applies each one to a copy of the tree and runs the tests it names. A
refactor that moves or rewrites a mutant's code must restate the mutant
in the same change, or this test fails.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())
SOURCES = {path.relative_to(ROOT).as_posix(): path.read_text()
           for path in sorted((ROOT / "src").rglob("*.py"))}


def test_mutant_names_are_unique():
    names = [mutant["name"] for mutant in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant["name"])
def test_each_old_text_occurs_once_in_src(mutant):
    counts = {path: text.count(mutant["old"]) for path, text in SOURCES.items()}
    assert {path: n for path, n in counts.items() if n} == {mutant["file"]: 1}
    assert mutant["new"] != mutant["old"]
    for test in mutant["tests"]:
        assert (ROOT / test.split("::")[0]).is_file(), test
