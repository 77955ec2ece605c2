"""Apply each mutant in tests/mutants.json to a copy of the tree and run its tests.

    python tests/run_mutants.py [NAME ...]

A mutant is one exact text replacement in one file under src/: a defect
the named tests were once shown to catch. Each runs in its own temporary
copy of src/ and tests/, so the working tree is never changed. A mutant
is killed when every test it names fails, and survives when any of them
passes; hypothesis runs with seed 0 and without shrinking, so a run is
repeatable and stops at the first failure. Prints one line per mutant
and exits 1 if any survives or its old text does not occur exactly once.
Needs only the standard library, plus pytest and hypothesis for the
tests it runs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = ROOT / "tests" / "mutants.json"


def run(mutant: dict, work: Path, seed: int = 0) -> str:
    """The mutant's verdict: killed, survived, an error, or not applied."""
    shutil.rmtree(work, ignore_errors=True)
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
    path = work / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        return "not applied: old text occurs %d times" % text.count(mutant["old"])
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    for test in mutant["tests"]:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", "--hypothesis-seed=%d" % seed, test],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if result.returncode == 0:
            return "SURVIVED: %s passed" % test
        if result.returncode != 1:  # 1: tests ran and failed; more is a usage or collection error
            return "ERROR: %s exited %d" % (test, result.returncode)
    return "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    mutants = [m for m in json.loads(CATALOGUE.read_text())
               if not args.names or m["name"] in args.names]
    unknown = set(args.names) - {m["name"] for m in mutants}
    if unknown:
        parser.error("no mutant named %s" % ", ".join(sorted(unknown)))
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for mutant in mutants:
            started = time.monotonic()
            verdict = run(mutant, Path(tmp) / "tree")
            failed += verdict != "killed"
            print("%-34s %-8s %5.1f s" % (mutant["name"], verdict, time.monotonic() - started),
                  flush=True)
    print("%d of %d mutants killed" % (len(mutants) - failed, len(mutants)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
