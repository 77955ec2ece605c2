"""The outputs pinned in tests/pins.json, recomputed in process.

seed31_digest_sha256 holds the simulated digest `perfbench/run.py --seed 31`
prints for each workload, which is the digest of the run's first episode;
four_hour_csv_sha256 the sha256 of `cellsim bench csv`, the seed-7 table at
the paper's four-hour scale. CI reads the same file for its run.py and
entry-point checks. A change that moves a pin edits pins.json.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cellsim import cli

PINS = json.loads(Path(__file__).with_name("pins.json").read_text())
DIGESTS = PINS["seed31_digest_sha256"]


@pytest.fixture()
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads
    return workloads


def test_every_workload_has_a_pin(workloads):
    assert sorted(DIGESTS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_each_workload_digest_is_pinned(workloads, name, tmp_path):
    episode = workloads.WORKLOADS[name](31, str(tmp_path)).episode()
    assert (episode.failed, episode.failures) == (0, [])
    assert workloads.digest_sha(episode.digest) == DIGESTS[name]


def test_four_hour_csv_is_pinned(tmp_path):
    table = tmp_path / "table.csv"
    assert cli.main(["bench", "csv", "--out", str(table)]) == 0
    assert hashlib.sha256(table.read_bytes()).hexdigest() == PINS["four_hour_csv_sha256"]
