"""Artefacts that still carry a stored plan load and score as before.

``fixtures/cp8_with_scoring_plan.json`` was written by
``repro-study train <path> --segments 1500 --seed 4`` at commit
``1ff0577``, when every artefact also stored the compiled plan under
``model.scoring_plan``.  Its checksum covers that key, so it must
still verify; the key itself is not read, and the plan is compiled
from the tree.  ``PROBABILITIES_SHA256`` was recorded with that
commit's code on the same dataset's segment table.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.deployment import CrashPronenessScorer, payload_checksum
from repro.roads import QDTMRSyntheticGenerator, small_config
from repro.serving import ScorerRegistry, ScoringEngine

FIXTURE = Path(__file__).parent / "fixtures" / "cp8_with_scoring_plan.json"

#: sha256 of the 1,500 probabilities as little-endian float64 bytes.
PROBABILITIES_SHA256 = (
    "d2df535f0a2441e8d7a61c808d2db59809b6f0543418cd184cef6d4b0244c462"
)


def _digest(probabilities) -> str:
    array = np.asarray(probabilities, dtype="<f8")
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def segment_table():
    config = small_config(n_segments=1500, n_towns=18)
    return QDTMRSyntheticGenerator(config).generate(seed=4).segment_table


def test_fixture_carries_a_checksummed_plan():
    data = json.loads(FIXTURE.read_text())
    assert "scoring_plan" in data["model"]
    assert data["checksum"] == payload_checksum(data)


def test_scorer_scores_bit_identically(segment_table):
    scorer = CrashPronenessScorer.load(FIXTURE)
    assert scorer.model.n_leaves == 13
    assert "scoring_plan" not in scorer.to_dict()["model"]
    assert _digest(scorer.score(segment_table)) == PROBABILITIES_SHA256


def test_registry_and_engine_score_bit_identically(segment_table, tmp_path):
    shutil.copy(FIXTURE, tmp_path / "cp8.json")
    entry = ScorerRegistry(tmp_path).get("cp8")
    # The registry re-serialises the scorer, now without the plan, so
    # its checksum differs from the one the old file stores.
    assert entry.checksum != json.loads(FIXTURE.read_text())["checksum"]
    schema = entry.scorer.input_schema()
    rows = [
        {name: row[name] for name in schema}
        for row in (segment_table.row(i) for i in range(segment_table.n_rows))
    ]
    with ScoringEngine(entry.scorer, name="cp8", max_batch=256) as engine:
        served = engine.score_many(rows)
    assert _digest(served) == PROBABILITIES_SHA256
