"""Every experiment's report, pinned at smoke scale under both engines.

``report_manifest.json`` maps each registry id to the first 16 hex of
the sha256 of its report text at the manifest's scale.  The batched
engines (default) and the scalar engine (``HBMSIM_BATCH=0``) must both
reproduce it byte for byte; a report that moves must move on purpose,
with the manifest updated in the same change.

``ext-defenses`` is the slow one (seconds per run even at this scale);
its manifest entry is asserted next to its other pins, in
``test_extensions.py``, rather than run here a second time.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.registry import known_ids, run_experiment

MANIFEST = json.loads(
    (Path(__file__).with_name("report_manifest.json")).read_text())
SCALE = MANIFEST["scale"]
REPORTS = MANIFEST["reports"]


def report_sha(experiment_id: str) -> str:
    text = run_experiment(experiment_id, SCALE).text
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_manifest_covers_every_experiment():
    assert sorted(REPORTS) == sorted(known_ids())


@pytest.mark.parametrize("batch", ["unset", "0"])
@pytest.mark.parametrize("experiment_id",
                         [eid for eid in REPORTS if eid != "ext-defenses"])
def test_report_pinned(experiment_id, batch, monkeypatch):
    if batch == "unset":
        monkeypatch.delenv("HBMSIM_BATCH", raising=False)
    else:
        monkeypatch.setenv("HBMSIM_BATCH", batch)
    assert report_sha(experiment_id) == REPORTS[experiment_id]
