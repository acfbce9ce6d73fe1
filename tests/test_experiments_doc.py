"""EXPERIMENTS.md says what the code prints (ISSUE 18).

Every experiment whose table EXPERIMENTS.md records, and whose full
preset runs in seconds, is rendered from its ``--full`` preset and must
appear in the document *verbatim* — what ``python -m repro run EN
--full --no-cache`` prints. A change that moves a recorded number
fails here until the table (and the prose quoting it) is regenerated.
"""

import pathlib
import time

import pytest

from repro.harness import experiments

DOCUMENT = (pathlib.Path(__file__).parent.parent
            / "EXPERIMENTS.md").read_text()

#: Recorded tables whose full preset is too slow for tier-1.
SKIPPED = {"E14": "its full preset takes about a minute (56 s measured)"}

#: E13, E15 and E16 have no section in EXPERIMENTS.md yet (ROADMAP).
RECORDED = ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
            "E11", "E12", "E14"]


@pytest.mark.parametrize("experiment_id", RECORDED)
def test_full_table_is_what_the_document_records(experiment_id):
    if experiment_id in SKIPPED:
        pytest.skip(SKIPPED[experiment_id])
    module = experiments.get(experiment_id)
    started = time.perf_counter()
    rendered = str(module.run(module.Params()))
    assert rendered in DOCUMENT, (
        f"EXPERIMENTS.md does not record what `python -m repro run "
        f"{experiment_id} --full --no-cache` prints "
        f"({time.perf_counter() - started:.1f} s):\n{rendered}")


def test_every_recorded_section_is_covered():
    """A section added to the document joins RECORDED (or SKIPPED)."""
    sections = {line.split()[1] for line in DOCUMENT.splitlines()
                if line.startswith("## E")}
    assert sections == set(RECORDED)
