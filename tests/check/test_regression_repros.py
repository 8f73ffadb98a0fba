"""Replay every committed minimal-repro artifact and require a clean run.

Each JSON under ``tests/check/repros/`` is a counterexample the fuzzer
found (and shrank) against a real bug that has since been fixed —
replaying them green keeps the bugs fixed. To add one: take the artifact
``repro check`` wrote on failure, fix the bug, confirm the replay passes,
and commit the artifact here.

Current repros:

* ``restart-stuck-suspect-*.json`` — a member that restarts (crash +
  recover) while remembering SUSPECT peers ended up with SUSPECT map
  entries but no suspicion timers: ``stop()`` cleared the timer table,
  nothing re-armed it, and an equal-incarnation ``suspect`` claim could
  not re-create it (``claim_supersedes`` requires strictly higher
  incarnation for SUSPECT over SUSPECT). The suspicion could then never
  expire or decay, wedging the member's view. Fixed by re-arming
  suspicions in ``SwimNode.start()`` and accepting entry re-creation in
  ``_handle_suspect``.
* ``confirm-expiry-resuspects-dead-*.json`` — a ``suspect`` claim that
  was both a new confirmation of a held suspicion and at a newer
  incarnation than the table's: the confirmation shrank a deadline that
  had already passed, the suspicion expired inside the handler (subject
  DEAD), and the handler then merged the newer incarnation — SUSPECT
  over DEAD, which a higher incarnation wins — leaving a SUSPECT entry
  with no timer. Found by seed 36 of the 100-seed flat sweep. Fixed by
  merging the incarnation before the confirmation can move the deadline,
  so the subject dies at the incarnation it was last suspected at.
"""

import json
import pathlib

import pytest

from repro.check.runner import load_artifact_spec, run_scenario

REPRO_DIR = pathlib.Path(__file__).parent / "repros"
REPRO_FILES = sorted(REPRO_DIR.glob("*.json"))


def test_repro_corpus_is_not_empty():
    assert REPRO_FILES, "expected committed repro artifacts"


@pytest.mark.parametrize(
    "path", REPRO_FILES, ids=[p.stem for p in REPRO_FILES]
)
def test_repro_stays_fixed(path):
    spec = load_artifact_spec(json.loads(path.read_text()))
    result = run_scenario(spec)
    assert result.ok, "\n".join(str(v) for v in result.violations)
