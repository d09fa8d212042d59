"""The CLI output contract: every command of the corpus in
update_output_digests.py exits with the code and prints the bytes that
tests/output_digests.json stores, in this process and in a fresh one under
a fixed hash seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import update_output_digests as corpus

SCRIPT = Path(corpus.__file__)
SRC = corpus.ROOT / "src"


def changed_commands(actual: dict[str, dict]) -> str:
    """The command lines whose digest differs from the stored one, with the
    way to rewrite the corpus; empty when nothing changed."""
    stored = json.loads(corpus.CORPUS.read_text())
    moved = sorted(k for k in stored.keys() | actual.keys() if stored.get(k) != actual.get(k))
    if not moved:
        return ""
    return ("output changed for:\n  " + "\n  ".join(moved)
            + f"\nif intended, rewrite the corpus with PYTHONPATH=src python {SCRIPT.relative_to(corpus.ROOT)}"
            " and name each command in CHANGES.md")


def test_every_command_matches_its_stored_digest():
    moved = changed_commands(corpus.corpus())
    assert not moved, moved


def test_digests_hold_under_another_hash_seed():
    env = dict(os.environ, PYTHONHASHSEED="2718", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--print"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    moved = changed_commands(json.loads(proc.stdout))
    assert not moved, moved
