"""The CLI output corpus: one digest per command of its exit code and its
output, stored in tests/output_digests.json and checked by
tests/test_output_digests.py.

A digest is perfbench's report_digest: the sha256 of the exit code and the
canonical JSON report without timing_seconds, or of the raw stdout when the
output is not a JSON object.  Commands run in-process through cli.main; an
argparse refusal counts with its SystemExit code.

    PYTHONPATH=src python tests/update_output_digests.py

rewrites the corpus; a change that moves a digest names the command, and
why it moved, in CHANGES.md.  With --print the digests go to stdout instead,
as JSON, and the file is left alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from hessllt import cli
from hessllt.symfunc import BASES

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).with_name("output_digests.json")

sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS, report_digest  # noqa: E402

SCOPE_RUNS = [("verify", "--scope", scope, "--n", str(n))
              for scope in cli.SCOPES for n in range(1, 5)
              if (scope, n) != ("gkm", 4)]  # gkm at n = 4 is too slow for Tier-1
EXPANSIONS = [(command, "--h", "2,3,4,4", "--basis", basis, "--format", fmt)
              for command in ("llt", "csf") for basis in BASES for fmt in ("json", "latex", "plain")]
EXIT_CODE_PROBES = [
    ("llt", "--h", ""),  # empty h
    ("llt", "--h", "2,a,3"),  # non-integer h
    ("llt", "--h", "3,2,3"),  # non-monotone h
    ("llt", "--h", "3,4,5,6,7,8,9,9,9"),  # over the coloring budget
    ("llt", "--h", "2,2", "--basis", "z"),  # bad basis
    ("verify", "--n", "3"),  # missing --scope
    ("verify", "--scope", "identities", "--n", "8"),
    ("verify", "--scope", "gkm", "--n", "5"),
    ("verify", "--scope", "gkm", "--h", "2,3,4,5,5"),
    ("verify", "--scope", "permutohedron", "--n", "7"),
    ("verify", "--scope", "complete-graph", "--n", "6"),
    ("verify", "--scope", "permutohedron", "--h", "2,2"),  # --h given to an --n scope
    ("verify", "--scope", "identities", "--h", "1"),
    ("verify", "--scope", "gkm", "--h", "1"),
    ("csf", "--h", "1"),
    ("llt", "--h", "7,7,7,7,7,7,7", "--shifted"),  # complete graph over the orientation budget
]
COMMANDS = [
    *SCOPE_RUNS,
    *(w.argv for w in WORKLOADS.values()),
    *EXPANSIONS,
    *EXIT_CODE_PROBES,
]


def key(argv) -> str:
    """The command line of argv, as the corpus names it."""
    return " ".join(a if a else '""' for a in argv)


def digest(argv) -> dict:
    """Exit code and report digest of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refuses before main returns
            code = exc.code
    return {"exit_code": code, "sha256": report_digest(out.getvalue().encode(), code)}


def corpus() -> dict[str, dict]:
    return {key(argv): digest(argv) for argv in COMMANDS}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Rewrite the CLI output corpus.")
    parser.add_argument("--print", action="store_true", help="print the digests instead of writing them")
    args = parser.parse_args(argv)
    text = json.dumps(corpus(), indent=2) + "\n"
    if args.print:
        sys.stdout.write(text)
    else:
        CORPUS.write_text(text)


if __name__ == "__main__":
    main()
