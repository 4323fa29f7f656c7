"""Re-record the CLI corpus: run each case of cases.jsonl through ``cli.main``
from this directory, store its exit code, stdout and stderr, and print the
name of each case whose recording changed, then their count.

    PYTHONPATH=src python tests/golden/record.py

A change meant to change output runs this and lists the printed names.  To
add a case, put its input files under ``in/``, append
``{"name": ..., "argv": [...]}`` to cases.jsonl and run this; a new case
counts as changed.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from singvol import cli

HERE = Path(__file__).resolve().parent
CASES = HERE / "cases.jsonl"


def load():
    return [json.loads(line) for line in CASES.read_text(encoding="utf-8").splitlines()]


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main():
    os.chdir(HERE)
    cases, changed = [], []
    for case in load():
        recorded = dict(zip(("exit", "stdout", "stderr"), run(case["argv"])))
        if any(case.get(key) != value for key, value in recorded.items()):
            changed.append(case["name"])
        cases.append({"name": case["name"], "argv": case["argv"], **recorded})
    CASES.write_text("".join(json.dumps(case) + "\n" for case in cases), encoding="utf-8")
    print(*changed, f"{len(changed)} cases changed", sep="\n")


if __name__ == "__main__":
    main()
