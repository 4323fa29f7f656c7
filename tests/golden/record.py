"""Re-record the CLI corpus: run each case of cases.jsonl through ``cli.main``
from this directory and store its exit code, stdout and stderr.

    PYTHONPATH=src python tests/golden/record.py

A change meant to change output runs this and names the changed cases
(``git diff tests/golden/cases.jsonl``).  To add a case, put its input
files under ``in/``, append ``{"name": ..., "argv": [...]}`` to cases.jsonl
and run this.
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
    cases = [{"name": case["name"], "argv": case["argv"],
              **dict(zip(("exit", "stdout", "stderr"), run(case["argv"])))} for case in load()]
    CASES.write_text("".join(json.dumps(case) + "\n" for case in cases), encoding="utf-8")


if __name__ == "__main__":
    main()
