"""The recorded CLI corpus in tests/golden: each case's exit code, stdout and
stderr, byte for byte.  Cases run from the corpus directory, through
``cli.main`` in this process, or through the executable that SINGVOL_CLI
names (CI names the installed ``singvol`` script)."""

import os
import subprocess

import pytest

from golden.record import HERE, load, run
from singvol import cli


@pytest.fixture(scope="module")
def cases():
    return load()


def outcome(argv):
    command = os.environ.get("SINGVOL_CLI")
    if not command:
        return run(argv)
    proc = subprocess.run([command, *argv], cwd=HERE, capture_output=True)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_every_case_replays(monkeypatch, cases):
    monkeypatch.chdir(HERE)
    assert len({case["name"] for case in cases}) == len(cases)
    changed = {}
    for case in cases:
        got, expected = outcome(case["argv"]), (case["exit"], case["stdout"], case["stderr"])
        if got != expected:
            changed[case["name"]] = f"expected {expected!r}, got {got!r}"
    if changed:
        first = "\n".join(f"{name}: {diff}" for name, diff in list(changed.items())[:3])
        pytest.fail(f"{len(changed)} cases changed: {', '.join(changed)}\n{first}")


def commands():
    for group, (head, body) in cli._COMMANDS.items():
        yield from [[group]] if callable(head) else ([group, command] for command in body)


@pytest.mark.parametrize("prefix, option", [
    *((command, []) for command in commands()),
    (["toric", "env"], ["--oracle"]),
    (["toric", "mult"], ["--oracle"]),
    ([], ["--format", "json"]),
    ([], ["--format", "table"]),
], ids=repr)
def test_corpus_covers(cases, prefix, option):
    def covers(argv):
        return argv[:len(prefix)] == prefix and any(
            argv[i:i + len(option)] == option for i in range(len(argv)))
    assert any(covers(case["argv"]) for case in cases)
