"""Byte pins of every CLI command on every shipped fixture.

Each case runs `cli.main` in process from the repository root and is
compared with the stored table `cli_pins.json`: exit code, and the
sha256 of stdout and of stderr.  The operator commands run at
`--order 10` in four forms (table, `--format json`, `--decimal 4`,
`--sign -1`); `check` and `rees-roundtrip` run once.  Inputs that a
command rejects are pinned too, so the error paths stay byte-stable.

A deliberate output change is recorded by regenerating the table:

    PYTHONPATH=src python tests/test_cli_pins.py --write
"""
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from vshstools import cli

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "cli_pins.json"
FIXTURES = sorted(p.name for p in (ROOT / "data").iterdir())
OPERATOR_COMMANDS = ("pipeline", "mirror-map", "yukawa", "instantons",
                     "normal-form")
FORMS = ((), ("--format", "json"), ("--decimal", "4"), ("--sign", "-1"))


def cases(fixture: str) -> list[list[str]]:
    path = f"data/{fixture}"
    out = [[cmd, "--input", path, "--order", "10", *form]
           for cmd in OPERATOR_COMMANDS for form in FORMS]
    out += [[cmd, "--input", path] for cmd in ("check", "rees-roundtrip")]
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(argv: list[str]) -> list:
    """[exit code, stdout sha256, stderr sha256], run from the root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return [code, digest(out.getvalue()), digest(err.getvalue())]


def load_pins() -> dict[str, list]:
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_cli_output_pinned(fixture):
    pins = load_pins()
    mismatched = []
    for argv in cases(fixture):
        key = " ".join(argv)
        if run_case(argv) != pins.get(key):
            mismatched.append(key)
    assert not mismatched, mismatched


def test_pin_table_covers_exactly_the_cases():
    keys = {" ".join(argv) for f in FIXTURES for argv in cases(f)}
    assert keys == set(load_pins())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_pins.py --write")
    table = {" ".join(argv): run_case(argv)
             for f in FIXTURES for argv in cases(f)}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}"
             for k, v in sorted(table.items())]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} pins to {PINS}")
