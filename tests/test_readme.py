"""The README's CLI and Library examples run as documented.

Every ``stockbraid ...`` line of the CLI block goes through ``cli.main``
from a temporary directory, with shell redirections dropped and the
sample data path resolved against the repository root; a line followed
by a ``# -> OUTPUT`` comment must print exactly that output.
"""

import re
import shlex
from pathlib import Path

import pytest

from stockbraid.cli import main

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = "tests/data/dow4_2013.csv"


def _block(heading: str, language: str) -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    return match.group(1).splitlines()


def _cli_examples() -> list:
    """One pytest.param(argv, expected stdout or None) per example line."""
    lines = _block("CLI", "sh")
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("stockbraid "):
            continue
        argv = shlex.split(line)[1:]
        if ">" in argv:
            argv = argv[: argv.index(">")]
        argv = [str(ROOT / SAMPLE) if arg == SAMPLE else arg for arg in argv]
        after = lines[i + 1] if i + 1 < len(lines) else ""
        expected = after[len("# -> "):] + "\n" if after.startswith("# -> ") else None
        examples.append(pytest.param(argv, expected, id=line))
    return examples


def test_readme_has_cli_examples():
    examples = [example.values for example in _cli_examples()]
    assert {argv[0] for argv, _ in examples} == {"braid", "invariant", "prob", "render"}
    assert (["braid", str(ROOT / SAMPLE), "--audit", "audit.json"],
            "4: -2 -3 -3 3 1 3 1 2 -2 -3 -1 -2\n") in examples


@pytest.mark.parametrize("argv,expected", _cli_examples())
def test_readme_cli_example(capsys, monkeypatch, tmp_path, argv, expected):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error, such as a removed flag
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if expected is not None:
        assert out == expected


def test_readme_library_example(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    source = "\n".join(_block("Library", "python")).replace(SAMPLE, str(ROOT / SAMPLE))
    exec(compile(source, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "{-4: -1, 4: -1}"
