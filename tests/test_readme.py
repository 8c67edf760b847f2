"""README's library tour and command-line examples.

The "Library tour" block runs in a fresh namespace and must hold the
claims its comments make.  Each "$ efano ..." line of the "Command line"
section (with its "\\" continuations joined) runs through cli.main in
one temporary directory, in README order, so profile-fit reads the
curve profile-gen wrote.  Its stdout must equal the lines that follow it
byte for byte, where "..." stands for any text.
"""

import re
import shlex
from pathlib import Path

import pytest

from efano.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(text: str, heading: str) -> str:
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else None]


def test_library_tour_holds_its_claims():
    block = re.search(r"```python\n(.*?)```", _section(README.read_text(), "Library tour"), re.S)
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    efano = namespace["efano"]
    assert namespace["n"] == 2
    assert efano.scattering_length(namespace["tuned"]).a == pytest.approx(1600.0, rel=1e-9)
    # "the symmetric model is ~1000x worse here"
    assert 500.0 < namespace["bw_fit"].sse / namespace["fano_fit"].sse < 2000.0


def cli_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each example, in README order."""
    block = re.search(r"```text\n(.*?)```", _section(README.read_text(), "Command line"), re.S)
    examples: list[tuple[str, list[str]]] = []
    lines = iter(block.group(1).splitlines())
    for line in lines:
        if line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            examples.append((command, []))
        elif examples:
            examples[-1][1].append(line)
    out = []
    for command, expected in examples:
        while expected and not expected[-1]:
            expected.pop()
        out.append((command, "".join(f"{line}\n" for line in expected)))
    return out


def run(command: str, capsys) -> str:
    argv = shlex.split(command)
    assert argv[0] == "efano", command
    assert main(argv[1:]) == 0, (command, capsys.readouterr().err)
    captured = capsys.readouterr()
    assert captured.err == "", (command, captured.err)
    return captured.out


def test_examples_are_found():
    commands = [command.split()[1] for command, _ in cli_examples()]
    assert commands == [
        "dipole-ladder", "scattering-length", "scattering-length", "efimov-count",
        "efimov-count", "efimov-ladder", "profile-gen", "profile-fit",
    ]


def test_cli_examples_print_what_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, expected in cli_examples():
        pattern = ".*?".join(map(re.escape, expected.split("...")))
        got = run(command, capsys)
        assert re.fullmatch(pattern, got, re.S), (command, got)


def test_truncated_ladder_claim(capsys):
    prose = " ".join(_section(README.read_text(), "Command line").split())
    claim = re.search(
        r"`efano (efimov-ladder [^`]+)` prints (\d+) levels under a header ending in `([^`]+)`",
        prose,
    )
    command, levels, header_end = claim.groups()
    assert (command, levels) == ("efimov-ladder --alpha-eff 1 --ground-energy -1 --count 200",
                                 "113")
    header, *rows = run(f"efano {command}", capsys).splitlines()
    assert header.endswith(header_end)
    assert len(rows) == int(levels)
