"""The examples in README.md print what they show: the Python blocks run
as doctests, the command lines through the CLI's dispatcher."""

import doctest
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from packpoly.cli import cli_dispatch

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# The closing fence is not part of the example, or doctest would read it
# as expected output.
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 4


# Named by order, so an edit above an example renames no test.
@pytest.mark.parametrize(
    "lineno,block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))]
)
def test_python_block(lineno, block):
    name = f"README.md:{lineno + 1}"
    test = doctest.DocTestParser().get_doctest(block, {}, name, str(README), lineno)
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)


def command_line_examples():
    """(command, expected stdout) for each `$ packpoly` line of the
    "Command line" block, in order."""
    section = TEXT[TEXT.index("## Command line") :]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif line:
            examples[-1][1].append(line)
    return [(command, "".join(out + "\n" for out in lines)) for command, lines in examples]


EXAMPLES = command_line_examples()


def run_command(command, monkeypatch, capsys):
    """Run a README command line through cli_dispatch and return its stdout.

    Stages joined by `|` pass stdout on as stdin; a final `> file` writes
    the stdout to that file in the working directory instead.
    """
    command, _, target = command.partition(" > ")
    text = ""
    for stage in command.split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "packpoly"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        cli_dispatch(argv[1:])
        text = capsys.readouterr().out
    if target:
        Path(target).write_text(text, encoding="utf-8")
        return ""
    return text


def test_readme_has_command_line_examples():
    assert len(EXAMPLES) >= 15


def test_command_line_block(tmp_path, monkeypatch, capsys):
    # One test for the block: `verify-cert cert.json` reads the file that
    # the line before it writes.
    monkeypatch.chdir(tmp_path)
    for command, expected in EXAMPLES:
        assert run_command(command, monkeypatch, capsys) == expected, command
