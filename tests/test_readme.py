"""The README's examples run as written, and print what their comments say."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# Warnings are errors, and -X dev turns on the runtime's extra checks.
PYTHON = [sys.executable, "-X", "dev", "-W", "error"]


def block_after(heading: str, lang: str) -> str:
    """The first ```lang block after the line `heading`."""
    match = re.search(rf"^{re.escape(heading)}$.*?^```{lang}\n(.*?)^```$", README, re.M | re.S)
    assert match, f"no {lang} block after {heading!r}"
    return match.group(1)


CLI_COMMANDS = [line for line in block_after("## CLI", "sh").splitlines() if line.startswith("ariki ")]

# Runs the piped block one top-level statement at a time and ends the output
# of each with a marker line naming the statement's first line.
STATEMENT_RUNNER = """
import ast, sys
code = sys.stdin.read()
scope = {"__name__": "__main__"}
for node in ast.parse(code).body:
    exec(compile(ast.Module([node], []), "<README>", "exec"), scope)
    print(f"\\0{node.lineno}")
"""


def test_cli_block_is_found():
    assert len(CLI_COMMANDS) == 6


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_cli_example_exits_0(command):
    argv = shlex.split(command)
    proc = subprocess.run([*PYTHON, "-m", "ariki.cli", *argv[1:]], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_library_example_prints_its_comments():
    code = block_after("## Library example", "python")
    proc = subprocess.run(
        [*PYTHON, "-c", STATEMENT_RUNNER], input=code, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    printed, lines = {}, []
    for line in proc.stdout.splitlines():
        if line.startswith("\0"):
            printed[int(line[1:])], lines = lines, []
        else:
            lines.append(line)
    # A comment on a print statement gives its printed line, up to a ";".
    expected = {}
    for lineno, line in enumerate(code.splitlines(), 1):
        match = re.fullmatch(r"print\(.*\)\s+# (.*)", line)
        if match:
            expected[lineno] = match.group(1).split(";")[0]
    assert list(expected.values()) == ["q - Q0*Q1^-1 - Q0^-1*Q1 + q^-1", "6", "0"]
    for lineno, value in expected.items():
        assert printed[lineno] == [value], (lineno, printed[lineno])
