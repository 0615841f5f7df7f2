"""The examples in README.md, run as written.

Each `$ relcalc ...` line of a text block is run through `relcalc.cli.main`
and its stdout compared byte for byte with the lines under it, up to the
next blank line.  The quick-tour Python block is run as one script, and
its stdout compared with the block's `# ...` comment lines.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from relcalc.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README, flags=re.M | re.S)


def cli_examples():
    """(argv, expected stdout) of every `$ relcalc` example, in README order."""
    examples = []
    for lang, body in BLOCKS:
        for chunk in body.split("\n\n"):
            command, _, output = chunk.partition("\n")
            if lang == "text" and command.startswith("$ relcalc "):
                examples.append((shlex.split(command)[2:], output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = cli_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 5
    assert [lang for lang, _ in BLOCKS].count("python") == 1


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_cli_example(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_quick_tour():
    (body,) = [body for lang, body in BLOCKS if lang == "python"]
    expected = "".join(line[2:] + "\n" for line in body.splitlines() if line.startswith("# "))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(body, "README.md", "exec"), {})
    assert out.getvalue() == expected
