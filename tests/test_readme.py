"""The README's examples: every `slimlat ...` line of the command block
parses, and the quick-tour Python block runs and prints what its
comments claim."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from slimlat.cli import make_parser

README = (Path(__file__).parent.parent / "README.md").read_text()


def _block(heading, lang):
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_command_lines_parse():
    lines = [l for l in _block("Command line", "sh").splitlines() if l.startswith("slimlat ")]
    assert len(lines) == 12
    parser = make_parser()
    for line in lines:
        argv = shlex.split(line.split("#", 1)[0])[1:]
        assert parser.parse_args(argv).command == argv[0]


def test_quick_tour_prints_what_it_claims():
    code = _block("Library quick tour", "python")
    claims = [l.split("#", 1)[1].strip() for l in code.splitlines() if l.startswith("print(")]
    assert claims == ["{2: 1, 3: 2, 4: 6, 5: 19}", "5"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == claims
