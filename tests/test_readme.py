"""The README's examples: every `slimlat ...` line of the command block
parses, the quick-tour Python block runs and prints what its comments
claim, and every Python name the README spells out resolves.  Every name
that `slimlat.__all__` exports is bound on the package."""

import contextlib
import importlib
import importlib.util
import io
import re
import shlex
from pathlib import Path

import slimlat
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


def test_named_python_objects_resolve():
    """A backticked dotted name `slimlat.m.f` resolves as a user writes it:
    `import slimlat.m`, then the attributes from `slimlat` (so a package
    attribute that shadows its submodule fails); a backticked
    `from slimlat... import ...` statement runs."""
    names = re.findall(r"`(slimlat(?:\.\w+)+)`", README)
    assert "slimlat.render" in names
    for name in names:
        parts = name.split(".")
        if importlib.util.find_spec(f"slimlat.{parts[1]}"):
            importlib.import_module(f"slimlat.{parts[1]}")
        obj = importlib.import_module("slimlat")
        for attr in parts[1:]:
            assert hasattr(obj, attr), f"`{name}` does not resolve"
            obj = getattr(obj, attr)
    statements = re.findall(r"`(from slimlat[\w.]* import \w+(?:, \w+)*)`", README)
    assert statements
    for statement in statements:
        exec(statement, {})


def test_every_exported_name_is_bound():
    assert len(slimlat.__all__) == len(set(slimlat.__all__))
    assert [name for name in slimlat.__all__ if not hasattr(slimlat, name)] == []
