"""Command-line surface.

Exit codes: 0 success, 1 validation/assertion failure, 2 parse error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import PlanarDiagram, is_slim_rectangular
from .dsl import emit_dsl, parse_dsl
from .errors import BudgetError, ParseError, SlimlatError
from .explore import enumerate_index, realize, sweep_bounds
from .doubling import double
from .lamps import lamp_report
from .multifork import build, decompose, reprovenance
from .order import Poset, _elements, congruence_lattice
from .reduce import _reduce_once, check_bounds, minimize
from .render import render


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_built(args):
    """The built lattice of a DSL sequence, or the door lattice of a lattice
    JSON file, which reprovenance validates and which keeps the file's ids."""
    text = _read(args.input)
    if args.format == "dsl":
        return build(parse_dsl(text))
    return reprovenance(PlanarDiagram.from_json(text))


def _load_diagram(args):
    text = _read(args.input)
    if args.format == "dsl":
        return build(parse_dsl(text)).diagram
    return PlanarDiagram.from_json(text)


def cmd_build(args):
    pl = build(parse_dsl(_read(args.input)))
    _write(args, pl.diagram.to_json() + "\n")
    return 0


def cmd_validate(args):
    report = is_slim_rectangular(_load_diagram(args))
    _write(args, json.dumps({"ok": report.ok, "failures": list(report.failures)}) + "\n")
    return 0 if report.ok else 1


def cmd_lamps(args):
    pl = _load_built(args)
    _write(args, json.dumps(lamp_report(pl), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_con(args):
    lat = _load_diagram(args).lattice
    cl = congruence_lattice(lat)
    # theta is fixed by the j in J(L) with j_ theta j, its collapsed mask
    out = {
        "jir_count": cl.jir_count(),
        "con_size": cl.con_size,
        "jir_poset": json.loads(cl.jir_poset.to_json()),
        "jir_congruence_collapsed": [list(_elements(c)) for c in cl.collapsed],
    }
    # compact: up to |J|^2 numbers, which indent=2 would encode in pure Python
    _write(args, json.dumps(out, separators=(",", ":"), sort_keys=True) + "\n")
    return 0


def cmd_reduce(args):
    removal = _reduce_once(_load_built(args))
    if removal is None:
        _write(args, json.dumps({"applied": None, "note": "no removable pattern"}) + "\n")
        return 0
    pl, step = removal
    out = {"applied": step.to_dict(), "sequence": emit_dsl(pl.seq)}
    _write(args, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_minimize(args):
    pl = _load_built(args)
    fixed, trace = minimize(pl)
    out = {
        "steps": [s.to_dict() for s in trace],
        "fixpoint_sequence": emit_dsl(fixed.seq),
        "fixpoint_size": fixed.n,
        "fixpoint_length": fixed.length(),
    }
    _write(args, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_bounds(args):
    if args.input:
        rep = check_bounds(_load_built(args))
        _write(args, json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n")
        return 0 if rep.ok else 1
    report = sweep_bounds(args.max_len, allow_large=args.allow_large)
    _write(args, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if report["failures"] else 0


def cmd_decompose(args):
    seq = decompose(_load_diagram(args))
    _write(args, emit_dsl(seq))
    return 0


def cmd_double(args):
    seq = parse_dsl(_read(args.input))
    new_seq, _ = double(seq, args.step)
    _write(args, emit_dsl(new_seq))
    return 0


def cmd_enumerate(args):
    index = enumerate_index(args.max_len, allow_large=args.allow_large)
    out = {
        "counts": index.counts(),
        "sequences": {
            str(length): [emit_dsl(e.seq) for e in index.entries(length)]
            for length in sorted(index.by_length)
        },
    }
    _write(args, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_realize(args):
    poset = Poset.from_json(_read(args.input))
    answer = realize(poset, args.max_len, allow_large=args.allow_large)
    out = {
        "status": answer.status,
        "min_length": answer.min_length if answer.found else None,
        "witness": emit_dsl(answer.witness_seq) if answer.witness_seq else None,
        "searched_up_to": answer.searched_up_to,
    }
    _write(args, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_render(args):
    _write(args, render(_load_built(args), args.render_format))
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="slimlat",
        description="Slim rectangular lattice toolkit: build, analyze, reduce, enumerate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--input": {"help": "input file"},
        "--format": {"choices": ["dsl", "json"], "default": "dsl"},
        "--max-len": {"type": int, "default": 5},
        "--step": {"type": int, "default": 1},
        "--allow-large": {"action": "store_true"},
        "--render-format": {"choices": ["dot", "svg", "tikz"], "default": "dot"},
        "--out": {"help": "output file (default stdout)"},
    }

    def add(name, fn, names, summary):
        """A subcommand that accepts the named flags and --out."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        for flag in (*names.split(), "--out"):
            p.add_argument(flag, **flags[flag])

    loaded = "--input --format"
    search = "--max-len --allow-large"
    add("build", cmd_build, "--input", "build a lattice from a DSL sequence, emit JSON")
    add("validate", cmd_validate, loaded, "slim-rectangularity report")
    add("lamps", cmd_lamps, loaded, "lamp report: lamps, poset, congruence witness")
    add("con", cmd_con, loaded, "congruence lattice summary")
    add("reduce", cmd_reduce, loaded, "apply one length reduction if possible")
    add("minimize", cmd_minimize, loaded, "reduce to a fixpoint, emit the trace")
    add("bounds", cmd_bounds, f"{loaded} {search}", "bound report for one lattice or a sweep")
    add("decompose", cmd_decompose, loaded, "recover a construction sequence")
    add("double", cmd_double, "--input --step", "double the lamp of step T (--step)")
    add("enumerate", cmd_enumerate, search, "enumerate lattices up to --max-len")
    add("realize", cmd_realize, f"--input {search}", "minimal-length realization of a poset (JSON)")
    add("render", cmd_render, f"{loaded} --render-format", "render to dot/svg/tikz")
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "max_len", 0) < 0:
            raise ParseError(f"--max-len must be >= 0, got {args.max_len}")
        if getattr(args, "input", "") is None and args.command != "bounds":
            raise ParseError(f"--input FILE is required for {args.command}")
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except SlimlatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
