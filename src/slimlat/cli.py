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
from .errors import (
    BudgetError,
    InternalInconsistencyError,
    OrderError,
    ParseError,
    PreconditionError,
    SlimlatError,
)
from .explore import enumerate_index, realize, sweep_bounds
from .doubling import double
from .lamps import lamp_report
from .multifork import build, decompose, reprovenance
from .order import Poset, congruence_lattice
from .reduce import check_bounds, minimize, remove_neighboring, remove_sandwiched
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
    """A built lattice from either a DSL sequence or a lattice JSON file."""
    text = _read(args.input)
    if args.format == "dsl":
        return build(parse_dsl(text))
    diagram = PlanarDiagram.from_json(text)
    report = is_slim_rectangular(diagram)
    if not report.ok:
        raise PreconditionError(f"input is not slim rectangular: {report.failures}")
    return reprovenance(diagram)


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
    d = _load_diagram(args)
    cl = congruence_lattice(d.lattice)
    out = {
        "jir_count": cl.jir_count(),
        "con_size": cl.con_size,
        "jir_poset": json.loads(cl.jir_poset.to_json()),
        "jir_congruence_blocks": [
            sorted(sorted(b) for b in c.blocks()) for c in cl.jir_congs
        ],
    }
    _write(args, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_reduce(args):
    from .reduce import find_removable
    pl = _load_built(args)
    target = find_removable(pl)
    if target is None:
        _write(args, json.dumps({"applied": None, "note": "no removable pattern"}) + "\n")
        return 0
    lamp, kind, pos = target
    if kind == "00":
        pl2, step = remove_neighboring(pl, lamp.foot, lamp.tubes[pos], lamp.tubes[pos + 1])
    else:
        pl2, step = remove_sandwiched(pl, lamp.foot, lamp.tubes[pos + 1])
    out = {"applied": step.to_dict(), "sequence": emit_dsl(pl2.seq)}
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
    pl = _load_built(args)
    _write(args, render(pl, args.render_format))
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="slimlat",
        description="Slim rectangular lattice toolkit: build, analyze, reduce, enumerate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--input", help="input file")
        p.add_argument("--format", choices=["dsl", "json"], default="dsl")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--max-len", type=int, default=5, dest="max_len")
        p.add_argument("--step", type=int, default=1)
        p.add_argument("--allow-large", action="store_true", dest="allow_large")
        return p

    add("build", cmd_build, help="build a lattice from a DSL sequence, emit JSON")
    add("validate", cmd_validate, help="slim-rectangularity report")
    add("lamps", cmd_lamps, help="lamp report: lamps, poset, congruence witness")
    add("con", cmd_con, help="congruence lattice summary")
    add("reduce", cmd_reduce, help="apply one length reduction if possible")
    add("minimize", cmd_minimize, help="reduce to a fixpoint, emit the trace")
    add("bounds", cmd_bounds, help="bound report for one lattice or a sweep")
    add("decompose", cmd_decompose, help="recover a construction sequence")
    add("double", cmd_double, help="double the lamp of step T (--step)")
    add("enumerate", cmd_enumerate, help="enumerate lattices up to --max-len")
    add("realize", cmd_realize, help="minimal-length realization of a poset (JSON)")
    p = add("render", cmd_render, help="render to dot/svg/tikz")
    p.add_argument("--render-format", choices=["dot", "svg", "tikz"], default="dot")

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_len < 0:
            raise ParseError(f"--max-len must be >= 0, got {args.max_len}")
        if args.input is None and args.command not in ("bounds", "enumerate"):
            raise ParseError(f"--input FILE is required for {args.command}")
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (PreconditionError, OrderError, InternalInconsistencyError, SlimlatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
