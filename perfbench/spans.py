"""Spans around slimlat's public functions, installed from outside the package.

`Tracer.install()` replaces every traced function by a wrapper in each
`slimlat` module that bound it (`from .order import poset_iso` binds a second
name in `lamps`, `reduce`, `doubling` and `explore`), and wraps the two traced
methods on their classes.  Spans are kept in memory as
(parent id, name, start, end, probe value, item) and written out by `write()`;
`metrics()` turns them into the per-layer numbers.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# Layer (slimlat module) -> traced functions.  "FiniteLattice" is the
# constructor, "canonical_code" the PlanarDiagram method.
LAYERS = {
    "order": ("FiniteLattice", "is_distributive_ideal_grid", "congruence_lattice",
              "principal_congruence", "poset_iso"),
    "diagram": ("embed_rectangular", "is_slim_rectangular", "canonical_code"),
    "multifork": ("grid", "multifork_extend", "build", "decompose", "reprovenance"),
    "lamps": ("lamp_poset", "is_used", "usage_stats", "verify_lamp_con_iso", "lamp_report"),
    "reduce": ("minimize", "remove_sandwiched", "remove_neighboring", "check_bounds"),
    "doubling": ("double",),
    "explore": ("enumerate_index", "realize"),
    "render": ("render", "validate_slopes"),
    "dsl": ("parse_dsl",),
}
METHODS = {
    "order.FiniteLattice": ("FiniteLattice", "__init__"),
    "diagram.canonical_code": ("PlanarDiagram", "canonical_code"),
}

# One number recorded per span where a ratio or a fit needs it.
PROBES = {
    "order.FiniteLattice": lambda args, result: args[1].n,
    "order.poset_iso": lambda args, result: int(result is not None),
    "multifork.build": lambda args, result: result.n if result is not None else None,
    "explore.enumerate_index": lambda args, result: (
        sum(len(es) for es in result.by_length.values()) if result is not None else None
    ),
    "reduce.minimize": lambda args, result: len(result[1]) if result is not None else None,
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.item = -1
        self._stack = []
        self._restore = []

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "slimlat" or k.startswith("slimlat.")]
        for name in SPAN_NAMES:
            mod_name, attr = name.split(".")
            module = sys.modules[f"slimlat.{mod_name}"]
            if name in METHODS:
                cls_name, meth = METHODS[name]
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = probe(args, result) if probe else None
                spans[sid] = (parent, name, start, end, value, self.item)

        return traced

    def write(self, path):
        with open(path, "w") as f:
            f.write("id\tparent\titem\tname\tstart\tend\tprobe\n")
            for sid, (parent, name, start, end, value, item) in enumerate(self.spans):
                f.write(f"{sid}\t{parent}\t{item}\t{name}\t{start!r}\t{end!r}\t{value}\n")

    def metrics(self, wall_traced, overhead_frac):
        """Per-layer metrics of the spans recorded so far (value only), for a
        traced run that took `wall_traced` on the spans' clock."""
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, start, end, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        ancestors = []      # per span: names of the spans it runs inside
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        self_t = dict.fromkeys(SPAN_NAMES, 0.0)
        probes = {name: [] for name in PROBES}
        root_time = 0.0
        extends_in_enum = 0
        for sid, (parent, name, start, end, value, _) in enumerate(spans):
            dur = end - start
            if parent >= 0:
                names = ancestors[parent] | {spans[parent][1]}
            else:
                names = frozenset()
                root_time += dur
            ancestors.append(names)
            calls[name] += 1
            if name not in names:   # count a recursive call's time once
                total[name] += dur
            self_t[name] += dur - child[sid]
            if name in probes:
                probes[name].append((value, dur - child[sid], dur))
            if name == "multifork.multifork_extend" and "explore.enumerate_index" in names:
                extends_in_enum += 1

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_t[name]
        returned = sum(v for v, *_ in probes["explore.enumerate_index"] if v)
        out["explore.enumerate_index.yield"] = _ratio(returned, extends_in_enum)
        out["order.poset_iso.hit_ratio"] = _ratio(
            sum(v for v, *_ in probes["order.poset_iso"]), calls["order.poset_iso"]
        )
        out["lamps.lamp_poset.per_usage_stats"] = _ratio(
            calls["lamps.lamp_poset"], calls["lamps.usage_stats"]
        )
        out["reduce.minimize.removals_per_call"] = _ratio(
            sum(v for v, *_ in probes["reduce.minimize"] if v), calls["reduce.minimize"]
        )
        # FiniteLattice is fitted on self time; build on its inclusive time,
        # since nearly all of build's time is spent in its children.
        out["order.FiniteLattice.n_exponent"] = _loglog_slope(
            [(n, self_s) for n, self_s, _ in probes["order.FiniteLattice"]]
        )
        out["multifork.build.n_exponent"] = _loglog_slope(
            [(n, dur) for n, _, dur in probes["multifork.build"]]
        )
        out["bench.trace_overhead_frac"] = overhead_frac
        out["bench.top_span_coverage"] = _ratio(root_time, wall_traced)
        return out


def _ratio(num, den):
    """num / den, or 0.0 when the base is empty."""
    return num / den if den else 0.0


def _loglog_slope(points):
    """Least-squares slope of log(time) against log(n); 0.0 without two sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
