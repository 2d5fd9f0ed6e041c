"""Span tracer that wraps logfan's public functions from the outside.

`Tracer.installed()` replaces every public module-level function of each
``logfan.*`` module at every place a ``logfan`` module binds it (module
globals and module-level dicts), plus ``scipy.optimize.linprog``, with a
wrapper that records one span per call: name, start, end and parent.  The
original bindings are restored on exit.  Nothing under ``src/`` changes.

Spans live in flat arrays while the run is in flight, up to MAX_SPANS of
them (a pass over a bundle of multiplicity 10^6 makes millions); later
spans are counted in `dropped`.  Per-name and per-layer totals (calls,
busy time, self time) cover every span and are accumulated as spans
close.  A span's
self time is its duration minus the durations of its direct children;
calls are strictly nested, so that equals the part of its interval no
child covers.
"""

from array import array
from contextlib import contextmanager
import functools
import inspect
import sys
from time import perf_counter

ROOT_NAME = "bench.op"
MAX_SPANS = 200_000

# name -> function of the call's positional args giving a tag; spans of
# the name are then also grouped per tag (used for growth in n)
TAGS = {
    "logproduct.log_product": lambda args: f"n{len(args[0])}",
    "hkr.hkr_homology": lambda args: f"n{args[0].dim}",
}

# name -> function of the call's result giving a count to sum
RESULT_COUNTS = {
    "logproduct.log_product": lambda res: len(res.fan.cones),
}

# (outer, inner): count inner calls made while an outer call is open
NESTED = (
    ("logproduct.log_product", "linalg.matrix_rank"),
    ("kernels.hh_action", "hkr.hkr_homology"),
)

# group -> member names; busy time counts the outermost member call
GROUPS = {
    "fans.json": ("fans.fan_to_json", "fans.fan_from_json",
                  "fans.fan_dumps", "fans.fan_loads"),
}


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans for the calls made while it is installed."""

    def __init__(self):
        self.names = []            # span-name id -> name
        self._ids = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.calls = {}
        self.busy = {}
        self.self_time = {}
        self.tag_durations = {}    # (name, tag) -> [seconds]
        self.result_counts = {}
        self.nested = {pair: 0 for pair in NESTED}
        self.dropped = 0
        self._open = {}            # name or group -> open-call depth
        self._stack = []           # [span index or -1, start, child s]
        self._group_of = {m: g for g, ms in GROUPS.items() for m in ms}
        self._inner = {}
        for outer, inner in NESTED:
            self._inner.setdefault(inner, []).append(outer)

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name):
        idx = len(self.span_start)
        if idx < MAX_SPANS:
            self.span_name.append(self._name_id(name))
            self.span_parent.append(self._stack[-1][0] if self._stack
                                    else -1)
            self.span_end.append(0.0)
            self.span_start.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        for outer in self._inner.get(name, ()):
            if self._open.get(outer):
                self.nested[(outer, name)] += 1
        self._open[name] = self._open.get(name, 0) + 1
        group = self._group_of.get(name)
        if group:
            self._open[group] = self._open.get(group, 0) + 1
        start = perf_counter()
        if idx >= 0:
            self.span_start[idx] = start
        self._stack.append([idx, start, 0.0])

    def exit(self, name, tag=None):
        end = perf_counter()
        idx, start, child = self._stack.pop()
        if idx >= 0:
            self.span_end[idx] = end
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        self._open[name] -= 1
        if not self._open[name]:
            self.busy[name] = self.busy.get(name, 0.0) + dur
        group = self._group_of.get(name)
        if group:
            self._open[group] -= 1
            if not self._open[group]:
                self.busy[group] = self.busy.get(group, 0.0) + dur
        if tag is not None:
            self.tag_durations.setdefault((name, tag), []).append(dur)
        return dur

    @contextmanager
    def span(self, name=ROOT_NAME):
        self.enter(name)
        try:
            yield
        finally:
            self.exit(name)

    # -- summaries ---------------------------------------------------------

    def layer_self(self):
        out = {}
        for name, secs in self.self_time.items():
            out[layer_of(name)] = out.get(layer_of(name), 0.0) + secs
        return out

    def root_wall(self):
        return self.busy.get(ROOT_NAME, 0.0)

    def write(self, path):
        """Write the spans as tab-separated `index name start end parent`
        rows, times in seconds relative to the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i] - t0:.9f}\t"
                          f"{self.span_end[i] - t0:.9f}\t"
                          f"{self.span_parent[i]}\n")

    # -- installing the wrappers ------------------------------------------

    def _wrap(self, fn, name):
        tag_of = TAGS.get(name)
        count_of = RESULT_COUNTS.get(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            tag = None
            try:
                result = fn(*args, **kwargs)
                if count_of is not None:
                    self.result_counts[name] = (
                        self.result_counts.get(name, 0) + count_of(result))
                if tag_of is not None and args:
                    tag = tag_of(args)
                return result
            finally:
                exit_(name, tag)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the public logfan functions and scipy's linprog for the
        duration of the block, restoring every binding afterwards."""
        modules = {n: m for n, m in sys.modules.items()
                   if (n == "logfan" or n.startswith("logfan."))
                   and m is not None}
        wrappers = {}
        for modname, module in modules.items():
            short = modname.split(".", 1)[-1]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == modname):
                    wrappers[value] = self._wrap(value, f"{short}.{attr}")
        restore = []
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if _hashable(value) and value in wrappers:
                    restore.append((vars(module), attr, value))
                    setattr(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if _hashable(item) and item in wrappers:
                            restore.append((value, key, item))
                            value[key] = wrappers[item]
        optimize = sys.modules.get("scipy.optimize")
        if optimize is not None:
            restore.append((vars(optimize), "linprog", optimize.linprog))
            optimize.linprog = self._wrap(optimize.linprog, "fans.linprog")
        try:
            yield self
        finally:
            for namespace, key, original in reversed(restore):
                namespace[key] = original


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True
