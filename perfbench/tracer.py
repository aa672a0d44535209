"""Spans around the calls into each padlog layer, installed from outside.

``Tracer.install`` replaces, in every padlog module namespace, each public
module-level function (including the names one module imported from
another, such as ``solver.order_mod``) by a wrapper that records a span; it
does the same for the ``PAdicInt`` methods and for ``sympy.factorint``,
``sympy.isprime`` and ``sympy.multiplicity`` as padlog reaches them.  A span
is (name, start, end, parent span, operation id), kept in flat arrays while
the run lasts and written out when it ends.  The layer of a span is the
module that defines the function, or ``sympy``.
"""

import gzip
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "residue", "sympy", "solver", "cli", "padic",
    "translog", "teichmuller", "quotient", "primroot", "special",
)
MODULES = ("residue", "solver", "cli", "padic", "translog", "teichmuller",
           "quotient", "primroot", "special")
SYMPY_FUNCTIONS = ("factorint", "isprime", "multiplicity")
CLIMB = "cli._climbing_trace"  # private, but it delimits one climb
LIFT = "solver.solve_by_lifting"


def _levels(trace):
    """Levels a lifting call computed: its rows plus a failing level."""
    return len(trace.rows) + (trace.failing_level is not None)


class Tracer:
    def __init__(self):
        self.span_names = []
        self.ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("i")  # levels computed, for lifting calls
        self.stack = []
        self.current_op = -1

    # -- installation ------------------------------------------------------

    def install(self, padlog, sympy):
        wrapped = {}
        for mod_name in MODULES:
            module = getattr(padlog, mod_name)
            for attr, fn in list(vars(module).items()):
                if not _traceable(fn) or (attr.startswith("_") and _span(fn) != CLIMB):
                    continue
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(fn, _span(fn))
                setattr(module, attr, wrapped[fn])
        for attr, fn in list(vars(padlog).items()):
            if _traceable(fn) and fn in wrapped:
                setattr(padlog, attr, wrapped[fn])
        cls = padlog.padic.PAdicInt
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not attr.startswith("__"):
                continue
            if isinstance(raw, classmethod):
                name = "padic.PAdicInt." + attr
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, "padic.PAdicInt." + attr))
        for attr in SYMPY_FUNCTIONS:
            setattr(sympy, attr, self._wrap(getattr(sympy, attr), "sympy." + attr))

    def _wrap(self, fn, span_name):
        nid = self.ids.setdefault(span_name, len(self.span_names))
        if nid == len(self.span_names):
            self.span_names.append(span_name)
        name_id, start, end, parent, ops, value, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self.value, self.stack,
        )
        tracer = self
        count_levels = span_name == LIFT

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            value.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count_levels:
                value[idx] = _levels(result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def summary(self, op_ms, n_ops):
        """Per-operation layer metrics from the recorded spans.

        ``op_ms`` maps operation id to its wall time; time outside every
        top-level span of an operation is glue.
        """
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        top = defaultdict(float)
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
            else:
                top[self.op[i]] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.span_names]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        by_name = defaultdict(int)
        by_name_self = defaultdict(float)
        cli_lifts = levels = 0
        climb_levels = defaultdict(list)
        lift_id = self.ids.get(LIFT)
        climb_id = self.ids.get(CLIMB)
        for i in range(n):
            nid = self.name_id[i]
            layer = layer_of[nid]
            own = dur[i] - child[i]
            calls[layer] += 1
            self_s[layer] += own
            by_name[nid] += 1
            by_name_self[nid] += own
            if nid == lift_id:
                levels += self.value[i]
                par = self.parent[i]
                if par >= 0 and layer_of[self.name_id[par]] == "cli":
                    cli_lifts += 1
                if par >= 0 and self.name_id[par] == climb_id:
                    climb_levels[par].append(self.value[i])
        useful = sum(v[-1] for v in climb_levels.values())
        computed = sum(sum(v) for v in climb_levels.values())

        def count(name):
            return by_name.get(self.ids.get(name), 0) / n_ops

        metrics = {}
        for layer in LAYERS:
            metrics[layer + ".calls_per_op"] = (calls[layer] / n_ops, "calls/op")
            metrics[layer + ".self_ms_per_op"] = (self_s[layer] * 1e3 / n_ops, "ms/op")
        extra = (
            ("residue.order_mod_calls_per_op", count("residue.order_mod"), "calls/op"),
            ("sympy.factorint_calls_per_op", count("sympy.factorint"), "calls/op"),
            ("sympy.isprime_calls_per_op", count("sympy.isprime"), "calls/op"),
            ("solver.lift_levels_per_op", levels / n_ops, "levels/op"),
            ("cli.lift_calls_per_op", cli_lifts / n_ops, "calls/op"),
            ("padic.mul_calls_per_op", count("padic.PAdicInt.__mul__"), "calls/op"),
            ("padic.init_calls_per_op", count("padic.PAdicInt.__init__"), "calls/op"),
            ("translog.log_calls_per_op", count("translog.padic_log"), "calls/op"),
            ("translog.exp_calls_per_op", count("translog.padic_exp"), "calls/op"),
            ("teichmuller.lift_calls_per_op", count("teichmuller.teichmuller_lift"), "calls/op"),
            ("quotient.checks_per_op", count("quotient.verify_cokernel_finite_level"), "calls/op"),
        )
        for name, val, unit in extra:
            metrics[name] = (val, unit)
        mul = self.ids.get("padic.PAdicInt.__mul__")
        metrics["padic.mul_self_ms_per_op"] = (by_name_self.get(mul, 0.0) * 1e3 / n_ops, "ms/op")
        # 0 when no climb ran: there is nothing to waste
        metrics["cli.climb_useful_ratio"] = (useful / computed if computed else 0.0, "1")
        glue = sum(ms - top[i] * 1e3 for i, ms in op_ms.items())
        metrics["glue_ms_per_op"] = (glue / n_ops, "ms/op")
        return metrics

    def write(self, path, header):
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps(dict(header, names=self.span_names)) + "\n")
            for i in range(len(self.name_id)):
                f.write("[%d,%.3f,%.3f,%d,%d,%d]\n" % (
                    self.name_id[i], self.start[i] * 1e6, self.end[i] * 1e6,
                    self.parent[i], self.op[i], self.value[i]))


def _traceable(fn):
    return inspect.isfunction(fn) and fn.__module__.startswith("padlog.")


def _span(fn):
    return fn.__module__.split(".", 1)[1] + "." + fn.__name__
