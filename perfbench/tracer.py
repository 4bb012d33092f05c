"""Span tracer over the public functions of the coxfan modules.

Every public module-level function of each layer is replaced by a wrapper
that records a span (name, start, end, parent span, op id).  The wrapper
is patched into every ``coxfan.*`` namespace that bound the original
function, so calls made through ``from ... import`` names are seen too.
Spans stay in memory; ``dump`` writes them once the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = (
    "cli",
    "polyfan",
    "intlat",
    "grading",
    "cox",
    "groeb",
    "ratlin",
    "gradmod",
    "sheaf",
)

# Term-level polynomial arithmetic, called inside every Buchberger
# reduction step.  These mark no layer boundary, and wrapping them would
# multiply the traced run's cost and its span count.
SKIP = frozenset(
    "groeb." + n
    for n in (
        "poly p_zero p_const p_add p_neg p_sub p_scale p_term_mul p_mul "
        "p_is_monomial p_divexact leading_term normal_form s_polynomial "
        "m_zero m_add m_sub m_scale m_term_mul m_is_zero m_is_monomial "
        "m_leading_term m_normal_form"
    ).split()
)


def _rref_counts(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return {
        "cells_in": len(rows) * len(rows[0]) if rows else 0,
        "nonzeros_in": sum(1 for r in rows for x in r if x),
        "rank_out": len(result[1]),
    }


# Work counts taken from a call's arguments and result, inside its span.
COUNTERS = {
    "polyfan.hilbert_basis": lambda a, k, r: {"basis_size": len(r)},
    "grading.degree_fiber": lambda a, k, r: {"points_out": len(r)},
    "ratlin.rref": _rref_counts,
    "groeb.module_groebner_basis": lambda a, k, r: {"basis_size_out": len(r)},
    "sheaf.global_sections_degree": lambda a, k, r: {"levels": r.level},
    "gradmod.submodule_membership": lambda a, k, r: {"true": int(bool(r))},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.extras = {}  # name -> {count name: total}
        self.op = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, extras = self.spans, self._stack, self.extras
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    acc = extras.setdefault(name, {})
                    for key, val in counter(args, kwargs, result).items():
                        acc[key] = acc.get(key, 0) + val
                return result
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every public function of every layer, in every coxfan
        namespace that holds it."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"coxfan.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    wrappers[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "coxfan" or modname.startswith("coxfan.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._undo.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def dump(self, path):
        """Write the spans as JSON lines, plus one line of work counts."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"extras": self.extras}) + "\n")


def load(path):
    """(spans, extras) from a file written by ``Tracer.dump``."""
    spans, extras = [], {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            if isinstance(row, dict):
                extras = row["extras"]
            else:
                spans.append(row)
    return spans, extras


def summarize(spans, extras, into=None):
    """Per-function calls, self time (duration minus the time covered by
    direct children) and work counts, plus self time per op id."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = into if into is not None else {"functions": {}, "op_self_ns": {}}
    funcs, per_op = out["functions"], out["op_self_ns"]
    for (name, start, end, parent, op), kids in zip(spans, child_ns):
        self_ns = end - start - kids
        entry = funcs.setdefault(name, {"calls": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["self_ns"] += self_ns
        per_op[op] = per_op.get(op, 0) + self_ns
    for name, counts in extras.items():
        entry = funcs.setdefault(name, {"calls": 0, "self_ns": 0})
        for key, val in counts.items():
            entry[key] = entry.get(key, 0) + val
    return out
