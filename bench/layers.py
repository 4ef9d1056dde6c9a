"""Per-layer attribution for the traced run.

``LayerTrace`` wraps the public entry points of each difftower module from
outside the library: every binding of a wrapped module-level function (in any
loaded difftower module and in the benchmark's own modules) and the class
attribute of a wrapped method is replaced for the duration of a ``with``
block, then restored.  Calls are aggregated per layer rather than kept as
spans, because the arithmetic layers are entered millions of times.

For each layer the trace keeps the call count, the total time (outermost
calls only, so recursion is not counted twice) and the self time (elapsed
time minus the time spent in nested wrapped calls).
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from importlib import import_module

from difftower.errors import BoundsExceeded

# (layer name, module, attribute inside the module); two attributes may share
# a layer name, as RatFun.__mul__ and RatFun.__truediv__ do.
LAYERS = (
    ("ratfun.poly_gcd", "ratfun", "poly_gcd"),
    ("ratfun.poly_lcm", "ratfun", "poly_lcm"),
    ("ratfun.mpoly_mul", "ratfun", "MPoly.__mul__"),
    ("ratfun.mpoly_divexact", "ratfun", "MPoly.try_divexact"),
    ("ratfun.mpoly_monic", "ratfun", "MPoly.monic"),
    ("ratfun.ratfun_add", "ratfun", "RatFun.__add__"),
    ("ratfun.ratfun_mul", "ratfun", "RatFun.__mul__"),
    ("ratfun.ratfun_mul", "ratfun", "RatFun.__truediv__"),
    ("ratfun.ratfun_substitute", "ratfun", "RatFun.substitute"),
    ("tower.differentiate", "tower", "Tower.differentiate"),
    ("ansatz.solve_first_order", "ansatz", "solve_first_order"),
    ("ansatz.solve_linear_ansatz", "ansatz", "solve_linear_ansatz"),
    ("ansatz.subfield_membership", "ansatz", "subfield_membership"),
    ("ansatz.assemble_rows", "ansatz", "_assemble_rows"),
    ("ansatz.rung", "ansatz", "_membership_at"),
    ("linalg.solve_affine", "linalg", "solve_affine"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("ratint.has_rational_antiderivative", "ratint",
     "has_rational_antiderivative"),
    ("structure.ostrowski_relation", "structure", "ostrowski_relation"),
    ("structure.normal_tower", "structure", "normal_tower"),
    ("structure.subfield_structure", "structure", "subfield_structure"),
    ("autgroup.apply", "autgroup", "apply"),
    ("autgroup.compose", "autgroup", "compose"),
    ("parser.parse_expr", "parser", "parse_expr"),
    ("parser.format_ratfun", "parser", "format_ratfun"),
    ("cli.main", "cli", "main"),
    ("corpus.replay", "corpus", "replay"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


class LayerTrace:
    """Context manager that installs the layer wrappers while active."""

    def __init__(self, extra_modules=()):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._extra = tuple(extra_modules)
        self._stack = []          # child time accumulated per open call
        self._active = Counter()  # open calls per layer, to spot recursion
        self._patches = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, before=None, after=None):
        """Wrap fn as layer `name`; `before(args)` and `after(result)` keep
        the layer's extra counters."""
        stack, active = self._stack, self._active
        calls, total, self_time = self.calls, self.total, self.self_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            outer = active[name] == 0
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[name] -= 1
                stack.pop()
                calls[name] += 1
                self_time[name] += dt - frame[0]
                if outer:
                    total[name] += dt
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_cells(self, args):
        rows, n_cols = args[0], args[1]
        self.counts["linalg.cells"] += len(rows) * n_cols

    def _count_hit(self, witness):
        if witness is not None:
            self.counts["ansatz.rung.hits"] += 1

    def _counting_check_size(self, fn):
        counts = self.counts

        def check_size(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BoundsExceeded:
                counts["ansatz.rung.skipped_cap"] += 1
                raise

        return check_size

    # -- installation --------------------------------------------------------

    def _modules(self):
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "difftower"
                                      or n.startswith("difftower."))]
        return mods + list(self._extra)

    def _patch_function(self, original, replacement):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def __enter__(self):
        hooks = {"linalg.rref": {"before": self._count_cells},
                 "ansatz.rung": {"after": self._count_hit}}
        for name, module, attr in LAYERS:
            mod = import_module(f"difftower.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                wrapped = self._timed(name, original, **hooks.get(name, {}))
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrapped)
            else:
                original = getattr(mod, attr)
                wrapped = self._timed(name, original, **hooks.get(name, {}))
                self._patch_function(original, wrapped)
        linalg = import_module("difftower.linalg")
        self._patch_function(linalg.check_size,
                             self._counting_check_size(linalg.check_size))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.total_s"] = (self.total[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        out["linalg.cells"] = (self.counts["linalg.cells"], "count")
        rungs = self.calls["ansatz.rung"]
        out["ansatz.rung.hit_ratio"] = (
            self.counts["ansatz.rung.hits"] / rungs if rungs else 0.0, "ratio")
        out["ansatz.rung.skipped_cap"] = (
            self.counts["ansatz.rung.skipped_cap"], "count")
        return out
