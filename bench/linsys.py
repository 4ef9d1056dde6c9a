"""Recorded exact linear systems, for replaying the linear-algebra layer.

``Capture`` records the outermost calls into ``linalg.rref``,
``linalg.nullspace`` and ``linalg.solve_affine`` together with their results.
``select`` keeps a small spread of them by size, ``dump``/``load`` move them
to and from JSON (fractions as "p/q" strings, rows as [column, value] pairs),
and ``replay`` runs them again and compares each result with the recorded one.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

from difftower import linalg

FUNCS = ("rref", "nullspace", "solve_affine")


def _q(x: Fraction) -> str:
    return str(Fraction(x))


def _row_out(row) -> list:
    return [[c, _q(v)] for c, v in sorted(row.items())]


def _row_in(pairs) -> dict:
    return {c: Fraction(v) for c, v in pairs}


def _vec_out(vec):
    return None if vec is None else [_q(v) for v in vec]


def encode_result(func: str, result):
    if func == "rref":
        rows, pivots = result
        return {"rows": [_row_out(r) for r in rows], "pivots": list(pivots)}
    if func == "nullspace":
        return [_vec_out(v) for v in result]
    particular, kernel = result
    return {"particular": _vec_out(particular),
            "kernel": [_vec_out(v) for v in kernel]}


def decode(system: dict):
    """(linalg function name, argument tuple) of one recorded system."""
    rows = [_row_in(r) for r in system["rows"]]
    if system["func"] == "solve_affine":
        rhs = [Fraction(v) for v in system["rhs"]]
        return "solve_affine", (rows, rhs, system["n_cols"])
    return system["func"], (rows, system["n_cols"])


class Capture:
    """Records outermost linalg calls while active."""

    def __init__(self):
        self.systems = []
        self._depth = 0
        self._originals = {}

    def _wrap(self, func, fn):
        def wrapper(rows, *args):
            self._depth += 1
            try:
                result = fn(rows, *args)
            finally:
                self._depth -= 1
            if self._depth == 0:
                entry = {"func": func, "rows": [_row_out(r) for r in rows],
                         "n_cols": args[-1]}
                if func == "solve_affine":
                    entry["rhs"] = [_q(v) for v in args[0]]
                entry["expect"] = encode_result(func, result)
                self.systems.append(entry)
            return result
        return wrapper

    def __enter__(self):
        for func in FUNCS:
            self._originals[func] = getattr(linalg, func)
            setattr(linalg, func, self._wrap(func, self._originals[func]))
        return self

    def __exit__(self, *exc):
        for func, fn in self._originals.items():
            setattr(linalg, func, fn)
        return False


def cells(system: dict) -> int:
    return len(system["rows"]) * system["n_cols"]


def select(systems, per_func: int = 4):
    """Distinct systems spread over the upper size range, per linalg
    function: the largest, and evenly spaced ranks down to the lower
    quartile (the smallest systems are trivial)."""
    keep = []
    for func in FUNCS:
        seen, pool = set(), []
        for s in sorted((s for s in systems if s["func"] == func), key=cells):
            key = json.dumps([s["rows"], s.get("rhs"), s["n_cols"]])
            if key not in seen:
                seen.add(key)
                pool.append(s)
        if len(pool) <= per_func:
            keep.extend(pool)
            continue
        step = (len(pool) - 1) / per_func
        keep.extend(pool[round((k + 1) * step)] for k in range(per_func))
    return keep


def dump(systems, path: Path):
    path.write_text(json.dumps(systems, separators=(",", ":")) + "\n")


def load(path: Path):
    return json.loads(path.read_text())


def replay(systems, repeats: int = 3):
    """(median seconds for one pass over all systems, mismatch count)."""
    calls = [decode(s) for s in systems]
    times, mismatches = [], 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        results = [getattr(linalg, func)(*args) for func, args in calls]
        times.append(time.perf_counter() - t0)
        mismatches = sum(encode_result(s["func"], r) != s["expect"]
                         for s, r in zip(systems, results))
    times.sort()
    return times[len(times) // 2], mismatches
