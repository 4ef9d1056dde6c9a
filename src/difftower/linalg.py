"""Exact sparse linear algebra over Q for the undetermined-coefficients engine.

Rows are dicts {column index: Fraction}.  Everything reduces to the unique
RREF, so results do not depend on pivot-selection heuristics; the heuristics
only fight fill-in.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BoundsExceeded

Row = Dict[int, Fraction]

DEFAULT_MAX_CELLS = 500_000
MAX_CELLS_ENV = "DIFFIELD_MAX_CELLS"


def max_cells() -> int:
    """The cell cap from the environment (unset or empty: the default);
    ValueError unless it is a positive integer."""
    value = os.environ.get(MAX_CELLS_ENV)
    if not value:
        return DEFAULT_MAX_CELLS
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(
            f"{MAX_CELLS_ENV} must be a positive integer, got {value!r}")
    return cap


def check_size(n_rows: int, n_cols: int, cap: Optional[int] = None):
    cap = max_cells() if cap is None else cap
    if n_rows * n_cols > cap:
        raise BoundsExceeded(
            f"linear system of {n_rows}x{n_cols} exceeds cap {cap}")


def rref(rows: List[Row], n_cols: int) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form.  Returns (rows, pivot column per row)."""
    rows = [dict(r) for r in rows if r]
    echelon: List[Row] = []
    pivots: List[int] = []
    for col in range(n_cols):
        candidates = [r for r in rows if col in r]
        if not candidates:
            continue
        pivot = min(candidates, key=len)
        rows.remove(pivot)
        inv = 1 / pivot[col]
        pivot = {c: v * inv for c, v in pivot.items()}
        for target in (rows, echelon):
            for i, r in enumerate(target):
                f = r.get(col)
                if f is None:
                    continue
                new = dict(r)
                for c, v in pivot.items():
                    nv = new.get(c, 0) - f * v
                    if nv == 0:
                        new.pop(c, None)
                    else:
                        new[c] = nv
                target[i] = new
        rows = [r for r in rows if r]
        echelon.append(pivot)
        pivots.append(col)
        if not rows:
            break
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [echelon[i] for i in order], sorted(pivots)


def nullspace(rows: List[Row], n_cols: int) -> List[List[Fraction]]:
    """Deterministic kernel basis: one vector per free column, in column
    order, with the free coordinate set to 1."""
    return _kernel_from(*rref(rows, n_cols), n_cols)


def solve_affine(rows: List[Row], rhs: Sequence[Fraction], n_cols: int):
    """Solve A x = b exactly.

    Returns (particular solution with all free variables 0, kernel basis),
    or (None, kernel basis) when inconsistent.
    """
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b != 0:
            r[n_cols] = Fraction(b)
        aug.append(r)
    red, pivots = rref(aug, n_cols + 1)
    kernel = _kernel_from(red, pivots, n_cols)
    if n_cols in pivots:
        return None, kernel
    particular = [Fraction(0)] * n_cols
    for row, pcol in zip(red, pivots):
        particular[pcol] = row.get(n_cols, Fraction(0))
    return particular, kernel


def _kernel_from(red, pivots, n_cols):
    """Kernel basis of the first n_cols columns of an RREF; a pivot in a
    later (right-hand side) column is skipped."""
    pivot_set = {p for p in pivots if p < n_cols}
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row, pcol in zip(red, pivots):
            if pcol >= n_cols:
                continue
            coeff = row.get(free)
            if coeff is not None:
                vec[pcol] = -coeff
        basis.append(vec)
    return basis
