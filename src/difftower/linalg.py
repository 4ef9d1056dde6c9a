"""Exact sparse linear algebra over Q for the undetermined-coefficients engine.

Rows in and out are dicts {column index: Fraction}.  Everything reduces to
the unique RREF, so results do not depend on pivot-selection heuristics; the
heuristics only fight fill-in.  Inside ``rref`` each row is cleared once to
integers and eliminated fraction-free (Bareiss-style cross multiplication,
then division by the row's integer content); only the finished pivot rows
become Fractions again, so the result is the same unique RREF.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd, lcm
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
    """Reduced row echelon form.  Returns (rows, pivot column per row).

    Entries may be int or Fraction; the result is always Fraction, with each
    pivot entry exactly 1."""
    rows = [r for r in map(_cleared, rows) if r]
    echelon: List[Dict[int, int]] = []
    pivots: List[int] = []
    for col in range(n_cols):
        holding = [i for i, r in enumerate(rows) if col in r]
        if not holding:
            continue
        pivot = rows.pop(min(holding, key=lambda i: len(rows[i])))
        pv = pivot[col]
        for target in (rows, echelon):
            for i, r in enumerate(target):
                f = r.get(col)
                if f is not None:
                    target[i] = _eliminate(r, pivot, pv, f)
        rows = [r for r in rows if r]
        echelon.append(pivot)
        pivots.append(col)
        if not rows:
            break
    red = []
    for i in sorted(range(len(pivots)), key=pivots.__getitem__):
        pv = echelon[i][pivots[i]]
        red.append({c: Fraction(v, pv) for c, v in echelon[i].items()})
    return red, sorted(pivots)


def _cleared(row) -> Dict[int, int]:
    """The row times the lcm of its denominators, divided by its content;
    explicit zero entries are dropped."""
    d = lcm(*[v.denominator for v in row.values()])
    return _primitive({c: v.numerator * (d // v.denominator)
                       for c, v in row.items() if v})


def _eliminate(r, pivot, pv, f) -> Dict[int, int]:
    """r*(pv/g) - pivot*(f/g) with g = gcd(pv, f), divided by its content;
    r's keys keep their places, new keys follow in pivot order and zeros
    are dropped.  r is a row owned by rref and may be updated in place."""
    g = gcd(pv, f)
    a, b = pv // g, f // g
    if a != 1:
        r = {c: a * v for c, v in r.items()}
    for c, v in pivot.items():
        nv = r.get(c, 0) - b * v
        if nv:
            r[c] = nv
        else:
            del r[c]
    return _primitive(r)


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """The row divided by its integer content; the gcd fold stops at 1."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()} if g > 1 else row


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
