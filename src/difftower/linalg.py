"""Exact sparse linear algebra over Q for the undetermined-coefficients engine.

``rref`` is the one Gaussian elimination in difftower, and each system is
eliminated once: ``structure.LinearField`` reduces through it, and every
kernel is the sparse ``kernel`` of one rref (``ansatz._kernel_rref``,
``structure.ostrowski_relation``, and ``ansatz._solve_columns``, which
reads an inhomogeneous system off the kernel of ``[A | -b]``).  No library
module calls its dense forms ``nullspace`` and ``solve_affine``; they stay
as the references that the tests and ``bench/linsys.py`` compare against.

Rows in are dicts {column index: int or Fraction}, rows out {column index:
Fraction} with keys in ascending column order.  Everything reduces to the
unique RREF, so results do not depend on pivot-selection heuristics; the
heuristics only fight fill-in.  Unit rows go first: a row with a single
entry in column c puts e_c in the row space, so c is a pivot with RREF row
{c: 1} and drops out of every other row with no arithmetic, which may leave
further unit rows (coefficient matching makes many).  This pass only counts
each row's keys outside the unit columns; the caller's rows are never
written.  Then each row with two or more such keys is copied once without
the unit columns and cleared to integers (integer rows, as
``ansatz._assemble_rows`` builds them, are only copied), and the column
loop eliminates them fraction-free (Bareiss-style cross multiplication); a
row's integer content is divided out only after such an elimination, and
the finished pivot rows, divided by their pivot entries, become Fractions
again, so the result is the same unique RREF.

``check_size`` caps a system's cells at a bound its caller passes in (for
the searches, ``Bounds.max_cells``); nothing here reads process-wide state.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Set, Tuple

from .errors import BoundsExceeded

Row = Dict[int, Fraction]
_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_MAX_CELLS = 500_000


def check_size(n_rows: int, n_cols: int, cap: int):
    """BoundsExceeded when an n_rows x n_cols system has over cap cells."""
    if n_rows * n_cols > cap:
        raise BoundsExceeded(
            f"linear system of {n_rows}x{n_cols} exceeds cap {cap}")


def rref(rows: List[Row], n_cols: int) -> Tuple[List[Row], List[int]]:
    """Reduced row echelon form.  Returns (rows, pivot column per row), in
    pivot column order, each row's keys in ascending column order.

    Entries may be int or Fraction; the result is always Fraction, with each
    pivot entry exactly 1.  Unit rows are taken first (``_unit_pivots``),
    then the column loop eliminates the rows that are left, dividing out
    a row's content after each elimination only."""
    units, live = _unit_pivots(rows)
    red = {c: {c: _ONE} for c in units}
    rows = [_cleared(r, units) for r, n in zip(rows, live) if n > 1]
    rows = [r for r in rows if r]
    echelon: List[Dict[int, int]] = []
    pivots: List[int] = []
    for col in range(n_cols):
        if not rows:
            break
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
    for row, col in zip(echelon, pivots):
        pv = row[col]
        red[col] = {c: Fraction(row[c], pv) for c in sorted(row)}
    cols = sorted(red)
    return [red[c] for c in cols], cols


def _unit_pivots(rows: List[Row]) -> Tuple[Set[int], List[int]]:
    """The pivot columns that unit rows show, and per row the number of its
    keys outside them.  A row whose keys but one lie in unit columns is
    a unit row in turn, taken when its count falls to 1; a second unit row
    on a column falls to 0, as does a row whose one key left holds 0.  The
    rows are only read."""
    live = list(map(len, rows))
    stack = [i for i, n in enumerate(live) if n == 1]
    units: Set[int] = set()
    if not stack:
        return units, live
    holders: Dict[int, List[int]] = {}
    for i, r in enumerate(rows):
        for c in r:
            holders.setdefault(c, []).append(i)
    while stack:
        i = stack.pop()
        if live[i] != 1:
            continue
        for col, v in rows[i].items():
            if col not in units:
                break
        if not v:   # an explicit zero: the row is empty
            live[i] = 0
            continue
        units.add(col)
        for h in holders[col]:
            live[h] -= 1
            if live[h] == 1:
                stack.append(h)
    return units, live


def _cleared(row: Row, units: Set[int]) -> Dict[int, int]:
    """The row outside the unit columns, times the lcm of its denominators,
    explicit zero entries dropped.  Always a new dict, as rref updates its
    rows in place."""
    row = {c: v for c, v in row.items() if v and c not in units}
    if all(type(v) is int for v in row.values()):
        return row
    d = lcm(*[v.denominator for v in row.values()])
    return {c: v.numerator * (d // v.denominator) for c, v in row.items()}


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


def kernel(rows: List[Row], n_cols: int) -> Dict[int, Row]:
    """Deterministic kernel basis, sparse: {free column f: vector}, f
    ascending, read off one rref in one pass over its rows.  The vector for
    f is 1 at f, 0 at the other free columns and minus column f of the RREF
    at the pivots, all before f, so its keys ascend and it holds no zero."""
    red, pivots = rref(rows, n_cols)
    pivot_set = set(pivots)
    vecs = {f: {} for f in range(n_cols) if f not in pivot_set}
    for row, pcol in zip(red, pivots):
        for c, v in row.items():
            if c != pcol:
                vecs[c][pcol] = -v
    for f, vec in vecs.items():
        vec[f] = _ONE
    return vecs


def nullspace(rows: List[Row], n_cols: int) -> List[List[Fraction]]:
    """``kernel`` as dense lists: a reference that no library module calls."""
    return [[vec.get(c, _ZERO) for c in range(n_cols)]
            for vec in kernel(rows, n_cols).values()]


def solve_affine(rows: List[Row], rhs: Sequence[Fraction], n_cols: int):
    """Solve A x = b exactly.

    Returns (particular solution with all free variables 0, kernel basis),
    or (None, kernel basis) when inconsistent.  Both come from the one
    ``nullspace`` of [A | -b]: its column n_cols is free exactly when the
    system is consistent, and then its last vector (coordinate n_cols is 1)
    is the particular solution; the other vectors are A's kernel.  No
    library module calls this: ``ansatz._solve_columns`` reads the sparse
    ``kernel`` itself, and this is the reference it is tested against, as
    are the ``solve_affine`` systems that ``bench/linsys.py`` replays."""
    basis = nullspace([{**row, n_cols: -b} if b else row
                       for row, b in zip(rows, rhs)], n_cols + 1)
    tails = [vec.pop() for vec in basis]   # coordinate n_cols, cut off
    if tails and tails[-1]:
        return basis.pop(), basis
    return None, basis
