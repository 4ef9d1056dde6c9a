"""Exact rational-integration criterion over the base field Q(z).

A rational function has a rational antiderivative exactly when the
logarithmic part of its Hermite/Ostrogradsky decomposition vanishes, i.e.
when all residues at its poles are zero.  The decomposition itself is
computed Horowitz-style as one exact linear solve, so the answer depends
on no degree or order bound; only the cell cap applies to that solve.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from . import linalg
from .errors import DiffTowerError
from .ratfun import MPoly, RatFun, poly_gcd
from .tower import BASE_VAR


def _to_coeffs(p: MPoly, zi: int) -> List[Fraction]:
    deg = p.degree_in(zi)
    if p.is_zero():
        return [Fraction(0)]
    out = [Fraction(0)] * (deg + 1)
    for exp, c in p.terms.items():
        out[exp[zi]] += c
    return out


def _trim(c: List[Fraction]) -> List[Fraction]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _deg(c: List[Fraction]) -> int:
    return -1 if c == [Fraction(0)] else len(c) - 1


def _divmod_uni(a: List[Fraction], b: List[Fraction]):
    a = list(a)
    db, lb = _deg(b), b[-1]
    if db < 0:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(1, len(a) - db)
    while _deg(a) >= db:
        da = _deg(a)
        c = a[da] / lb
        q[da - db] += c
        for i, v in enumerate(b):
            a[da - db + i] -= c * v
        _trim(a)
        if all(v == 0 for v in a):
            a = [Fraction(0)]
            break
    return _trim(q), _trim(a)


def _mul_uni(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _diff_uni(a):
    if len(a) == 1:
        return [Fraction(0)]
    return _trim([a[i] * i for i in range(1, len(a))])


def has_rational_antiderivative(f: RatFun,
                                max_cells: int = linalg.DEFAULT_MAX_CELLS) -> bool:
    """True iff f, an element of Q(z), equals D(g) for some g in Q(z).

    Raises when f involves tower generators; the criterion is exact over
    the base field only.  BoundsExceeded when over max_cells cells.
    """
    if not f.used_vars() <= {BASE_VAR}:
        raise DiffTowerError("residue criterion applies over Q(z) only")
    zi = f.vars.index(BASE_VAR)
    num = _to_coeffs(f.num, zi)
    den = _to_coeffs(f.den, zi)
    # polynomial part always integrates; keep the proper remainder
    _, rem = _divmod_uni(num, den)
    if _deg(rem) < 0:
        return True
    dstar = poly_gcd(f.den, f.den.partial(zi))
    d2 = f.den.try_divexact(dstar)
    ds = _to_coeffs(dstar, zi)
    d2c = _to_coeffs(d2, zi)
    deg_a = _deg(ds)       # unknown a has degree < deg(dstar)
    deg_b = _deg(d2c)      # unknown b has degree < deg(d2)
    if deg_a <= 0:
        # squarefree denominator: proper part is pure log part
        return False
    n_cols = deg_a + deg_b   # = deg(den): as many equations as unknowns
    linalg.check_size(n_cols, n_cols + 1, max_cells)
    # r = a'*d2 - a*(dstar'*d2/dstar) + b*dstar,  unknowns a, b
    t, tr = _divmod_uni(_mul_uni(_diff_uni(ds), d2c), ds)
    if _deg(tr) >= 0:
        raise DiffTowerError("Hermite reduction invariant failed")
    rows = {}

    def add(col, coeffs, sign=1):
        for i, c in enumerate(coeffs):
            if c:
                row = rows.setdefault(i, {})
                v = row.get(col, Fraction(0)) + sign * c
                if v:
                    row[col] = v
                else:
                    row.pop(col, None)

    for k in range(deg_a):  # a = sum a_k z^k
        basis = [Fraction(0)] * (k + 1)
        basis[k] = Fraction(1)
        contrib_da = _mul_uni(_diff_uni(_trim(basis)), d2c)
        add(k, contrib_da)
        contrib_t = _mul_uni(_trim(basis), t)
        add(k, contrib_t, sign=-1)
    for k in range(deg_b):  # b = sum b_k z^k
        basis = [Fraction(0)] * (k + 1)
        basis[k] = Fraction(1)
        add(deg_a + k, _mul_uni(_trim(basis), ds))
    max_row = max(max(rows, default=0), _deg(rem)) + 1
    row_list = [rows.get(i, {}) for i in range(max_row)]
    rhs = [rem[i] if i < len(rem) else Fraction(0) for i in range(max_row)]
    particular, _ = linalg.solve_affine(row_list, rhs, n_cols)
    if particular is None:
        raise DiffTowerError("Horowitz system unexpectedly inconsistent")
    b_coeffs = particular[deg_a:]
    return all(c == 0 for c in b_coeffs)
