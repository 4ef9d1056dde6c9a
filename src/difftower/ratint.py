"""Exact rational-integration criterion over the base field Q(z).

A rational function has a rational antiderivative exactly when the
logarithmic part of its Hermite/Ostrogradsky decomposition vanishes, i.e.
when all residues at its poles are zero.  The decomposition itself is
computed Horowitz-style as one exact linear solve, so the answer depends
on no degree or order bound; only the cell cap applies to that solve.
The proper part comes from MPoly.divmod_lead, and the Horowitz columns are
polynomials, put on one scale by ratfun.common_ints and solved by
ansatz._solve_columns, the one solver of every inhomogeneous system.
"""

from __future__ import annotations

from . import linalg
from .errors import DiffTowerError
from .ratfun import RatFun, common_ints, poly_gcd
from .tower import BASE_VAR


def has_rational_antiderivative(f: RatFun,
                                max_cells: int = linalg.DEFAULT_MAX_CELLS) -> bool:
    """True iff f, an element of Q(z), equals D(g) for some g in Q(z).

    Raises when f involves tower generators; the criterion is exact over
    the base field only.  BoundsExceeded when over max_cells cells.
    """
    from .ansatz import _solve_columns   # ansatz imports this module
    if not f.used_vars() <= {BASE_VAR}:
        raise DiffTowerError("residue criterion applies over Q(z) only")
    zi = f.vars.index(BASE_VAR)
    den = f.den
    # polynomial part always integrates; keep the proper remainder
    _, rem = f.num.divmod_lead(den)
    if rem.is_zero():
        return True
    dstar, d2, _ = poly_gcd(den, den.partial(zi))
    deg_a = dstar.degree_in(zi)   # unknown a has degree < deg(dstar)
    deg_b = d2.degree_in(zi)      # unknown b has degree < deg(d2)
    if deg_a <= 0:
        # squarefree denominator: proper part is pure log part
        return False
    n = deg_a + deg_b   # = deg(den): as many equations as unknowns
    linalg.check_size(n, n + 1, max_cells)
    # rem = a'*d2 - a*t + b*dstar with t = dstar'*d2/dstar, unknowns a, b
    t = (dstar.partial(zi) * d2).try_divexact(dstar)
    if t is None:
        raise DiffTowerError("Hermite reduction invariant failed")
    # a = sum a_k z^k gives columns k*z^(k-1)*d2 - z^k*t, b = sum b_k z^k
    # gives z^k*dstar
    cols = [d2.shift_var(zi, k - 1).scale(k) - t.shift_var(zi, k) if k else -t
            for k in range(deg_a)]
    cols += [dstar.shift_var(zi, k) for k in range(deg_b)]
    *cols, target = common_ints([*cols, rem])
    sols = _solve_columns(cols, target, max_cells)
    if not sols:
        raise DiffTowerError("Horowitz system unexpectedly inconsistent")
    # rem != 0, so sols[0] is the particular solution, not a kernel vector
    return not any(sols[0][deg_a:])
