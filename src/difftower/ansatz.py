"""Bounded undetermined-coefficients searches.

Membership questions, linear relations and first-order equations all reduce
to the same move: clear denominators, match coefficients of every monomial
in the tower variables, and solve the resulting exact linear system over Q.
The membership and ODE columns are cleared by one fixed factor:
den(u)*L^D for a membership rung of degree D over values N/L, and
lcm^2*denom for solve_first_order.  Every system is built as integer
maps {packed key: int}, its columns all on one positive scale,
and neither of those two families is built as a polynomial: an ODE column
is the integer map of the monomial's image under one
ratfun.cleared_derivation map, built once per call with no product and no
gcd, and a membership column num(u)*B_e or -den(u)*B_e is one
ratfun._product of integer maps.  The polynomial columns of
solve_linear_ansatz, ratint's Horowitz system and the normal-tower steps go
over the lcm of their denominators by ratfun.common_ints.  The
homogeneous systems (membership rungs, normal-tower steps) are eliminated
once, by _kernel_rref, into sparse rows.  The inhomogeneous ones (ODE rungs,
solve_linear_ansatz and ratint's Horowitz system) go to _solve_columns,
which routes by the columns' leading keys alone: nonzero columns with
distinct leads are independent and a zero column, as D(1) on an ODE rung,
is a free coordinate, so the target is reduced by the nonzero ones, with
no rows and no elimination, as on every obstruction rung D(w) = w; a
repeated lead is assembled once, as [cols | -target], and read off the
sparse vectors of one linalg.kernel.  The one division with remainder over
Q is MPoly.divmod_lead; _poly_part_constant reads the constant term of its
quotient.
Membership in a subfield K is one MembershipSearch: K's closure chains and
each order's cleared levels are built once, as its effort ladder first
reaches them, and shared by every target it is asked about;
subfield_membership is one such search for one target.  Before a rung is
built, its columns' leading keys are read off as sums of packed keys, with
no product (the leading monomial of a product is the sum of the leading
monomials; Cox, Little & O'Shea, ch. 2).  Each distinct lead is a row of
the system, so too many of them skip the rung over the cell cap, and when
all are distinct the columns are independent and the rung is a miss with
no level, no assembly and no elimination.
Searches are three-valued by design: a Found result always carries a
substitution-verified witness, and a miss only ever means "not within these
bounds".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .errors import BoundsExceeded, DiffTowerError, VariableMismatch
from .ratfun import (MPoly, RatFun, _product, _times, clear_denominators,
                     cleared_derivation, common_ints, degree_fits,
                     monomial_keys)
from .ratint import has_rational_antiderivative
from .tower import SubfieldSpec, Tower

Column = Dict[int, int]   # nonzero integer coefficients under packed keys


@dataclass(frozen=True)
class Bounds:
    """Search caps.  The escalation ladder multiplies the degree caps once
    (by default) before a search gives up; each step is at least 1, so the
    escalated caps are never below the base ones.  max_cells caps the
    rows*cols of every linear system a search builds; a rung over it is
    skipped, a membership rung before any product when its columns'
    distinct leading keys (a lower bound on its rows) already put it
    over."""

    max_num_degree: int = 8
    max_den_degree: int = 8
    max_derivative_order: int = 4
    escalation: Tuple[int, ...] = (2,)
    max_cells: int = linalg.DEFAULT_MAX_CELLS

    def __post_init__(self):
        if min(self.max_num_degree, self.max_den_degree,
               self.max_derivative_order, self.max_cells) < 1:
            raise ValueError("bounds must be positive")
        if any(step < 1 for step in self.escalation):
            raise ValueError("escalation steps must be at least 1")

    def escalated_degrees(self) -> Tuple[int, int]:
        m = 1
        for step in self.escalation:
            m *= step
        return self.max_num_degree * m, self.max_den_degree * m


@dataclass(frozen=True)
class Witness:
    """Formal rational expression R(x0..xn) with R(args) = target, checked
    at construction."""

    expr: RatFun          # over formal variables x0..xn
    args: Tuple[RatFun, ...]   # designated arguments over the tower
    target: RatFun

    def __post_init__(self):
        if self.substituted() != self.target:
            raise DiffTowerError("witness does not substitute to its target")

    def substituted(self) -> RatFun:
        mapping = {f"x{i}": a for i, a in enumerate(self.args)}
        return self.expr.substitute(mapping, self.target.vars)


@dataclass(frozen=True)
class Found:
    value: object


@dataclass(frozen=True)
class NoSolutionWithinBounds:
    bounds: Bounds
    certified: bool = False


def monomials_upto(n_vars: int, max_deg: int) -> List[tuple]:
    """Exponent tuples of total degree <= max_deg, descending deglex,
    generated directly: C(n_vars + max_deg, max_deg) tuples, no scan."""
    if not n_vars:
        return [()]
    # by_deg[d]: the tuples over the last j variables of total degree d,
    # descending lex, for j = 1, ..., n_vars
    by_deg = [[(d,)] for d in range(max_deg + 1)]
    for _ in range(n_vars - 1):
        by_deg = [[(k,) + rest for k in range(d, -1, -1)
                   for rest in by_deg[d - k]] for d in range(max_deg + 1)]
    out = []
    for level in reversed(by_deg):
        out += level
    return out


def _assemble_rows(cols: Sequence[Column], max_cells: int) -> List[linalg.Row]:
    """Coefficient-matching rows of integer columns: one row per packed key,
    in ascending deglex order (the order of the keys), holding each
    column's nonzero entry under that key.  Every column is its polynomial
    times one positive factor shared by the whole system, so the rows keep
    the system's solutions; a key that no column holds, as one whose
    products all cancelled, gets no row.  BoundsExceeded when the system
    has over max_cells cells."""
    by_monom = {}
    for col, ints in enumerate(cols):
        for key, c in ints.items():
            by_monom.setdefault(key, {})[col] = c
    linalg.check_size(len(by_monom), len(cols), max_cells)
    return [by_monom[key] for key in sorted(by_monom)]


def _solve_columns(cols: Sequence[Column], target: Column,
                   max_cells: int) -> List[Tuple[Fraction, ...]]:
    """Solutions of sum_i c_i * cols_i = target, as for solve_linear_ansatz,
    for integer columns and target all on one positive scale, as
    _kernel_rref's columns are.  Nonzero columns with distinct leading keys
    are independent over Q (Cox, Little & O'Shea, ch. 2) and a zero column
    is a free coordinate, so after the same cell cap as _assemble_rows the
    target is reduced by _reduce_by_leads, with no rows and no elimination,
    and each zero column adds its unit kernel vector, in column order.  A
    repeated lead is assembled once, as [cols | -target], and read off one
    sparse linalg.kernel: column n is free exactly when the system is
    consistent, and its vector, popped, is the particular solution."""
    n = len(cols)
    leads = {i: max(c) for i, c in enumerate(cols) if c}
    if len(set(leads.values())) == len(leads):
        linalg.check_size(len(set().union(*cols, target)), n + 1, max_cells)
        free = [tuple(Fraction(j == i) for j in range(n))
                for i in range(n) if i not in leads]
        if not target:
            return free
        sols = _reduce_by_leads(cols, leads, target)
        return sols + free if sols else []
    rows = _assemble_rows([*cols, {k: -v for k, v in target.items()}], max_cells)
    vecs = linalg.kernel(rows, n + 1)
    particular = vecs.pop(n, None)
    if particular is None:
        return []
    # a homogeneous target's particular solution is 0 and is left out
    return [tuple(v.get(j, linalg._ZERO) for j in range(n))
            for v in ([particular] if target else []) + [*vecs.values()]]


def _reduce_by_leads(cols: Sequence[Column], leads: Dict[int, int],
                     target: Column) -> List[Tuple[Fraction, ...]]:
    """[the c with sum_i c_i * cols_i = target and 0 at every column
    outside leads], or [] when there is none, for leads mapping each
    nonzero column's index to its leading key, all distinct.  The target is
    reduced fraction-free by those columns in descending-lead order, as
    ratfun._divide_lead divides: s*target = sum_i q_i*cols_i + rem, each
    lead met once, and a lead coefficient that does not divide the
    remainder's scales q, rem and s by lc/gcd.  The later columns hold only
    keys below the lead just cleared, so rem ends with no lead among its
    keys; a nonzero combination of the columns has one, its largest, so a
    nonzero rem is off their span."""
    quo, rem, s = [0] * len(cols), dict(target), 1
    for i in sorted(leads, key=leads.__getitem__, reverse=True):
        le = leads[i]
        c = rem.get(le)
        if c is None:
            continue
        col = cols[i]
        lc = col[le]
        q, r = divmod(c, lc)
        if r:
            m = lc // gcd(c, lc)
            s *= m
            quo = [v * m for v in quo]
            rem = _times(rem, m)
            q = rem[le] // lc
        quo[i] = q
        for key, v in col.items():
            nv = rem.get(key, 0) - q * v
            if nv:
                rem[key] = nv
            else:
                del rem[key]
    return [] if rem else [tuple(Fraction(q, s) for q in quo)]


def _kernel_rref(cols: Sequence[Column], max_cells: int) -> List[linalg.Row]:
    """The kernel {c : sum_i c_i*cols_i = 0} in RREF, sparse rows with
    leading columns and keys ascending, by one elimination: on the columns
    reversed, linalg.kernel's vector for free column f is 1 at f, 0 at the
    other free columns and nonzero only at pivots before f, so reindexed as
    n-1-c it leads with 1 at n-1-f and is 0 at every other leading column
    n-1-f'.  The RREF is unique: an rref of any kernel basis gives it."""
    top = len(cols) - 1   # column c of the reversed system is column top - c
    vecs = linalg.kernel(_assemble_rows(cols[::-1], max_cells), top + 1).values()
    return [{top - c: v for c, v in reversed(vec.items())} for vec in reversed(vecs)]


def solve_linear_ansatz(terms: Sequence[RatFun], target: RatFun) -> List[Tuple[Fraction, ...]]:
    """Solutions of sum_i c_i * terms_i = target over Q.

    Homogeneous target: returns a kernel basis.  Inhomogeneous: returns the
    particular solution (free coordinates zero) followed by the kernel
    basis, or [] when inconsistent.  Ordering is deterministic.
    """
    _, polys = clear_denominators(list(terms) + [target])
    *cols, rhs = common_ints(polys)
    return _solve_columns(cols, rhs, linalg.DEFAULT_MAX_CELLS)


def _closures(gens: Sequence[RatFun], tower: Tower) -> Iterator[List[RatFun]]:
    """Yields, for order 0, 1, 2, ..., the generators plus derivatives up to
    that order, constants and duplicates dropped, in generator-major order.
    Each chain g, D(g), D^2(g), ... grows by one derivative per order."""
    chains = [[g] for g in gens]
    while True:
        yield list(dict.fromkeys(
            v for chain in chains for v in chain if v.used_vars()))
        for chain in chains:
            chain.append(tower.differentiate(chain[-1]))


def _cleared_levels(values: Sequence[RatFun]) -> Iterator[Dict[tuple, Column]]:
    """Yields {e: B_e = c^D * N^e * L^(D-|e|) for |e| <= D}, as integer
    maps, for D = 1, 2, ..., where values = N/L, nonempty, is cleared once
    and L and every N_i are put over c, the lcm of their denominators, once.
    Every entry of level D is on the one positive scale c^D.  Each level is
    built from the one before at one _product per entry, with no MPoly and
    no gcd: B_e = B'_(e-1_i) * c*N_i, and B_0 = B'_0 * c*L."""
    common, nums = clear_denominators(values)
    n = len(common.vars)
    base, *nums = common_ints([common, *nums])
    level = {(0,) * len(values): {0: 1}}
    for d in itertools.count(1):
        below, level = level, {}
        for e in monomials_upto(len(values), d):
            i = next((i for i, k in enumerate(e) if k), None)
            prev = e if i is None else e[:i] + (e[i] - 1,) + e[i + 1:]
            level[e] = _product(below[prev], base if i is None else nums[i], n)
        yield level


def _membership_at(u: RatFun, values: Sequence[RatFun], num_deg: int,
                   den_deg: int, powers: Dict[tuple, Column],
                   max_cells: int) -> Optional[RatFun]:
    """Fixed-degree bilinear ansatz u*Q(values) - P(values) = 0, cleared
    as den(u)*L^D*(u*Q(values) - P(values)) for values = N/L, where powers
    = {e: B_e = c^D*N^e*L^(D-|e|)} is a level of _cleared_levels with
    D >= max(num_deg, den_deg): the Q-columns are num(u)*B_e and the
    P-columns -den(u)*B_e, all with the same nonzero factor, so the kernel
    is unchanged.  num(u) and -den(u) go over one denominator d once, and
    each column is one _product, so all are on the one positive scale
    d*c^D.  VariableMismatch for a target over other variables.

    Returns the canonical formal witness P/Q: of the kernel's sparse RREF
    rows (Q's coefficients first, deglex descending, split at nq) with
    Q(values) != 0, the one leading furthest right, whose Q has the
    deglex-least leading term."""
    if u.vars != values[0].vars:
        raise VariableMismatch(f"{u.vars!r} vs {values[0].vars!r}")
    m, n = len(values), len(u.vars)
    xvars = tuple(f"x{i}" for i in range(m))
    monoms_q = monomials_upto(m, den_deg)
    monoms_p = monomials_upto(m, num_deg)
    num, neg_den = common_ints([u.num, -u.den])
    cols = [_product(num, powers[e], n) for e in monoms_q]
    cols += [_product(neg_den, powers[e], n) for e in monoms_p]
    nq = len(monoms_q)
    for row in reversed(_kernel_rref(cols, max_cells)):
        q_terms = {monoms_q[c]: v for c, v in row.items() if c < nq}
        # c^D*L^D*Q(values) = sum q_e*B_e is 0 exactly when Q(values) is, as
        # when Q = 0; summed with the q_e cleared to integers
        k = lcm(*(v.denominator for v in q_terms.values()))
        total = {}
        for e, v in q_terms.items():
            w = v.numerator * (k // v.denominator)
            for key, c in powers[e].items():
                total[key] = total.get(key, 0) + w * c
        if not any(total.values()):
            continue
        p_poly = MPoly(xvars, {monoms_p[c - nq]: v for c, v in row.items() if c >= nq})
        return RatFun(p_poly, MPoly(xvars, q_terms))
    return None


def _degree_ladder(bounds: Bounds):
    """(num_deg, den_deg, order) triples in increasing total effort."""
    cap_num, cap_den = bounds.escalated_degrees()
    cap_d = max(cap_num, cap_den)
    cap_o = bounds.max_derivative_order
    for effort in range(1, cap_d + cap_o + 1):
        for order in range(0, min(cap_o, effort - 1) + 1):
            d = effort - order
            if d < 1 or d > cap_d:
                continue
            yield min(d, cap_num), min(d, cap_den), order


def _lead_steps(values: Sequence[RatFun]) -> Tuple[List[int], int]:
    """(lam, reach) for values v_i = n_i/d_i cleared as N/L.  lam_i =
    lead(n_i) - lead(d_i) in packed keys, so the leading key of B_e =
    N^e*L^(D-|e|) is D*lead(L) + e.lam, a sum of keys with no product.
    deg(B_e) <= D*reach for |e| <= D, as deg(L) is at most the sum of the
    distinct d_i's degrees."""
    lam = [max(v.num.ints) - max(v.den.ints) for v in values]
    steps = [v.num.total_degree() - v.den.total_degree() for v in values]
    reach = sum(d.total_degree() for d in dict.fromkeys(v.den for v in values))
    return lam, reach + max([0] + steps)


class MembershipSearch:
    """The ascending-effort membership search in one K, for any number of
    targets.  K's closure chains (_closures) and, per order, the cleared
    levels (_cleared_levels) are built once, when the ladder first reaches
    them, and shared by every find; a found witness does not depend on the
    targets searched before it.  Each rung is first sized from its columns'
    leading keys (_certified_miss), so a rung over the cell cap or with an
    empty kernel builds no level, and a level is built only for a rung that
    needs it.  Nothing outlives the object."""

    def __init__(self, K: SubfieldSpec, tower: Tower,
                 bounds: Bounds = Bounds()):
        self.bounds = bounds
        self._orders = _closures(K.generators, tower)
        # per order: (values, levels built, the rest, _lead_steps(values),
        # (layers, upto) of _lead_sums)
        self._by_order = []

    def values(self, order: int) -> List[RatFun]:
        """K's generators and their derivatives up to order, as _closures
        yields them."""
        while len(self._by_order) <= order:
            values = next(self._orders)
            self._by_order.append((values, [], _cleared_levels(values),
                                   _lead_steps(values), ([{0}], {0})))
        return self._by_order[order][0]

    def _level(self, order: int, degree: int) -> Dict[tuple, Column]:
        """The cleared level of degree D = degree over the order's values."""
        _, levels, more, _, _ = self._by_order[order]
        while len(levels) < degree:
            levels.append(next(more))
        return levels[degree - 1]

    def _lead_sums(self, order: int, *degrees: int) -> List[set]:
        """[{e.lam : |e| <= d} for d in degrees] over the order's values:
        the leading keys of a level's entries, less the common D*lead(L).
        Each sum is kept once, in layers[k] for the least |e| = k reaching
        it, and upto is their union: layers[k+1] = layers[k] + lam less
        upto, since a sum first reached at j < k reached its successors by
        j + 1 <= k.  The top degree's set is upto itself, so the layers grow
        to the largest degree before any set is read."""
        lam = self._by_order[order][3][0]
        layers, upto = self._by_order[order][4]
        while len(layers) <= max(degrees):
            layers.append({s + k for s in layers[-1] for k in lam} - upto)
            upto |= layers[-1]
        return [upto if d == len(layers) - 1 else set().union(*layers[:d + 1])
                for d in degrees]

    def _certified_miss(self, u: RatFun, order: int, num_deg: int,
                        den_deg: int) -> bool:
        """Sizes the rung from its columns' leading keys, less D*lead(L):
        lead(num u) + e.lam for the Q-columns and lead(den u) + e.lam for
        the P-columns.  A lead never cancels, so the distinct leads are at
        least the rows, and BoundsExceeded (linalg.check_size) skips a rung
        they put over max_cells.  True when every lead is distinct: the
        column with the largest lead has no partner, so the kernel is empty
        and _membership_at would return None.  False, and the rung is built,
        for a zero target or one over other variables, and when its top
        column might not fit the packed keys, so that building it raises
        ExponentOverflow as before."""
        values, _, _, (_, reach), _ = self._by_order[order]
        D = max(num_deg, den_deg)
        if (u.is_zero() or u.vars != values[0].vars
                or not degree_fits(max(u.num.total_degree(),
                                       u.den.total_degree()) + D * reach)):
            return False
        sums_q, sums_p = self._lead_sums(order, den_deg, num_deg)
        shift = max(u.den.ints) - max(u.num.ints)
        leads = len(sums_q) + len(sums_p) - len(
            sums_q.intersection(map(shift.__add__, sums_p)))
        m = len(values)
        n_cols = comb(m + den_deg, den_deg) + comb(m + num_deg, num_deg)
        linalg.check_size(leads, n_cols, self.bounds.max_cells)
        return leads == n_cols

    def find(self, u: RatFun) -> Found | NoSolutionWithinBounds:
        """Search for u as a rational expression in K's generators and their
        derivatives.  Ascending effort ladder, so a Found witness is the one
        at the least (degree, order) bound.  A K of constants, whose every
        order has no values, is Q: a constant u is found with no args (the
        rung of no values, Q = 1 and P = u), and any other misses before
        any rung."""
        if not self.values(0):
            if u.is_const():
                return Found(Witness(expr=RatFun.const((), u.const_value()),
                                     args=(), target=u))
            return NoSolutionWithinBounds(self.bounds)
        for num_deg, den_deg, order in _degree_ladder(self.bounds):
            values = self.values(order)
            try:
                if self._certified_miss(u, order, num_deg, den_deg):
                    continue
                powers = self._level(order, max(num_deg, den_deg))
                expr = _membership_at(u, values, num_deg, den_deg, powers,
                                      self.bounds.max_cells)
            except BoundsExceeded:
                # rung over the cell cap; the miss stays bounded-honest
                continue
            if expr is not None:
                return Found(Witness(expr=expr, args=tuple(values), target=u))
        return NoSolutionWithinBounds(self.bounds)


def subfield_membership(u: RatFun, K: SubfieldSpec, tower: Tower,
                        bounds: Bounds = Bounds()) -> Found | NoSolutionWithinBounds:
    """Search for u as a rational expression in K's generators and their
    derivatives: one MembershipSearch, for one target."""
    return MembershipSearch(K, tower, bounds).find(u)


def solve_first_order(f: RatFun, g: RatFun, tower: Tower,
                      bounds: Bounds = Bounds()) -> Found | NoSolutionWithinBounds:
    """Bounded search for w with D(w) = f + g*w.

    The ansatz is w = N/denom with unknown polynomial numerator N, fixed
    denominator denom = lcm^power and lcm = s*L the lcm of the denominators
    of f, g and the tower's monic L; only the numerator degree escalates.
    D(denom)/denom = power*D(lcm)/lcm, so C = lcm^2*denom clears every
    column: C*(D(x^e/denom) - g*x^e/denom) = sum_i e_i*x^(e - 1_i)*images[i]
    - x^e*shift with images[i] = lcm*s*L*D(x_i) and shift = power*s*L*D(lcm)
    + lcm*(lcm*g) from the tower's cleared derivation; the target is C*f.
    One cleared_derivation map takes x^e to its column, an integer map over
    the map's one denominator d, built once, on the first rung that needs
    it, and shared by the rungs above.  The columns times den(C*f) and the
    target's integers times d are all on the one positive scale
    d*den(C*f), so no column is rescaled per rung.  For f = 0 and g != 0
    the trivial solution w = 0 is excluded.
    """
    variables = tower.vars
    lcm, (f_num, g_num, s) = clear_denominators(
        [f, g, RatFun(MPoly.const(variables, 1), tower.lcm, _canonical=True)])
    power = max(1, bounds.max_den_degree // max(1, lcm.total_degree()))
    offset = power * lcm.total_degree()
    cap_num, _ = bounds.escalated_degrees()

    def fits(deg):
        # the rung's N monomials pass the N*N <= max_cells pre-check
        return comb(len(variables) + deg, deg) ** 2 <= bounds.max_cells

    # the caps bound w itself; the fixed denominator shifts the numerator.
    # The rungs are offset+1, ..., offset+max_num_degree, then the escalated
    # offset+cap_num when it is higher; comb(n + deg, deg) grows with deg,
    # so the rungs that fit are a prefix, and the walk stops at the first
    # that does not
    top = [offset + cap_num] if cap_num > bounds.max_num_degree else []
    degrees = list(itertools.takewhile(fits, itertools.chain(
        range(offset + 1, offset + bounds.max_num_degree + 1), top)))
    # the columns are built only when a rung fits
    if degrees:
        denom = lcm ** power
        target = lcm * denom * f_num
        shift = (s * tower.cleared(lcm)).scale(power) + lcm * g_num
        ls = lcm * s
        derive, d = cleared_derivation([ls * q for q in tower.images], shift)
        # on the scale d*den(C*f), x^e goes in as den(C*f)*x^e
        rhs = _times(target.ints, d)
    # monomials_upto is descending deglex, so a rung's monomials are those
    # above the rung below's degree, then the rung below's: its columns
    # are theirs with the new ones in front
    cols: List[Column] = []
    for deg in degrees:
        monoms = monomials_upto(len(variables), deg)
        new = monomial_keys(variables, monoms[:len(monoms) - len(cols)])
        cols[:0] = [derive({key: target.den}) for key in new]
        try:
            sols = _solve_columns(cols, rhs, bounds.max_cells)
        except BoundsExceeded:
            continue
        if not sols:
            continue
        w = RatFun(MPoly(variables, dict(zip(monoms, sols[0]))), denom)
        if g.is_zero() and not f.is_zero():
            # fix the antiderivative's free constant; for f = g = 0 the
            # nonzero constant is the answer
            w = w - _poly_part_constant(w)
        if tower.differentiate(w) != f + g * w:
            raise DiffTowerError("first-order solution failed verification")
        return Found(w)
    try:
        certified = (not tower.gen_names and g.is_zero()
                     and not has_rational_antiderivative(f, bounds.max_cells))
    except BoundsExceeded:   # the residue system is over the cell cap
        certified = False
    return NoSolutionWithinBounds(bounds, certified=certified)


def _poly_part_constant(w: RatFun) -> RatFun:
    """Constant term of the polynomial part of w (deglex reduction)."""
    quo, _ = w.num.divmod_lead(w.den)
    return RatFun.const(w.vars,
                        Fraction(quo.ints.get(0, 0), quo.den))
