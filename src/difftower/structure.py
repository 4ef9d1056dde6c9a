"""Constructive structure theory of antiderivative towers.

Implements relation detection among antiderivatives, decomposition over flat
towers, normal towers, compositum bases, leading-coefficient shift
extraction and the greedy subfield-structure report.

Subfields generated by z, tower generators and Q-linear combinations of
generators (with base-field shifts) admit an exact membership test: a
linear change of generators turns membership into "which variables occur in
the canonical form".  Membership in any other subfield is one bounded
MembershipSearch, which finds a witness or misses within its bounds: the
greedy ascent stops at an F* without the exact test, and a compositum basis
that adjoins a generator on a miss is reported as partial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import List, Sequence, Tuple

from . import linalg
from .ansatz import (Bounds, Found, MembershipSearch, Witness, _kernel_rref,
                     monomials_upto)
from .errors import (AlreadyInBase, DiffTowerError, MalformedAntiderivative,
                     NotAntiderivative, NotFlat, Unsupported)
from .ratfun import (MPoly, RatFun, _content_over, clear_denominators,
                     common_ints, linear_part, poly_gcd)
from .tower import BASE_VAR, SubfieldSpec, Tower

__all__ = [  # with poly_gcd, a binding the layer-trace test of bench/ reads
    "linear_part", "linearize", "NotLinearField", "LinearField",
    "Independent", "Relation", "ostrowski_relation", "antiderivative_decompose",
    "NormalTower", "normal_tower", "CompositumBasis", "compositum_basis",
    "minimal_shift", "StructureGenerator", "StructureReport",
    "subfield_structure", "poly_gcd"]


def linearize(u: RatFun, tower: Tower):
    """Write u as sum(alpha_v * v) + rest with rational alpha and rest over
    Q(z); alpha_z is nonzero only when u is linear in every variable, rest
    then a constant.  None if u is not of this shape."""
    lin = linear_part(u, tower.vars)
    if lin is not None:
        return lin
    lin = linear_part(u, tower.gen_names)
    if lin is None:
        return None
    gen_coeffs, rest = lin
    return [Fraction(0), *gen_coeffs], rest


class NotLinearField(DiffTowerError):
    """The given generators do not admit the exact coordinate treatment."""


class LinearField:
    """Exact membership oracle for F = Q(entries) where each entry is a
    Q-linear combination of tower variables plus a Q(z) shift.

    The change of generators is one linalg.rref of the rows [coeffs |
    identity]: the identity part of a pivot row is the combination of
    entries, and so of shifts, that it stands for, and a row pivoting in the
    identity block is a dependency.  The identity columns run in reverse
    entry order so that the pivot rows draw only on the entries independent
    greedily in input order; in natural order a pivot row may draw on a
    later dependent entry, whose shift can differ by a constant, and move a
    synthetic coordinate by that constant."""

    def __init__(self, tower: Tower, entries: Sequence[RatFun]):
        nv = len(tower.vars)
        coeff_rows, rests = [], []
        for expr in entries:
            lin = linearize(expr, tower)
            if lin is None:
                raise NotLinearField(f"not linear over the tower: {expr!r}")
            coeffs, rest = lin
            if not any(coeffs):
                if rest.is_const():
                    continue
                raise NotLinearField(f"pure base element: {expr!r}")
            coeff_rows.append(coeffs)
            rests.append(rest)
        last = nv + len(rests) - 1   # identity column of entry k: last - k
        red, pivots = linalg.rref(
            [{**dict(enumerate(coeffs)), last - k: 1}
             for k, coeffs in enumerate(coeff_rows)], last + 1)
        rows = []  # (pivot column, coeffs, rest), RREF over the coeffs
        for row, col in zip(red, pivots):
            rest = RatFun.const(tower.vars, 0)
            for c, w in row.items():
                if c >= nv:
                    rest = rest + rests[last - c].scale(w)
            if col < nv:
                rows.append((col, [row.get(j, 0) for j in range(nv)], rest))
            elif not rest.is_const():
                # leftover pure-z dependency like z**2; not representable
                raise NotLinearField("generators hide a nonlinear base element")
        # z is column 0 and the rows run in pivot order, so only the first
        # row can pivot on z
        z_in_field = False
        if rows and rows[0][0] == 0:
            _, coeffs, rest = rows[0]
            if _is_unit(coeffs, 0):
                if not rest.is_const():
                    raise NotLinearField("z entangled with a base shift")
                z_in_field = True
            elif any(not r.is_const() for _, _, r in rows):
                raise NotLinearField("z pivoted inside a combination with shifts")
        self.allowed = {BASE_VAR} if z_in_field else set()
        plan = []   # the rows that get a synthetic coordinate
        for col, coeffs, rest in rows:
            if _is_unit(coeffs, col) and (rest.is_const() or z_in_field):
                self.allowed.add(tower.vars[col])
            else:
                plan.append((col, coeffs, rest))
        synth = tuple(f"~{k}" for k in range(len(plan)))
        self.allowed.update(synth)
        self.ext_vars = tower.vars + synth
        self.subst = {}
        for name, (col, coeffs, rest) in zip(synth, plan):
            # entry = var + sum(c_j var_j) + rest  ->  var = name - sum - rest
            value = RatFun.var(self.ext_vars, name)
            for j, c in enumerate(coeffs):
                if j != col and c:
                    value = value - RatFun.var(self.ext_vars, tower.vars[j]).scale(c)
            self.subst[tower.vars[col]] = value - rest.extend_vars(self.ext_vars)

    def rewrite(self, u: RatFun) -> RatFun:
        """u, over the tower's vars, rewritten over ext_vars; with no
        synthetic coordinate ext_vars is the tower's vars and u is returned
        as it is."""
        if not self.subst:
            return u
        return u.substitute(self.subst, self.ext_vars)

    def contains(self, u: RatFun) -> bool:
        return self.rewrite(u).used_vars() <= self.allowed


def _is_unit(coeffs, col) -> bool:
    return coeffs[col] == 1 and all(c == 0 for j, c in enumerate(coeffs) if j != col)


# -- Ostrowski relations ------------------------------------------------------

@dataclass(frozen=True)
class Independent:
    pass


@dataclass(frozen=True)
class Relation:
    """alpha . ws lands in K; remainder is that K-element."""

    alpha: Tuple[Fraction, ...]
    remainder: RatFun


def ostrowski_relation(ws: Sequence[RatFun], K: SubfieldSpec, tower: Tower,
                       bounds: Bounds = Bounds()):
    """Either the given antiderivatives of K are (pairwise jointly)
    independent over K, or a rational linear combination of them lands in
    K; returns the deglex-least normalized relation in the latter case.
    Membership in K is decided exactly, so no bound is read; bounds is kept
    for callers that pass it."""
    try:
        field = LinearField(tower, K.generators)
    except NotLinearField:
        raise Unsupported(
            "K does not admit the exact coordinate treatment") from None
    outside = [v for v in field.ext_vars if v not in field.allowed]
    coeff_rows = {}
    for j, w in enumerate(ws):
        if not field.contains(tower.differentiate(w)):
            raise NotAntiderivative(f"derivative of argument {j} is not in K")
        lin = linear_part(field.rewrite(w), outside)
        if lin is None:
            raise Unsupported(
                f"argument {j} is not Q-linear in the generators outside K")
        for o, c in zip(outside, lin[0]):
            if c:
                coeff_rows.setdefault(o, {})[j] = c
    rows = [coeff_rows[o] for o in outside if o in coeff_rows]
    kernel = linalg.kernel(rows, len(ws))
    if not kernel:
        return Independent()
    vec = next(iter(kernel.values()))   # scaled to 1 at its first key
    lead = next(iter(vec.values()))
    remainder = RatFun.const(tower.vars, 0)
    for j, v in vec.items():
        remainder = remainder + ws[j].scale(v / lead)
    if not field.contains(remainder):
        raise DiffTowerError("relation remainder failed the membership check")
    return Relation(alpha=tuple(vec.get(j, 0) / lead for j in range(len(ws))),
                    remainder=remainder)


# -- decomposition over flat towers ------------------------------------------

def antiderivative_decompose(g: RatFun, tower: Tower):
    """Over a flat tower, write an antiderivative g of F as
    sum(alpha_i zeta_i) + a with a in Q(z)."""
    if not tower.is_flat():
        raise NotFlat("decomposition requires a flat tower")
    dg = tower.differentiate(g)
    if not dg.used_vars() <= {BASE_VAR}:
        raise NotAntiderivative(f"D(g) is not in Q(z): {dg!r}")
    lin = linear_part(g, tower.gen_names)
    if lin is None:
        name = next(v for v in tower.gen_names
                    if linear_part(g, [v]) is None)
        raise MalformedAntiderivative(
            f"D(g) lands in Q(z) but g is not linear in {name}")
    alphas, rest = lin
    return tuple(alphas), rest


# -- normal tower ---------------------------------------------------------------

@dataclass(frozen=True)
class NormalTower:
    """levels[j] lists the new generators adjoined at level j as
    (display-expression) RatFuns; level 0 is the constant field Q."""

    levels: Tuple[Tuple[RatFun, ...], ...]
    partial: bool


def normal_tower(tower: Tower, bounds: Bounds = Bounds()) -> NormalTower:
    """Iterated antiderivative closure: at each level adjoin every Q-linear
    combination of the not-yet-captured tower variables whose derivative
    lies in the previous level's field.  The closure is exact; of bounds
    only max_cells applies, and a level over it raises BoundsExceeded."""
    entries: List[RatFun] = []
    levels: List[Tuple[RatFun, ...]] = [()]
    partial = False
    while True:
        field = LinearField(tower, entries)
        unplaced = [v for v in tower.vars
                    if not field.contains(tower.gen(v))]
        if not unplaced:
            break
        new_exprs = _closure_step(tower, field, unplaced, bounds)
        new_exprs = [e for e in new_exprs if not field.contains(e)]
        if not new_exprs:
            partial = True
            break
        levels.append(tuple(new_exprs))
        entries.extend(new_exprs)
    return NormalTower(levels=tuple(levels), partial=partial)


def _closure_step(tower: Tower, field: LinearField, unplaced: List[str],
                  bounds: Bounds) -> List[RatFun]:
    """All normalized Q-linear combinations of the unplaced variables whose
    derivative lies in the current field, via one exact linear solve."""
    derivs = [field.rewrite(tower.deriv_of(v)) for v in unplaced]
    lcm, nums = clear_denominators(derivs)
    allowed_idx = {field.ext_vars.index(n) for n in field.allowed}
    content = _content_over(lcm, allowed_idx)
    pp = lcm.try_divexact(content)
    max_deg = max([n.total_degree() for n in nums] + [0]) - pp.total_degree()
    beta_monoms = []
    if max_deg >= 0:
        for exp in monomials_upto(len(field.ext_vars), max_deg):
            if all(k == 0 or i in allowed_idx for i, k in enumerate(exp)):
                beta_monoms.append(exp)
    n_alpha = len(unplaced)
    cols = nums + [-(pp * MPoly.monomial(field.ext_vars, exp))
                   for exp in beta_monoms]
    # the beta columns pp*m are independent, so every kernel row leads in
    # alpha, and the rows cut to alpha are the RREF of the alpha projection
    out = []
    for row in _kernel_rref(common_ints(cols), bounds.max_cells):
        expr = RatFun.const(tower.vars, 0)
        for i, c in row.items():
            if i < n_alpha:
                expr = expr + tower.gen(unplaced[i]).scale(c)
        out.append(expr)
    return out


# -- compositum basis -----------------------------------------------------------

@dataclass(frozen=True)
class CompositumBasis:
    chosen: Tuple[str, ...]
    partial: bool


def _member_test(tower: Tower, entries: Sequence[RatFun], bounds: Bounds):
    """(contains, exact) for the field Q(entries): LinearField's exact test
    while the entries are linear over the tower, else one MembershipSearch,
    whose miss is not exact."""
    try:
        return LinearField(tower, entries).contains, True
    except NotLinearField:
        search = MembershipSearch(
            SubfieldSpec(generators=tuple(entries)), tower, bounds)
        return (lambda u: isinstance(search.find(u), Found)), False


def compositum_basis(K: SubfieldSpec, tower: Tower,
                     bounds: Bounds = Bounds()) -> CompositumBasis:
    """Greedy transcendence base of KE over K from the tower's generators:
    take the smallest-index generator not yet in the current field, adjoin,
    repeat.  Membership is exact while the current field's generators are
    linear over the tower; otherwise it is one MembershipSearch, and a
    generator adjoined on its miss makes the basis partial.  The test is
    built once per field, and again only after a generator is adjoined."""
    current = list(K.generators)
    chosen = []
    partial = False
    contains = None
    for name in tower.gen_names:
        gen = tower.gen(name)
        if contains is None:
            contains, exact = _member_test(tower, current, bounds)
        if not contains(gen):
            partial = partial or not exact
            chosen.append(name)
            current.append(gen)
            contains = None
    return CompositumBasis(chosen=tuple(chosen), partial=partial)


# -- Lemma 4.4 shift extraction --------------------------------------------------

def minimal_shift(u: RatFun, tower: Tower, topgen: str) -> RatFun:
    """From u outside L* = F(zeta_1..zeta_{t-1}), read the leading
    coefficients of the component (numerator or denominator) of top degree
    in zeta_t and return zeta_t + a_{n-1}/(n a_n)."""
    if topgen not in tower.vars:
        raise DiffTowerError(f"unknown generator {topgen!r}")
    idx = tower.vars.index(topgen)
    if u.num.degree_in(idx) <= 0 and u.den.degree_in(idx) <= 0:
        raise AlreadyInBase(f"{u!r} does not involve {topgen}")
    comp = u.num if u.num.degree_in(idx) > 0 else u.den
    n = comp.degree_in(idx)
    a_n = RatFun.from_poly(comp.coeff_in(idx, n))
    a_n1 = RatFun.from_poly(comp.coeff_in(idx, n - 1))
    shift = a_n1 / a_n.scale(n)
    return tower.gen(topgen) + shift


# -- subfield structure -----------------------------------------------------------

@dataclass(frozen=True)
class StructureGenerator:
    expr: RatFun
    derivative_witness: RatFun   # D(expr) over the previous field's coordinates
    membership_witness: Witness  # expresses expr over K's closure


@dataclass(frozen=True)
class StructureReport:
    status: str                  # "resolved" | "partial"
    generators: Tuple[StructureGenerator, ...]
    input_witnesses: Tuple[object, ...]  # per K generator, Witness or None


def subfield_structure(K: SubfieldSpec, tower: Tower,
                       bounds: Bounds = Bounds()) -> StructureReport:
    """Greedy ascent per the structure theorem: repeatedly adjoin an
    antiderivative of the current field F* that lies in K but not in F*,
    then check that every K generator is expressible over the result.
    F* is fixed within one ascent step, so each step builds one LinearField
    over it; over F* = Q it holds the rational constants alone.  Only that
    exact test can place a candidate outside F*, so the ascent ends at the
    first F* whose generators are not linear over the tower.  Membership in
    K is one MembershipSearch for the whole call, which also gives the
    order-2 closure candidates, and each candidate is searched in K at most
    once; one more search, over the final F*, serves every K generator.
    Over an empty F*, which is Q, that search finds each constant K
    generator with no args and misses every other."""
    in_K = MembershipSearch(K, tower, bounds)
    candidates = [tower.gen(v) for v in tower.vars]
    candidates += [c for c in in_K.values(2) if c not in candidates]
    if tower.gen_names:
        top = tower.gen_names[-1]
        for g in K.generators:
            try:
                shift = minimal_shift(g, tower, top)
            except DiffTowerError:
                continue
            if shift not in candidates:
                candidates.append(shift)
    # once per candidate, not per step
    derivative = cache(tower.differentiate)
    membership = cache(in_K.find)

    fstar: List[StructureGenerator] = []
    max_gens = len(tower.vars) + len(K.generators)
    progress = True
    while progress and len(fstar) < max_gens:
        progress = False
        try:
            field = LinearField(tower, [g.expr for g in fstar])
        except NotLinearField:
            break
        for cand in candidates:
            if field.contains(cand):
                continue
            dwit = field.rewrite(derivative(cand))
            if not dwit.used_vars() <= field.allowed:
                continue
            outcome = membership(cand)
            if not isinstance(outcome, Found):
                continue
            # F* grows, so this step ends and the next builds a new field
            fstar.append(StructureGenerator(
                expr=cand, derivative_witness=dwit,
                membership_witness=outcome.value))
            progress = True
            break

    in_fstar = MembershipSearch(
        SubfieldSpec(generators=tuple(g.expr for g in fstar)), tower, bounds)
    input_witnesses: List[object] = []
    for g in K.generators:
        outcome = in_fstar.find(g)
        input_witnesses.append(
            outcome.value if isinstance(outcome, Found) else None)
    resolved = all(w is not None for w in input_witnesses)
    return StructureReport(
        status="resolved" if resolved else "partial",
        generators=tuple(fstar),
        input_witnesses=tuple(input_witnesses))
