"""Bounded searches: membership witnesses, linear relations, first-order
equations.  A miss is always NoSolutionWithinBounds, never a nonexistence
claim, except where the exact residue criterion certifies one."""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import difftower
from difftower import ansatz, linalg
from difftower.ansatz import (Bounds, Found, MembershipSearch,
                              NoSolutionWithinBounds, Witness,
                              _assemble_rows, _cleared_levels,
                              _closures, _degree_ladder, _kernel_rref,
                              _membership_at,
                              _poly_part_constant, monomials_upto, solve_first_order,
                              solve_linear_ansatz, subfield_membership)
from difftower.errors import (BoundsExceeded, DiffTowerError, DivisionByZero,
                              ExponentOverflow, VariableMismatch)
from difftower.parser import format_ratfun, parse_expr
from difftower.randexpr import random_mpoly, random_ratfun, random_tower
from difftower.ratfun import (MPoly, RatFun, _product, clear_denominators,
                              cleared_derivation, common_ints,
                              monomial_keys)
from difftower.tower import SubfieldSpec, base_subfield, tower_from_pairs

SMALL = Bounds(3, 3, 2, escalation=())


def log_tower():
    return tower_from_pairs([("zeta1", parse_expr("1/z", ("z", "zeta1")))])


def two_log_tower():
    v = ("z", "zeta1", "zeta2")
    return tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                             ("zeta2", parse_expr("1/(z+1)", v))])


def loglog_tower():
    v = ("z", "zeta1", "zeta2")
    return tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                             ("zeta2", parse_expr("1/(zeta1*z)", v))])


def flat_tower():
    v = ("z", "zeta1", "zeta2")
    return tower_from_pairs([("zeta1", parse_expr("1/(z+1)", v)),
                             ("zeta2", parse_expr("1/(z+4)", v))])


class TestBounds:
    def test_defaults_positive(self):
        with pytest.raises(ValueError):
            Bounds(0, 1, 1)

    def test_escalation(self):
        assert Bounds(4, 3, 2, escalation=(2,)).escalated_degrees() == (8, 6)
        assert Bounds(4, 3, 2, escalation=()).escalated_degrees() == (4, 3)
        assert Bounds(4, 3, 2, escalation=(1,)).escalated_degrees() == (4, 3)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cell_cap_positive(self, cap):
        with pytest.raises(ValueError):
            Bounds(max_cells=cap)

    @pytest.mark.parametrize("escalation", [(0,), (-1,), (2, 0)])
    def test_escalation_steps_at_least_one(self, escalation):
        with pytest.raises(ValueError):
            Bounds(2, 2, 1, escalation=escalation)

    def test_cell_cap_default(self):
        assert Bounds().max_cells == linalg.DEFAULT_MAX_CELLS
        assert Bounds(2, 2, 1, escalation=()).max_cells == linalg.DEFAULT_MAX_CELLS


class TestWitness:
    def test_verified_at_construction(self):
        T = log_tower()
        u = parse_expr("zeta1/z", T)
        expr = parse_expr("x0/x1", ("x0", "x1"))
        w = Witness(expr=expr, args=(parse_expr("zeta1", T), parse_expr("z", T)),
                    target=u)
        assert w.substituted() == u

    def test_bad_witness_rejected(self):
        T = log_tower()
        with pytest.raises(DiffTowerError):
            Witness(expr=parse_expr("x0", ("x0",)),
                    args=(parse_expr("z", T),),
                    target=parse_expr("zeta1", T))


def _reference_monomials(n_vars, max_deg):
    """The scan monomials_upto used to make: every tuple of the
    (max_deg+1)^n_vars grid with total degree <= max_deg, sorted."""
    out = [e for e in itertools.product(range(max_deg + 1), repeat=n_vars)
           if sum(e) <= max_deg]
    out.sort(key=lambda e: (sum(e), e), reverse=True)
    return out


class TestMonomials:
    def test_descending_deglex(self):
        ms = monomials_upto(2, 2)
        assert ms[0] == (2, 0) and ms[-1] == (0, 0)
        degs = [sum(m) for m in ms]
        assert degs == sorted(degs, reverse=True)

    def test_matches_the_scan(self):
        for m in range(5):
            for d in range(7):
                assert monomials_upto(m, d) == _reference_monomials(m, d)

    def test_count_without_the_grid(self):
        # the scan visited 8**8 = 16.8 M tuples to keep these
        ms = monomials_upto(8, 7)
        assert len(ms) == len(set(ms)) == comb(15, 7) == 6435
        assert all(len(e) == 8 and sum(e) <= 7 for e in ms)


class TestLinearAnsatz:
    def test_particular_plus_kernel(self):
        T = log_tower()
        terms = [parse_expr(t, T) for t in ("1/z", "z", "2/z")]
        target = parse_expr("3*z", T)
        sols = solve_linear_ansatz(terms, target)
        assert sols[0] == (Fraction(0), Fraction(3), Fraction(0))
        assert len(sols) == 2  # one kernel vector: (2, 0, -1) direction

    def test_homogeneous_kernel(self):
        T = log_tower()
        terms = [parse_expr(t, T) for t in ("1/z", "2/z")]
        basis = solve_linear_ansatz(terms, parse_expr("0", T))
        assert basis == [(Fraction(-2), Fraction(1))]

    def test_inconsistent(self):
        T = log_tower()
        assert solve_linear_ansatz([parse_expr("z", T)],
                                   parse_expr("zeta1", T)) == []

    def test_assembled_rows_are_integer(self, monkeypatch):
        """Each row is scaled by the lcm of the column denominators: the
        RREF is that of the Fraction coefficient rows, key order included,
        and rref clears nothing."""
        from difftower.randexpr import random_mpoly
        rng = random.Random(17)
        for _ in range(40):
            cols = [random_mpoly(rng, ("x", "y"), max_deg=2)
                    for _ in range(rng.randint(1, 5))]
            terms = [p.terms for p in cols]
            want = [{c: t[e] for c, t in enumerate(terms) if e in t}
                    for e in sorted({e for t in terms for e in t})]
            want = linalg.rref(want, len(cols))
            rows = _assemble_rows(common_ints(cols), linalg.DEFAULT_MAX_CELLS)
            assert all(type(v) is int for r in rows for v in r.values())
            with monkeypatch.context() as m:
                m.setattr(linalg, "lcm", None)   # a call would raise
                got = linalg.rref(rows, len(cols))
            assert got == want
            assert [list(r.items()) for r in got[0]] \
                == [list(r.items()) for r in want[0]]


class TestMembership:
    def test_recover_base_variable(self):
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
        out = subfield_membership(parse_expr("z", T), K, T, SMALL)
        assert isinstance(out, Found)
        w = out.value
        assert w.expr == parse_expr("(x0*x1 + x2)/(x0*x2 - 3*x1^2)",
                                    ("x0", "x1", "x2"))

    def test_recover_generator(self):
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
        out = subfield_membership(parse_expr("zeta1", T), K, T, SMALL)
        assert isinstance(out, Found)
        assert out.value.expr == parse_expr(
            "(x0^2*x1 + x0*x2)/(x0*x2 - 3*x1^2)", ("x0", "x1", "x2"))

    def test_direct_member(self):
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("z^2", T),))
        out = subfield_membership(parse_expr("z^4 + 1", T), K, T, SMALL)
        assert isinstance(out, Found)

    def test_miss_is_bounded(self):
        T = log_tower()
        out = subfield_membership(parse_expr("zeta1", T), base_subfield(T),
                                  T, Bounds(2, 2, 1, escalation=()))
        assert isinstance(out, NoSolutionWithinBounds)
        assert not out.certified

    def test_witness_substitutes_randomly(self):
        rng = random.Random(11)
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1", T),
                                     parse_expr("z", T)))
        for _ in range(10):
            target = random_ratfun(rng, T.vars, max_deg=2, max_terms=3)
            out = subfield_membership(target, K, T, SMALL)
            assert isinstance(out, Found)
            assert out.value.substituted() == target


class TestClosureChains:
    def test_each_generator_differentiated_once_per_order(self, monkeypatch):
        # zeta1 = log(z + 1) misses Q(z), so the ladder reaches order 2
        from difftower.tower import Tower
        v = ("z", "zeta1")
        T = tower_from_pairs([("zeta1", parse_expr("1/(z + 1)", v))])
        calls = []
        real = Tower.differentiate
        monkeypatch.setattr(Tower, "differentiate",
                            lambda self, u: calls.append(u) or real(self, u))
        out = subfield_membership(T.gen("zeta1"), base_subfield(T), T, SMALL)
        assert isinstance(out, NoSolutionWithinBounds)
        # z, D(z) = 1: one more derivative per order, none repeated
        assert calls == [T.gen("z"), RatFun.const(T.vars, 1)]


def _reference_membership(u, K, tower, bounds):
    """One membership search with its own closure chains and cleared
    levels, built for this u alone."""
    orders = _closures(K.generators, tower)
    closures = []   # per order: (values, their cleared levels)
    for num_deg, den_deg, order in _degree_ladder(bounds):
        if order == len(closures):
            values = next(orders)
            closures.append((values, _cleared_levels(values)))
        values, levels = closures[order]
        if not values:
            # no values: u*Q = P over constants Q != 0 and P holds exactly
            # when u is a constant, found as P/Q = u over no variables
            if u.is_const():
                return Found(Witness(expr=RatFun.const((), u.const_value()),
                                     args=(), target=u))
            continue
        powers = next(levels)
        try:
            expr = _membership_at(u, values, num_deg, den_deg, powers,
                                  bounds.max_cells)
        except BoundsExceeded:
            continue
        if expr is not None:
            return Found(Witness(expr=expr, args=tuple(values), target=u))
    return NoSolutionWithinBounds(bounds)


def _search_cases():
    """Seeded (K, tower, bounds, targets): planted hits, random targets
    (mostly misses) and constants over one or two random generators, a cell
    cap that skips the larger rungs, and two Ks of constants: one random,
    and the empty K."""
    cases = []
    for seed in range(12):
        rng = random.Random(100 + seed)
        T = random_tower(rng, depth=1 + seed % 2, max_deg=1)
        gens = tuple(random_ratfun(rng, T.vars, max_deg=1, max_terms=2)
                     for _ in range(1 + seed % 2))
        xvars = tuple(f"x{i}" for i in range(len(gens)))
        targets = [RatFun.const(T.vars, Fraction(seed - 5, 2))]
        for _ in range(2):
            formal = random_ratfun(rng, xvars, max_deg=1, max_terms=2)
            try:
                targets.append(
                    formal.substitute(dict(zip(xvars, gens)), T.vars))
            except DivisionByZero:   # the denominator vanishes on gens
                pass
            targets.append(random_ratfun(rng, T.vars, max_deg=2, max_terms=2))
        cells = (linalg.DEFAULT_MAX_CELLS, 60)[seed % 3 == 2]
        bounds = Bounds(2, 2, 1, escalation=(), max_cells=cells)
        cases.append((SubfieldSpec(generators=gens), T, bounds, targets))
    T = log_tower()
    cases.append((SubfieldSpec(generators=()), T, SMALL,
                  [parse_expr(t, T) for t in ("z", "3", "zeta1/z")]))
    return cases


class TestMembershipSearch:
    def test_find_matches_the_reference(self, monkeypatch):
        skipped = []
        check_size = linalg.check_size

        def counting(*args):
            try:
                return check_size(*args)
            except BoundsExceeded:
                skipped.append(args)
                raise

        monkeypatch.setattr(linalg, "check_size", counting)
        outcomes = []
        for K, T, bounds, targets in _search_cases():
            search = MembershipSearch(K, T, bounds)
            for u in targets:
                want = _reference_membership(u, K, T, bounds)
                assert search.find(u) == want, (K, u)
                assert subfield_membership(u, K, T, bounds) == want
                outcomes.append(type(want))
        assert Found in outcomes and NoSolutionWithinBounds in outcomes
        assert skipped, "no rung went over the cell cap"

    def test_a_k_of_constants_builds_no_rung(self, monkeypatch):
        """K's generators and all their derivatives are constants, so no
        order has values and K is Q: find answers before any rung, with no
        lead sizing, no level and no system, a constant target with itself
        over no args and any other with a miss.  _cleared_levels is a
        generator, so its spy records when its body first runs."""
        calls = []
        sized, cleared, rung = (MembershipSearch._certified_miss,
                                ansatz._cleared_levels, ansatz._membership_at)

        def counting_levels(values):
            calls.append("_cleared_levels")
            yield from cleared(values)

        monkeypatch.setattr(MembershipSearch, "_certified_miss",
                            lambda *a: calls.append("_certified_miss")
                            or sized(*a))
        monkeypatch.setattr(ansatz, "_cleared_levels", counting_levels)
        monkeypatch.setattr(ansatz, "_membership_at",
                            lambda *a: calls.append("_membership_at")
                            or rung(*a))
        constant_ks = [(K, T, bounds, targets)
                       for K, T, bounds, targets in _search_cases()
                       if not next(_closures(K.generators, T))]
        T = log_tower()
        constant_ks.append((SubfieldSpec(generators=(
            RatFun.const(T.vars, 3), RatFun.const(T.vars, 0))), T, SMALL,
            [parse_expr(t, T) for t in ("0", "3", "z", "zeta1/z")]))
        assert len(constant_ks) == 3
        found = []
        for K, T, bounds, targets in constant_ks:
            search = MembershipSearch(K, T, bounds)
            for u in targets:
                want = NoSolutionWithinBounds(bounds)
                if u.is_const():
                    want = Found(Witness(
                        expr=RatFun.const((), u.const_value()), args=(),
                        target=u))
                    found.append(format_ratfun(u))
                assert search.find(u) == want
                assert subfield_membership(u, K, T, bounds) == want
        assert calls == []
        assert {"0", "3"} <= set(found)

    def test_no_answer_depends_on_an_earlier_target(self):
        rng = random.Random(7)
        for K, T, bounds, targets in _search_cases():
            want = {u: _reference_membership(u, K, T, bounds)
                    for u in targets}
            for _ in range(3):
                order = targets * 2
                rng.shuffle(order)
                search = MembershipSearch(K, T, bounds)
                assert [search.find(u) for u in order] \
                    == [want[u] for u in order]

    def test_chains_and_levels_are_built_once(self, monkeypatch):
        from difftower.tower import Tower
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
        chain = [K.generators[0], T.differentiate(K.generators[0])]
        calls, levels = [], []
        real, cleared = Tower.differentiate, ansatz._cleared_levels
        monkeypatch.setattr(Tower, "differentiate",
                            lambda self, u: calls.append(u) or real(self, u))
        monkeypatch.setattr(ansatz, "_cleared_levels",
                            lambda v: levels.append(v) or cleared(v))
        search = MembershipSearch(K, T, SMALL)
        for text in ("z", "zeta1", "z^2 + zeta1", "1/zeta1 + z"):
            assert isinstance(search.find(parse_expr(text, T)), Found)
        # the generator once per order reached, one level chain per order
        assert calls == chain
        assert len(levels) == 3


class TestCellCap:
    """The cap reaches every search through Bounds and holds for that call
    only."""

    TINY = Bounds(3, 3, 2, escalation=(), max_cells=1)

    def test_membership_hit_becomes_miss(self):
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
        u = parse_expr("z", T)
        assert isinstance(subfield_membership(u, K, T, SMALL), Found)
        out = subfield_membership(u, K, T, self.TINY)
        assert isinstance(out, NoSolutionWithinBounds)
        assert not out.certified and out.bounds.max_cells == 1
        assert isinstance(subfield_membership(u, K, T, SMALL), Found)

    def test_first_order_misses(self):
        T = log_tower()
        f, g = parse_expr("1/z", T), parse_expr("0", T)
        assert isinstance(solve_first_order(f, g, T, SMALL), Found)
        out = solve_first_order(f, g, T, self.TINY)
        assert isinstance(out, NoSolutionWithinBounds)
        assert not out.certified

    def test_residue_certification_is_capped(self):
        T = tower_from_pairs([])
        f, g = parse_expr("1/(z^2 + 1)^2", T), parse_expr("0", T)
        out = solve_first_order(f, g, T, Bounds(1, 1, 1, escalation=()))
        assert isinstance(out, NoSolutionWithinBounds) and out.certified
        # 19 cells hold neither the 6x7 rung nor the 4x5 Horowitz system
        out = solve_first_order(f, g, T, Bounds(1, 1, 1, escalation=(),
                                                max_cells=19))
        assert isinstance(out, NoSolutionWithinBounds) and not out.certified


    def test_no_columns_when_no_rung_fits(self, monkeypatch):
        calls = []
        real = ansatz.cleared_derivation

        def spy(images, shift=None):
            calls.append(images)
            return real(images, shift)

        monkeypatch.setattr(ansatz, "cleared_derivation", spy)
        T = tower_from_pairs([])
        out = solve_first_order(parse_expr("1/(z^2 + 1)^2", T),
                                parse_expr("0", T), T,
                                Bounds(2, 2, 1, escalation=(), max_cells=1))
        assert isinstance(out, NoSolutionWithinBounds) and not out.certified
        assert calls == []
        # the spy sees the columns' map once a rung fits
        solve_first_order(parse_expr("1/(z^2 + 1)^2", T), parse_expr("0", T),
                          T, Bounds(2, 2, 1, escalation=()))
        assert calls


class TestFirstOrder:
    def test_polynomial_antiderivative(self):
        T = tower_from_pairs([])
        out = solve_first_order(parse_expr("2*z", T), parse_expr("0", T),
                                T, SMALL)
        assert isinstance(out, Found)
        assert out.value == parse_expr("z^2", T)  # constant term normalized away

    def test_log_derivative(self):
        T = log_tower()
        out = solve_first_order(parse_expr("1/z", T), parse_expr("0", T),
                                T, Bounds(4, 4, 2, escalation=()))
        assert isinstance(out, Found)
        assert out.value == parse_expr("zeta1", T)

    def test_homogeneous_nontrivial(self):
        T = log_tower()
        # D(w) = w/z has solution w = c*z; w = 0 is excluded
        out = solve_first_order(parse_expr("0", T), parse_expr("1/z", T),
                                T, SMALL)
        assert isinstance(out, Found)
        assert not out.value.is_zero()
        assert T.differentiate(out.value) == out.value / parse_expr("z", T)

    def test_exponential_obstruction(self):
        T = tower_from_pairs([])
        out = solve_first_order(parse_expr("0", T), parse_expr("1", T),
                                T, SMALL)
        assert isinstance(out, NoSolutionWithinBounds)

    def test_certified_refutation(self):
        T = tower_from_pairs([])
        out = solve_first_order(parse_expr("1/z", T), parse_expr("0", T),
                                T, SMALL)
        assert isinstance(out, NoSolutionWithinBounds)
        assert out.certified

    def test_rational_antiderivative(self):
        T = tower_from_pairs([])
        out = solve_first_order(parse_expr("-1/z^2", T), parse_expr("0", T),
                                T, SMALL)
        assert isinstance(out, Found)
        assert out.value == parse_expr("1/z", T)

    def test_solution_verified(self):
        rng = random.Random(3)
        T = two_log_tower()
        # build solvable instances: pick nonzero w, set f = D(w) - g*w
        for _ in range(5):
            w = RatFun.const(T.vars, 0)
            while w.is_zero():
                w = random_ratfun(rng, ("z",), max_deg=2).extend_vars(T.vars)
            g = random_ratfun(rng, ("z",), max_deg=1).extend_vars(T.vars)
            f = T.differentiate(w) - g * w
            out = solve_first_order(f, g, T, Bounds(4, 4, 2, escalation=()))
            assert isinstance(out, Found)
            assert T.differentiate(out.value) == f + g * out.value


class TestPolyPartConstant:
    """The constant term of the quotient of num(w) by den(w)'s deglex
    leading term, which stops at the first leading term it cannot divide."""

    @pytest.mark.parametrize("text, const", [
        # z*zeta1 divides z^2*zeta1, then z*zeta1; zeta1^2 + 1 is left over
        ("((z*zeta1 + z + 1)*(z + 2) + zeta1^2 + 1)/(z*zeta1 + z + 1)", "2"),
        # the leading term zeta1^3 is not divisible: the loop stops at once
        ("(zeta1^3 + (z*zeta1 + z + 1)*(z + 2))/(z*zeta1 + z + 1)", "0"),
        ("((2*z*zeta1 + 3*z + 5)*(z + 7/3) + zeta1^2 - 1)"
         "/(2*z*zeta1 + 3*z + 5)", "7/3"),
    ])
    def test_multivariate_stop(self, text, const):
        v = ("z", "zeta1")
        assert _poly_part_constant(parse_expr(text, v)) == parse_expr(const, v)


# log, arctangent, log-log and dilog towers
ODE_TOWERS = {
    "log": ["1/z"],
    "arctan": ["1/(z^2 + 1)"],
    "loglog": ["1/z", "1/(z*zeta1)"],
    "dilog": ["1/(z - 1)", "zeta1/z"],
}


def _ode_tower(shape):
    derivs = ODE_TOWERS[shape]
    v = ("z", "zeta1", "zeta2")[:len(derivs) + 1]
    return tower_from_pairs([(name, parse_expr(d, v))
                             for name, d in zip(v[1:], derivs)])


def _ratios(cols, polys):
    """The ratios col/poly over every entry of the integer maps cols
    against the polynomials polys, which must hold the same keys: one
    positive ratio means all of cols are polys on one positive scale."""
    ratios = set()
    for col, p in zip(cols, polys, strict=True):
        assert col.keys() == p.ints.keys()
        ratios |= {Fraction(c * p.den, p.ints[k]) for k, c in col.items()}
    return ratios


class TestOdeColumns:
    """What solve_first_order hands to _solve_columns: for the ansatz
    denominator denom = lcm^power and C = lcm^2*denom, the target C*f and,
    in monomials_upto order, the columns C*(D(m/denom) - g*m/denom), as
    integer maps all on one positive scale per call."""

    @pytest.mark.parametrize("shape", sorted(ODE_TOWERS))
    def test_column_is_cleared_derivative(self, shape, monkeypatch):
        T = _ode_tower(shape)
        f = parse_expr("1/(z + 2)", T)
        g = parse_expr("3/(z + 1)", T)
        bounds = Bounds(2, 2, 1, escalation=())
        calls = []
        real = ansatz._solve_columns

        def record(cols, target, max_cells):
            calls.append((list(cols), target))
            return real(cols, target, max_cells)

        monkeypatch.setattr(ansatz, "_solve_columns", record)
        assert isinstance(solve_first_order(f, g, T, bounds),
                          NoSolutionWithinBounds)
        lcm, _ = clear_denominators([f, g, *T.derivatives])
        denom = lcm ** max(1, bounds.max_den_degree
                           // max(1, lcm.total_degree()))
        common = RatFun.from_poly(lcm * lcm * denom)
        denom_rf = RatFun.from_poly(denom)

        def cleared(u):   # C*u, a polynomial
            u = u * common
            assert u.den == MPoly.const(T.vars, 1)
            return u.num

        # one rung per numerator degree offset + 1, offset + 2
        assert len(calls) == 2
        ratios = set()
        for deg, (cols, target) in enumerate(calls,
                                             denom.total_degree() + 1):
            ratios |= _ratios([target], [cleared(f)])
            monoms = monomials_upto(len(T.vars), deg)
            want = []
            for exp in monoms:
                w = RatFun.from_poly(MPoly(T.vars, {exp: Fraction(1)})) \
                    / denom_rf
                want.append(cleared(T.differentiate(w) - g * w))
            ratios |= _ratios(cols, want)
        (scale,) = ratios
        assert scale > 0

    @pytest.mark.parametrize("shape, builds", [
        ("log", 16), ("arctan", 16), ("loglog", 36), ("dilog", 36)])
    def test_each_column_is_built_once(self, shape, builds, monkeypatch):
        """The exponential obstruction D(w) = w misses on both rungs.  Of
        the derivations, one is the tower's, of lcm, for the shift, and one
        is a column per monomial of the top rung (15 or 35), all by one
        cleared_derivation map of integer maps, none again for the
        monomials the lower rung already built."""
        T = _ode_tower(shape)
        zero, one = RatFun.const(T.vars, 0), RatFun.const(T.vars, 1)
        maps, lcms = [], []   # per map built: (its shift, what it maps)
        real, tower_map = ansatz.cleared_derivation, T.cleared

        def spy(images, shift=None):
            (derive, d), mapped = real(images, shift), []
            maps.append((shift, mapped))
            return (lambda ints: mapped.append(ints) or derive(ints)), d

        monkeypatch.setattr(ansatz, "cleared_derivation", spy)
        monkeypatch.setattr(T, "cleared",
                            lambda p: lcms.append(p) or tower_map(p))
        assert isinstance(
            solve_first_order(zero, one, T, Bounds(2, 2, 1, escalation=())),
            NoSolutionWithinBounds)
        [(shift, monoms)] = maps
        assert shift is not None
        assert len(lcms) == 1 and len(lcms) + len(monoms) == builds
        # f = 0, so the target is over 1 and each x^e goes in as itself
        monoms = [MPoly._over(T.vars, ints) for ints in monoms]
        exps = [p.leading_exp() for p in monoms]
        assert monoms == [MPoly.monomial(T.vars, e) for e in exps]
        assert len(exps) == len(set(exps))
        # every tower here has offset 2, so the rungs have degree 3 and 4
        assert set(exps) == set(monomials_upto(len(T.vars), 4))


def _product_derivation(p, images):
    """sum_i dp/dx_i * images[i] by MPoly partials, products and sums."""
    total = MPoly.zero(p.vars)
    for i, image in enumerate(images):
        total = total + p.partial(i) * image
    return total


def _ode_system(f, g, T, bounds):
    """images[i] = lcm*lcm*D(x_i), shift = power*lcm*D(lcm) + lcm*(lcm*g)
    and the target C*f = lcm*lcm^power*(lcm*f), as solve_first_order's
    docstring defines them."""
    lcm, (f_num, g_num, *d_nums) = clear_denominators([f, g, *T.derivatives])
    power = max(1, bounds.max_den_degree // max(1, lcm.total_degree()))
    return ([lcm * d for d in d_nums],
            _product_derivation(lcm, d_nums).scale(power) + lcm * g_num,
            lcm ** (power + 1) * f_num)


def _product_column(variables, e, images, shift):
    """A column by polynomial arithmetic: the derivation of x^e by
    products, less x^e*shift."""
    m = MPoly.monomial(variables, e)
    return _product_derivation(m, images) - m * shift


class TestOdeColumnsByKeyShifts:
    def test_random_towers_match_products(self, monkeypatch):
        """Every column solve_first_order hands to _solve_columns, on
        random towers of depth 0-3 with g zero and nonzero, is the column
        built by products, and the target C*f, all on one positive scale
        per call."""
        rng = random.Random(20261019)
        bounds = Bounds(2, 2, 1, escalation=())
        calls = []
        real = ansatz._solve_columns

        def record(cols, target, max_cells):
            calls.append((list(cols), target))
            return real(cols, target, max_cells)

        monkeypatch.setattr(ansatz, "_solve_columns", record)
        checked = set()
        for trial in range(16):
            depth = trial % 4
            T = random_tower(rng, depth, max_deg=1)
            f = random_ratfun(rng, T.vars, max_deg=1, max_terms=2)
            g = (RatFun.const(T.vars, 0) if trial % 8 < 4
                 else random_ratfun(rng, T.vars, max_deg=1, max_terms=2))
            calls.clear()
            solve_first_order(f, g, T, bounds)
            images, shift, want = _ode_system(f, g, T, bounds)
            n = len(T.vars)
            ratios = set()
            for cols, target in calls:
                # a rung of degree d has C(n + d, d) columns
                deg = next(d for d in itertools.count()
                           if comb(n + d, d) >= len(cols))
                ratios |= _ratios(
                    [target, *cols],
                    [want, *(_product_column(T.vars, e, images, shift)
                             for e in monomials_upto(n, deg))])
                checked.add((depth, not g.is_zero()))
            if calls:
                (scale,) = ratios
                assert scale > 0
        assert checked == {(d, nz) for d in range(4) for nz in (False, True)}

    def test_images_over_different_denominators(self):
        """Images and shift with unlike rational coefficients: the integer
        map of every monomial up to degree 3, over the map's one
        denominator, equals the product-built column."""
        rng = random.Random(7)
        unlike = 0
        for n in (1, 2, 3):
            variables = ("z", "a", "b")[:n]
            for _ in range(6):
                images = [random_mpoly(rng, variables, max_deg=2)
                          for _ in range(n)]
                shift = random_mpoly(rng, variables, max_deg=3)
                unlike += len({p.den for p in images + [shift]}) > 1
                derive, d = cleared_derivation(images, shift)
                for e in monomials_upto(n, 3):
                    key, = monomial_keys(variables, [e])
                    assert MPoly._over(variables, derive({key: 1}), d) \
                        == _product_column(variables, e, images, shift)
        assert unlike > 6


class TestOdeLadder:
    """The numerator degree ladder stops at the first rung over the cell
    cap, so a huge --deg costs what the cap allows."""

    @pytest.mark.parametrize("f, g", [("0", "1"), ("1/z", "0")])
    def test_huge_degree_cap_stops_at_the_cell_cap(self, f, g, monkeypatch):
        T = log_tower()
        f, g = parse_expr(f, T), parse_expr(g, T)
        rungs = []
        real = ansatz._solve_columns

        def record(cols, target, max_cells):
            rungs[-1].append(len(cols))
            return real(cols, target, max_cells)

        monkeypatch.setattr(ansatz, "_solve_columns", record)
        answers = []
        for cap in (10 ** 4, 10 ** 9):
            rungs.append([])
            start = time.perf_counter()
            out = solve_first_order(f, g, T, Bounds(cap, 2, 1, escalation=(),
                                                    max_cells=1000))
            assert time.perf_counter() - start < 1.0
            answers.append((type(out), getattr(out, "value", None),
                            getattr(out, "certified", None)))
        assert rungs[0] == rungs[1] and rungs[0]
        assert answers[0] == answers[1]
        # lcm = z, power 2: rungs of degree 3, 4, ... while C(2+d, 2)^2 <= 1000
        assert rungs[0] == [10, 15, 21, 28][:len(rungs[0])]

    @pytest.mark.parametrize("caps, rungs", [
        # lcm = z, power 2: degrees 3 and 4, then the escalated 2*2 + 2
        (dict(), [10, 15, 28]),
        # 28^2 is over the cap, 15^2 is not
        (dict(max_cells=225), [10, 15]),
        # no escalated rung above the base ones
        (dict(escalation=()), [10, 15]),
        (dict(escalation=(1,)), [10, 15]),
    ])
    def test_escalated_rung(self, caps, rungs, monkeypatch):
        T = log_tower()
        seen = []
        real = ansatz._solve_columns

        def record(cols, target, max_cells):
            seen.append(len(cols))
            return real(cols, target, max_cells)

        monkeypatch.setattr(ansatz, "_solve_columns", record)
        zero, one = RatFun.const(T.vars, 0), RatFun.const(T.vars, 1)
        out = solve_first_order(zero, one, T, Bounds(2, 2, 1, **caps))
        assert isinstance(out, NoSolutionWithinBounds)
        assert seen == rungs


def _general_solve(cols, target, max_cells):
    """_solve_columns by the general path: linalg.solve_affine on the
    _assemble_rows rows, whatever the leads."""
    n = len(cols)
    rows = _assemble_rows([*cols, target], max_cells)
    particular, kernel = linalg.solve_affine(
        rows, [r.pop(n, 0) for r in rows], n)
    if particular is None:
        return []
    return [tuple(v) for v in [particular] + kernel if any(v)]


def _combination(cols, coeffs):
    out = {}
    for col, a in zip(cols, coeffs):
        for key, v in col.items():
            out[key] = out.get(key, 0) + a * v
    return {key: v for key, v in out.items() if v}


NONZERO = st.integers(-9, 9).filter(bool)


@st.composite
def lead_systems(draw):
    """Integer columns with distinct leading keys, some of them negative,
    and a target that is zero, in the columns' span or drawn off it.  An
    in-span target is an integer combination divided by its content, so a
    lead coefficient need not divide the remainder's."""
    n = draw(st.integers(1, 5))
    leads = draw(st.lists(st.integers(-6, 12), min_size=n, max_size=n,
                          unique=True))
    cols = []
    for le in leads:
        col = draw(st.dictionaries(st.integers(-12, le - 1), NONZERO,
                                   max_size=4))
        col[le] = draw(NONZERO)
        cols.append(col)
    kind = draw(st.sampled_from(["zero", "span", "off"]))
    target = {}
    if kind != "zero":
        target = _combination(
            cols, draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        content = gcd(*target.values()) or 1
        target = {key: v // content for key, v in target.items()}
    if kind == "off":
        key = draw(st.integers(-12, 14))
        target = _combination([target, {key: 1}], [1, draw(NONZERO)])
    return cols, target


def _no_assembly(cols, target, max_cells):
    """_solve_columns, failing on any call of _assemble_rows or rref."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ansatz, "_assemble_rows", None)
        m.setattr(linalg, "rref", None)
        return ansatz._solve_columns(cols, target, max_cells)


class TestDistinctLeadColumns:
    """Nonzero columns with distinct leading keys are independent, so
    _solve_columns reduces the target by them and assembles no rows; the
    answer is the general path's, and the cell cap binds at the same
    size."""

    CAP = linalg.DEFAULT_MAX_CELLS

    @settings(max_examples=300, deadline=None)
    @given(lead_systems())
    @example(([{5: 2, 1: 2}, {3: -3, 0: 3}], {5: 1, 1: 1, 3: -1, 0: 1}))
    @example(([{5: 2, 1: 2}, {3: -3, 0: 3}], {5: 1, 1: 1}))
    @example(([{5: 2, 1: 2}, {3: -3, 0: 3}], {4: 1}))
    @example(([{5: 2, 1: 2}, {3: -3, 0: 3}], {}))
    def test_matches_the_general_path(self, system):
        cols, target = system
        assert _no_assembly(cols, target, self.CAP) \
            == _general_solve(cols, target, self.CAP)

    @settings(max_examples=200, deadline=None)
    @given(lead_systems())
    def test_the_cell_cap_binds_at_the_same_size(self, system):
        cols, target = system
        cells = len(_assemble_rows([*cols, target], self.CAP)) * (len(cols) + 1)
        _no_assembly(cols, target, cells)
        with pytest.raises(BoundsExceeded):
            _no_assembly(cols, target, cells - 1)

    @settings(max_examples=200, deadline=None)
    @given(lead_systems(), st.data())
    def test_a_repeated_lead_or_a_zero_column_falls_back(self, system, data):
        cols, target = system
        i = data.draw(st.integers(0, len(cols) - 1))
        extra = data.draw(st.sampled_from([{}, {max(cols[i]): 1},
                                           dict(cols[i])]))
        cols = [*cols[:i], extra, *cols[i:]]
        calls = []
        real = ansatz._assemble_rows
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ansatz, "_assemble_rows",
                      lambda *a: calls.append(a) or real(*a))
            got = ansatz._solve_columns(cols, target, self.CAP)
        assert len(calls) == 1
        assert got == _general_solve(cols, target, self.CAP)

    def test_each_branch_of_the_reduction(self):
        # 2 and -3 divide neither remainder's lead coefficient, so both
        # leads scale, the second by a negative factor
        cols = [{5: 2, 1: 2}, {3: -3, 0: 3}]
        F = Fraction
        for target, want in [
                ({5: 1, 1: 1, 3: -1, 0: 1}, [(F(1, 2), F(1, 3))]),
                # the lead 3 is not in the remainder and is passed over
                ({5: 1, 1: 1}, [(F(1, 2), F(0))]),
                # a remainder left over: off the span
                ({5: 1, 1: 2}, []),
                ({4: 1}, []),
                # a zero target: only the excluded 0
                ({}, [])]:
            assert _no_assembly(cols, target, self.CAP) == want
        # dependent columns under one lead: the general path's kernel
        assert ansatz._solve_columns([{5: 1}, {5: 2}], {5: 1}, self.CAP) \
            == [(F(1), F(0)), (F(-2), F(1))]
        # a zero column is free
        assert ansatz._solve_columns([{}, {3: 1}], {3: 2}, self.CAP) \
            == [(F(0), F(2)), (F(1), F(0))]


def _ode_systems(f, g, T, bounds, solve=None):
    """solve_first_order(f, g, T, bounds) with _solve_columns replaced by
    solve (by default itself), and per rung whether its columns' leads are
    distinct and whether it raised BoundsExceeded, with the calls of
    _assemble_rows and linalg.rref."""
    solve = solve or ansatz._solve_columns
    rungs, calls = [], []

    def spy(cols, target, max_cells):
        leads = [max(c) for c in cols if c]
        rungs.append([len(set(leads)) == len(cols), False])
        try:
            return solve(cols, target, max_cells)
        except BoundsExceeded:
            rungs[-1][1] = True
            raise

    real_rows, real_rref = ansatz._assemble_rows, linalg.rref
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ansatz, "_solve_columns", spy)
        m.setattr(ansatz, "_assemble_rows",
                  lambda *a: calls.append("rows") or real_rows(*a))
        m.setattr(linalg, "rref", lambda *a: calls.append("rref")
                  or real_rref(*a))
        out = solve_first_order(parse_expr(f, T), parse_expr(g, T), T, bounds)
    return out, rungs, calls


class TestDistinctLeadRungs:
    """ODE rungs whose columns have distinct leads: every obstruction rung
    and the rungs of many equations with g != 0."""

    ODE = Bounds(2, 2, 1, escalation=())

    @pytest.mark.parametrize("tower", [log_tower, loglog_tower])
    def test_the_obstruction_assembles_nothing(self, tower):
        out, rungs, calls = _ode_systems("0", "1", tower(), self.ODE)
        assert isinstance(out, NoSolutionWithinBounds) and not out.certified
        assert rungs == [[True, False]] * 2
        assert calls == []

    @pytest.mark.parametrize("tower, f, g, w", [
        (log_tower, "1/z - zeta1", "1", "zeta1"),
        (log_tower, "1", "1", "-1"),
        (loglog_tower, "1/(zeta1*z) - 2*zeta2", "2", "zeta2")])
    def test_a_solvable_equation_gives_the_general_answer(self, tower, f, g,
                                                           w):
        T = tower()
        out, rungs, calls = _ode_systems(f, g, T, self.ODE)
        general, _, _ = _ode_systems(f, g, T, self.ODE, _general_solve)
        assert out == general == Found(parse_expr(w, T))
        assert rungs == [[True, False]] and calls == []

    def test_f_g_zero_still_finds_the_constant(self):
        # the constant monomial's column D(1) = 0 is zero, so the rung is
        # assembled and eliminated as before
        T = log_tower()
        out, rungs, calls = _ode_systems("0", "0", T, self.ODE)
        assert out == Found(RatFun.const(T.vars, 1))
        assert rungs == [[False, False]] and calls == ["rows", "rref"]

    def test_a_rung_over_the_cell_cap_is_skipped_as_before(self):
        # the first obstruction rung on the log tower is 14 x (10 + 1): 154
        # cells, over a cap of 150 that passes the ladder's 10^2 pre-check
        T = log_tower()
        for cap, over in [(150, True), (154, False)]:
            bounds = Bounds(2, 2, 1, escalation=(), max_cells=cap)
            out, rungs, calls = _ode_systems("0", "1", T, bounds)
            general = _ode_systems("0", "1", T, bounds, _general_solve)
            assert rungs == general[1] == [[True, over]]
            assert isinstance(out, NoSolutionWithinBounds) and out == general[0]
            assert calls == []


def _reference_membership_at(u, values, num_deg, den_deg, skips):
    """Reference rung over reduced RatFun columns: every column u*v^e and
    -v^e a RatFun product, cleared per rung, and Q(values) tested by
    substitution.  Appends to `skips` each candidate it passes over because
    Q(values) = 0."""
    m = len(values)
    xvars = tuple(f"x{i}" for i in range(m))
    monoms_q = monomials_upto(m, den_deg)
    monoms_p = monomials_upto(m, num_deg)
    cache = {}

    def value_of(exp):
        if exp not in cache:
            acc = RatFun.const(u.vars, 1)
            for i, k in enumerate(exp):
                for _ in range(k):
                    acc = acc * values[i]
            cache[exp] = acc
        return cache[exp]

    exprs = [u * value_of(e) for e in monoms_q] + [-value_of(e) for e in monoms_p]
    n_cols = len(exprs)
    rows = _assemble_rows(common_ints(clear_denominators(exprs)[1]),
                          linalg.DEFAULT_MAX_CELLS)
    kernel = linalg.nullspace(rows, n_cols)
    if not kernel:
        return None
    reduced, pivots = linalg.rref(
        [{i: v for i, v in enumerate(vec) if v} for vec in kernel], n_cols)
    nq = len(monoms_q)
    candidates = [(p, row) for row, p in zip(reduced, pivots) if p < nq]
    mapping = {f"x{i}": v for i, v in enumerate(values)}
    for _, row in sorted(candidates, key=lambda t: -t[0]):
        q_poly = MPoly(xvars, {monoms_q[c]: v for c, v in row.items() if c < nq})
        if RatFun.from_poly(q_poly).substitute(mapping, u.vars).is_zero():
            skips.append(q_poly)
            continue
        p_poly = MPoly(xvars, {monoms_p[c - nq]: v for c, v in row.items() if c >= nq})
        return RatFun(p_poly, q_poly)
    return None


def _rung_cases():
    """Seeded rungs (u, values, num_deg, den_deg) on random towers of depth
    1-3: zero and constant targets, planted hits and random targets, plus
    algebraically dependent values, where Q(values) can vanish.  A seed
    whose generators are constants has no values and no rung (see
    test_a_k_of_constants_builds_no_rung)."""
    cases = []
    for seed in range(32):
        rng = random.Random(seed)
        T = random_tower(rng, depth=1 + seed % 3, max_deg=2)
        gens = [random_ratfun(rng, T.vars, max_deg=1 + seed % 2, max_terms=2)
                for _ in range(1 + seed % 2)]
        values = next(itertools.islice(_closures(gens, T), seed % 2, None))
        if not values:
            continue
        kind = seed % 4
        if kind == 0:
            u = RatFun.const(T.vars, 0)
        elif kind == 1:
            u = RatFun.const(T.vars, Fraction(seed - 7, 3))
        elif kind == 2:   # planted: a rational function of the values
            xvars = tuple(f"x{i}" for i in range(len(values)))
            formal = random_ratfun(rng, xvars, max_deg=1, max_terms=2)
            u = formal.substitute(dict(zip(xvars, values)), T.vars)
        else:
            u = random_ratfun(rng, T.vars, max_deg=2, max_terms=3)
        cases.append((u, values, 1 + seed % 2, 1 + (seed // 2) % 2))
    T = two_log_tower()
    for text in ("zeta1", "zeta1/z", "z + zeta2"):
        v = parse_expr(text, T)
        for u in ("1/zeta1", "zeta1^2 + z", "3"):
            cases.append((parse_expr(u, T), [v, v * v, v * v + v], 2, 2))
    return cases


class TestClearedRung:
    def test_matches_reference_rung(self):
        cases = _rung_cases()
        assert len(cases) >= 30
        skips, found = [], []
        for u, values, num_deg, den_deg in cases:
            want = _reference_membership_at(u, values, num_deg, den_deg, skips)
            levels = _cleared_levels(values)
            for _ in range(max(num_deg, den_deg)):
                powers = next(levels)
            got = _membership_at(u, values, num_deg, den_deg, powers,
                                 linalg.DEFAULT_MAX_CELLS)
            assert got == want, (u, values, num_deg, den_deg)
            found.append(got is not None)
        assert any(found) and not all(found)
        assert skips, "no case reached the Q(values) = 0 skip"

    def test_one_elimination_per_rung(self, monkeypatch):
        """The kernel's RREF comes out of the one rref inside nullspace,
        on a hit and on a miss alike."""
        calls = []
        rref = linalg.rref
        monkeypatch.setattr(linalg, "rref",
                            lambda *a: calls.append(1) or rref(*a))
        found = set()
        for u, values, num_deg, den_deg in _rung_cases():
            levels = _cleared_levels(values)
            for _ in range(max(num_deg, den_deg)):
                powers = next(levels)
            calls.clear()
            got = _membership_at(u, values, num_deg, den_deg, powers,
                                 linalg.DEFAULT_MAX_CELLS)
            assert len(calls) == 1, (u, values)
            found.add(got is not None)
        assert found == {True, False}


def _integer_systems():
    """Seeded homogeneous systems as polynomial columns: one monomial x^i
    per equation i, so a zero equation has no row at all.  Low-rank
    products for large kernels, full random matrices for empty ones, no
    equations at all, single columns and columns over a denominator."""
    systems = []
    for seed in range(360):
        rng = random.Random(seed)
        n_cols = 1 + seed % 7
        n_rows = seed % 6
        if seed % 5 == 0:
            A = [[rng.randint(-4, 4) for _ in range(n_cols)]
                 for _ in range(n_rows)]
        else:
            r = rng.randint(0, min(n_rows, n_cols))
            B = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n_rows)]
            C = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(r)]
            A = [[sum(B[i][k] * C[k][j] for k in range(r))
                  for j in range(n_cols)] for i in range(n_rows)]
        if n_rows and seed % 4 == 1:
            A[rng.randrange(n_rows)] = [0] * n_cols
        cols = []
        for j in range(n_cols):
            d = rng.randint(1, 3) if seed % 3 == 2 else 1
            cols.append(MPoly(("x",), {(i,): Fraction(A[i][j], d)
                                       for i in range(n_rows)}))
        systems.append(cols)
    return systems


class TestKernelRref:
    def test_matches_rref_of_nullspace(self):
        """_kernel_rref is linalg.rref applied to nullspace's vectors of the
        system in its own column order, as dense rows."""
        dims = []
        for polys in _integer_systems():
            n = len(polys)
            cols = common_ints(polys)
            kernel = linalg.nullspace(
                _assemble_rows(cols, linalg.DEFAULT_MAX_CELLS), n)
            red, _ = linalg.rref(
                [{i: v for i, v in enumerate(vec) if v} for vec in kernel], n)
            got = _kernel_rref(cols, linalg.DEFAULT_MAX_CELLS)
            assert got == [[row.get(c, 0) for c in range(n)] for row in red]
            assert all(type(v) is Fraction for row in got for v in row)
            dims.append((n, len(got)))
        assert len(dims) >= 300
        assert (1, 0) in dims and (1, 1) in dims
        assert any(k == 0 for n, k in dims if n > 1)      # empty kernels
        assert any(k == n for n, k in dims if n > 1)      # no equations
        assert any(0 < k < n - 1 for n, k in dims)


def _rung_columns(u, powers, monoms_q, monoms_p):
    """A membership rung's integer columns as _membership_at builds them
    from a level of _cleared_levels: num(u) and -den(u) over one
    denominator, each times every B_e by one _product."""
    num, neg_den = common_ints([u.num, -u.den])
    n = len(u.vars)
    return ([_product(num, powers[e], n) for e in monoms_q]
            + [_product(neg_den, powers[e], n) for e in monoms_p])


def _reference_level(values, D):
    """{e: B_e = N^e * L^(D-|e|) for |e| <= D} as MPoly products, for
    values = N/L cleared by clear_denominators."""
    L, nums = clear_denominators(values)
    level = {}
    for e in monomials_upto(len(values), D):
        b = L ** (D - sum(e))
        for n, k in zip(nums, e):
            b = b * n ** k
        level[e] = b
    return level


def _level_scale(powers, reference):
    """The one positive integer c^D with powers[e] = c^D * B_e for every e,
    B_e the MPoly reference."""
    assert powers.keys() == reference.keys()
    ratios = set()
    for e, ints in powers.items():
        assert ints.keys() == reference[e].ints.keys()
        ratios |= {Fraction(c * reference[e].den, reference[e].ints[key])
                   for key, c in ints.items()}
    (scale,) = ratios
    assert scale > 0 and scale.denominator == 1
    return scale


def _integer_rungs():
    """Seeded membership rungs (u, values, D, level, integer columns, MPoly
    reference columns u.num*B_e and -u.den*B_e with B_e built by MPoly
    products, the level's scale c^D): levels D = 1, 2 (and 3 at order 0)
    of _cleared_levels over K's order-0 and order-1 values on the log,
    two-log and log-log towers, two of the Ks with rational content, so
    that c > 1, against a zero, a planted and two random targets."""
    rng = random.Random(27)
    rungs = []
    for T, gens in [(log_tower(), ["zeta1/z"]),
                    (two_log_tower(), ["zeta1 + zeta2", "z*zeta2"]),
                    (loglog_tower(), ["zeta2/z", "zeta1"]),
                    (log_tower(), ["3*zeta1/(2*z)"]),
                    (loglog_tower(), ["z^3/5 + zeta1"])]:
        chains = _closures([parse_expr(g, T) for g in gens], T)
        for order, values in zip(range(2), chains):
            levels = _cleared_levels(values)
            for D in range(1, 4 - order):
                powers = next(levels)
                ref = _reference_level(values, D)
                scale = _level_scale(powers, ref)
                for u in [RatFun.const(T.vars, 0),
                          (values[0] * values[-1]).scale(Fraction(2, 3))
                          + RatFun.const(T.vars, Fraction(5, 2)),
                          random_ratfun(rng, T.vars, max_deg=2, max_terms=3),
                          random_ratfun(rng, T.vars, max_deg=1, max_terms=2)]:
                    monoms = monomials_upto(len(values), D)
                    products = [u.num * ref[e] for e in monoms]
                    products += [-u.den * ref[e] for e in monoms]
                    rungs.append((u, values, D, powers,
                                  _rung_columns(u, powers, monoms, monoms),
                                  common_ints(products), scale))
    return rungs


class TestIntegerColumns:
    """A membership rung's integer columns, built from the integer levels
    with no polynomial, assemble to the rows of its MPoly products up to
    one positive factor for the whole system, so the kernel and every
    answer are the same."""

    CAP = linalg.DEFAULT_MAX_CELLS

    def test_rows_match_the_products(self, monkeypatch):
        rungs = _integer_rungs()
        assert len(rungs) >= 90
        dims = []
        for _, _, _, _, cols, products, _ in rungs:
            got = _assemble_rows(cols, self.CAP)
            want = _assemble_rows(products, self.CAP)
            # the same rows in the same order, each with the same columns
            assert [list(r) for r in got] == [list(r) for r in want]
            assert all(type(v) is int and v for r in got for v in r.values())
            ratios = {Fraction(a, b) for r, s in zip(got, want)
                      for a, b in zip(r.values(), s.values())}
            assert len(ratios) <= 1 and all(c > 0 for c in ratios)
            kernel = _kernel_rref(cols, self.CAP)
            assert kernel == _kernel_rref(products, self.CAP)
            dims.append(len(kernel))
        assert 0 in dims and any(dims)
        # c > 1 on the Ks with rational content
        assert max(scale for *_, scale in rungs) > 1
        # these are the columns _membership_at hands to _kernel_rref
        seen = []
        real = ansatz._kernel_rref
        monkeypatch.setattr(ansatz, "_kernel_rref",
                            lambda cols, cap: seen.append(cols)
                            or real(cols, cap))
        for u, values, D, powers, cols, _, _ in rungs:
            seen.clear()
            _membership_at(u, values, D, D, powers, self.CAP)
            assert seen == [cols]

    def test_the_cell_cap_binds_at_the_same_size(self):
        for _, _, _, _, ints, products, _ in _integer_rungs():
            cells = len(_assemble_rows(products, self.CAP)) * len(products)
            for cols in (ints, products):
                assert len(_assemble_rows(cols, cells)) * len(cols) == cells
                with pytest.raises(BoundsExceeded):
                    _assemble_rows(cols, cells - 1)

    def test_a_rung_multiplies_no_column_polynomial(self, monkeypatch):
        # a miss rung with 6 columns: each column num(u)*B_e or -den(u)*B_e
        # was once one MPoly.__mul__, and each entry B_e of a level another
        T = log_tower()
        values = [parse_expr("zeta1/z", T)]
        calls = []
        real = MPoly.__mul__
        monkeypatch.setattr(MPoly, "__mul__",
                            lambda a, b: calls.append((a, b)) or real(a, b))
        levels = _cleared_levels(values)
        powers = next(itertools.islice(levels, 1, None))
        next(levels)
        got = _membership_at(parse_expr("z", T), values, 2, 2, powers,
                             self.CAP)
        assert got is None and calls == []

    def test_a_foreign_target_raises(self):
        T = log_tower()
        values = [parse_expr("zeta1/z", T)]
        powers = next(_cleared_levels(values))
        K = SubfieldSpec(generators=tuple(values))
        for text in ("z^3 + 1", "0"):
            u = parse_expr(text, ("z",))
            with pytest.raises(VariableMismatch):
                _membership_at(u, values, 1, 1, powers, self.CAP)
            with pytest.raises(VariableMismatch):
                MembershipSearch(K, T, SMALL).find(u)


SIZING = Bounds(2, 2, 2, escalation=())


def _sized_rungs():
    """Every rung of the SIZING ladder, as (search, u, num_deg, den_deg,
    order), for one- and two-generator Ks on the log, two-log, log-log and
    flat towers, against a zero target, two planted hits, the last and the
    first tower variable and a random target."""
    rng = random.Random(28)
    rungs = []
    for T, gens in [(log_tower(), ["zeta1/z", "z^2"]),
                    (two_log_tower(), ["zeta1 + zeta2", "z*zeta2"]),
                    (loglog_tower(), ["zeta2/z", "zeta1"]),
                    (flat_tower(), ["zeta1 + 2*zeta2", "z^2"])]:
        for n in (1, 2):
            K = SubfieldSpec(
                generators=tuple(parse_expr(g, T) for g in gens[:n]))
            k = K.generators[0]
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for u in [RatFun.const(T.vars, 0), k * k + k.scale(c),
                      k * T.differentiate(k), T.gen(T.vars[-1]), T.gen("z"),
                      random_ratfun(rng, T.vars, max_deg=2, max_terms=3)]:
                search = MembershipSearch(K, T, SIZING)
                for num_deg, den_deg, order in _degree_ladder(SIZING):
                    rungs.append((search, u, num_deg, den_deg, order))
    return rungs


def _sized_outcomes(monkeypatch):
    """Per rung of _sized_rungs: (certified, the lower bound on the rows
    that _certified_miss passed to check_size or None, the rows, the
    kernel's dimension, whether _membership_at hits, whether u = 0), the
    last four from the rung built in full."""
    bounds = []
    check_size = linalg.check_size
    monkeypatch.setattr(linalg, "check_size",
                        lambda *a: bounds.append(a[0]) or check_size(*a))
    out = []
    for search, u, num_deg, den_deg, order in _sized_rungs():
        values = search.values(order)
        bounds.clear()
        certified = search._certified_miss(u, order, num_deg, den_deg)
        bound = bounds[0] if bounds else None
        levels = _cleared_levels(values)
        for _ in range(max(num_deg, den_deg)):
            powers = next(levels)
        m = len(values)
        cols = _rung_columns(u, powers, monomials_upto(m, den_deg),
                             monomials_upto(m, num_deg))
        rows = len(_assemble_rows(cols, linalg.DEFAULT_MAX_CELLS))
        kernel = _kernel_rref(cols, linalg.DEFAULT_MAX_CELLS)
        hit = _membership_at(u, values, num_deg, den_deg, powers,
                             linalg.DEFAULT_MAX_CELLS) is not None
        out.append((certified, bound, rows, len(kernel), hit, u.is_zero()))
    return out


class TestLeadCertificate:
    """A rung whose columns' leading keys are all distinct is a miss,
    decided from the keys alone; the distinct leads bound its rows."""

    def test_certified_rungs_have_empty_kernels(self, monkeypatch):
        outcomes = _sized_outcomes(monkeypatch)
        assert len(outcomes) >= 250
        for certified, bound, rows, kernel, hit, zero in outcomes:
            if certified:
                assert kernel == 0 and not hit
            if bound is not None:
                # each distinct lead is a row of the built system
                assert bound <= rows
            if zero:
                assert bound is None and not certified
        kinds = {(c, k > 0, h) for c, _, _, k, h, _ in outcomes}
        # certified misses, misses with colliding leads, and hits
        assert {(True, False, False), (False, False, False),
                (False, True, True)} <= kinds

    def test_a_planted_lead_bug_certifies_a_hit(self, monkeypatch):
        """The soundness test above fails on a wrong lead: here lam_i
        without its denominator's lead."""
        steps = ansatz._lead_steps
        monkeypatch.setattr(ansatz, "_lead_steps", lambda values: (
            [max(v.num.ints) for v in values], steps(values)[1]))
        outcomes = _sized_outcomes(monkeypatch)
        assert any(certified and kernel
                   for certified, _, _, kernel, _, _ in outcomes)

    def test_overflow_is_raised_before_any_certificate(self):
        # at D = 2 the column z^(2^32) does not fit the packed keys; the
        # D = 1 rung is a certified miss
        T = log_tower()
        K = SubfieldSpec(generators=(
            RatFun.from_poly(MPoly(T.vars, {(2 ** 31, 0): 1})),))
        search = MembershipSearch(K, T, Bounds(2, 2, 1, escalation=()))
        with pytest.raises(ExponentOverflow):
            search.find(T.gen("zeta1"))

    def test_a_target_over_other_variables_raises_as_before(self):
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
        with pytest.raises(VariableMismatch):
            MembershipSearch(K, T, SMALL).find(parse_expr("z^3 + 1", ("z",)))


# The peak RSS of a script run by a new interpreter, in kB: its own VmHWM,
# as a child's ru_maxrss can start at the high-water mark of the process
# that started it, here the test run
PEAK_RSS = """
def peak_rss_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))
"""

# the capped log-log miss: every rung above D = 3 is over the cell cap
CAPPED = PEAK_RSS + """
import sys, time
from difftower.ansatz import Bounds, subfield_membership
from difftower.parser import parse_expr
from difftower.tower import SubfieldSpec, tower_from_pairs
v = ("z", "zeta1", "zeta2")
T = tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                      ("zeta2", parse_expr("1/(zeta1*z)", v))])
K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
deg = int(sys.argv[1])
t = time.perf_counter()
out = subfield_membership(T.gen("zeta2"), K, T,
                          Bounds(deg, deg, 2, escalation=(), max_cells=2000))
print(type(out).__name__, time.perf_counter() - t, peak_rss_kb())
"""


class TestRungSizing:
    """A rung over the cell cap is skipped before its level is built, so
    the capped search's work does not grow with the degree cap."""

    def test_capped_search_builds_only_the_levels_its_rungs_use(
            self, monkeypatch):
        T = loglog_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
        built, used, skipped = {}, {}, []
        cleared, rung = ansatz._cleared_levels, ansatz._membership_at

        def counting_levels(values):
            for level in cleared(values):
                built[id(values)] = built.get(id(values), 0) + 1
                yield level

        def counting_rung(u, values, num_deg, den_deg, powers, cells):
            D = max(num_deg, den_deg)
            used[id(values)] = max(used.get(id(values), 0), D)
            return rung(u, values, num_deg, den_deg, powers, cells)

        check_size = linalg.check_size

        def counting_size(*args):
            try:
                return check_size(*args)
            except BoundsExceeded:
                skipped.append(args)
                raise

        monkeypatch.setattr(ansatz, "_cleared_levels", counting_levels)
        monkeypatch.setattr(ansatz, "_membership_at", counting_rung)
        monkeypatch.setattr(linalg, "check_size", counting_size)
        bounds = Bounds(40, 40, 2, escalation=(), max_cells=2000)
        out = MembershipSearch(K, T, bounds).find(T.gen("zeta2"))
        assert isinstance(out, NoSolutionWithinBounds)
        # levels 1..D are built for the highest D a rung ran at, no more.
        # D = 3 at order 2 is the last rung whose leads fit the cap (its
        # rows then do not); every rung above is skipped from its leads
        assert built == used and max(used.values()) == 3
        assert skipped

    def test_capped_search_stays_near_its_small_degree_cost(self):
        src = str(Path(difftower.__file__).resolve().parents[1])
        runs = {}
        for deg in (8, 40):
            done = subprocess.run([sys.executable, "-c", CAPPED, str(deg)],
                                  env={**os.environ, "PYTHONPATH": src},
                                  capture_output=True, text=True, check=True)
            name, seconds, rss_kb = done.stdout.split()
            assert name == "NoSolutionWithinBounds"
            runs[deg] = float(seconds), int(rss_kb)
        # unsized, --deg 40 took seconds and hundreds of MB
        assert runs[40][0] < runs[8][0] + 0.5
        assert runs[40][1] < runs[8][1] + 10 * 1024


# zeta1 = log z misses Q(z) at every rung, so the search climbs to degree D
# at every order up to 4
LEAD_SUMS = PEAK_RSS + """
import sys
from difftower.ansatz import Bounds, MembershipSearch
from difftower.parser import parse_expr
from difftower.tower import base_subfield, tower_from_pairs
T = tower_from_pairs([("zeta1", parse_expr("1/z", ("z", "zeta1")))])
D = int(sys.argv[1])
out = MembershipSearch(base_subfield(T), T,
                       Bounds(D, D, 4, escalation=())).find(T.gen("zeta1"))
print(type(out).__name__, peak_rss_kb())
"""


def _brute_lead_sums(lam, degree):
    return {sum(k * step for k, step in zip(e, lam))
            for e in monomials_upto(len(lam), degree)}


class TestLeadSumLayers:
    """_lead_sums keeps each sum e.lam once, in the layer of the least |e|
    that reaches it, and answers every degree as the sums over all
    exponents of at most that degree do."""

    @settings(max_examples=80, deadline=None)
    @given(lam=st.lists(st.integers(-4, 4), max_size=4),
           queries=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                            min_size=1, max_size=5))
    # the lower degree first, with the store at it and the higher one
    # extending it; a zero and a repeated step
    @example(lam=[2, 0, 2, -1], queries=[(2, 2), (2, 5), (4, 1), (0, 3)])
    def test_layers_match_the_brute_force(self, lam, queries):
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ansatz, "_lead_steps", lambda values: (lam, 0))
            search = MembershipSearch(K, T, SMALL)
            search.values(0)
        for degrees in queries:
            assert search._lead_sums(0, *degrees) \
                == [_brute_lead_sums(lam, d) for d in degrees]
            layers, upto = search._by_order[0][4]
            assert sum(map(len, layers)) == len(upto)
            assert upto == _brute_lead_sums(lam, len(layers) - 1)

    def test_a_search_keeps_each_sum_once(self):
        T = loglog_tower()
        K = SubfieldSpec(generators=tuple(
            parse_expr(g, T) for g in ("zeta1/z", "z^3 + zeta1")))
        search = MembershipSearch(K, T, Bounds(4, 4, 2, escalation=()))
        assert isinstance(search.find(T.gen("zeta2")), NoSolutionWithinBounds)
        assert len(search._by_order) == 3
        for _, _, _, (lam, _), (layers, upto) in search._by_order:
            assert len(layers) - 1 == 4
            assert sum(map(len, layers)) == len(upto)
            assert upto == _brute_lead_sums(lam, 4)

    def test_lead_sums_stay_small_at_a_large_degree(self):
        src = str(Path(difftower.__file__).resolve().parents[1])
        rss = {}
        for deg in (50, 1000):
            done = subprocess.run([sys.executable, "-c", LEAD_SUMS, str(deg)],
                                  env={**os.environ, "PYTHONPATH": src},
                                  capture_output=True, text=True, check=True)
            name, rss_kb = done.stdout.split()
            assert name == "NoSolutionWithinBounds"
            rss[deg] = int(rss_kb)
        # with two sets per degree, D = 1000 took about 100 MB more
        assert rss[1000] < rss[50] + 10 * 1024


# the membership answer on log_tower(), computed in a new interpreter
FRESH_ANSWER = """
from difftower.ansatz import Bounds, subfield_membership
from difftower.parser import format_ratfun, parse_expr
from difftower.tower import SubfieldSpec, tower_from_pairs
T = tower_from_pairs([("zeta1", parse_expr("1/z", ("z", "zeta1")))])
K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
out = subfield_membership(parse_expr("z", T), K, T, Bounds(3, 3, 2, escalation=()))
print(format_ratfun(out.value.expr))
print(";".join(format_ratfun(a) for a in out.value.args))
"""


class TestNoStateAcrossCalls:
    @staticmethod
    def answer(T):
        K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
        out = subfield_membership(parse_expr("z", T), K, T, SMALL)
        assert isinstance(out, Found)
        return (format_ratfun(out.value.expr) + "\n"
                + ";".join(format_ratfun(a) for a in out.value.args))

    def test_towers_with_the_same_names_do_not_share_powers(self):
        A = log_tower()
        B = tower_from_pairs([("zeta1", parse_expr("1/(z+1)", A.vars))])
        first, other, again = self.answer(A), self.answer(B), self.answer(A)
        assert other != first
        assert again == first
        src = str(Path(difftower.__file__).resolve().parents[1])
        fresh = subprocess.run([sys.executable, "-c", FRESH_ANSWER],
                               env={**os.environ, "PYTHONPATH": src},
                               capture_output=True, text=True, check=True)
        assert fresh.stdout.strip() == first
