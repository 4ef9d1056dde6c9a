"""Polynomial and rational-function arithmetic: canonical forms, gcd, division."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftower.errors import DivisionByZero, VariableMismatch, ZeroDenominator
from difftower import ratfun
from difftower.ratfun import MPoly, RatFun, poly_gcd, poly_lcm

V2 = ("x", "y")
V3 = ("x", "y", "w")


def P(text, variables=V2):
    from difftower.parser import parse_expr
    u = parse_expr(text, variables)
    assert u.den.is_const()
    return u.num


def R(text, variables=V2):
    from difftower.parser import parse_expr
    return parse_expr(text, variables)


class TestMPoly:
    def test_zero_coefficients_dropped(self):
        p = MPoly(V2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert p.terms == {(0, 1): Fraction(2)}

    def test_wrong_exponent_length(self):
        with pytest.raises(VariableMismatch):
            MPoly(V2, {(1,): Fraction(1)})

    def test_deglex_leading_term(self):
        # total degree first, then declared variable order
        p = P("x*y + y^3 + x^2")
        assert p.leading_exp() == (0, 3)
        assert P("x*y + x^2").leading_exp() == (2, 0)

    def test_arithmetic(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")
        assert P("x^2 - y^2") - P("x^2") == -P("y^2")
        assert P("x + 1") ** 3 == P("x^3 + 3*x^2 + 3*x + 1")

    def test_partial(self):
        p = P("x^3*y + 2*x")
        assert p.partial(0) == P("3*x^2*y + 2")
        assert p.partial(1) == P("x^3")

    def test_try_divexact(self):
        p = P("x^2 - y^2")
        assert p.try_divexact(P("x + y")) == P("x - y")
        assert p.try_divexact(P("x + 1")) is None

    def test_eval(self):
        assert P("x^2 + y").eval_rat({"x": Fraction(2), "y": Fraction(1, 2)}) \
            == Fraction(9, 2)


class TestGcd:
    def test_univariate(self):
        assert poly_gcd(P("x^2 - 1"), P("x^2 - 2*x + 1")) == P("x - 1")

    def test_multivariate(self):
        g = P("x + y")
        assert poly_gcd(g * P("x^2 + 3"), g * P("y - 1")) == g

    def test_three_vars(self):
        g = P("x*w + y", V3)
        a = g * P("x + 1", V3)
        b = g * P("w^2 - y", V3)
        assert poly_gcd(a, b) == g

    def test_coprime(self):
        got = poly_gcd(P("x + 1"), P("y + 1"))
        assert got.is_const() and got.const_value() == 1

    def test_zero_cases(self):
        z = MPoly.zero(V2)
        assert poly_gcd(z, P("2*x")) == P("x")  # monic
        assert poly_gcd(z, z).is_zero()

    def test_lcm(self):
        assert poly_lcm(P("x^2 - 1"), P("x - 1")) == P("x^2 - 1")

    def test_prs_fallback_agrees(self, monkeypatch):
        # GCDHEU never fails on these inputs, so force the primitive PRS
        from difftower.randexpr import random_mpoly
        rng = random.Random(1002)
        pairs = []
        for _ in range(40):
            variables = V3[:rng.randint(1, 3)]
            a, b, c = (random_mpoly(rng, variables, max_deg=2)
                       for _ in range(3))
            pairs.append((a * c, b * c))
        expected = [poly_gcd(a, b) for a, b in pairs]
        prem_calls = []
        real_prem = ratfun._prem

        def counting_prem(*args):
            prem_calls.append(1)
            return real_prem(*args)

        monkeypatch.setattr(ratfun, "_heu_gcd", lambda p, q: None)
        monkeypatch.setattr(ratfun, "_prem", counting_prem)
        assert [poly_gcd(a, b) for a, b in pairs] == expected
        assert len(prem_calls) >= 10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_gcd_divides_both(self, seed):
        rng = random.Random(seed)
        from difftower.randexpr import random_mpoly
        a = random_mpoly(rng, V2, max_deg=3)
        b = random_mpoly(rng, V2, max_deg=3)
        g = poly_gcd(a, b)
        if not g.is_zero():
            assert a.try_divexact(g) is not None
            assert b.try_divexact(g) is not None


class TestRatFun:
    def test_canonical_reduction(self):
        u = RatFun(P("x^2 - y^2"), P("x + y"))
        assert u == RatFun.from_poly(P("x - y"))

    def test_monic_denominator(self):
        u = RatFun(P("x"), P("2*y"))
        assert u.den == P("y")
        assert u.num == P("x").scale(Fraction(1, 2))

    def test_zero_is_zero_over_one(self):
        u = RatFun(MPoly.zero(V2), P("x^3 + 1"))
        assert u.is_zero() and u.den == MPoly.const(V2, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            RatFun(P("x"), MPoly.zero(V2))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            R("x") / RatFun.const(V2, 0)

    def test_field_axioms_on_samples(self):
        rng = random.Random(7)
        from difftower.randexpr import random_ratfun
        for _ in range(25):
            a = random_ratfun(rng, V2, max_deg=2)
            b = random_ratfun(rng, V2, max_deg=2)
            c = random_ratfun(rng, V2, max_deg=2)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if not b.is_zero():
                assert (a / b) * b == a

    def test_semantic_equality(self):
        assert R("(x^2-1)/(x-1)") == R("x+1")
        assert R("1/2*x") == R("x/2")

    def test_negative_power(self):
        assert R("x") ** -2 == R("1/x^2")

    def test_substitute(self):
        u = R("x^2 + y")
        got = u.substitute({"x": R("y+1"), "y": R("1/y")}, V2)
        assert got == R("((y+1)^2*y + 1)/y")

    def test_extend_vars(self):
        u = R("x/y")
        ext = u.extend_vars(V3)
        assert ext.vars == V3 and ext == R("x/y", V3)

    def test_dispatch(self):
        a, b = R("x"), R("y")
        assert a + b == R("x+y")
        assert a - b == R("x-y")
        assert a * b == R("x*y")
        assert a / b == R("x/y")
        # the four field operations only: no rational-function exponent
        with pytest.raises(TypeError):
            a ** b
