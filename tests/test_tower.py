"""Tower validation and the derivation: chain rule, Leibniz, constants."""

import random
from fractions import Fraction

import pytest

from difftower.errors import (DuplicateName, ForwardReference,
                              InvalidTowerConstant, UnknownSymbol,
                              VariableMismatch)
from difftower.parser import parse_expr
from difftower.randexpr import random_mpoly, random_ratfun, random_tower
from difftower.ratfun import RatFun
from difftower.tower import base_subfield, tower_from_pairs


def log_tower():
    return tower_from_pairs([("zeta1", parse_expr("1/z", ("z", "zeta1")))])


def loglog_tower():
    v = ("z", "zeta1", "zeta2")
    return tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                             ("zeta2", parse_expr("1/(zeta1*z)", v))])


class TestValidation:
    def test_duplicate_name(self):
        v = ("z", "a", "a")
        with pytest.raises(DuplicateName):
            tower_from_pairs([("a", parse_expr("1/z", v)),
                              ("a", parse_expr("z", v))])

    def test_base_name_reserved(self):
        with pytest.raises(DuplicateName):
            tower_from_pairs([("z", parse_expr("1", ("z", "z")))])

    def test_forward_reference(self):
        v = ("z", "a", "b")
        with pytest.raises(ForwardReference):
            tower_from_pairs([("a", parse_expr("b", v)),
                              ("b", parse_expr("1/z", v))])

    def test_self_reference(self):
        v = ("z", "a")
        with pytest.raises(ForwardReference):
            tower_from_pairs([("a", parse_expr("a", v))])

    def test_wrong_variable_list(self):
        with pytest.raises(UnknownSymbol):
            tower_from_pairs([("a", parse_expr("1/z", ("z",)))])

    def test_flatness(self):
        assert log_tower().is_flat()
        assert not loglog_tower().is_flat()

    def test_bad_generator_name(self):
        with pytest.raises(UnknownSymbol, match="bad generator name"):
            tower_from_pairs([("1a", parse_expr("1/z", ("z", "a")))])

    def test_unknown_gen(self):
        with pytest.raises(UnknownSymbol):
            log_tower().gen("w")

    def test_repr(self):
        assert repr(loglog_tower()) == "Tower(z, zeta1, zeta2)"
        assert repr(tower_from_pairs([])) == "Tower(z)"


class TestDerivation:
    def test_base_derivative(self):
        T = log_tower()
        assert T.differentiate(parse_expr("z", T)) == parse_expr("1", T)
        assert T.differentiate(parse_expr("zeta1", T)) == parse_expr("1/z", T)

    def test_quotient_example(self):
        T = log_tower()
        u = parse_expr("zeta1/z", T)
        assert T.differentiate(u) == parse_expr("(1 - zeta1)/z^2", T)
        assert T.nth_derivative(u, 2) == parse_expr("(2*zeta1 - 3)/z^3", T)

    def test_iterated_generator(self):
        T = loglog_tower()
        assert T.differentiate(parse_expr("zeta2", T)) \
            == parse_expr("1/(zeta1*z)", T)

    def test_leibniz_and_linearity_random(self):
        rng = random.Random(20240)
        for _ in range(60):
            T = random_tower(rng, depth=rng.randint(1, 3), max_deg=2)
            u = random_ratfun(rng, T.vars, max_deg=2)
            v = random_ratfun(rng, T.vars, max_deg=2)
            D = T.differentiate
            assert D(u + v) == D(u) + D(v)
            assert D(u * v) == D(u) * v + u * D(v)
            if not v.is_zero():
                assert D(u / v) == (D(u) * v - u * D(v)) / (v * v)

    def test_constants(self):
        T = log_tower()
        assert T.is_constant(parse_expr("3/7", T))
        assert not T.is_constant(parse_expr("zeta1", T))

    def test_new_constant_rejected(self):
        v = ("z", "zeta1", "zeta2")
        T = tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                              ("zeta2", parse_expr("2/z", v))])
        with pytest.raises(InvalidTowerConstant):
            T.is_constant(parse_expr("2*zeta1 - zeta2", T))

    def test_direct_construction_blocked(self):
        from difftower.tower import Tower
        with pytest.raises(TypeError):
            Tower((), ())


def _reference_differentiate(T, u):
    """The chain and quotient rule over reduced RatFun operations, each step
    reduced on its own: the derivation before it was computed cleared."""
    def d_poly(p):
        total = RatFun.const(T.vars, 0)
        for i in p.used_indices():
            total = total + RatFun.from_poly(p.partial(i)) * T.derivatives[i]
        return total

    num, den = RatFun.from_poly(u.num), RatFun.from_poly(u.den)
    return (d_poly(u.num) * den - num * d_poly(u.den)) / (den * den)


class TestClearedDerivation:
    def test_images_are_the_cleared_derivatives(self):
        T = loglog_tower()
        assert T.lcm == parse_expr("zeta1*z", T).num
        for image, d in zip(T.images, T.derivatives):
            assert RatFun(image, T.lcm) == d

    def test_matches_the_reduced_chain_rule(self):
        rng = random.Random(8191)
        for _ in range(40):
            T = random_tower(rng, depth=rng.randint(1, 3), max_deg=2)
            samples = [
                random_ratfun(rng, T.vars, max_deg=2),
                RatFun.from_poly(random_mpoly(rng, T.vars, max_deg=3)),
                RatFun.const(T.vars, Fraction(rng.randint(1, 9), 7)),
                RatFun.const(T.vars, 0),
            ]
            for u in samples:
                assert T.differentiate(u) == _reference_differentiate(T, u)
            assert T.differentiate(samples[2]).is_zero()
            assert T.differentiate(samples[3]).is_zero()

    @pytest.mark.parametrize("text", ["zeta1*z + 1", "z/(zeta1 + 1)", "3",
                                      "2/(z + 1)"])
    def test_foreign_variables_raise(self, text):
        T = log_tower()
        for variables in [("z", "w"), ("zeta1", "z"), ("z",)]:
            u = parse_expr(text.replace("zeta1", variables[-1]), variables)
            with pytest.raises(VariableMismatch):
                T.differentiate(u)
            with pytest.raises(VariableMismatch):
                T.cleared(u.num)


def _sympy_poly(p, symbols):
    sympy = pytest.importorskip("sympy")
    terms = {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *symbols, domain="QQ")


class TestDifferentiateOracle:
    def test_chain_rule_matches_sympy(self):
        # D(u) = du/dz + sum_i du/dzeta_i * zeta_i', reduced by sympy.cancel
        sympy = pytest.importorskip("sympy")
        rng = random.Random(4099)
        for _ in range(30):
            T = random_tower(rng, depth=rng.randint(1, 3), max_deg=2)
            u = random_ratfun(rng, T.vars, max_deg=2)
            symbols = sympy.symbols(T.vars)

            def expr(w):
                return (_sympy_poly(w.num, symbols).as_expr()
                        / _sympy_poly(w.den, symbols).as_expr())

            chain = sum(sympy.diff(expr(u), s) * expr(T.deriv_of(name))
                        for s, name in zip(symbols, T.vars))
            n, d = sympy.fraction(sympy.cancel(chain))
            n = sympy.Poly(n, *symbols, domain="QQ")
            d = sympy.Poly(d, *symbols, domain="QQ")
            du = T.differentiate(u)
            num, den = _sympy_poly(du.num, symbols), _sympy_poly(du.den, symbols)
            # reduced forms agree up to one constant; ours has a monic den
            assert den.monic() == d.monic()
            assert num * d == n * den


class TestSubfieldSpec:
    def test_base_subfield(self):
        T = log_tower()
        K = base_subfield(T)
        assert K.generators == (parse_expr("z", T),)
