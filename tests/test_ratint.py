"""Exact residue criterion for rational antiderivatives over Q(z)."""

import random
from fractions import Fraction

import pytest

from difftower.errors import BoundsExceeded, DiffTowerError
from difftower.parser import parse_expr
from difftower.ratfun import RatFun
from difftower.ratint import has_rational_antiderivative
from difftower.tower import tower_from_pairs


def R(text):
    return parse_expr(text, ("z",))


class TestCriterion:
    def test_polynomials_integrate(self):
        assert has_rational_antiderivative(R("3*z^2 + 1"))
        assert has_rational_antiderivative(R("0"))

    def test_simple_pole_refuted(self):
        assert not has_rational_antiderivative(R("1/z"))
        assert not has_rational_antiderivative(R("1/(z-2)"))

    def test_double_pole_integrates(self):
        assert has_rational_antiderivative(R("1/z^2"))
        assert has_rational_antiderivative(R("-2/z^3"))

    def test_mixed_poles(self):
        # 1/z^2 + 1/z: nonzero residue at 0 survives the Hermite part
        assert not has_rational_antiderivative(R("(z + 1)/z^2"))

    def test_log_derivative_of_product(self):
        assert not has_rational_antiderivative(R("(3*z^2+1)/(z^3+z)"))

    def test_zero_residues_higher_order(self):
        # d/dz [z/(z^2+1)] has only even-order pole structure
        u = R("z/(z^2+1)")
        T = tower_from_pairs([])
        assert has_rational_antiderivative(T.differentiate(u))

    def test_horowitz_system_is_capped(self):
        f = R("1/(z^2 + 1)^2")   # a 4x5 Horowitz system
        assert not has_rational_antiderivative(f, max_cells=20)
        with pytest.raises(BoundsExceeded):
            has_rational_antiderivative(f, max_cells=19)

    def test_generators_rejected(self):
        T = tower_from_pairs([("zeta1", parse_expr("1/z", ("z", "zeta1")))])
        with pytest.raises(DiffTowerError):
            has_rational_antiderivative(parse_expr("zeta1", T))

    def test_agrees_with_differentiation(self):
        """Soundness: derivatives of random rational functions always pass."""
        from difftower.randexpr import random_ratfun
        rng = random.Random(99)
        T = tower_from_pairs([])
        for _ in range(40):
            u = random_ratfun(rng, ("z",), max_deg=4)
            f = T.differentiate(u)
            assert has_rational_antiderivative(f), f

    def test_shifted_simple_poles(self):
        """Completeness spot check: adding any simple pole flips the answer."""
        from difftower.randexpr import random_ratfun
        rng = random.Random(5)
        T = tower_from_pairs([])
        for _ in range(20):
            u = random_ratfun(rng, ("z",), max_deg=3)
            f = T.differentiate(u) + R("1/(z-1)")
            assert not has_rational_antiderivative(f), f


def _sympy_expr(u, z):
    sympy = pytest.importorskip("sympy")

    def poly(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * z ** e[0]
                   for e, c in p.terms.items())

    return poly(u.num) / poly(u.den)


class TestRatintOracle:
    def test_matches_sympy_ratint(self):
        """On seeded f: True exactly when sympy's ratint(f) has no log or
        atan part, also with a polynomial part and poles of multiplicity 3-4."""
        sympy = pytest.importorskip("sympy")
        from sympy.integrals.rationaltools import ratint
        from difftower.randexpr import (random_fraction, random_mpoly,
                                        random_ratfun)
        rng = random.Random(2010)
        T = tower_from_pairs([])
        z = sympy.Symbol("z")
        cases = []
        for i in range(30):
            u = random_ratfun(rng, ("z",), max_deg=2)
            if i % 3 == 0:
                f = T.differentiate(u)
            elif i % 3 == 1:
                # a simple pole pair, or none when the fraction is 0
                f = T.differentiate(u) + R(
                    f"({random_fraction(rng)})/(z^2 + {rng.randint(1, 5)})")
            else:
                f = u
            cases.append(f)
        # a polynomial part plus a pole of multiplicity k = 3 or 4: its
        # numerator leaves no residue below degree k - 1, and may at k - 1
        rng = random.Random(2011)
        for i in range(12):
            k = 3 + i % 2
            top = k - 1 if i % 3 == 1 else k - 2
            pole = RatFun.from_poly(random_mpoly(rng, ("z",), max_deg=top))
            at = R("z") - RatFun.const(("z",), rng.randint(-3, 3))
            f = (RatFun.from_poly(random_mpoly(rng, ("z",), max_deg=3))
                 + pole / at ** k)
            if i % 3 == 2:
                f = f + R(f"({random_fraction(rng)})/(z^2 + {rng.randint(1, 5)})")
            cases.append(f)
        answers = []
        for f in cases:
            ours = has_rational_antiderivative(f)
            theirs = ratint(_sympy_expr(f, z), z)
            assert ours == (not theirs.has(sympy.log, sympy.atan,
                                           sympy.RootSum)), f
            answers.append(ours)
        assert True in answers and False in answers
