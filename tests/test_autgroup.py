"""Translation automorphisms, verification, composition, fixed-field probes."""

import random
from fractions import Fraction

import pytest

from difftower import autgroup
from difftower.errors import NotDifferential, NotFlat, NotTriangular
from difftower.parser import parse_expr
from difftower.randexpr import random_fraction, random_ratfun
from difftower.tower import tower_from_pairs


def two_log_tower():
    v = ("z", "zeta1", "zeta2")
    return tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                             ("zeta2", parse_expr("1/(z+1)", v))])


def poly_tower():
    v = ("z", "g1")
    return tower_from_pairs([("g1", parse_expr("z", v))])


class TestTranslations:
    def test_images(self):
        T = two_log_tower()
        s = autgroup.make_translation_aut(T, (1, 0))
        assert s.image_of("zeta1") == parse_expr("zeta1 + 1", T)
        assert s.image_of("zeta2") == parse_expr("zeta2", T)
        assert s.image_of("z") == parse_expr("z", T)
        assert s.verified

    def test_identity(self):
        T = two_log_tower()
        s = autgroup.make_translation_aut(T, (0, 0))
        u = parse_expr("(zeta1 + z)/(zeta2 - 3)", T)
        assert autgroup.apply(s, u) == u

    def test_apply_product(self):
        T = two_log_tower()
        s = autgroup.make_translation_aut(T, (1, 2))
        got = autgroup.apply(s, parse_expr("zeta1*zeta2", T))
        assert got == parse_expr("(zeta1 + 1)*(zeta2 + 2)", T)

    def test_requires_flat(self):
        v = ("z", "zeta1", "zeta2")
        T = tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                              ("zeta2", parse_expr("1/(zeta1*z)", v))])
        with pytest.raises(NotFlat):
            autgroup.make_translation_aut(T, (1, 0))

    def test_homomorphism_random(self):
        rng = random.Random(42)
        T = two_log_tower()
        for _ in range(20):
            a = (random_fraction(rng), random_fraction(rng))
            b = (random_fraction(rng), random_fraction(rng))
            sa = autgroup.make_translation_aut(T, a)
            sb = autgroup.make_translation_aut(T, b)
            sab = autgroup.make_translation_aut(
                T, (a[0] + b[0], a[1] + b[1]))
            u = random_ratfun(rng, T.vars, max_deg=2)
            assert autgroup.apply(sa, autgroup.apply(sb, u)) \
                == autgroup.apply(sab, u)
            assert autgroup.compose(sa, sb).alpha == sab.alpha

    def test_commutes_with_derivation(self):
        rng = random.Random(43)
        T = two_log_tower()
        s = autgroup.make_translation_aut(T, (Fraction(1, 2), 3))
        for _ in range(20):
            u = random_ratfun(rng, T.vars, max_deg=2)
            assert T.differentiate(autgroup.apply(s, u)) \
                == autgroup.apply(s, T.differentiate(u))


class TestVerifyDifferential:
    def test_shear_accepted(self):
        T = poly_tower()
        s = autgroup.verify_differential(
            [parse_expr("z + 1", T), parse_expr("g1 + z + 1/2", T)],
            T, samples=10)
        assert s.verified

    def test_broken_shear_rejected(self):
        T = poly_tower()
        with pytest.raises(NotDifferential):
            autgroup.verify_differential(
                [parse_expr("z + 1", T), parse_expr("g1 + 1", T)],
                T, samples=0)

    def test_identity_verified(self):
        T = two_log_tower()
        s = autgroup.verify_differential(
            [parse_expr(v, T) for v in T.vars], T, samples=5)
        assert s.verified


class TestTriangularAndInverse:
    def test_translation_data(self):
        T = two_log_tower()
        s = autgroup.make_translation_aut(T, (1, Fraction(-1, 2)))
        data = autgroup.verify_triangular(s, T)
        assert data.deltas == (Fraction(1), Fraction(1), Fraction(1))
        assert data.shifts[0] == parse_expr("0", T)
        assert data.shifts[1] == parse_expr("1", T)
        assert data.shifts[2] == parse_expr("-1/2", T)

    def test_shear_data(self):
        T = poly_tower()
        s = autgroup.verify_differential(
            [parse_expr("z + 1", T), parse_expr("g1 + z + 1/2", T)],
            T, samples=0)
        data = autgroup.verify_triangular(s, T)
        assert data.deltas == (Fraction(1), Fraction(1))
        assert data.shifts == (parse_expr("1", T),
                               parse_expr("z + 1/2", T))

    def test_quadratic_rejected(self):
        T = poly_tower()
        s = autgroup.AutMap(tower=T, assignments=(
            parse_expr("z", T), parse_expr("g1^2", T)))
        with pytest.raises(NotTriangular):
            autgroup.verify_triangular(s, T)

    def test_inverse_round_trip(self):
        T = poly_tower()
        s = autgroup.verify_differential(
            [parse_expr("z + 1", T), parse_expr("g1 + z + 1/2", T)],
            T, samples=0)
        inv = autgroup.invert(s)
        both = autgroup.compose(s, inv)
        assert both.assignments == tuple(parse_expr(v, T) for v in T.vars)

    def test_translation_inverse(self):
        T = two_log_tower()
        s = autgroup.make_translation_aut(T, (3, -2))
        assert autgroup.invert(s).alpha == (Fraction(-3), Fraction(2))

    def test_dropped_generator_rejected(self):
        T = two_log_tower()
        s = autgroup.AutMap(tower=T, assignments=tuple(
            parse_expr(e, T) for e in ("z", "z", "zeta2")))
        with pytest.raises(NotTriangular, match="drops zeta1"):
            autgroup.verify_triangular(s, T)

    def test_shift_over_a_later_variable_rejected(self):
        T = two_log_tower()
        s = autgroup.AutMap(tower=T, assignments=tuple(
            parse_expr(e, T) for e in ("z", "zeta1 + zeta2", "zeta2")))
        with pytest.raises(NotTriangular, match="later variables"):
            autgroup.verify_triangular(s, T)


class TestBadArguments:
    def test_alpha_length(self):
        with pytest.raises(ValueError, match="one alpha per generator"):
            autgroup.make_translation_aut(two_log_tower(), (1,))

    def test_assignment_count(self):
        T = two_log_tower()
        with pytest.raises(ValueError, match="one assignment per"):
            autgroup.verify_differential([parse_expr("z", T)], T, samples=0)

    def test_compose_across_towers(self):
        P = poly_tower()
        a = autgroup.make_translation_aut(two_log_tower(), (1, 2))
        b = autgroup.AutMap(tower=P, assignments=tuple(
            parse_expr(v, P) for v in P.vars))
        with pytest.raises(ValueError, match="different towers"):
            autgroup.compose(a, b)

    def test_compose_across_towers_with_the_same_names(self):
        # b is differential on T2 but not on T1, whose variable names match
        T1 = two_log_tower()
        v = T1.vars
        T2 = tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                               ("zeta2", parse_expr("zeta1/z", v))])
        b = autgroup.verify_differential(
            [parse_expr(e, T2) for e in ("z", "zeta1 + 1", "zeta2 + zeta1")],
            T2, samples=0)
        a = autgroup.make_translation_aut(T1, (0, 0))
        with pytest.raises(NotDifferential):
            autgroup.verify_differential(b.assignments, T1, samples=0)
        with pytest.raises(ValueError, match="different towers"):
            autgroup.compose(a, b)
        # towers built apart from the same declaration still compose
        again = two_log_tower()
        c = autgroup.make_translation_aut(again, (1, 2))
        assert autgroup.compose(a, c).alpha == (1, 2)


class TestFixedField:
    def test_moved_element(self):
        T = two_log_tower()
        s = autgroup.make_translation_aut(T, (1, 0))
        assert not autgroup.fixed_field_probe(
            [s], parse_expr("3*zeta1 + z", T))

    def test_base_fixed(self):
        T = two_log_tower()
        sigmas = [autgroup.make_translation_aut(T, (1, 0)),
                  autgroup.make_translation_aut(T, (0, 1))]
        assert autgroup.fixed_field_probe(sigmas, parse_expr("z", T))
        assert autgroup.fixed_field_probe(
            sigmas, parse_expr("(z^2 - 1)/(z + 3)", T))

    def test_difference_fixed_by_diagonal(self):
        T = two_log_tower()
        s = autgroup.make_translation_aut(T, (1, 1))
        assert autgroup.fixed_field_probe(
            [s], parse_expr("zeta1 - zeta2", T))

    def test_decomposed_elements_move(self):
        """Every sum(alpha_i zeta_i) + a with alpha_k nonzero is moved by the
        k-th basis translation; pure base elements never move."""
        rng = random.Random(17)
        T = two_log_tower()
        basis = [autgroup.make_translation_aut(T, (1, 0)),
                 autgroup.make_translation_aut(T, (0, 1))]
        for _ in range(20):
            alpha = (random_fraction(rng), random_fraction(rng))
            a = random_ratfun(rng, ("z",), max_deg=2).extend_vars(T.vars)
            g = a
            for c, name in zip(alpha, T.gen_names):
                g = g + T.gen(name).scale(c)
            for k in range(2):
                moved = not autgroup.fixed_field_probe([basis[k]], g)
                assert moved == (alpha[k] != 0)
            assert autgroup.fixed_field_probe(basis, a)
