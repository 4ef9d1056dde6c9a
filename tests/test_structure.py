"""Structure theory: relations, decomposition, normal towers, bases,
shift extraction, subfield reports."""

import random
from fractions import Fraction

import pytest

from difftower import ansatz, linalg, ratfun, structure
from difftower.ansatz import (Bounds, Found, MembershipSearch, Witness,
                              _assemble_rows, monomials_upto)
from difftower.errors import (AlreadyInBase, BoundsExceeded, DiffTowerError,
                              MalformedAntiderivative, NotAntiderivative,
                              NotFlat, Unsupported)
from difftower.parser import format_ratfun, parse_expr
from difftower.randexpr import random_fraction, random_ratfun, random_tower
from difftower.ratfun import MPoly, RatFun, clear_denominators
from difftower.structure import (Independent, LinearField, NotLinearField,
                                 Relation, antiderivative_decompose,
                                 compositum_basis, minimal_shift,
                                 normal_tower, ostrowski_relation,
                                 subfield_structure)
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


def _reference_formal_partial(u, var):
    i = u.vars.index(var)
    n, d = u.num, u.den
    return RatFun(n.partial(i) * d - n * d.partial(i), d * d)


def _reference_linear_part(u, names):
    """linear_part read off the formal partials, each a reduced quotient,
    with rest = u - sum(c_v * v) in RatFun arithmetic."""
    coeffs = []
    rest = u
    for name in names:
        part = _reference_formal_partial(u, name)
        if not part.is_const():
            return None
        c = part.const_value()
        coeffs.append(c)
        if c:
            rest = rest - RatFun.var(u.vars, name).scale(c)
    return coeffs, rest


def _reference_linearize(u, tower):
    """linearize by the generator split, then the z-linear part of rest."""
    lin = _reference_linear_part(u, tower.gen_names)
    if lin is None:
        return None
    gen_coeffs, rest = lin
    coeffs = [Fraction(0), *gen_coeffs]
    zpart = _reference_formal_partial(rest, "z")
    if zpart.is_const() and rest.den.is_const() and rest.num.total_degree() <= 1:
        coeffs[0] = zpart.const_value()
        rest = rest - tower.gen("z").scale(coeffs[0])
    return coeffs, rest


class TestLinearPart:
    def test_rest_never_uses_names(self):
        """Seeded: u = sum(c_v*v) + rest0 with rest0 free of names splits
        back exactly; with noise added, a split, when there is one, still
        rebuilds u and leaves names out of rest."""
        rng = random.Random(433)
        v = ("z", "zeta1", "zeta2", "zeta3")
        noisy_splits = 0
        for _ in range(60):
            names = rng.sample(v, rng.randint(1, 3))
            others = [x for x in v if x not in names]
            rest0 = random_ratfun(rng, others, max_deg=2).extend_vars(v)
            coeffs0 = [random_fraction(rng) for _ in names]
            u = rest0
            for name, c in zip(names, coeffs0):
                u = u + RatFun.var(v, name).scale(c)
            assert structure.linear_part(u, names) == (coeffs0, rest0)
            noise = random_ratfun(rng, v, max_deg=1, max_terms=2)
            lin = structure.linear_part(u + noise, names)
            if lin is None:
                continue
            noisy_splits += 1
            coeffs, rest = lin
            assert not rest.used_vars() & set(names)
            for name, c in zip(names, coeffs):
                rest = rest + RatFun.var(v, name).scale(c)
            assert rest == u + noise
        assert 0 < noisy_splits < 60

    def test_matches_the_reference(self):
        """Seeded: linear_part and linearize agree with the formal-partial
        reference on clean and noisy splits, names in the denominator,
        nonlinear terms and constants."""
        v = ("z", "zeta1", "zeta2", "zeta3")
        T = tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                              ("zeta2", parse_expr("1/(z+1)", v)),
                              ("zeta3", parse_expr("1/(zeta1*z)", v))])
        rng = random.Random(919)
        kinds = ["split", "noisy", "denominator", "nonlinear", "constant"]
        splits = 0
        for k in range(250):
            kind = kinds[k % len(kinds)]
            names = rng.sample(v, rng.randint(1, 4))
            others = [x for x in v if x not in names]
            u = (random_ratfun(rng, others, max_deg=2).extend_vars(v)
                 if others else RatFun.const(v, random_fraction(rng)))
            for name in names:
                u = u + RatFun.var(v, name).scale(random_fraction(rng))
            if kind == "noisy":
                u = u + random_ratfun(rng, v, max_deg=1, max_terms=2)
            elif kind == "denominator":
                u = u / (RatFun.var(v, rng.choice(names))
                         + RatFun.const(v, random_fraction(rng)))
            elif kind == "nonlinear":
                a, b = rng.choice(names), rng.choice(v)
                u = u + (RatFun.var(v, a) * RatFun.var(v, b)).scale(
                    random_fraction(rng) or 1)
            elif kind == "constant":
                u = RatFun.const(v, random_fraction(rng))
            want = _reference_linear_part(u, names)
            assert structure.linear_part(u, names) == want
            splits += want is not None
            assert structure.linearize(u, T) == _reference_linearize(u, T)
        assert 0 < splits < 250

    def test_no_gcd(self, monkeypatch):
        """The split is read off the canonical form, so no gcd runs."""
        v = ("z", "zeta1", "zeta2")
        u = parse_expr("3*zeta1 - zeta2/2 + (z^2 + 1)/(z - 4)", v)
        calls = []
        real = ratfun.poly_gcd

        def spy(p, q):
            calls.append((p, q))
            return real(p, q)

        monkeypatch.setattr(ratfun, "poly_gcd", spy)
        monkeypatch.setattr(structure, "poly_gcd", spy)
        coeffs, rest = structure.linear_part(u, ["zeta1", "zeta2"])
        assert calls == []
        assert coeffs == [3, Fraction(-1, 2)]
        assert rest == parse_expr("(z^2 + 1)/(z - 4)", v)


class TestLinearField:
    def test_plain_generators(self):
        T = two_log_tower()
        F = LinearField(T, (parse_expr("z", T), parse_expr("zeta1", T)))
        assert F.contains(parse_expr("(z + zeta1^2)/(zeta1 - 1)", T))
        assert not F.contains(parse_expr("zeta2", T))

    def test_combination_generator(self):
        T = two_log_tower()
        F = LinearField(T, (parse_expr("z", T),
                            parse_expr("zeta1 + zeta2", T)))
        assert F.contains(parse_expr("zeta1 + zeta2 + z^2", T))
        assert not F.contains(parse_expr("zeta1", T))
        # adding zeta1 separates the combination into both generators
        F2 = LinearField(T, (parse_expr("z", T),
                             parse_expr("zeta1 + zeta2", T),
                             parse_expr("zeta1", T)))
        assert F2.contains(parse_expr("zeta2", T))

    def test_rewrite_substitutes_only_synthetic_coordinates(self):
        T = two_log_tower()
        u = parse_expr("(z + zeta1^2)/(zeta2 - 1)", T)
        F = LinearField(T, (parse_expr("z", T), parse_expr("zeta1", T)))
        assert F.ext_vars == T.vars and F.rewrite(u) is u
        G = LinearField(T, (parse_expr("z", T),
                            parse_expr("zeta1 + zeta2", T)))
        assert G.ext_vars == T.vars + ("~0",)
        assert G.rewrite(parse_expr("zeta1 + zeta2 + z^2", T)) \
            == RatFun.var(G.ext_vars, "~0") \
            + parse_expr("z^2", T).extend_vars(G.ext_vars)

    def test_shifted_generator_without_z(self):
        T = log_tower()
        F = LinearField(T, (parse_expr("zeta1 + z^2", T),))
        assert F.contains(parse_expr("zeta1 + z^2", T))
        assert not F.contains(parse_expr("zeta1", T))
        assert not F.contains(parse_expr("z", T))

    def test_empty_is_constants(self):
        T = log_tower()
        F = LinearField(T, ())
        assert F.contains(parse_expr("7/3", T))
        assert not F.contains(parse_expr("z", T))

    def test_nonlinear_rejected(self):
        T = log_tower()
        with pytest.raises(NotLinearField):
            LinearField(T, (parse_expr("zeta1^2", T),))
        with pytest.raises(NotLinearField):
            LinearField(T, (parse_expr("z^2", T),))

    def test_matches_the_reference_elimination(self):
        # generator sets with planted dependencies c*e_i + e_j + shift; the
        # shift is mostly a constant, sometimes z-dependent (an error)
        v = ("z", "zeta1", "zeta2", "zeta3")
        T = tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                              ("zeta2", parse_expr("1/(z+1)", v)),
                              ("zeta3", parse_expr("1/(zeta1*z)", v))])
        shifts = [parse_expr(s, v) for s in
                  ("0", "3/2", "z", "z^2", "1/(z+2)", "(z-1)/(z^2+3)")]
        rng = random.Random(1106)
        outcomes = set()
        for _ in range(300):
            entries = []
            for _ in range(rng.randint(1, 5)):
                if len(entries) >= 2 and rng.random() < 0.5:
                    ei, ej = rng.sample(entries, 2)
                    extra = RatFun.const(v, random_fraction(rng)) \
                        if rng.random() < 0.9 else rng.choice(shifts)
                    entries.append(ei.scale(random_fraction(rng)) + ej + extra)
                    continue
                e = rng.choice(shifts)
                for name in rng.sample(v, rng.randint(1, 2)):
                    e = e + RatFun.var(v, name).scale(random_fraction(rng))
                entries.append(e)
            probes = [RatFun.var(v, n) for n in v] + entries \
                + [random_ratfun(rng, v, max_deg=2, max_terms=3)]
            outcomes.add(_compare_fields(T, entries, probes))
        assert outcomes == {"field", "NotLinearField"}


def _compare_fields(tower, entries, probes):
    """The same field or the same error from LinearField and the reference;
    returns which it was."""
    try:
        ref = ReferenceLinearField(tower, entries)
    except NotLinearField as e:
        with pytest.raises(NotLinearField) as got:
            LinearField(tower, entries)
        assert str(got.value) == str(e)
        return "NotLinearField"
    field = LinearField(tower, entries)
    assert field.allowed == ref.allowed
    assert field.ext_vars == ref.ext_vars
    assert field.subst == ref.subst
    for u in probes:
        assert field.rewrite(u) == ref.rewrite(u)
    return "field"


class ReferenceLinearField:
    """LinearField by an elimination loop of its own: Gauss-Jordan over the
    coefficient columns in order, each pivot the first row left that holds
    the column, carrying the rows' shifts."""

    def __init__(self, tower, entries):
        nv = len(tower.vars)
        rows = []  # [coeff list, rest]
        for expr in entries:
            lin = structure.linearize(expr, tower)
            if lin is None:
                raise NotLinearField(f"not linear over the tower: {expr!r}")
            coeffs, rest = lin
            if not any(coeffs):
                if rest.is_const():
                    continue
                raise NotLinearField(f"pure base element: {expr!r}")
            rows.append([list(coeffs), rest])
        reduced = []  # (pivot column, [coeffs, rest])
        for col in range(nv):
            pivot = next((r for r in rows if r[0][col] != 0), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            inv = 1 / pivot[0][col]
            pivot = [[c * inv for c in pivot[0]], pivot[1].scale(inv)]
            for r in rows + [row for _, row in reduced]:
                f = r[0][col]
                if f:
                    r[0][:] = [a - f * b for a, b in zip(r[0], pivot[0])]
                    r[1] = r[1] - pivot[1].scale(f)
            reduced.append((col, pivot))
            rows = [r for r in rows if any(r[0]) or not r[1].is_const()]
        if rows:
            raise NotLinearField("generators hide a nonlinear base element")
        zi = tower.vars.index("z")
        unit = structure._is_unit
        z_in_field = any(col == zi and unit(row[0], col) and row[1].is_const()
                         for col, row in reduced)
        if not z_in_field and any(col == zi and unit(row[0], col)
                                  for col, row in reduced):
            raise NotLinearField("z entangled with a base shift")
        if any(col == zi and not unit(row[0], col) for col, row in reduced) \
                and any(not row[1].is_const() for _, row in reduced):
            raise NotLinearField("z pivoted inside a combination with shifts")
        names, plan = [], []
        for col, (coeffs, rest) in reduced:
            if unit(coeffs, col) and (rest.is_const() or z_in_field):
                names.append(tower.vars[col])
                continue
            names.append(f"~{len(plan)}")
            plan.append((col, coeffs, rest, names[-1]))
        self.ext_vars = tower.vars + tuple(name for *_, name in plan)
        self.allowed = set(names) | ({"z"} if z_in_field else set())
        self.subst = {}
        for col, coeffs, rest, name in plan:
            value = RatFun.var(self.ext_vars, name)
            for j, c in enumerate(coeffs):
                if j != col and c:
                    value = value - RatFun.var(
                        self.ext_vars, tower.vars[j]).scale(c)
            value = value - rest.extend_vars(self.ext_vars)
            self.subst[tower.vars[col]] = value

    def rewrite(self, u):
        ext = u.extend_vars(self.ext_vars)
        return ext.substitute(self.subst, self.ext_vars) if self.subst \
            else ext


class TestOstrowski:
    def test_independent_pair(self):
        T = two_log_tower()
        out = ostrowski_relation([parse_expr("zeta1", T),
                                  parse_expr("zeta2", T)],
                                 base_subfield(T), T, SMALL)
        assert isinstance(out, Independent)

    def test_single_antiderivative(self):
        T = log_tower()
        out = ostrowski_relation([parse_expr("zeta1", T)],
                                 base_subfield(T), T, SMALL)
        assert isinstance(out, Independent)

    def test_constructed_relation(self):
        T = two_log_tower()
        ws = [parse_expr(t, T)
              for t in ("zeta1", "zeta2", "zeta1 + zeta2 + 3*z^2")]
        out = ostrowski_relation(ws, base_subfield(T), T, SMALL)
        assert isinstance(out, Relation)
        assert out.alpha == (Fraction(1), Fraction(1), Fraction(-1))
        assert out.remainder == parse_expr("-3*z^2", T)

    def test_first_nonzero_normalized_to_one(self):
        T = two_log_tower()
        ws = [parse_expr("2*zeta1 + z", T), parse_expr("zeta1", T)]
        out = ostrowski_relation(ws, base_subfield(T), T, SMALL)
        assert isinstance(out, Relation)
        assert out.alpha[0] == 1

    def test_not_antiderivative(self):
        T = loglog_tower()
        with pytest.raises(NotAntiderivative):
            ostrowski_relation([parse_expr("zeta2", T)],
                               base_subfield(T), T, SMALL)

    def test_nonlinear_argument_unsupported(self):
        # D((zeta1 - zeta2)^2) = 0 lies in K = Q(z), but the argument is
        # not Q-linear in the generators outside K
        v = ("z", "zeta1", "zeta2")
        T = tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                              ("zeta2", parse_expr("1/z", v))])
        with pytest.raises(Unsupported, match="not Q-linear"):
            ostrowski_relation([parse_expr("(zeta1 - zeta2)^2", T)],
                               base_subfield(T), T, SMALL)


class TestDecompose:
    def test_basic(self):
        T = two_log_tower()
        alpha, a = antiderivative_decompose(parse_expr("2*zeta1 + z^2", T), T)
        assert alpha == (Fraction(2), Fraction(0))
        assert a == parse_expr("z^2", T)

    def test_both_generators(self):
        T = two_log_tower()
        alpha, a = antiderivative_decompose(
            parse_expr("zeta1 + zeta2 + 1/z", T), T)
        assert alpha == (Fraction(1), Fraction(1))
        assert a == parse_expr("1/z", T)

    def test_round_trip(self):
        T = two_log_tower()
        g = parse_expr("-3/2*zeta1 + 5*zeta2 + (z+1)/z", T)
        alpha, a = antiderivative_decompose(g, T)
        rebuilt = a
        for c, name in zip(alpha, T.gen_names):
            rebuilt = rebuilt + T.gen(name).scale(c)
        assert rebuilt == g

    def test_product_rejected(self):
        T = two_log_tower()
        with pytest.raises(NotAntiderivative):
            antiderivative_decompose(parse_expr("zeta1*zeta2", T), T)

    def test_nonlinear_antiderivative_rejected(self):
        v = ("z", "zeta1", "zeta2")
        T = tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                              ("zeta2", parse_expr("1/z", v))])
        # D((zeta1 - zeta2)^2) = 0 lies in Q(z), yet g is not linear
        with pytest.raises(MalformedAntiderivative,
                           match="g is not linear in zeta1$"):
            antiderivative_decompose(parse_expr("(zeta1 - zeta2)^2", T), T)

    def test_requires_flat(self):
        with pytest.raises(NotFlat):
            antiderivative_decompose(
                parse_expr("zeta1", loglog_tower()), loglog_tower())


def _reference_closure_step(tower, field, unplaced, bounds):
    """The closure step by two eliminations: nullspace of the [alpha | beta]
    system, then rref of the kernel vectors cut to their alpha parts."""
    derivs = [field.rewrite(tower.deriv_of(v)) for v in unplaced]
    lcm, nums = clear_denominators(derivs)
    allowed_idx = {field.ext_vars.index(n) for n in field.allowed}
    pp = lcm.try_divexact(ratfun._content_over(lcm, allowed_idx))
    max_deg = max([n.total_degree() for n in nums] + [0]) - pp.total_degree()
    beta_monoms = []
    if max_deg >= 0:
        for exp in monomials_upto(len(field.ext_vars), max_deg):
            if all(k == 0 or i in allowed_idx for i, k in enumerate(exp)):
                beta_monoms.append(exp)
    n_alpha = len(unplaced)
    cols = nums + [-(pp * MPoly(field.ext_vars, {exp: Fraction(1)}))
                   for exp in beta_monoms]
    rows = _assemble_rows(ratfun.common_ints(cols), bounds.max_cells)
    kernel = linalg.nullspace(rows, len(cols))
    alpha_rows = [{i: v for i, v in enumerate(vec[:n_alpha]) if v}
                  for vec in kernel]
    reduced, _ = linalg.rref([r for r in alpha_rows if r], n_alpha)
    out = []
    for row in reduced:
        expr = RatFun.const(tower.vars, 0)
        for i, c in sorted(row.items()):
            expr = expr + tower.gen(unplaced[i]).scale(c)
        out.append(expr)
    return out


def _linear_tower(rng, depth):
    """Each derivative a rational function of z plus a random Q-linear
    combination of earlier generators, so the normal tower is exact and
    its levels mix generators."""
    names = [f"g{i}" for i in range(depth)]
    all_vars = ("z", *names)
    pairs = []
    for i, name in enumerate(names):
        deriv = random_ratfun(rng, ("z",), max_deg=1,
                              max_terms=2).extend_vars(all_vars)
        for j in range(i):
            if rng.random() < 0.4:
                deriv = deriv + RatFun.var(all_vars, names[j]).scale(
                    random_fraction(rng))
        if deriv.is_const():
            deriv = deriv + RatFun.var(all_vars, "z")
        pairs.append((name, deriv))
    return tower_from_pairs(pairs)


def _closure_towers():
    v = ("z", "zeta1", "zeta2")
    towers = [log_tower(), two_log_tower(), loglog_tower(),
              tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                                ("zeta2", parse_expr("zeta1^2", v))])]
    for seed in range(24):
        rng = random.Random(seed)
        towers.append(_linear_tower(rng, 2 + seed % 3) if seed % 3 else
                      random_tower(rng, depth=1 + seed % 2, max_deg=1))
    return towers


class TestNormalTower:
    def test_closure_step_matches_reference(self, monkeypatch):
        """Every step of seeded normal_tower runs gives the reference's
        combinations, in its order."""
        step = structure._closure_step
        sizes = []

        def checked(tower, field, unplaced, bounds):
            got = step(tower, field, unplaced, bounds)
            assert got == _reference_closure_step(tower, field, unplaced,
                                                  bounds)
            sizes.append(len(got))
            return got

        monkeypatch.setattr(structure, "_closure_step", checked)
        for T in _closure_towers():
            assert not normal_tower(T, SMALL).partial
        assert len(sizes) >= 60
        assert {1, 2, 3} <= set(sizes)

    def test_one_elimination_per_closure_step(self, monkeypatch):
        calls, per_step = [], []
        rref, step = linalg.rref, structure._closure_step
        monkeypatch.setattr(linalg, "rref",
                            lambda *a: calls.append(1) or rref(*a))

        def counted(*args):
            before = len(calls)
            out = step(*args)
            per_step.append(len(calls) - before)
            return out

        monkeypatch.setattr(structure, "_closure_step", counted)
        for T in _closure_towers()[:8]:
            normal_tower(T, SMALL)
        assert per_step and set(per_step) == {1}

    def test_iterated_logs(self):
        nt = normal_tower(loglog_tower(), SMALL)
        assert not nt.partial
        rendered = [[format_ratfun(e) for e in lvl] for lvl in nt.levels]
        assert rendered == [[], ["z"], ["zeta1"], ["zeta2"]]

    def test_flat_two_logs(self):
        nt = normal_tower(two_log_tower(), SMALL)
        rendered = [[format_ratfun(e) for e in lvl] for lvl in nt.levels]
        assert rendered == [[], ["z"], ["zeta1", "zeta2"]]

    def test_delayed_generator(self):
        v = ("z", "zeta1", "zeta2", "zeta3")
        T = tower_from_pairs([("zeta1", parse_expr("1/z", v)),
                              ("zeta2", parse_expr("zeta1", v)),
                              ("zeta3", parse_expr("1/(z+1)", v))])
        nt = normal_tower(T, SMALL)
        rendered = [[format_ratfun(e) for e in lvl] for lvl in nt.levels]
        assert rendered == [[], ["z"], ["zeta1", "zeta3"], ["zeta2"]]

    def test_cell_cap_applies(self):
        with pytest.raises(BoundsExceeded):
            normal_tower(loglog_tower(), Bounds(max_cells=1))
        assert not normal_tower(loglog_tower(), SMALL).partial

    def test_levels_strictly_grow(self):
        nt = normal_tower(loglog_tower(), SMALL)
        for lvl in nt.levels[1:]:
            assert len(lvl) >= 1

    def test_top_level_spans_all_generators(self):
        for T in (log_tower(), two_log_tower(), loglog_tower()):
            nt = normal_tower(T, SMALL)
            entries = [e for lvl in nt.levels for e in lvl]
            F = LinearField(T, entries)
            for v in T.vars:
                assert F.contains(T.gen(v))

    def test_translation_preserves_levels(self):
        """Each level generator maps to itself plus something one level down."""
        from difftower import autgroup
        T = two_log_tower()
        nt = normal_tower(T, SMALL)
        sigma = autgroup.make_translation_aut(T, (Fraction(1), Fraction(-2)))
        below: list = []
        for lvl in nt.levels:
            F = LinearField(T, below)
            for eta in lvl:
                moved = autgroup.apply(sigma, eta) - eta
                assert F.contains(moved)
            below.extend(lvl)


class TestCompositumBasis:
    def test_remaining_generator(self):
        T = two_log_tower()
        K = SubfieldSpec(generators=(parse_expr("z", T),
                                     parse_expr("zeta1", T)))
        out = compositum_basis(K, T, SMALL)
        assert out.chosen == ("zeta2",) and not out.partial

    def test_base_field(self):
        T = two_log_tower()
        out = compositum_basis(base_subfield(T), T, SMALL)
        assert out.chosen == ("zeta1", "zeta2")

    def test_combination_smallest_index(self):
        T = two_log_tower()
        K = SubfieldSpec(generators=(parse_expr("z", T),
                                     parse_expr("zeta1 + zeta2", T)))
        out = compositum_basis(K, T, SMALL)
        assert out.chosen == ("zeta1",) and not out.partial

    def test_unknown_membership_is_partial(self):
        # z^2 is a pure base element, so the exact test does not apply and
        # the ansatz cannot write zeta1 over Q<z^2>
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("z^2", T),))
        out = compositum_basis(K, T, SMALL)
        assert out.chosen == ("zeta1",) and out.partial

    def test_ansatz_fallback_finds_generator(self):
        # z^2*zeta1 is not linear over the tower; the ansatz writes zeta1
        # as (z^2*zeta1)/z^2
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("z^2", T),
                                     parse_expr("z^2*zeta1", T)))
        with pytest.raises(NotLinearField):
            LinearField(T, K.generators)
        outcome = MembershipSearch(K, T, SMALL).find(T.gen("zeta1"))
        assert isinstance(outcome, Found)
        assert isinstance(outcome.value, Witness)
        assert outcome.value.substituted() == T.gen("zeta1")
        out = compositum_basis(K, T, SMALL)
        assert out.chosen == () and not out.partial

    def test_one_search_per_field(self, monkeypatch):
        # zeta1 lies in the non-linear Q<z^2, z^2*zeta1> and zeta2 does not:
        # the field does not grow between the two, so one search serves
        # both (two closure chains over the same field before)
        T = two_log_tower()
        K = SubfieldSpec(generators=(parse_expr("z^2", T),
                                     parse_expr("z^2*zeta1", T)))
        chains = []
        real = ansatz._closures
        monkeypatch.setattr(ansatz, "_closures",
                            lambda g, t: chains.append(tuple(g)) or real(g, t))
        out = compositum_basis(K, T, SMALL)
        assert out == structure.CompositumBasis(chosen=("zeta2",),
                                                partial=True)
        assert chains == [K.generators]


class TestMinimalShift:
    def test_affine(self):
        T = two_log_tower()
        u = parse_expr("zeta2 + z", T)
        assert minimal_shift(u, T, "zeta2") == u

    def test_square(self):
        T = two_log_tower()
        u = parse_expr("(zeta2 + z)^2", T)
        assert minimal_shift(u, T, "zeta2") == parse_expr("zeta2 + z", T)

    def test_reciprocal_uses_denominator(self):
        T = two_log_tower()
        u = parse_expr("1/(zeta2 + z)", T)
        assert minimal_shift(u, T, "zeta2") == parse_expr("zeta2 + z", T)

    def test_rational_shift(self):
        T = two_log_tower()
        u = parse_expr("(zeta2 + zeta1/z)^3", T)
        assert minimal_shift(u, T, "zeta2") \
            == parse_expr("zeta2 + zeta1/z", T)

    def test_already_in_base(self):
        T = two_log_tower()
        with pytest.raises(AlreadyInBase):
            minimal_shift(parse_expr("zeta1 + z", T), T, "zeta2")

    def test_unknown_generator(self):
        T = two_log_tower()
        with pytest.raises(DiffTowerError, match="unknown generator"):
            minimal_shift(parse_expr("zeta1", T), T, "zeta9")


class TestSubfieldStructure:
    def test_log_over_z_generates_everything(self):
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
        report = subfield_structure(K, T, SMALL)
        assert report.status == "resolved"
        assert tuple(g.expr for g in report.generators) \
            == (parse_expr("z", T), parse_expr("zeta1", T))
        # the input generator is recovered as zeta1/z over (z, zeta1)
        assert report.input_witnesses[0].substituted() \
            == parse_expr("zeta1/z", T)

    def test_square_of_base(self):
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("z^2", T),))
        report = subfield_structure(K, T, SMALL)
        assert report.status == "resolved"
        assert tuple(g.expr for g in report.generators) == (parse_expr("z", T),)

    def test_plain_generator(self):
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1", T),))
        report = subfield_structure(K, T, SMALL)
        assert report.status == "resolved"
        assert tuple(g.expr for g in report.generators) \
            == (parse_expr("z", T), parse_expr("zeta1", T))

    def test_derivative_chain_property(self):
        """Each found generator's derivative is witnessed over its
        predecessors, matching the iterated-antiderivative shape."""
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("zeta1/z", T),))
        report = subfield_structure(K, T, SMALL)
        from difftower.ansatz import Found, subfield_membership
        for i, gen in enumerate(report.generators):
            prev = tuple(g.expr for g in report.generators[:i])
            d = T.differentiate(gen.expr)
            if not prev:
                assert d.used_vars() == set() or d.is_const()
            else:
                out = subfield_membership(
                    d, SubfieldSpec(generators=prev), T, SMALL)
                assert isinstance(out, Found)

    def test_ascent_ends_at_a_nonlinear_fstar(self, monkeypatch):
        # zeta2 + zeta1/z is not linear over the tower, so nothing can be
        # placed outside the F* it completes and the ascent stops there
        T = loglog_tower()
        K = SubfieldSpec(generators=tuple(
            parse_expr(g, T) for g in ("z", "zeta1", "zeta2 + zeta1/z")))
        built = []

        class Spy(MembershipSearch):
            def __init__(self, K, tower, bounds):
                built.append(K)
                super().__init__(K, tower, bounds)

        monkeypatch.setattr(structure, "MembershipSearch", Spy)
        report = subfield_structure(K, T, Bounds(1, 1, 1, escalation=()))
        assert report.status == "resolved"
        assert tuple(g.expr for g in report.generators) == K.generators
        assert [g.derivative_witness for g in report.generators] == [
            parse_expr(d, T) for d in
            ("1", "1/z", "(-zeta1^2 + z + zeta1)/(z^2*zeta1)")]
        assert [g.membership_witness.expr for g in report.generators] \
            == [parse_expr(f"x{i}", ("x0", "x1", "x2")) for i in range(3)]
        assert [format_ratfun(w.expr) for w in report.input_witnesses] \
            == ["x0", "x1", "x2"]
        # one search in K and one over the final F*, none over an F*
        assert built == [K, SubfieldSpec(generators=K.generators)]


class CountingLinearField(LinearField):
    built = 0

    def __init__(self, tower, entries):
        CountingLinearField.built += 1
        super().__init__(tower, entries)


class TestOneOraclePerStep:
    @pytest.mark.parametrize("c", [-3, 0, 2])
    def test_subfield_structure(self, monkeypatch, c):
        # the structure workload's K = Q((zeta1 + c)/y) over log(y)
        v = ("z", "zeta1")
        T = tower_from_pairs([("zeta1", parse_expr("1/(z + 1)", v))])
        K = SubfieldSpec(generators=(
            (T.gen("zeta1") + RatFun.const(T.vars, c)) / parse_expr("z + 1", T),))
        monkeypatch.setattr(CountingLinearField, "built", 0)
        monkeypatch.setattr(structure, "LinearField", CountingLinearField)
        report = subfield_structure(K, T, SMALL)
        assert tuple(g.expr for g in report.generators) \
            == (T.gen("z"), T.gen("zeta1"))
        # one ascent step per generator, and the step that finds none
        assert CountingLinearField.built == len(report.generators) + 1

    def test_ostrowski_relation_uses_the_field_alone(self, monkeypatch):
        T = two_log_tower()
        ws = [T.gen("zeta1"), T.gen("zeta2"),
              parse_expr("zeta1 - 2*zeta2 + z^2", T)]
        monkeypatch.setattr(CountingLinearField, "built", 0)
        monkeypatch.setattr(structure, "LinearField", CountingLinearField)
        out = ostrowski_relation(ws, base_subfield(T), T)
        assert out == Relation(alpha=(1, -2, -1),
                               remainder=parse_expr("-z^2", T))
        assert CountingLinearField.built == 1

    def test_subfield_structure_differentiates_less(self, monkeypatch):
        # the search workload's K = Q((zeta1 + 2)/(z + 1)) over log(z + 1)
        from difftower.tower import Tower
        v = ("z", "zeta1")
        T = tower_from_pairs([("zeta1", parse_expr("1/(z + 1)", v))])
        K = SubfieldSpec(generators=(parse_expr("(zeta1 + 2)/(z + 1)", T),))
        calls = []
        real = Tower.differentiate
        monkeypatch.setattr(Tower, "differentiate",
                            lambda self, u: calls.append(u) or real(self, u))
        report = subfield_structure(K, T, SMALL)
        assert report.status == "resolved"
        # K's generator once per order of the one search in K (2), and z
        # and zeta1 once each as candidates
        assert len(calls) == 4

    @pytest.mark.parametrize("tower, gens", [
        # the search workload's K = Q((zeta1 + 2)/(z + 1)) over log(z + 1)
        (lambda: tower_from_pairs([("zeta1", parse_expr("1/(z + 1)",
                                                        ("z", "zeta1")))]),
         ["(zeta1 + 2)/(z + 1)"]),
        # zeta1 is outside F* in two ascent steps and misses membership in
        # both
        (two_log_tower, ["zeta2/z"]),
        (two_log_tower, ["zeta1 + zeta2"]),
    ])
    def test_subfield_structure_differentiates_each_candidate_once(
            self, monkeypatch, tower, gens):
        import sys
        from collections import Counter
        from difftower.tower import Tower
        T = tower()
        K = SubfieldSpec(generators=tuple(parse_expr(g, T) for g in gens))
        calls = Counter()   # the values subfield_structure differentiates
        real = Tower.differentiate

        def spy(self, u):
            if sys._getframe(1).f_code.co_name == "subfield_structure":
                calls[u] += 1
            return real(self, u)

        monkeypatch.setattr(Tower, "differentiate", spy)
        report = subfield_structure(K, T, SMALL)
        assert report.status == "resolved"
        assert T.gen("zeta1") in calls
        assert set(calls.values()) == {1}


# the search workload's K = Q((zeta1 + 2)/(z + 1)) over log(z + 1), and two
# K over the two-log tower in which zeta1 is outside F* in two ascent steps
ONE_SEARCH_CASES = [
    (lambda: tower_from_pairs([("zeta1", parse_expr("1/(z + 1)",
                                                    ("z", "zeta1")))]),
     ["(zeta1 + 2)/(z + 1)"]),
    (two_log_tower, ["zeta2/z"]),
    (two_log_tower, ["zeta1 + zeta2"]),
]


class TestOneSearchPerK:
    @pytest.mark.parametrize("tower, gens", ONE_SEARCH_CASES)
    def test_cleared_levels_once_per_order(self, monkeypatch, tower, gens):
        from collections import Counter
        T = tower()
        K = SubfieldSpec(generators=tuple(parse_expr(g, T) for g in gens))
        built = Counter()   # the value lists a level chain is built over
        real = ansatz._cleared_levels
        monkeypatch.setattr(ansatz, "_cleared_levels",
                            lambda v: built.update([tuple(v)]) or real(v))
        report = subfield_structure(K, T, SMALL)
        assert report.status == "resolved"
        assert tuple(K.generators) in built   # K's order-0 values
        assert set(built.values()) == {1}

    @pytest.mark.parametrize("tower, gens", ONE_SEARCH_CASES[1:])
    def test_each_candidate_searched_in_K_once(self, monkeypatch, tower,
                                               gens):
        T = tower()
        K = SubfieldSpec(generators=tuple(parse_expr(g, T) for g in gens))
        found = []   # (K searched, target)

        class Spy(MembershipSearch):
            def __init__(self, K, tower, bounds):
                super().__init__(K, tower, bounds)
                self.K = K

            def find(self, u):
                found.append((self.K, u))
                return super().find(u)

        steps = []   # (an ascent step's field, the target it is asked about)

        class FieldSpy(LinearField):
            def contains(self, u):
                steps.append((self, u))
                return super().contains(u)

        monkeypatch.setattr(structure, "MembershipSearch", Spy)
        monkeypatch.setattr(structure, "LinearField", FieldSpy)
        report = subfield_structure(K, T, SMALL)
        assert report.status == "resolved"
        zeta1 = T.gen("zeta1")
        # zeta1 meets an ascent step's field more than once...
        assert len({id(field) for field, u in steps if u == zeta1}) >= 2
        # ...but is searched in K once
        assert found.count((K, zeta1)) == 1

    def test_nonlinear_K_search_builds_its_closure_once(self, monkeypatch):
        from difftower.tower import Tower
        T = log_tower()
        K = SubfieldSpec(generators=(parse_expr("z^2", T),
                                     parse_expr("z^2*zeta1", T)))
        chains, calls = [], []
        closures, real = ansatz._closures, Tower.differentiate
        monkeypatch.setattr(ansatz, "_closures",
                            lambda *a: chains.append(a) or closures(*a))
        monkeypatch.setattr(Tower, "differentiate",
                            lambda self, u: calls.append(u) or real(self, u))
        search = MembershipSearch(K, T, SMALL)
        for text in ("zeta1", "z^4", "zeta1^2 + z^2", "zeta1/z^2", "z^6"):
            outcome = search.find(parse_expr(text, T))
            assert isinstance(outcome, Found)
            assert outcome.value.substituted() == parse_expr(text, T)
        assert len(chains) == 1
        # each generator at most once per derivative order of SMALL
        assert len(calls) <= len(K.generators) * SMALL.max_derivative_order
