"""Polynomial and rational-function arithmetic: canonical forms, gcd, division,
substitution."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from difftower.errors import (DiffTowerError, DivisionByZero,
                               ExponentOverflow, VariableMismatch,
                               ZeroDenominator)
from difftower import ratfun
from difftower.ansatz import _assemble_rows
from difftower.ratfun import (MPoly, RatFun, cleared_derivation,
                              monomial_keys, poly_gcd, poly_lcm)

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
        p = MPoly(V2, {(2, 0): 0, (1, 1): 3, (1, 0): Fraction(1, 2),
                       (0, 1): Fraction(0), (0, 0): -1})
        assert p.terms == {(1, 1): 3, (1, 0): Fraction(1, 2), (0, 0): -1}
        assert all(type(c) is Fraction for c in p.terms.values())

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

    def test_derivation_with_unit_images_is_partial(self):
        rng = random.Random(331)
        from difftower.randexpr import random_mpoly
        zero = MPoly.zero(V3)
        for _ in range(20):
            p = random_mpoly(rng, V3, max_deg=4)
            for i in range(len(V3)):
                unit = [MPoly.const(V3, int(j == i)) for j in range(len(V3))]
                assert _cleared(unit, zero)(p) == p.partial(i)
        ones = [MPoly.const(V3, 1)] * len(V3)
        assert _cleared(ones, zero)(MPoly.const(V3, 5)) == zero

    def test_try_divexact(self):
        p = P("x^2 - y^2")
        assert p.try_divexact(P("x + y")) == P("x - y")
        assert p.try_divexact(P("x + 1")) is None

    def test_eval(self):
        assert P("x^2 + y").eval_rat({"x": Fraction(2), "y": Fraction(1, 2)}) \
            == Fraction(9, 2)


# References on {exponent: Fraction} dicts, the coefficient semantics that
# the integer kernels must reproduce through MPoly.terms.

def _deglex(e):
    return (sum(e), e)


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_mul(p, q):
    """Schoolbook product on Fraction coefficients."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _nonzero(out)


def _ref_divmod_lead(p, q):
    """Deglex division by q's leading term on Fraction coefficients, while
    that term divides the remainder's: (quotient, remainder)."""
    quo, rem = {}, dict(p.terms)
    le_q = q.leading_exp()
    while rem:
        le = max(rem, key=_deglex)
        diff = tuple(a - b for a, b in zip(le, le_q))
        if min(diff, default=0) < 0:
            break
        c = rem[le] / q.terms[le_q]
        quo[diff] = c
        for e, v in q.terms.items():
            tgt = tuple(a + b for a, b in zip(e, diff))
            rem[tgt] = rem.get(tgt, Fraction(0)) - c * v
            if not rem[tgt]:
                del rem[tgt]
    return quo, rem


def _ref_divexact(p, q):
    """p / q on Fraction coefficients if exact, else None."""
    quo, rem = _ref_divmod_lead(p, q)
    return None if rem else quo


def _terms(p):
    return None if p is None else p.terms


def _stored(p):
    """p, after checking its stored form: ints / den with den > 0,
    gcd(den, *ints) = 1, no zero numerator, int keys that unpack to
    exponents of the right length and pack back unchanged (guard bits 0,
    the degree field the sum of the others) and a terms view on tuples."""
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.ints.values()) == 1
    assert all(type(c) is int and c for c in p.ints.values())
    n = len(p.vars)
    assert all(type(e) is int and _pack(ratfun._unpack(e, n), p.vars) == e
               for e in p.ints)
    assert all(type(e) is tuple and len(e) == n for e in p.terms)
    return p


def _pack(exp, variables=V2):
    return ratfun._pack(exp, variables)


def _packed(a, variables=V2):
    """A {exponent tuple: int} dict with packed keys."""
    return {_pack(e, variables): c for e, c in a.items()}


def _unpacked(a, variables=V2):
    return {ratfun._unpack(e, len(variables)): c for e, c in a.items()}


# small exponents and coefficients with mixed denominators
_mpolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(-20, 20, max_denominator=12), max_size=5,
).map(lambda terms: MPoly(V2, terms))


def _with_content(q, content, den):
    """q's primitive part times -content/den: its cleared numerators have
    integer content `content` and a negative leading coefficient."""
    return ratfun._primitive_scale(q).scale(Fraction(-content, den))


class TestIntegerKernels:
    """MPoly products and exact division, which run on cleared integer
    numerators, against schoolbook loops on Fractions."""

    @settings(max_examples=150, deadline=None)
    @given(_mpolys, _mpolys)
    # an empty operand on each side
    @example(MPoly.zero(V2), MPoly(V2, {(1, 0): Fraction(3, 4)}))
    @example(P("x - y/2"), MPoly.zero(V2))
    # a one-term left operand, and the same on the right (the swap)
    @example(P("3*x*y/4"), P("x^2 - y/6 + 2"))
    @example(P("x^2 - y/6 + 2"), P("-5*y^3/4"))
    # the general loop, where the two x*y products cancel
    @example(P("x - y"), P("x + y"))
    def test_mul_matches_fraction_loop(self, p, q):
        got = p * q
        assert got.terms == _ref_mul(p, q)
        assert all(type(c) is Fraction for c in got.terms.values())
        # the kernel itself, in both orders: the integer numerators over
        # p.den*q.den, with no zero coefficient
        want = {e: c * p.den * q.den for e, c in _ref_mul(p, q).items()}
        for a, b in [(p, q), (q, p)]:
            ints = ratfun._product(a.ints, b.ints, 2)
            assert _unpacked(ints) == want
            assert all(type(c) is int and c for c in ints.values())

    @settings(max_examples=150, deadline=None)
    @given(_mpolys, _mpolys, st.integers(1, 12), st.integers(1, 7))
    @example(MPoly.zero(V2), MPoly(V2, {(1, 0): Fraction(2, 3)}), 2, 5)
    def test_divexact_matches_fraction_loop(self, p, q, content, den):
        if q.is_zero():
            assert p.try_divexact(q) is None
            return
        q = _with_content(q, content, den)
        assert q.leading_coeff() < 0
        # exact: the quotient comes back whatever the divisor's content
        assert (p * q).try_divexact(q) == p
        assert _ref_divexact(p * q, q) == p.terms
        # p itself is usually not a multiple of q
        assert _terms(p.try_divexact(q)) == _ref_divexact(p, q)
        if not q.is_const():
            # q divides p*q but not the unit, so never p*q + 1
            a = p * q + MPoly.const(V2, 1)
            assert a.try_divexact(q) is None
            assert _ref_divexact(a, q) is None

    def test_divexact_not_divisible(self):
        # (x+1) / (2x+3): the leading quotient coefficient 1/2 leaves a
        # remainder once the divisor is primitive
        assert P("x + 1").try_divexact(P("2*x + 3")) is None
        assert P("x^2 - y^2").try_divexact(P("2*x + 2*y")) \
            == P("x - y").scale(Fraction(1, 2))
        assert P("y").try_divexact(P("-6*x - 4")) is None

    def test_integer_division_exits(self):
        b = _packed({(1, 0): 2, (0, 0): 3})  # 2x + 3, primitive
        quo, rem, s = ratfun._divide_lead(
            _packed({(2, 0): 4, (1, 0): 12, (0, 0): 9}), b, True)
        assert all(type(e) is int for e in quo)
        assert (_unpacked(quo), rem, s) == ({(1, 0): 2, (0, 0): 3}, {}, 1)
        assert ratfun._divide_lead({}, b, True) == ({}, {}, 1)
        # 1 = 0*2 + 1: the leading quotient coefficient is not an integer
        assert ratfun._divide_lead(
            _packed({(1, 0): 1, (0, 0): 1}), b, True) is None
        # y / x: the exponent difference goes negative
        assert ratfun._divide_lead(_packed({(0, 1): 1}), b, True) is None

    def test_lead_division_exits_or_scales(self):
        """The one kernel's two ways past a leading coefficient that lc(b)
        does not divide: exact gives up at once, otherwise quo and rem are
        scaled and s*a = quo*b + rem."""
        b = _packed({(1, 0): 2, (0, 0): 3})   # 2x + 3
        a = _packed({(2, 0): 1, (0, 1): 1})   # x^2 + y
        assert ratfun._divide_lead(a, b, True) is None
        quo, rem, s = ratfun._divide_lead(a, b, False)
        # 4*(x^2 + y) = (2x - 3)*(2x + 3) + 4y + 9
        assert (_unpacked(quo), _unpacked(rem), s) \
            == ({(1, 0): 2, (0, 0): -3}, {(0, 1): 4, (0, 0): 9}, 4)
        # a leading term that b's does not divide stops the division
        y = _packed({(0, 1): 1})
        assert ratfun._divide_lead(y, b, False) == ({}, y, 1)


def _cleared(images, shift):
    """cleared_derivation's map on polynomials, as Tower.cleared wraps it:
    the integer map of p, over d*den(p)."""
    derive, d = cleared_derivation(images, shift)
    return lambda p: MPoly._over(p.vars, derive(p.ints), d * p.den)


def _ref_cleared_derivation(p, images, shift):
    """sum_i dp/dx_i * images[i] - p*shift by MPoly partials, products and
    sums."""
    total = MPoly.zero(p.vars)
    for i, image in enumerate(images):
        total = total + p.partial(i) * image
    return total - p * shift


class TestClearedDerivation:
    """The integer map of cleared_derivation, over its one denominator d,
    against the same sum built from partials and products."""

    @settings(max_examples=150, deadline=None)
    @given(_mpolys, _mpolys, _mpolys, _mpolys)
    # unlike denominators, with and without a shift
    @example(P("x^2*y + 3*x"), P("x/2 + 1/3"), P("y^2/5 - x"), MPoly.zero(V2))
    @example(P("x^2*y + 3*x"), P("x/2 + 1/3"), P("y^2/5 - x"), P("x*y/7 + 1"))
    # a zero image, a zero p and a constant p
    @example(P("x^3*y^2 - y"), MPoly.zero(V2), P("x + y/3"), P("2*y"))
    @example(MPoly.zero(V2), P("x/3"), P("y/2"), P("x + 1"))
    @example(P("5/3"), P("x/3"), P("y/2"), P("x/4 + 1"))
    @example(P("5/3"), P("x/3"), P("y/2"), MPoly.zero(V2))
    def test_matches_partials_and_products(self, p, a, b, shift):
        derive, d = cleared_derivation([a, b], shift)
        assert d == lcm(a.den, b.den, shift.den)
        # p's integer map goes to d*den(p) times p's image, no zero stored
        got = derive(p.ints)
        assert all(type(c) is int and c for c in got.values())
        assert MPoly._over(V2, got, d * p.den) \
            == _ref_cleared_derivation(p, [a, b], shift)
        # the map keeps no state from one call to the next
        q = p + P("x*y")
        assert MPoly._over(V2, derive(q.ints), d * q.den) \
            == _ref_cleared_derivation(q, [a, b], shift)

    def test_foreign_variables_raise(self):
        # a p over other variables is caught where it is wrapped, in
        # Tower.cleared (tests/test_tower.py)
        images, zero = [P("x + 1"), P("y/2")], MPoly.zero(V2)
        with pytest.raises(VariableMismatch):
            cleared_derivation(images, P("w", V3))
        with pytest.raises(VariableMismatch):
            cleared_derivation([P("x"), P("v", ("x", "v"))], zero)


def _scatter(cols):
    """_assemble_rows's rows of integer columns over V2, keyed by exponent
    tuple: the rows come in ascending key order, one per key a column
    holds."""
    keys = sorted(set().union(*cols))
    rows = _assemble_rows(cols, 10 ** 6)
    assert len(rows) == len(keys)
    return {ratfun._unpack(e, 2): row for e, row in zip(keys, rows)}


def _entries(rows, col):
    """{exponent tuple: entry} of column col in _scatter's rows."""
    return {e: row[col] for e, row in rows.items() if col in row}


def _column(f, g):
    """The integer column of f*g: both put over one denominator d by
    common_ints, then one _product, so the column is d^2*f*g."""
    return ratfun._product(*ratfun.common_ints([f, g]), 2)


class TestScatterProduct:
    """A product of two polynomials put over one denominator by
    common_ints and multiplied by _product scatters into _assemble_rows's
    rows as one column, with every entry an integer and no zero entry."""

    @settings(max_examples=150, deadline=None)
    @given(_mpolys, _mpolys)
    @example(P("x - y"), P("x + y"))
    @example(P("x/2 + 1/3"), P("y/5 - x"))
    @example(P("3*x*y/4"), P("x^2 - y/6 + 2"))
    @example(MPoly.zero(V2), P("x + 1"))
    def test_matches_the_product(self, f, g):
        other = {key: 1 for key in P("x*y + x^2 + 1").ints}
        rows = _scatter([other, _column(f, g)])
        d = lcm(f.den, g.den)
        want = {e: c * d * d for e, c in _ref_mul(f, g).items()}
        assert _entries(rows, 1) == want
        assert all(type(v) is int and v for r in rows.values()
                   for v in r.values())
        # column 0 is untouched, and a row is new only where f*g is nonzero
        assert _entries(rows, 0) == _unpacked(other)
        assert rows.keys() - _unpacked(other).keys() <= want.keys()

    def test_cancellation_in_a_column_drops_the_entry(self):
        # (x - y)*(x + y): the two x*y products cancel
        col = _column(P("x - y"), P("x + y"))
        assert _unpacked(col) == {(2, 0): 1, (0, 2): -1}
        assert _scatter([col]).keys() == {(2, 0), (0, 2)}

    def test_a_cancelled_monomial_keeps_the_other_columns(self):
        rows = _scatter([_column(P("x"), P("y")),
                         _column(P("2*x + 2*y"), P("x - y"))])
        assert rows[(1, 1)] == {0: 1}
        assert _entries(rows, 1) == {(2, 0): 2, (0, 2): -2}
        # with no other column there, the cancelled x*y gets no row
        assert (1, 1) not in _scatter([_column(P("2*x + 2*y"), P("x - y"))])

    def test_denominators_on_both_factors(self):
        # common_ints puts f and g over lcm(6, 5) = 30, so the column is
        # 30^2 = 900 times f*g
        f, g = P("x/2 + 1/3"), P("y/5 - x")
        assert (f.den, g.den) == (6, 5)
        a, b = ratfun.common_ints([f, g])
        assert _unpacked(a) == {(1, 0): 15, (0, 0): 10}
        assert _unpacked(b) == {(0, 1): 6, (1, 0): -30}
        rows = _scatter([ratfun._product(a, b, 2)])
        assert _entries(rows, 0) == {
            e: c * 900 for e, c in (f * g).terms.items()}
        assert _entries(rows, 0) == {(1, 1): 90, (0, 1): 60,
                                     (2, 0): -450, (1, 0): -300}
        # a polynomial already over the lcm keeps its own numerators
        assert ratfun.common_ints([f, P("x/3")])[0] is f.ints

    def test_an_empty_factor_gives_an_empty_column(self):
        other = {key: 1 for key in P("x + 1").ints}
        for f, g in [(MPoly.zero(V2), P("x + 1")), (P("x/3 - y"),
                                                    MPoly.zero(V2))]:
            col = _column(f, g)
            assert col == {}
            assert _assemble_rows([col], 10) == []
            assert _entries(_scatter([col, other]), 0) == {}

    def test_overflow_where_the_product_overflows(self):
        x, y = MPoly.var(V2, "x"), MPoly.var(V2, "y")
        half = x ** 2 ** (W - 1)
        # total degree _LIMIT - 1 fits, _LIMIT spills
        fits, spills = y ** (2 ** (W - 1) - 1), y ** 2 ** (W - 1)
        assert (fits + y).total_degree() + half.total_degree() \
            == ratfun._LIMIT - 1
        # one term each, and a two-term f on either side of the kernel
        for f in (half, half + y):
            for g in (fits, fits + y):
                assert _entries(_scatter([_column(f, g)]), 0) \
                    == (f * g).terms
                assert _unpacked(ratfun._product(g.ints, f.ints, 2)) \
                    == (f * g).terms
            for g in (spills, spills + y):
                with pytest.raises(ExponentOverflow):
                    f * g
                with pytest.raises(ExponentOverflow):
                    _column(f, g)
                with pytest.raises(ExponentOverflow):
                    ratfun._product(g.ints, f.ints, 2)


class TestStoredForm:
    """Every MPoly an operation returns is in the stored form, and its terms
    view equals the Fraction reference."""

    @settings(max_examples=150, deadline=None)
    @given(_mpolys, _mpolys, st.fractions(-9, 9, max_denominator=8),
           st.integers(0, 1))
    @example(P("x/2 + y/3"), P("x/2 - y/3"), Fraction(-3, 2), 0)
    @example(P("2*x/3 + 4/3"), P("x + 2"), Fraction(6), 1)
    def test_operations_keep_the_form(self, p, q, c, i):
        a, b = _stored(p).terms, _stored(q).terms
        keys = a.keys() | b.keys()
        assert _stored(p + q).terms == _nonzero(
            {e: a.get(e, 0) + b.get(e, 0) for e in keys})
        assert _stored(p - q).terms == _nonzero(
            {e: a.get(e, 0) - b.get(e, 0) for e in keys})
        assert _stored(-p).terms == {e: -v for e, v in a.items()}
        assert _stored(p * q).terms == _ref_mul(p, q)
        assert _stored(p.scale(c)).terms == _nonzero(
            {e: c * v for e, v in a.items()})
        lead = a[max(a, key=_deglex)] if a else 1
        assert _stored(p.monic()).terms == {e: v / lead for e, v in a.items()}
        assert _stored(p.partial(i)).terms == {
            e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i]
            for e, v in a.items() if e[i]}
        g, pg, qg = map(_stored, poly_gcd(p, q))
        if not g.is_zero():
            assert g.leading_coeff() == 1
            assert _ref_mul(g, pg) == a and _ref_mul(g, qg) == b
        if q.is_zero():
            return
        quo, rem = p.divmod_lead(q)
        assert (_stored(quo).terms, _stored(rem).terms) \
            == _ref_divmod_lead(p, q)
        assert _terms(p.try_divexact(q)) == _ref_divexact(p, q)
        assert _stored((p * q).try_divexact(q)).terms == a


class TestNoFractionInKernels:
    """The integer kernels read the stored numerators and denominator
    directly: no operand is cleared again and no result term becomes a
    Fraction."""

    def test_mul_divexact_and_gcd_build_no_fraction(self, monkeypatch):
        f, g, h = P("x/2 + y/3"), P("3*x/4 - y/5 + 1/7"), P("x*y/6 - 2/9")
        fg, gh = f * g, g * h
        built = []

        class Counting(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return Fraction(*args, **kwargs)

        monkeypatch.setattr(ratfun, "Fraction", Counting)
        got = (f * g, fg.try_divexact(g), fg.try_divexact(h),
               poly_gcd(fg, gh))
        monkeypatch.undo()
        assert built == []
        lc = g.leading_coeff()
        assert got == (fg, f, None, (g.monic(), f.scale(lc), h.scale(lc)))

    def test_subtraction_builds_no_negated_copy(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("MPoly.__neg__ called")

        p, q, want = P("x/2 + y"), P("x/3 - y/5 + 1"), P("x/6 + 6*y/5 - 1")
        monkeypatch.setattr(MPoly, "__neg__", forbidden)
        assert p - q == want

    def test_one_representation(self):
        import ast
        from pathlib import Path
        assert MPoly.__slots__ == ("vars", "ints", "den")
        tree = ast.parse(Path(ratfun.__file__).read_text())
        assert "_cleared" not in {node.name for node in ast.walk(tree)
                                  if isinstance(node, ast.FunctionDef)}
        assert not hasattr(ratfun, "_cleared")


class TestDivmodLead:
    """MPoly.divmod_lead, the one division with remainder over Q."""

    @settings(max_examples=150, deadline=None)
    @given(_mpolys, _mpolys)
    @example(P("y^2 + x*y + x^2 + 1"), P("x*y + 1"))
    def test_quotient_and_remainder(self, p, d):
        if d.is_zero():
            with pytest.raises(DivisionByZero):
                p.divmod_lead(d)
            return
        q, r = p.divmod_lead(d)
        assert q * d + r == p
        # the division stops only at a leading term d's does not divide
        assert r.is_zero() or any(
            a < b for a, b in zip(r.leading_exp(), d.leading_exp()))

    def test_univariate_matches_sympy_div(self):
        sympy = pytest.importorskip("sympy")
        from difftower.randexpr import random_mpoly
        rng = random.Random(61)
        cases = [(P("x^3 + 1", ("x",)), P("7/2", ("x",))),
                 (P("x", ("x",)), P("x^2 + 1", ("x",)))]
        for _ in range(30):
            d = random_mpoly(rng, ("x",), max_deg=3)
            if not d.is_zero():
                cases.append((random_mpoly(rng, ("x",), max_deg=6,
                                           max_terms=6), d))
        for p, d in cases:
            q, r = p.divmod_lead(d)
            assert (_sympy_poly(q), _sympy_poly(r)) \
                == sympy.div(_sympy_poly(p), _sympy_poly(d))


class TestGcd:
    def test_univariate(self):
        assert poly_gcd(P("x^2 - 1"), P("x^2 - 2*x + 1")) \
            == (P("x - 1"), P("x + 1"), P("x - 1"))

    def test_multivariate(self):
        g = P("x + y")
        assert poly_gcd(g * P("x^2 + 3"), g * P("y - 1"))[0] == g

    def test_three_vars(self):
        g = P("x*w + y", V3)
        a = g * P("x + 1", V3)
        b = g * P("w^2 - y", V3)
        assert poly_gcd(a, b)[0] == g

    def test_coprime(self):
        got = poly_gcd(P("x + 1"), P("y + 1"))[0]
        assert got.is_const() and got.const_value() == 1
        # constant operands: the cofactors are the operands themselves
        one = MPoly.const(V2, 1)
        assert poly_gcd(P("2"), P("3")) == (one, P("2"), P("3"))
        assert poly_gcd(P("2"), P("x + 1")) == (one, P("2"), P("x + 1"))
        assert poly_gcd(P("x + 1"), P("3")) == (one, P("x + 1"), P("3"))

    def test_constant_operand_skips_the_monomial_scan(self, monkeypatch):
        one = MPoly.const(V2, 1)
        half, m, f = P("1/2"), P("-3*x^2*y"), P("x*y + 2*y^3 - 1/5")
        cases = [(half, P("-4")), (half, m), (m, half), (half, f), (f, half)]
        # the same results as the scan over every variable gives
        for p, q in cases:
            assert ratfun._monomial_gcd(p, q) == one
        calls = []
        _spy(monkeypatch, "_monomial_gcd", calls)
        for p, q in cases:
            g, pg, qg = poly_gcd(p, q)
            assert (g, pg, qg) == (one, p, q)
            assert pg is p and qg is q
        assert calls == []
        assert poly_gcd(m, P("x*y^3"))[0] == P("x*y")
        assert calls == [(m, P("x*y^3"))]

    def test_zero_cases(self):
        z = MPoly.zero(V2)
        two = MPoly.const(V2, 2)
        assert poly_gcd(z, P("2*x"))[0] == P("x")  # monic
        assert poly_gcd(z, P("2*x")) == (P("x"), z, two)
        assert poly_gcd(P("2*x"), z) == (P("x"), two, z)
        assert poly_gcd(z, two) == (MPoly.const(V2, 1), z, two)
        assert poly_gcd(z, z)[0].is_zero()
        assert poly_gcd(z, z) == (z, z, z)

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
        # contents in the main variable x that are not units
        pairs += _random_pairs(
            67, lambda free, full: (free() * full(), free() * full()),
            count=10)
        # whole triples (g, a/g, b/g), with and without GCDHEU
        expected = [poly_gcd(a, b) for a, b in pairs]
        assert all(g * ca == a and g * cb == b
                   for (a, b), (g, ca, cb) in zip(pairs, expected))
        prem_calls, contents = [], []
        _spy(monkeypatch, "_prem", prem_calls)
        _spy(monkeypatch, "_content_over", contents,
             lambda args, out: not out.is_const())
        monkeypatch.setattr(ratfun, "_heu_gcd", lambda p, q: None)
        assert [poly_gcd(a, b) for a, b in pairs] == expected
        assert len(prem_calls) >= 10
        assert contents

    def test_prs_fallback_runs_where_gcdheu_gives_up(self, monkeypatch):
        # b(2) is a nonzero multiple of xi - 2 at each of GCDHEU's six
        # points, so there gcd(a(xi), b(xi)) = xi - 2 lifts to x - 2, which
        # does not divide b: every point fails and the primitive PRS runs
        x = ("x",)
        big = 1000
        xi = 2 * big + 29   # the schedule of _heu_gcd_int; big is b's bound
        modulus = 1
        for _ in range(6):
            modulus = lcm(modulus, xi - 2)
            xi = xi * 73 // 32 + 31
        top = modulus.bit_length()
        low = -big * 2 ** top % modulus
        a = P("x - 2", x)
        b = MPoly(x, {(top,): big,
                      **{(j,): 1 for j in range(top) if low >> j & 1}})
        assert b.eval_rat({"x": 2}) % modulus == 0
        assert ratfun._heu_gcd(a, b) is None
        prem_calls = []
        _spy(monkeypatch, "_prem", prem_calls)
        assert poly_gcd(a, b) == (MPoly.const(x, 1), a, b)
        assert prem_calls
        _assert_sympy_gcd(a, b)

    def test_heu_gcd_discards_a_false_candidate(self, monkeypatch):
        # a lifted candidate that fails trial division is dropped and the
        # next evaluation point gives the gcd
        real = ratfun._lift_digits
        lifts = []

        def corrupt_first(gh, i, xi):
            g = real(gh, i, xi)
            lifts.append(xi)
            if len(lifts) == 1:
                assert all(type(e) is int for e in g)
                g = {**g, 0: g.get(0, 0) + 1}   # 0 is the constant's key
            return g

        monkeypatch.setattr(ratfun, "_lift_digits", corrupt_first)
        x = ("x",)
        g = P("x + 1", x)
        p, q = g * P("x - 2", x), g * P("x + 3", x)
        assert ratfun._heu_gcd(p, q) == (g, P("x - 2", x), P("x + 3", x))
        assert len(lifts) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_gcd_divides_both(self, seed):
        rng = random.Random(seed)
        from difftower.randexpr import random_mpoly
        a = random_mpoly(rng, V2, max_deg=3)
        b = random_mpoly(rng, V2, max_deg=3)
        g, ca, cb = poly_gcd(a, b)
        if not g.is_zero():
            assert a.try_divexact(g) is not None
            assert b.try_divexact(g) is not None
        assert (g * ca, g * cb) == (a, b)

    def test_reduction_divides_nothing_again(self, monkeypatch):
        # GCDHEU's accepted trial divisions give the cofactors, so cancelling
        # a nonconstant gcd runs no MPoly.try_divexact afterwards
        g, h = P("x*y + 3"), P("x + y^2 + 1")
        a, b = g * P("2*x - y^2"), g * P("x^2 + 3*y")
        assert ratfun._heu_gcd(a, b)[0] == g.monic()
        n2, d1 = h * P("y - 2"), h * P("x + 5")
        want_quotient = RatFun(P("2*x - y^2"), P("x^2 + 3*y"))
        want_product = RatFun(P("(2*x - y^2)*(y - 2)"),
                              P("(x + 5)*(x^2 + 3*y)"))
        calls = []
        real = MPoly.try_divexact

        def spy(self, other):
            calls.append(other)
            return real(self, other)

        monkeypatch.setattr(MPoly, "try_divexact", spy)
        assert RatFun(a, b) == want_quotient
        assert calls == []
        assert RatFun._reduced_product(a, d1, n2, b) == want_product
        assert calls == []


def _sympy_poly(p):
    sympy = pytest.importorskip("sympy")
    terms = {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *sympy.symbols(p.vars), domain="QQ")


def _assert_sympy_gcd(a, b):
    sympy = pytest.importorskip("sympy")
    ours, a_g, b_g = poly_gcd(a, b)
    theirs = sympy.gcd(_sympy_poly(a), _sympy_poly(b))
    # equal up to a rational constant
    assert _sympy_poly(ours).monic() == theirs.monic()
    # and the cofactors are exact
    assert ours * a_g == a and ours * b_g == b


def _spy(monkeypatch, name, record, keep=lambda args, out: True):
    real = getattr(ratfun, name)

    def wrapper(*args):
        out = real(*args)
        if keep(args, out):
            record.append(args)
        return out

    monkeypatch.setattr(ratfun, name, wrapper)


def _reaches_heu_gcd(monkeypatch, pairs):
    """Check poly_gcd against sympy.gcd on each pair in both argument
    orders.  A pair without a monomial operand must reach GCDHEU with its
    operands as given, and nothing else may; returns how many of the
    2 * len(pairs) calls did."""
    calls = []
    _spy(monkeypatch, "_heu_gcd", calls)
    reached = 0
    for a, b in pairs:
        for p, q in ((a, b), (b, a)):
            calls.clear()
            _assert_sympy_gcd(p, q)
            if len(p.terms) > 1 and len(q.terms) > 1:
                assert calls == [(p, q)]
                reached += 1
            else:
                assert calls == []
    return reached


def _random_pairs(seed, make, count=30):
    """Seeded pairs over ("y", "x") or ("y", "w", "x"): the main variable of
    poly_gcd is x.  make(free, full) returns one pair; free() draws a
    nonconstant polynomial without x, full() one of positive degree in x."""
    from difftower.randexpr import random_mpoly
    rng = random.Random(seed)

    def draw(variables, ok):
        while True:
            p = random_mpoly(rng, variables, max_deg=2)
            if ok(p):
                return p

    pairs = []
    for _ in range(count):
        variables = ("y", "w", "x")[-rng.randint(2, 3):]
        x = len(variables) - 1
        pairs.append(make(
            lambda: draw(variables, lambda p: not p.is_const()
                         and p.degree_in(x) == 0),
            lambda: draw(variables, lambda p: p.degree_in(x) > 0)))
    return pairs


class TestGcdOracle:
    """poly_gcd against sympy.gcd, on pairs that reach each of its branches."""

    def test_one_side_free_of_main_variable(self, monkeypatch):
        V = ("y", "x")
        pairs = [(P("(y+1)*x + (y+1)", V), P("(y+1)*(y-2)", V))]
        pairs += _random_pairs(
            31, lambda free, full: (free() * full(), free() * free()))
        assert _reaches_heu_gcd(monkeypatch, pairs) >= len(pairs)

    def test_coprime_with_content(self, monkeypatch):
        V = ("y", "x")
        a, b = P("(y+1)*(x+1)", V), P("(y+1)*(x+2)", V)
        assert poly_gcd(a, b)[0] == P("y + 1", V)
        pairs = [(a, b)] + _random_pairs(
            37, lambda free, full: (free() * full(), free() * full()))
        assert _reaches_heu_gcd(monkeypatch, pairs) >= len(pairs)

    def test_equal_up_to_scalar(self, monkeypatch):
        deeper = []
        for name in ("_monomial_gcd", "_heu_gcd"):
            _spy(monkeypatch, name, deeper)
        pairs = _random_pairs(
            41, lambda free, full: (full(), None))
        for a, _ in pairs:
            b = a.scale(Fraction(-7, 3))
            assert poly_gcd(a, b)[0] == a.monic()
            _assert_sympy_gcd(a, b)
        assert deeper == []

    def test_heu_gcd_rational_operands(self):
        # GCDHEU clears the denominators of non-primitive rational input
        sympy = pytest.importorskip("sympy")
        from difftower.randexpr import random_mpoly
        rng = random.Random(53)
        for _ in range(25):
            variables = V3[:rng.randint(1, 3)]
            g, a, b = (random_mpoly(rng, variables, max_deg=2)
                       for _ in range(3))
            p = (g * a).scale(Fraction(-9, 4))
            q = (g * b).scale(Fraction(15, 7))
            if p.is_zero() or q.is_zero():
                continue
            got = ratfun._heu_gcd(p, q)
            assert got is not None
            h, p_h, q_h = got
            theirs = sympy.gcd(_sympy_poly(p), _sympy_poly(q))
            assert _sympy_poly(h).monic() == theirs.monic()
            assert h * p_h == p and h * q_h == q

    def test_poly_gcd_hands_heu_gcd_its_operands(self, monkeypatch):
        calls = []
        _spy(monkeypatch, "_heu_gcd", calls)
        g = P("x*y + 3")
        p = (g * P("2*x - y^2")).scale(Fraction(-5, 6))
        q = (g * P("x^2 + 3*y")).scale(Fraction(4, 9))
        assert poly_gcd(p, q)[0] == g.monic()
        assert calls == [(p, q)]

    def test_lcm_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        pairs = _random_pairs(43, lambda free, full: (
            free() * full(), full() * full()), count=20)
        for a, b in pairs:
            ours = poly_lcm(a, b)
            theirs = sympy.lcm(_sympy_poly(a), _sympy_poly(b))
            assert _sympy_poly(ours).monic() == theirs.monic()

    def test_canonical_form_matches_cancel(self):
        sympy = pytest.importorskip("sympy")

        def shared(free, full):
            c = full()
            return full() * c, free() * full() * c

        pairs = (_random_pairs(47, shared, count=15)
                 + _random_pairs(59, lambda free, full: (
                     free() * full(), full()), count=15))
        for a, b in pairs:
            u = RatFun(a, b)
            num, den = _sympy_poly(u.num), _sympy_poly(u.den)
            n, d = sympy.fraction(sympy.cancel(
                _sympy_poly(a).as_expr() / _sympy_poly(b).as_expr()))
            n = sympy.Poly(n, *num.gens, domain="QQ")
            d = sympy.Poly(d, *num.gens, domain="QQ")
            # reduced forms agree up to one constant; ours has a monic den
            assert den.monic() == d.monic()
            assert num * d == n * den
            assert u.den.leading_coeff() == 1


    def test_three_and_four_variables_reach_both_certificate_branches(
            self, monkeypatch):
        # wide coefficients put the two-variable level's points above the
        # prime, so its univariate images meet the modular certificate;
        # coprime pairs mostly pass it, shared factors never do
        certified = []
        real = ratfun._coprime_mod_p

        def spy(a, b):
            out = real(a, b)
            certified.append(out)
            return out

        monkeypatch.setattr(ratfun, "_coprime_mod_p", spy)
        rng = random.Random(71)
        for variables in (V3, V3 + ("v",)):
            for shared in (False, True):
                for _ in range(10):
                    a, b, g = (_wide_mpoly(rng, variables) for _ in range(3))
                    if shared:
                        a, b = a * g, b * g
                    if len(a.ints) > 1 and len(b.ints) > 1:
                        _assert_sympy_gcd(a, b)
        assert True in certified and False in certified


def _wide_mpoly(rng, variables, max_deg=3, terms=4, span=10 ** 4):
    """A seeded integer polynomial with coefficients up to span."""
    out = {}
    for _ in range(terms):
        exp = [0] * len(variables)
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(len(variables))] += 1
        out[tuple(exp)] = rng.randint(-span, span)
    return MPoly(variables, out)


# -- the modular coprimality certificate of GCDHEU ----------------------------

_PRIME = ratfun._P
_Y = ("y",)
_huge = st.integers(-2 ** 1100, 2 ** 1100).filter(
    lambda c: abs(c) >= 2 ** 1000)


def _uni(coeffs):
    """The integer map of sum(coeffs[k] * y**k) over ("y",)."""
    return MPoly(_Y, {(k,): c for k, c in enumerate(coeffs)}).ints


def _coeffs(min_deg, elements=st.integers(-10 ** 6, 10 ** 6)):
    """Coefficient lists, the constant first, of degree min_deg to 4."""
    return st.lists(elements, min_size=min_deg + 1, max_size=5).filter(
        lambda c: c[-1] != 0)


def _times_linear(coeffs, root):
    """coeffs times (y - root), both constant first."""
    out = [0] + coeffs
    for k, c in enumerate(coeffs):
        out[k] -= root * c
    return out


class TestCoprimeModP:
    """ratfun._coprime_mod_p: Euclid over GF(p) on univariate images, which
    GCDHEU takes as proof of gcd 1 over Q."""

    @settings(max_examples=100, deadline=None)
    @given(_coeffs(1, st.one_of(_huge, st.integers(-9, 9))), _coeffs(0),
           _coeffs(0, _huge))
    @example([-1, 1], [_PRIME, 1], [-_PRIME, 1])
    def test_never_certifies_a_planted_common_factor(self, g, h1, h2):
        g = _uni(g)
        a, b = (ratfun._product(g, _uni(h), 1) for h in (h1, h2))
        assert not ratfun._coprime_mod_p(a, b)

    @settings(max_examples=100, deadline=None)
    @given(_coeffs(0, _huge), st.integers(-2 ** 64, 2 ** 64).filter(bool),
           _coeffs(1))
    def test_refuses_when_p_divides_the_leading_coefficient(self, low, k, b):
        a = _uni(low + [k * _PRIME])
        assert not ratfun._coprime_mod_p(a, _uni(b))

    def test_the_leading_coefficient_check_is_needed(self):
        # a and b share p*y + 1, which is the unit 1 mod p: their images
        # mod p are y + 2 and y + 3, coprime, yet gcd(a, b) is not 1
        a = _uni(_times_linear([1, _PRIME], -2))
        b = _uni(_times_linear([1, _PRIME], -3))
        assert not ratfun._coprime_mod_p(a, b)
        assert ratfun._heu_gcd_int(a, b)[0] == _uni([1, _PRIME])
        # with the leading coefficients reduced first, Euclid says 1
        assert ratfun._coprime_mod_p(_uni([2, 1]), _uni([3, 1]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, _PRIME - 1), min_size=2, max_size=6,
                    unique=True),
           st.integers(1, 5), st.integers(1, _PRIME - 1),
           st.integers(1, _PRIME - 1), st.lists(_huge, min_size=12,
                                                max_size=12))
    def test_certifies_coprime_pairs_with_huge_coefficients(
            self, roots, split, lead_a, lead_b, lifts):
        # a = lead_a * prod(y - r) and b = lead_b * prod(y - s) over
        # disjoint roots mod p, each coefficient moved by p times a
        # 1000-bit or larger integer: coprime mod p with lc(a) != 0 there
        split = min(split, len(roots) - 1)
        a0, b0 = [lead_a], [lead_b]
        for r in roots[:split]:
            a0 = _times_linear(a0, r)
        for s in roots[split:]:
            b0 = _times_linear(b0, s)
        a = [c + _PRIME * lifts.pop() for c in a0]
        b = [c + _PRIME * lifts.pop() for c in b0]
        assert all(abs(c) >= 2 ** 1000 for c in a + b)
        assert ratfun._coprime_mod_p(_uni(a), _uni(b))

    def test_certified_pairs_are_coprime_over_q(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(89)
        y = sympy.Symbol("y")
        checked = 0
        while checked < 20:
            a, b = ([rng.randint(-2 ** 1000, 2 ** 1000)
                     for _ in range(rng.randint(2, 5))] for _ in range(2))
            if ratfun._coprime_mod_p(_uni(a), _uni(b)):
                checked += 1
                pa, pb = (sympy.Poly(c[::-1], y) for c in (a, b))
                assert sympy.gcd(pa, pb).degree() == 0

    def test_only_a_must_keep_its_degree_mod_p(self):
        # b = p*y**2 + y + 2 is y + 2 mod p, coprime to y + 1 over Q too
        assert ratfun._coprime_mod_p(_uni([1, 1]), _uni([2, 1, _PRIME]))
        # b = p*(y + 1) is 0 mod p, so the gcd mod p is y + 1 itself
        assert not ratfun._coprime_mod_p(_uni([1, 1]),
                                         _uni([_PRIME, _PRIME]))

    def test_needs_exactly_one_variable(self):
        # constants and two-variable maps are left to the recursion
        assert not ratfun._coprime_mod_p({0: 3}, {0: 5})
        assert not ratfun._coprime_mod_p(P("x + 1").ints, P("y + 2").ints)
        assert ratfun._coprime_mod_p(P("x + 1").ints, P("x + 2").ints)
        assert ratfun._coprime_mod_p(P("y + 1").ints, {0: 5})


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

    def test_power_needs_no_gcd(self, monkeypatch):
        # num**k / den**k of a reduced pair is reduced and den**k is monic;
        # a negative power only rescales num**-k to a monic denominator
        rng = random.Random(61)
        from difftower.randexpr import random_ratfun
        samples = [random_ratfun(rng, V2, max_deg=2) for _ in range(20)]
        want = {(u, k): RatFun(u.num ** k, u.den ** k) if k >= 0
                else RatFun(u.den ** -k, u.num ** -k)
                for u in samples for k in (0, 1, 3, -1, -2)
                if k >= 0 or not u.is_zero()}
        calls = []
        _spy(monkeypatch, "poly_gcd", calls)
        for (u, k), w in want.items():
            got = u ** k
            assert (got.num, got.den) == (w.num, w.den)
            assert got.den.leading_coeff() == 1
        assert calls == []
        with pytest.raises(DivisionByZero):
            RatFun.const(V2, 0) ** -1

    def test_scale_keeps_the_reduced_form(self, monkeypatch):
        rng = random.Random(53)
        from difftower.randexpr import random_ratfun
        samples = [random_ratfun(rng, V2, max_deg=3) for _ in range(20)]
        calls = []
        _spy(monkeypatch, "poly_gcd", calls)
        for u in samples:
            for c in (Fraction(-3, 7), 2, Fraction(1, 5)):
                got = u.scale(c)
                assert not calls
                assert got == RatFun(u.num.scale(c), u.den)
                calls.clear()
            zero = u.scale(0)
            assert not calls
            assert zero == RatFun.const(V2, 0)
            assert zero.den == MPoly.const(V2, 1)

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


def _reference_substitute(u, mapping, target_vars):
    """The term-by-term substitution the library used before the cleared
    one, kept as a reference: each term of num and den is a chain of RatFun
    products over cached powers of the images, the terms are added as
    RatFuns, and the numerator's image is divided by the denominator's."""
    target_vars = tuple(target_vars)

    def poly(p):
        images = {}
        for name in p.vars:
            if name in mapping:
                images[name] = mapping[name]
            else:
                images[name] = RatFun.var(target_vars, name)
        total = RatFun.const(target_vars, 0)
        powers = {name: [RatFun.const(target_vars, 1)] for name in p.vars}
        for e, c in p.sorted_terms():
            term = RatFun.const(target_vars, c)
            for i, k in enumerate(e):
                if k:
                    name = p.vars[i]
                    cache = powers[name]
                    while len(cache) <= k:
                        cache.append(cache[-1] * images[name])
                    term = term * cache[k]
            total = total + term
        return total

    return poly(u.num) / poly(u.den)


def _substitution_cases(seed, count):
    """Seeded (u, mapping, target_vars, kinds): u over V2 or V3; each of its
    variables maps to a RatFun with a nonconstant denominator, a constant,
    zero, or is left unmapped, in which case target_vars (a superset of u's
    variables, sometimes with an extra one) holds it."""
    from difftower.randexpr import random_fraction, random_ratfun
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        variables = (V2, V3)[rng.randrange(2)]
        target = variables + ("t",) * rng.randrange(2)
        u = random_ratfun(rng, variables, max_deg=3)
        mapping, kinds = {}, []
        for name in variables:
            kind = rng.choice(("ratfun", "ratfun", "const", "zero", "unmapped"))
            if kind == "ratfun":
                image = random_ratfun(rng, target, max_deg=2, max_terms=3)
                while image.den.is_const():
                    image = random_ratfun(rng, target, max_deg=2, max_terms=3)
                mapping[name] = image
            elif kind == "const":
                mapping[name] = RatFun.const(target, random_fraction(rng))
            elif kind == "zero":
                mapping[name] = RatFun.const(target, 0)
            kinds.append(kind)
        cases.append((u, mapping, target, kinds))
    return cases


def _outcome(substitute, u, mapping, target):
    try:
        return substitute(u, mapping, target)
    except DivisionByZero as exc:
        return DivisionByZero, str(exc)


def _sympy_ratfun(u):
    return _sympy_poly(u.num).as_expr() / _sympy_poly(u.den).as_expr()


class TestSubstitute:
    def test_matches_reference(self):
        cases = _substitution_cases(61, 240)
        seen = {kind for *_, kinds in cases for kind in kinds}
        assert seen == {"ratfun", "const", "zero", "unmapped"}
        errors = 0
        for u, mapping, target, _ in cases:
            got = _outcome(RatFun.substitute, u, mapping, target)
            assert got == _outcome(_reference_substitute, u, mapping, target)
            if isinstance(got, RatFun):
                assert got.vars == target
                _stored(got.num), _stored(got.den)
            else:
                errors += 1
        # the zero images make some denominators vanish, not most
        assert 0 < errors < len(cases) // 4

    @settings(max_examples=60, deadline=None)
    @given(_mpolys, _mpolys, _mpolys, _mpolys)
    @example(P("x*y + 1"), P("x - y"), P("2*y"), MPoly.zero(V2))
    def test_random_images_match_reference(self, num, den, image, image_den):
        # x maps to image/image_den (or to the polynomial image), y is left
        # unmapped; the reference walks the tuple exponents of sorted_terms
        if den.is_zero():
            return
        u = RatFun(num, den)
        x = (RatFun.from_poly(image) if image_den.is_zero()
             else RatFun(image, image_den))
        got = _outcome(RatFun.substitute, u, {"x": x}, V2)
        assert got == _outcome(_reference_substitute, u, {"x": x}, V2)
        if isinstance(got, RatFun):
            _stored(got.num), _stored(got.den)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        checked = 0
        for u, mapping, target, _ in _substitution_cases(67, 24):
            got = _outcome(RatFun.substitute, u, mapping, target)
            if not isinstance(got, RatFun):
                continue
            images = {sympy.Symbol(name): _sympy_ratfun(image)
                      for name, image in mapping.items()}
            theirs = sympy.cancel(
                _sympy_ratfun(u).subs(images, simultaneous=True))
            assert sympy.cancel(theirs - _sympy_ratfun(got)) == 0
            checked += 1
        assert checked >= 18

    def test_exact_cases(self):
        with pytest.raises(DivisionByZero, match="division by the zero function"):
            R("1/(x - y)").substitute({"x": R("y")}, V2)
        got = R("x/y").substitute({}, V3)
        assert got.vars == V3 and got == R("x/y", V3)
        with pytest.raises(ValueError):
            # y is unmapped and target_vars does not hold it
            R("x/y").substitute({"x": R("x", ("x",))}, ("x",))
        # an image over other variables than target_vars, in either order
        for target in [V3, ("y", "x")]:
            with pytest.raises(VariableMismatch):
                R("x/y").substitute({"x": R("x + 1")}, target)
        # an image for a variable the function does not use is not read
        assert R("y").substitute({"x": R("w", V3)}, V2) == R("y")

    def test_no_ratfun_arithmetic_and_one_reduction(self, monkeypatch):
        cases = _substitution_cases(71, 30)
        reductions = []
        init = RatFun.__init__

        def counting_init(self, num, den, _canonical=False):
            if not _canonical:
                reductions.append(num)
            init(self, num, den, _canonical)

        def forbidden(*args):
            raise AssertionError("substitute used RatFun arithmetic")

        for name in ("__add__", "__mul__", "__truediv__"):
            monkeypatch.setattr(RatFun, name, forbidden)
        monkeypatch.setattr(RatFun, "__init__", counting_init)
        for u, mapping, target, _ in cases:
            reductions.clear()
            got = _outcome(RatFun.substitute, u, mapping, target)
            assert len(reductions) == (1 if isinstance(got, RatFun) else 0)

    def test_one_substitution(self):
        import ast
        from pathlib import Path
        assert not hasattr(MPoly, "substitute")
        src = Path(ratfun.__file__).parent
        defs = [path.name for path in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef)
                and node.name == "substitute"]
        assert defs == ["ratfun.py"]


# -- packed exponent keys ----------------------------------------------------

W = ratfun._W
_MAX = 2 ** W - 1   # the largest total degree a key holds


@st.composite
def _exponents(draw, n=3):
    """Exponent tuples whose total degree fits the field width, often at
    its edge."""
    left = draw(st.sampled_from([4, _MAX]))
    exp = []
    for _ in range(n):
        k = draw(st.one_of(st.integers(0, left), st.just(left),
                           st.just(0)))
        exp.append(k)
        left -= k
    return tuple(draw(st.permutations(exp)))


_small_exps = st.tuples(*[st.integers(0, 4)] * 3)
_mpolys3 = st.dictionaries(
    _small_exps, st.fractions(-20, 20, max_denominator=12), max_size=5,
).map(lambda terms: MPoly(V3, terms))
_int_polys3 = st.dictionaries(
    _small_exps, st.integers(-40, 40).filter(bool), min_size=1, max_size=6)


def _ref_eval_var(a, i, xi):
    """Tuple-keyed integer polynomial a with exponent i set to xi."""
    out = {}
    for e, c in a.items():
        key = e[:i] + (0,) + e[i + 1:]
        out[key] = out.get(key, 0) + c * xi ** e[i]
    return {e: c for e, c in out.items() if c}


def _ref_lift(gh, i, xi):
    """Balanced base-xi digits of each coefficient as the coefficients of
    vars[i]^0, vars[i]^1, ..., on tuple keys."""
    out = {}
    for e, c in gh.items():
        k = 0
        while c:
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                out[e[:i] + (k,) + e[i + 1:]] = d
            c = (c - d) // xi
            k += 1
    return out


def _ref_content_over(p, kept):
    """_content_over on tuple keys: the terms grouped by the exponents
    outside kept, the monic gcd folded over the groups."""
    groups = {}
    for e, c in p.terms.items():
        outer = tuple(0 if i in kept else k for i, k in enumerate(e))
        inner = tuple(k if i in kept else 0 for i, k in enumerate(e))
        groups.setdefault(outer, {})[inner] = c
    cont = MPoly.zero(p.vars)
    for terms in groups.values():
        cont = poly_gcd(cont, MPoly(p.vars, terms))[0]
    return cont


def _ref_eval(p, point):
    total = Fraction(0)
    for e, c in p.terms.items():
        for name, k in zip(p.vars, e):
            c *= Fraction(point[name]) ** k
        total += c
    return total


class TestPackedKeys:
    """Packed exponent keys and the kernels that read them, against
    tuple-keyed references."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_exponents(), min_size=1, max_size=8))
    @example([(_MAX, 0, 0), (0, 0, _MAX), (0, _MAX, 0), (_MAX - 1, 1, 0)])
    def test_key_order_is_deglex_order(self, exps):
        keys = [_pack(e, V3) for e in exps]
        assert [ratfun._unpack(k, 3) for k in keys] == exps
        assert all(k & ratfun._guards(k) == 0 for k in keys)
        assert sorted(keys) == [_pack(e, V3) for e in sorted(exps, key=_deglex)]
        for e1, k1 in zip(exps, keys):
            for e2, k2 in zip(exps, keys):
                assert (k1 < k2) == (_deglex(e1) < _deglex(e2))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_exponents(), max_size=8))
    def test_monomial_keys_are_the_monomials_keys(self, exps):
        assert monomial_keys(V3, exps) \
            == [k for e in exps for k in MPoly.monomial(V3, e).ints]
        with pytest.raises(VariableMismatch):
            monomial_keys(V2, exps + [(0, 0, 0)])

    @settings(max_examples=200, deadline=None)
    @given(_exponents(), _exponents())
    @example((_MAX, 0, 0), (_MAX - 1, 0, 0))
    @example((0, _MAX, 0), (0, _MAX - 1, 1))
    def test_monomial_division_at_the_field_edge(self, a, b):
        # one guard-masked subtraction decides divisibility, with no borrow
        # from a field that is short into its neighbour
        got = ratfun._divide_lead({_pack(a, V3): 3}, {_pack(b, V3): 1}, True)
        if all(i >= j for i, j in zip(a, b)):
            diff = tuple(i - j for i, j in zip(a, b))
            assert got == ({_pack(diff, V3): 3}, {}, 1)
        else:
            assert got is None

    @settings(max_examples=150, deadline=None)
    @given(_mpolys3, _mpolys3, st.integers(0, 2), st.integers(0, 4))
    @example(MPoly.zero(V3), MPoly.const(V3, 2), 1, 0)
    def test_polynomial_kernels_match_tuple_reference(self, p, q, i, k):
        a, b = _stored(p).terms, q.terms
        keys = a.keys() | b.keys()
        assert _stored(p + q).terms == _nonzero(
            {e: a.get(e, 0) + b.get(e, 0) for e in keys})
        assert _stored(p - q).terms == _nonzero(
            {e: a.get(e, 0) - b.get(e, 0) for e in keys})
        assert _stored(p * q).terms == _ref_mul(p, q)
        assert _stored(p.partial(i)).terms == {
            e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i]
            for e, v in a.items() if e[i]}
        assert _stored(p.coeff_in(i, k)).terms == {
            e[:i] + (0,) + e[i + 1:]: v for e, v in a.items() if e[i] == k}
        assert _stored(p.shift_var(i, k)).terms == {
            e[:i] + (e[i] + k,) + e[i + 1:]: v for e, v in a.items()}
        assert p.degree_in(i) == max((e[i] for e in a), default=-1)
        assert p.total_degree() == max(map(sum, a), default=-1)
        assert p.used_indices() == {j for e in a for j, m in enumerate(e) if m}
        assert p.is_const() == all(not any(e) for e in a)
        if a:
            assert p.leading_exp() == max(a, key=_deglex)
        assert p.sorted_terms() == sorted(a.items(), key=lambda t: _deglex(t[0]),
                                          reverse=True)
        if not q.is_zero():
            quo, rem = p.divmod_lead(q)
            assert (_stored(quo).terms, _stored(rem).terms) \
                == _ref_divmod_lead(p, q)
            assert _terms(p.try_divexact(q)) == _ref_divexact(p, q)
            assert (p * q).try_divexact(q) == p

    @settings(max_examples=100, deadline=None)
    @given(_mpolys3, st.permutations(("t",) + V3))
    def test_extend_vars_matches_tuple_reference(self, p, target):
        got = RatFun.from_poly(p).extend_vars(target)
        pos = [V3.index(name) if name in V3 else None for name in target]
        assert _stored(got.num).terms == {
            tuple(0 if j is None else e[j] for j in pos): v
            for e, v in p.terms.items()}
        assert got.den == MPoly.const(tuple(target), 1)

    @settings(max_examples=100, deadline=None)
    @given(_mpolys3, _small_exps, st.sets(st.integers(0, 2)))
    @example(P("x*y + x^2*w", V3), (0, 1, 2), {0})
    def test_content_and_monomial_gcd_match_tuple_reference(self, p, m, kept):
        assert ratfun._content_over(p, kept) == _ref_content_over(p, kept)
        if not p.is_zero():
            got = ratfun._monomial_gcd(p, MPoly(V3, {m: 1}))
            least = tuple(map(min, m, *p.terms))
            assert _stored(got).terms == {least: 1}

    @settings(max_examples=150, deadline=None)
    @given(_int_polys3, st.integers(0, 2), st.integers(3, 10 ** 6))
    @example({(0, 0, 0): -5}, 2, 3)
    def test_eval_and_lift_match_tuple_reference(self, a, i, xi):
        x = ratfun._unit(3, i)[1]
        assert x == _pack(tuple(int(j == i) for j in range(3)), V3)
        got = ratfun._eval_var_int(_packed(a, V3), x, xi)
        want = _ref_eval_var(a, i, xi)
        assert _unpacked(got, V3) == want
        lifted = ratfun._lift_digits(got, x, xi)
        assert _unpacked(lifted, V3) == _ref_lift(want, i, xi)
        # balanced digits evaluate back to what they were read from
        assert ratfun._eval_var_int(lifted, x, xi) == got

    @settings(max_examples=150, deadline=None)
    @given(_mpolys3, st.tuples(*[st.fractions(-7, 7, max_denominator=9)] * 3))
    @example(MPoly.zero(V3), (Fraction(0),) * 3)
    @example(MPoly.const(V3, Fraction(-5, 3)), (Fraction(0),) * 3)
    @example(P("x^3*y - w/2 + 1", V3), (Fraction(-2, 3), 0, Fraction(-1)))
    def test_eval_rat_matches_fraction_loop(self, p, xs):
        point = dict(zip(V3, xs))
        got = p.eval_rat(point)
        assert type(got) is Fraction and got == _ref_eval(p, point)

    def test_eval_rat_reads_only_used_variables(self):
        assert P("x^2 + 1", V3).eval_rat({"x": Fraction(-1, 2)}) \
            == Fraction(5, 4)


class TestExponentWidth:
    """A total degree of 2**W or more raises instead of spilling into the
    next field."""

    def test_constructor(self):
        assert issubclass(ExponentOverflow, DiffTowerError)
        for exp in [(2 ** W, 0), (2 ** (W - 1), 2 ** (W - 1)), (-1, 2)]:
            with pytest.raises(ExponentOverflow):
                MPoly(V2, {exp: 1})
        with pytest.raises(ExponentOverflow):
            MPoly.monomial(V2, (0, 2 ** W))
        with pytest.raises(ExponentOverflow):
            monomial_keys(V2, [(1, 1), (0, 2 ** W)])
        assert MPoly(V2, {(_MAX, 0): 1}).leading_exp() == (_MAX, 0)

    def test_product(self):
        x, y = MPoly.var(V2, "x"), MPoly.var(V2, "y")
        half = x ** 2 ** (W - 1)
        assert half.terms == {(2 ** (W - 1), 0): 1}
        with pytest.raises(ExponentOverflow):
            half * half
        assert (half * y ** (2 ** (W - 1) - 1)).terms \
            == {(2 ** (W - 1), 2 ** (W - 1) - 1): 1}

    def test_cleared_derivation(self):
        """Through the integer entry solve_first_order calls, a monomial's
        key with a scale: an image of total degree 2**W raises, one of
        2**W - 1 is built."""
        x, y = MPoly.var(V2, "x"), MPoly.var(V2, "y")
        zero = MPoly.zero(V2)

        def column(images, shift, exp):
            derive, _ = cleared_derivation(images, shift)
            key, = monomial_keys(V2, [exp])
            return MPoly._over(V2, derive({key: 3})).terms

        # d(x^MAX)/dx * x^2 and x^MAX * y have total degree MAX + 1 = 2**W
        with pytest.raises(ExponentOverflow):
            column([x * x, y], zero, (_MAX, 0))
        with pytest.raises(ExponentOverflow):
            column([y, y], y, (_MAX, 0))
        assert column([x, y], zero, (_MAX, 0)) == {(_MAX, 0): 3 * _MAX}
        assert column([y, y], y, (_MAX - 1, 0)) \
            == {(_MAX - 2, 1): 3 * (_MAX - 1), (_MAX - 1, 1): -3}

    def test_power_and_shift(self):
        x = MPoly.var(V2, "x")
        # refused before any product is formed
        with pytest.raises(ExponentOverflow):
            (x + MPoly.const(V2, 1)) ** 2 ** W
        with pytest.raises(ExponentOverflow):
            x.shift_var(1, _MAX)
        assert x.shift_var(1, _MAX - 1).terms == {(1, _MAX - 1): 1}
        with pytest.raises(ValueError):
            x.shift_var(0, -1)


class TestGuards:
    """The error and edge branches of ratfun that no other test runs."""

    def test_mpoly_edges(self):
        assert MPoly.zero(V2).const_value() == 0
        with pytest.raises(ValueError):
            P("x + 1").const_value()
        with pytest.raises(ValueError):
            MPoly.zero(V2).leading_exp()
        assert P("x*y + 1").scale(0) == MPoly.zero(V2)
        with pytest.raises(ValueError):
            P("x") ** -1

    def test_mismatched_variables(self):
        p, q = P("x"), P("x", V3)
        with pytest.raises(VariableMismatch):
            p + q
        with pytest.raises(VariableMismatch):
            poly_gcd(p, q)
        with pytest.raises(VariableMismatch):
            RatFun(p, q)

    def test_lcm_with_zero(self):
        assert poly_lcm(MPoly.zero(V2), P("x + y")) == MPoly.zero(V2)
        assert poly_lcm(P("x + y"), MPoly.zero(V2)) == MPoly.zero(V2)

    def test_ratfun_edges(self):
        with pytest.raises(ValueError):
            R("x/y").const_value()
        with pytest.raises(DivisionByZero, match="negative power of zero"):
            RatFun.const(V2, 0) ** -2
        a, b = R("(x^2 - 1)/(2*y)"), R("(x + 1)*(x - 1)/(y + y)")
        assert a is not b and hash(a) == hash(b)
        assert len({a, b, R("x/y")}) == 2
