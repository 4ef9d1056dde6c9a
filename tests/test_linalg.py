"""Exact sparse RREF, nullspace, affine solve."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftower import linalg
from difftower.errors import BoundsExceeded


def F(x):
    return Fraction(x)


def _reference_rref(rows, n_cols):
    """Elimination over Fraction rows: the RREF that linalg.rref must give,
    row key order included."""
    rows = [dict(r) for r in rows if r]
    echelon = []
    pivots = []
    for col in range(n_cols):
        candidates = [r for r in rows if col in r]
        if not candidates:
            continue
        pivot = min(candidates, key=len)
        rows.remove(pivot)
        inv = 1 / pivot[col]
        pivot = {c: v * inv for c, v in pivot.items()}
        for target in (rows, echelon):
            for i, r in enumerate(target):
                f = r.get(col)
                if f is None:
                    continue
                new = dict(r)
                for c, v in pivot.items():
                    nv = new.get(c, 0) - f * v
                    if nv == 0:
                        new.pop(c, None)
                    else:
                        new[c] = nv
                target[i] = new
        rows = [r for r in rows if r]
        echelon.append(pivot)
        pivots.append(col)
        if not rows:
            break
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [echelon[i] for i in order], sorted(pivots)


def _items(rows):
    return [list(r.items()) for r in rows]


BIG = 10 ** 30
rationals = st.builds(Fraction, st.integers(-BIG, BIG).filter(bool),
                      st.integers(1, BIG))
small = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                  st.integers(1, 9))


@st.composite
def systems(draw):
    """Sparse rows over up to 10 columns, with empty rows, duplicates and
    rows that are combinations of others, in any order."""
    n_cols = draw(st.integers(1, 10))
    row = st.dictionaries(st.integers(0, n_cols - 1),
                          st.one_of(rationals, small), max_size=n_cols)
    base = draw(st.lists(row, max_size=7))
    rows = list(base)
    if base:
        for _ in range(draw(st.integers(0, 3))):
            combo = {}
            for k in draw(st.lists(st.integers(0, len(base) - 1),
                                   min_size=1, max_size=3)):
                c = draw(small)
                for j, v in base[k].items():
                    combo[j] = combo.get(j, 0) + c * v
            rows.append({j: v for j, v in combo.items() if v})
        rows += draw(st.lists(st.sampled_from(base), max_size=2))
    return draw(st.permutations(rows)), n_cols


def _as_ints(rows):
    """The same rows with every integral entry as an int."""
    return [{c: v.numerator if v.denominator == 1 else v
             for c, v in r.items()} for r in rows]


class TestRref:
    def test_identity_like(self):
        rows = [{0: F(2)}, {1: F(3)}]
        red, pivots = linalg.rref(rows, 2)
        assert pivots == [0, 1]
        assert red == [{0: F(1)}, {1: F(1)}]

    def test_dependent_rows_collapse(self):
        rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
        red, pivots = linalg.rref(rows, 2)
        assert pivots == [0]
        assert red == [{0: F(1), 1: F(2)}]

    def test_back_elimination(self):
        rows = [{0: F(1), 1: F(1)}, {1: F(1)}]
        red, _ = linalg.rref(rows, 2)
        assert red == [{0: F(1)}, {1: F(1)}]

    def test_uniqueness_under_row_order(self):
        rng = random.Random(5)
        for _ in range(30):
            rows = [{j: F(rng.randint(-3, 3)) for j in range(4)
                     if rng.random() < 0.7} for _ in range(4)]
            rows = [{k: v for k, v in r.items() if v} for r in rows]
            a, pa = linalg.rref(rows, 4)
            shuffled = list(rows)
            rng.shuffle(shuffled)
            b, pb = linalg.rref(shuffled, 4)
            assert (a, pa) == (b, pb)


    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_matches_reference(self, system):
        rows, n_cols = system
        want, want_pivots = _reference_rref(rows, n_cols)
        for given_rows in (rows, _as_ints(rows)):
            red, pivots = linalg.rref(given_rows, n_cols)
            assert (red, pivots) == (want, want_pivots)
            assert _items(red) == _items(want)
            assert all(type(v) is Fraction for r in red for v in r.values())

    @pytest.mark.parametrize("rows", [
        [{0: 3, 1: 1}, {1: 2, 2: 4}],
        [{0: F(3), 1: F(1)}, {1: F(2), 2: F(4)}],
        [{0: 3, 1: F(1)}, {1: F(2), 2: 4}],
    ], ids=["int", "Fraction", "mixed"])
    def test_int_entries_give_exact_fractions(self, rows):
        red, pivots = linalg.rref(rows, 3)
        assert pivots == [0, 1]
        assert _items(red) == [[(0, F(1)), (2, Fraction(-2, 3))],
                               [(1, F(1)), (2, F(2))]]
        for row, p in zip(red, pivots):
            assert all(type(v) is Fraction for v in row.values())
            assert row[p] == 1
        assert linalg.nullspace(rows, 3) == [[Fraction(2, 3), F(-2), F(1)]]
        particular, kernel = linalg.solve_affine(rows, [1, 2], 3)
        assert particular == [Fraction(0), F(1), F(0)]
        assert all(type(v) is Fraction for v in particular)

    def test_explicit_zero_entries_are_ignored(self):
        rows = [{0: F(0)}, {0: F(0), 1: F(2), 2: 0}, {2: F(3), 1: F(0)}]
        assert linalg.rref(rows, 3) == ([{1: F(1)}, {2: F(1)}], [1, 2])

    def test_hilbert_matrix_reduces_to_identity(self):
        n = 12
        rows = [{j: Fraction(1, i + j + 1) for j in range(n)}
                for i in range(n)]
        red, pivots = linalg.rref(rows, n)
        assert pivots == list(range(n))
        assert red == [{i: F(1)} for i in range(n)]

    def test_rhs_column_becomes_a_pivot(self):
        rows = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}]
        rhs = [F(1), F(3)]
        aug = [{**r, 2: b} for r, b in zip(rows, rhs)]
        assert linalg.rref(aug, 3)[1] == [0, 2]
        particular, kernel = linalg.solve_affine(rows, rhs, 2)
        assert particular is None
        assert kernel == [[F(-1), F(1)]]

    def test_inputs_are_not_mutated(self):
        rows = [{2: Fraction(1, 2), 0: F(3)}, {0: 6, 1: F(2)}, {},
                {1: Fraction(-5, 7), 2: F(1)}]
        rhs = [F(1), 2, F(0), Fraction(3, 4)]
        before = copy.deepcopy(rows), copy.deepcopy(rhs)
        linalg.rref(rows, 3)
        linalg.nullspace(rows, 3)
        linalg.solve_affine(rows, rhs, 3)
        assert (rows, rhs) == before
        assert _items(rows) == _items(before[0])
        assert all(type(a) is type(b) for r, s in zip(rows, before[0])
                   for a, b in zip(r.values(), s.values()))


class TestNullspace:
    def test_kernel_vectors_annihilate(self):
        rows = [{0: F(1), 1: F(2), 2: F(3)}]
        basis = linalg.nullspace(rows, 3)
        assert len(basis) == 2
        for vec in basis:
            assert sum(rows[0].get(i, F(0)) * v for i, v in enumerate(vec)) == 0

    def test_free_coordinate_convention(self):
        rows = [{0: F(1), 2: F(1)}]
        basis = linalg.nullspace(rows, 3)
        # one vector per free column, free coordinate one, column order
        assert basis[0][1] == 1 and basis[1][2] == 1

    def test_trivial_kernel(self):
        rows = [{0: F(1)}, {1: F(1)}]
        assert linalg.nullspace(rows, 2) == []


class TestSolveAffine:
    def test_unique_solution(self):
        rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}]
        particular, kernel = linalg.solve_affine(rows, [F(3), F(1)], 2)
        assert particular == [F(2), F(1)] and kernel == []

    def test_underdetermined(self):
        rows = [{0: F(1), 1: F(1)}]
        particular, kernel = linalg.solve_affine(rows, [F(5)], 2)
        assert particular == [F(5), F(0)]  # free variables pinned to zero
        assert len(kernel) == 1

    def test_inconsistent(self):
        rows = [{0: F(1)}, {0: F(1)}]
        particular, _ = linalg.solve_affine(rows, [F(1), F(2)], 2)
        assert particular is None


class TestSizeCap:
    def test_cap_trips(self):
        with pytest.raises(BoundsExceeded):
            linalg.check_size(1000, 1000, cap=10)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DIFFIELD_MAX_CELLS", "42")
        assert linalg.max_cells() == 42
        with pytest.raises(BoundsExceeded):
            linalg.check_size(7, 7)

    @pytest.mark.parametrize("value", ["-5", "0", "abc", "2.5"])
    def test_env_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("DIFFIELD_MAX_CELLS", value)
        with pytest.raises(ValueError, match="DIFFIELD_MAX_CELLS"):
            linalg.max_cells()
