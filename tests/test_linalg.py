"""Exact sparse RREF, nullspace, affine solve."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from difftower import linalg
from difftower.errors import BoundsExceeded


def F(x):
    return Fraction(x)


def _reference_rref(rows, n_cols):
    """Elimination over Fraction rows: the RREF that linalg.rref must give,
    with each row's keys in ascending column order."""
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
    return [dict(sorted(echelon[i].items())) for i in order], sorted(pivots)


def _reference_solve_affine(rows, rhs, n_cols):
    """solve_affine read off the RREF of [A | b]: column n_cols is a pivot
    when the system is inconsistent, else it holds the particular solution
    at each pivot column; the kernel comes from the columns before it."""
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b != 0:
            r[n_cols] = b
        aug.append(r)
    red, pivots = linalg.rref(aug, n_cols + 1)
    kernel = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [F(0)] * n_cols
        vec[free] = F(1)
        for row, pcol in zip(red, pivots):
            if pcol < n_cols and free in row:
                vec[pcol] = -row[free]
        kernel.append(vec)
    if n_cols in pivots:
        return None, kernel
    particular = [F(0)] * n_cols
    for row, pcol in zip(red, pivots):
        particular[pcol] = row.get(n_cols, F(0))
    return particular, kernel


def _items(rows):
    return [list(r.items()) for r in rows]


BIG = 10 ** 30
rationals = st.builds(Fraction, st.integers(-BIG, BIG).filter(bool),
                      st.integers(1, BIG))
small = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                  st.integers(1, 9))


@st.composite
def systems(draw):
    """Sparse rows over up to 10 columns, with empty rows, unit rows,
    duplicates and rows that are combinations of others, in any order."""
    n_cols = draw(st.integers(1, 10))
    entry = st.integers(0, n_cols - 1), st.one_of(rationals, small)
    row = st.dictionaries(*entry, max_size=n_cols)
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
    rows += draw(st.lists(st.dictionaries(*entry, min_size=1, max_size=1),
                          max_size=3))
    return draw(st.permutations(rows)), n_cols


@st.composite
def affine_systems(draw):
    """A system of systems() with a right-hand side: all zero, drawn, or
    nonzero on every row (which makes an empty row inconsistent)."""
    rows, n_cols = draw(systems())
    value = st.one_of(st.integers(-3, 3), small, rationals)
    rhs = draw(st.one_of(
        st.just([0] * len(rows)),
        st.lists(value, min_size=len(rows), max_size=len(rows)),
        st.lists(value.filter(bool), min_size=len(rows),
                 max_size=len(rows))))
    return rows, rhs, n_cols


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
        # the unit rows {3: 4} and {1: F(2)} delete their columns from the
        # other rows, which rref must do on its own copies
        rows = [{2: Fraction(1, 2), 0: F(3)}, {0: 6, 1: F(2)}, {},
                {1: Fraction(-5, 7), 2: F(1), 3: 2}, {2: 3, 0: -1},
                {3: 4}, {1: F(2)}, {4: F(0), 3: Fraction(1, 3)}]
        # rows with a zero right-hand side reach rref uncopied
        rhs = [F(1), 2, F(0), Fraction(3, 4), 5, 0, F(1), 0]
        before = copy.deepcopy(rows), copy.deepcopy(rhs)
        linalg.rref(rows, 5)
        linalg.nullspace(rows, 5)
        linalg.solve_affine(rows, rhs, 5)
        assert (rows, rhs) == before
        assert _items(rows) == _items(before[0])
        assert all(type(a) is type(b) for r, s in zip(rows, before[0])
                   for a, b in zip(r.values(), s.values()))
        assert [type(b) for b in rhs] == [type(b) for b in before[1]]


class TestEntryPass:
    """rref clears rows to integers on entry and divides out no content
    there: the column loop does it after each elimination."""

    @settings(max_examples=300, deadline=None)
    @given(systems(), st.data())
    def test_scaled_rows_give_the_unscaled_rref(self, system, data):
        rows, n_cols = system
        # unit rows with a coefficient other than +-1 after scaling
        rows = rows + data.draw(st.lists(
            st.integers(0, n_cols - 1).map(lambda c: {c: F(1)}),
            max_size=3))
        scales = data.draw(st.lists(
            st.one_of(st.integers(-12, 12), st.integers(-BIG, BIG))
            .filter(bool), min_size=len(rows), max_size=len(rows)))
        scaled = [{c: s * v for c, v in r.items()}
                  for r, s in zip(rows, scales)]
        want, want_pivots = _reference_rref(rows, n_cols)
        for given_rows in (scaled, _as_ints(scaled)):
            red, pivots = linalg.rref(given_rows, n_cols)
            assert (red, pivots) == (want, want_pivots)
            assert _items(red) == _items(want)

    def test_no_content_division_without_elimination(self, monkeypatch):
        divided = []
        real = linalg._primitive
        monkeypatch.setattr(linalg, "_primitive",
                            lambda r: divided.append(r) or real(r))
        rows = [{0: 4, 1: 6, 3: -10}, {2: 9}, {1: F(4), 3: Fraction(8, 3)}]
        assert linalg.rref(rows, 4) == (
            [{0: F(1), 3: Fraction(-7, 2)}, {1: F(1), 3: Fraction(2, 3)},
             {2: F(1)}], [0, 1, 2])
        assert len(divided) == 1   # the one elimination, of column 1


class TestUnitRows:
    """Single-entry rows are pivots taken before the column loop."""

    def _check(self, rows, n_cols):
        red, pivots = linalg.rref(rows, n_cols)
        want = _reference_rref(
            [{c: F(v) for c, v in r.items()} for r in rows], n_cols)
        assert (red, pivots) == want
        assert _items(red) == _items(want[0])
        return red, pivots

    def test_two_unit_rows_on_one_column(self):
        rows = [{1: F(3)}, {0: F(1), 1: F(2)}, {1: -5}]
        assert self._check(rows, 2) == ([{0: F(1)}, {1: F(1)}], [0, 1])
        assert linalg.nullspace(rows, 3) == [[F(0), F(0), F(1)]]

    def test_cascade(self, monkeypatch):
        # {2} empties column 2 from the second row, which leaves {1}; that
        # leaves {0} in the third, and the fourth keeps columns 3 and 4
        rows = [{0: F(1), 1: F(1), 3: F(1), 4: F(1)}, {1: F(4), 2: F(1)},
                {0: F(2), 1: F(3)}, {2: Fraction(1, 2)}]
        eliminated, copied = [], []
        real = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate",
                            lambda *a: eliminated.append(a) or real(*a))
        cleared = linalg._cleared
        monkeypatch.setattr(linalg, "_cleared",
                            lambda *a: copied.append(a[0]) or cleared(*a))
        assert self._check(rows, 5) == (
            [{0: F(1)}, {1: F(1)}, {2: F(1)}, {3: F(1), 4: F(1)}],
            [0, 1, 2, 3])
        assert eliminated == []   # one row is left, with nothing to eliminate
        assert copied == [rows[0]]   # the unit pass consumed the others
        assert linalg.nullspace(rows, 5) == [[F(0), F(0), F(0), F(-1), F(1)]]
        particular, kernel = linalg.solve_affine(rows, [F(2), 0, 0, 0], 5)
        assert particular == [F(0), F(0), F(0), F(2), F(0)]

    def test_unit_row_in_the_rhs_column(self):
        # 0 = 5 after eliminating: rhs alone in its row is inconsistent
        rows = [{0: F(1), 1: F(1)}, {}, {0: F(2), 1: F(2)}]
        particular, kernel = linalg.solve_affine(rows, [F(1), F(5), F(2)], 2)
        assert particular is None
        assert kernel == [[F(-1), F(1)]]
        rows = [{0: F(1), 1: F(1)}, {1: F(2)}]
        particular, kernel = linalg.solve_affine(rows, [F(3), F(4)], 2)
        assert particular == [F(1), F(2)] and kernel == []

    def test_only_unit_rows(self):
        rows = [{3: F(-2)}, {1: 7}, {3: Fraction(1, 9)}, {0: F(5)}]
        assert self._check(rows, 5) \
            == ([{0: F(1)}, {1: F(1)}, {3: F(1)}], [0, 1, 3])
        assert linalg.nullspace(rows, 5) \
            == [[F(0), F(0), F(1), F(0), F(0)],
                [F(0), F(0), F(0), F(0), F(1)]]
        particular, kernel = linalg.solve_affine(rows, [1, 2, 3, 4], 5)
        assert particular is None

    def test_explicit_zero_left_after_the_unit_columns(self):
        # the second row keeps only an explicit 0 once column 0 is a unit,
        # and the third holds nothing else: both are empty, not unit rows
        rows = [{0: 3}, {0: F(1), 1: 0}, {1: F(0)}, {1: F(2), 2: 0, 3: 1}]
        before = copy.deepcopy(rows)
        red, pivots = linalg.rref(rows, 4)
        assert (red, pivots) \
            == ([{0: F(1)}, {1: F(1), 3: Fraction(1, 2)}], [0, 1])
        assert [list(r) for r in red] == [[0], [1, 3]]
        assert linalg.nullspace(rows, 4) \
            == [[F(0), F(0), F(1), F(0)], [F(0), Fraction(-1, 2), F(0), F(1)]]
        assert rows == before and _items(rows) == _items(before)

    def test_unit_row_next_to_rows_that_cancel(self):
        rows = [{0: F(1), 1: F(2), 2: F(3)}, {0: F(-2), 1: F(-4), 2: F(-6)},
                {2: F(7)}, {0: F(1), 1: F(2)}]
        red, pivots = self._check(rows, 3)
        assert (red, pivots) == ([{0: F(1), 1: F(2)}, {2: F(1)}], [0, 2])
        assert linalg.nullspace(rows, 3) == [[F(-2), F(1), F(0)]]


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

    # solve_affine is one nullspace of [A | -b]; the reference reads the
    # RREF of [A | b] instead
    @settings(max_examples=300, deadline=None)
    @given(affine_systems())
    @example(([], [], 0))
    @example(([], [], 3))
    @example(([{}, {}], [0, F(2)], 0))
    @example(([{0: F(1)}, {}], [F(1), F(0)], 2))
    @example(([{0: F(1)}, {}], [F(1), 3], 2))
    @example(([{0: F(1), 1: F(1)}, {0: 2, 1: 2}], [1, 3], 2))
    def test_matches_reference(self, system):
        rows, rhs, n_cols = system
        want = _reference_solve_affine(rows, rhs, n_cols)
        for given_rows in (rows, _as_ints(rows)):
            got = linalg.solve_affine(given_rows, rhs, n_cols)
            assert got == want
            particular, kernel = got
            assert all(type(v) is Fraction
                       for vec in [particular or []] + kernel for v in vec)

    def test_one_nullspace_of_the_augmented_system(self, monkeypatch):
        calls = []
        real = linalg.nullspace
        monkeypatch.setattr(linalg, "nullspace",
                            lambda *a: calls.append(a) or real(*a))
        rows = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(-2)}, {0: 3}]
        rhs = [F(3), 0, Fraction(9, 2)]
        particular, kernel = linalg.solve_affine(rows, rhs, 2)
        assert (particular, kernel) == ([Fraction(3, 2)] * 2, [])
        ((aug, n),) = calls
        assert n == 3
        assert _items(aug) == [[(0, F(1)), (1, F(1)), (2, F(-3))],
                               list(rows[1].items()),
                               [(0, 3), (2, Fraction(-9, 2))]]
        assert aug[1] is rows[1]


class TestSizeCap:
    def test_cap_trips(self):
        with pytest.raises(BoundsExceeded):
            linalg.check_size(1000, 1000, cap=10)

    def test_cap_is_inclusive(self):
        linalg.check_size(7, 7, 49)
        with pytest.raises(BoundsExceeded):
            linalg.check_size(7, 7, 48)
