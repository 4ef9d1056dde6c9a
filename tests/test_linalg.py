"""Exact sparse RREF, nullspace, affine solve."""

import random
from fractions import Fraction

import pytest

from difftower import linalg
from difftower.errors import BoundsExceeded


def F(x):
    return Fraction(x)


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
