import math

import numpy as np
import pytest

import spacings as sp
from spacings.distribution import GRID_N_MAX
from spacings.errors import DomainError
from spacings.sequences import FAREY_ORDER_MAX, _farey_arrays


def _totients(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p is prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


class TestGrid:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, [0, 1]), (2, [0, 0.5, 1]), (4, [0, 0.25, 0.5, 0.75, 1])],
    )
    def test_points(self, n, expected):
        assert sp.grid(n).points.tolist() == expected

    def test_size(self):
        assert len(sp.grid(1000)) == 1001

    @pytest.mark.parametrize("n", [0, 2**50, 2**60, GRID_N_MAX + 1])
    def test_invalid(self, n):
        with pytest.raises(DomainError):
            sp.grid(n)


def _farey_pairs(order):
    num, den = _farey_arrays(order)
    return list(zip(num.tolist(), den.tolist()))


class TestFarey:
    def test_order_one(self):
        assert _farey_pairs(1) == [(0, 1), (1, 1)]

    def test_order_three(self):
        assert _farey_pairs(3) == [(0, 1), (1, 3), (1, 2), (2, 3), (1, 1)]

    def test_order_five_count(self):
        assert len(sp.farey(5)) == 11  # 1 + phi(1) + ... + phi(5)

    @pytest.mark.parametrize("order", [2, 7, 30, 100])
    def test_count_is_one_plus_totient_sum(self, order):
        phi = _totients(order)
        assert len(_farey_pairs(order)) == 1 + sum(phi[1 : order + 1])

    @pytest.mark.parametrize("order", [1, 2, 3, 10, 50, 300])
    def test_neighbor_identity(self, order):
        pairs = _farey_pairs(order)
        for (a, b), (c, d) in zip(pairs, pairs[1:]):
            assert b * c - a * d == 1

    def test_fractions_are_reduced(self):
        for a, b in _farey_pairs(40):
            assert math.gcd(a, b) == 1 and 1 <= b <= 40

    @pytest.mark.parametrize("order", [0, FAREY_ORDER_MAX + 1])
    def test_invalid(self, order):
        with pytest.raises(DomainError):
            sp.farey(order)


class TestRotation:
    def test_golden_ratio_conjugate(self):
        alpha = (math.sqrt(5) - 1) / 2
        pts = sp.rotation(alpha, 3).points
        expected = sorted((k * alpha) % 1.0 for k in (1, 2, 3))
        assert pts == pytest.approx(expected, abs=1e-12)

    def test_rational_angle_deduplicates_and_keeps_zero(self):
        assert sp.rotation(0.5, 4).points.tolist() == [0.0, 0.5]

    def test_single_step(self):
        assert sp.rotation(1.75, 1).points.tolist() == [0.75]

    @pytest.mark.parametrize("alpha", [math.sqrt(2) - 1, math.pi % 1.0, 0.3])
    def test_points_increasing_within_unit_interval(self, alpha):
        pts = sp.rotation(alpha, 500).points
        assert np.all(np.diff(pts) > 0)
        assert pts[0] >= 0.0 and pts[-1] < 1.0

    @pytest.mark.parametrize("alpha,count", [(0.1, 1000), (1 / 3, 3000), (0.75, 9),
                                             (123456.789, 5000), (0.6180339887498949, 20000)])
    def test_deduplication_equals_unique(self, alpha, count):
        orbit = np.mod(np.arange(1, count + 1) * alpha, 1.0)
        assert np.array_equal(sp.rotation(alpha, count).points, np.unique(orbit))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid(self):
        with pytest.raises(DomainError):
            sp.rotation(0.1, 0)
        with pytest.raises(DomainError):
            sp.rotation(float("inf"), 3)
        # k alpha would overflow to inf, then NaN: refused before numpy warns
        with pytest.raises(DomainError, match="finite"):
            sp.rotation(1.7e308, 5)
        with pytest.raises(DomainError, match="finite"):
            sp.rotation(-1e308, 2)
        # orbit indices past 2**53 are not exact in float64; 10**400 is past float range
        for count in (2**53 + 1, 10**400):
            with pytest.raises(DomainError, match="<= 9007199254740992"):
                sp.rotation(0.5, count)
        # within the bound but too large for this host to allocate
        with pytest.raises(DomainError, match="Unable to allocate"):
            sp.rotation(0.5, 10**15)


class TestPointSet:
    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            sp.PointSet(np.array([0.2, 0.1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            sp.PointSet(np.array([0.0, 1.5]))
        with pytest.raises(DomainError):
            sp.PointSet(np.array([0.0, math.nan]))

    @pytest.mark.parametrize("points", ["abc", [0.1, "a"], [0.1, None]])
    def test_rejects_non_numbers(self, points):
        with pytest.raises(DomainError, match="points"):
            sp.PointSet(points)

    def test_points_are_read_only(self):
        ps = sp.grid(4)
        with pytest.raises(ValueError):
            ps.points[0] = 0.5
