import math

import numpy as np
import pytest

import spacings as sp
from spacings.errors import DomainError, check_int, check_ints, check_p

INF, NAN = math.inf, math.nan


class TestCheckInt:
    def test_accepts_integral_values(self):
        assert check_int(3, "n", 1) == 3
        assert check_int(3.0, "n", 1) == 3
        assert check_int(np.int64(7), "n", 0, 7) == 7
        assert type(check_int(np.float64(2.0), "n", 1)) is int

    @pytest.mark.parametrize("value", [2.5, "3", None, INF, -INF, NAN, [1]])
    def test_rejects_non_integers(self, value):
        with pytest.raises(DomainError, match="must be an integer"):
            check_int(value, "n", 1)

    def test_bounds(self):
        with pytest.raises(DomainError, match=">= 1"):
            check_int(0, "n", 1)
        with pytest.raises(DomainError, match="<= 5"):
            check_int(6, "i", 1, 5)
        assert check_int(10**30, "J", 0) == 10**30


class TestCheckInts:
    def test_scalars_come_back_as_ints_through_check_int(self):
        for value in (3, True, np.int64(7), np.uint8(4), 3.0, np.float64(2.0), 10**400):
            got = check_ints(value, "n", 0)
            assert type(got) is int and got == check_int(value, "n", 0)
        for value in (2.5, "3", None, NAN, 10**400):
            with pytest.raises(DomainError) as ints_error:
                check_ints(value, "n", 0, 10)
            with pytest.raises(DomainError) as int_error:
                check_int(value, "n", 0, 10)
            assert str(ints_error.value) == str(int_error.value)

    def test_arrays_are_checked_whole(self):
        got = check_ints([1, 2, 3], "d", 1, 3)
        assert isinstance(got, np.ndarray) and got.tolist() == [1, 2, 3]
        for bad in ([0, 1], [1, 4], [1.0, 2.0], ["a"]):
            with pytest.raises(DomainError, match="d needs integer values >= 1 and <= 3"):
                check_ints(bad, "d", 1, 3)


class TestCheckP:
    def test_range(self):
        assert check_p("0.25") == 0.25
        assert check_p(1) == 1.0
        for bad in (0.0, -0.1, 1.5, NAN, INF, "abc", None):
            with pytest.raises(DomainError):
                check_p(bad)


_PARAMS = sp.ModelParams(10, 0.5, 2)


@pytest.mark.parametrize("call", [
    lambda: sp.ModelParams(INF, 0.1, 1),
    lambda: sp.ModelParams(NAN, 0.1, 1),
    lambda: sp.limit_cdf(0.1, INF),
    lambda: sp.grid(INF),
    lambda: sp.farey(NAN),
    lambda: sp.inter_arrival_stream(0.5, INF, 3),
    lambda: sp.size_tail(10, 0.5, NAN),
    lambda: sp.pmf_delta(_PARAMS, INF),
    lambda: sp.convergence_sweep(0.1, 1, [10], INF),
    lambda: sp.rotation(0.3, INF),
    lambda: sp.pmf_delta(_PARAMS, "x"),
    lambda: sp.pmf_delta(_PARAMS, 10**400),
    lambda: sp.rotation("x", 5),
    lambda: sp.limit_pmf(0.1, 10**400),
    lambda: sp.limit_cdf(0.1, 10**400),
    lambda: sp.binomial_sum_partial(0.1, 10**400, 0),
], ids=["ModelParams-n-inf", "ModelParams-n-nan", "limit_cdf-d", "grid", "farey",
        "inter_arrival_stream-seed", "size_tail-i", "pmf_delta", "convergence_sweep-d_max",
        "rotation-count", "pmf_delta-text", "pmf_delta-overflow", "rotation-alpha-text",
        "limit_pmf-d-overflow", "limit_cdf-d-overflow", "binomial_sum_partial-i-overflow"])
def test_non_finite_integers_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()
