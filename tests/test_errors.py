import dataclasses
import math
import time
import warnings
from fractions import Fraction

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
    lambda: sp.convergence_sweep(0.1, 1, [10], INF),
    lambda: sp.rotation(0.3, INF),
    lambda: sp.rotation("x", 5),
    lambda: sp.limit_pmf(0.1, 10**400),
    lambda: sp.limit_cdf(0.1, 10**400),
    lambda: sp.binomial_sum_partial(0.1, 10**400, 0),
    lambda: sp.binomial_sum_partial(0.1, 3, 10**12),
], ids=["ModelParams-n-inf", "ModelParams-n-nan", "limit_cdf-d", "grid", "farey",
        "inter_arrival_stream-seed", "size_tail-i", "convergence_sweep-d_max",
        "rotation-count", "rotation-alpha-text", "limit_pmf-d-overflow",
        "limit_cdf-d-overflow", "binomial_sum_partial-i-overflow",
        "binomial_sum_partial-J-bound"])
def test_non_finite_integers_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


_EMP = sp.EmpiricalDistribution({1: 3, 2: 1})
_POINTS = sp.grid(10)
# one valid call of each public callable; the sweep replaces one argument at a time
_VALID_CALLS = {
    "ModelParams": (10, 0.5, 2),
    "binomial_cdf_tail_check": (10, 0.5, 2),
    "binomial_sum_partial": (0.5, 2, 10),
    "binomial_sum_stop_index": (0.5, 2),
    "cdf_scaled": (_PARAMS, 3),
    "cdf_scaled_closed_i1": (10, 0.5, 3),
    "limit_cdf": (0.5, 3),
    "limit_pmf": (0.5, 3),
    "pmf_scaled": (_PARAMS, 3),
    "size_tail": (10, 0.5, 2),
    "spacing_distribution": (_PARAMS,),
    "DistributionTable": (_PARAMS,),
    "LogProb": (-1.0,),
    "enumerate_conditional_pmf": (6, Fraction(1, 3), 2),
    "exact_closed_form_pmf": (6, Fraction(1, 3), 2),
    "EmpiricalDistribution": ({1: 3, 2: 1}, 0),
    "collect_empirical": (50, 0.5, 2, 100, 1),
    "inter_arrival_stream": (0.5, 1, 10),
    "sample_subset": (_POINTS, 0.5, 1),
    "SampleRun": (_POINTS, np.array([1, 3, 5])),
    "PointSet": (np.array([0.0, 0.5]),),
    "farey": (5,),
    "grid": (10,),
    "rotation": (0.3, 10),
    "DistanceReport": (0.1, 0.2, 10),
    "convergence_sweep": (0.5, 2, [10, 20], 5),
    "ks_to_geometric": (_EMP, 0.5),
    "scaled_mean_exponential_check": (np.linspace(1.0, 2.0, 100),),
}
# public names the sweep leaves out, each with its reason
_NOT_SWEPT = {
    "DomainError": "an exception type: any message is valid",
    "EmptySampleError": "an exception type: any message is valid",
    "EnumerationLimitError": "an exception type: any message is valid",
    "Rational": "fractions.Fraction itself; the oracle reads p through its own check",
    "ExactTable": "a result record of the two oracle functions, which are swept; "
                  "it holds their checked n and p and checks nothing itself",
}
_EDGE_VALUES = {"nan": NAN, "inf": INF, "-inf": -INF, "text": "x", "10**400": 10**400,
                "2**63": 2**63, "[]": [], "-1": -1, "None": None, "tuple": (5, 0.5, 1)}


def _finite(value) -> bool:
    """No NaN or infinity anywhere in a result, its records' fields included."""
    if value is None or isinstance(value, (int, str, Fraction)):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "biu" or bool(np.isfinite(value).all())
    if isinstance(value, sp.LogProb):
        return _finite(math.exp(value.log))  # a log of -inf is the exact zero
    if isinstance(value, sp.EmpiricalDistribution):
        return _finite((value.atoms, value.counts))
    if isinstance(value, dict):
        return _finite([*value, *value.values()])
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    return all(_finite(getattr(value, field.name)) for field in dataclasses.fields(value))


# caller-sized arrays past any 128 TiB user address space, each within its argument's bounds
@pytest.mark.parametrize("call", [
    "sp.inter_arrival_stream(0.5, 1, 2**53)",
    "sp.spacing_distribution(sp.ModelParams(GRID_N_MAX, 0.5, 1)).d",
    "sp.convergence_sweep(0.5, 1, [GRID_N_MAX], GRID_N_MAX)",
    "sp.EmpiricalDistribution({GRID_N_MAX: 1}).as_arrays()",
], ids=["inter_arrival_stream", "DistributionTable.d", "convergence_sweep", "as_arrays"])
def test_an_array_the_host_cannot_hold_is_a_domain_error(bounded_refusal, call):
    seconds, message = bounded_refusal(call)
    assert seconds < 1.0 and message.startswith("Unable to allocate 64.0 PiB"), message


def test_the_sweep_names_every_public_callable_once():
    assert sorted([*_VALID_CALLS, *_NOT_SWEPT]) == sp.__all__


@pytest.mark.parametrize("name", sorted(_VALID_CALLS))
def test_edge_values_raise_domain_errors_or_return_finite_results(name):
    # arguments that take an EmpiricalDistribution or a PointSet are swept
    # through those constructors; a ModelParams argument is swept here too
    call, valid = getattr(sp, name), _VALID_CALLS[name]
    assert _finite(call(*valid))
    failures = []
    for k, arg in enumerate(valid):
        if isinstance(arg, (sp.EmpiricalDistribution, sp.PointSet)):
            continue
        for label, edge in _EDGE_VALUES.items():
            args = [*valid[:k], edge, *valid[k + 1 :]]
            start = time.perf_counter()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    outcome = "finite" if _finite(call(*args)) else "not finite"
            except DomainError:  # EmptySampleError included
                outcome = "finite"
            except Exception as exc:  # noqa: BLE001 - each failure is reported below
                outcome = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if outcome != "finite" or elapsed > 2.0:
                failures.append(f"argument {k} = {label}: {outcome} in {elapsed:.2f} s")
    assert failures == []
