import numpy as np
import pytest

from betscan.core import empirical_copula
from betscan.errors import NonFiniteError, TiesPresentError


def test_rank_examples():
    assert empirical_copula([3.2, 1.1, 5.0, 2.7]).ranks.tolist() == [3, 1, 4, 2]
    assert empirical_copula([10, 20, 30, 40]).ranks.tolist() == [1, 2, 3, 4]


def test_matches_counting_oracle():
    rng = np.random.default_rng(11)
    values = rng.normal(size=100)
    col = empirical_copula(values)
    # naive O(n^2) rank by counting smaller elements
    oracle = [1 + sum(1 for w in values if w < v) for v in values]
    assert col.ranks.tolist() == oracle


def test_ties_error_reports_value_and_count():
    with pytest.raises(TiesPresentError) as err:
        empirical_copula([1.0, 2.0, 2.0, 2.0, 5.0])
    assert err.value.value == 2.0
    assert err.value.count == 3
    assert err.value.tie_groups == 1


def test_non_finite_rejected():
    with pytest.raises(NonFiniteError):
        empirical_copula([1.0, float("nan"), 3.0, 4.0])
    with pytest.raises(NonFiniteError):
        empirical_copula([1.0, float("inf"), 3.0, 4.0])


def test_minimum_length():
    with pytest.raises(ValueError):
        empirical_copula([1.0, 2.0, 3.0])
