import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betscan import screen
from betscan.core import binary_expansion, empirical_copula
from betscan.errors import NonFiniteError, TiesPresentError, TooFewSamplesError
from betscan.preprocess import ExpressionMatrix
from betscan.screen import precompute_bitplanes, precompute_copulas

from ._oracles import empirical_copula_oracle


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
    with pytest.raises(TooFewSamplesError, match="at least 4 observations, got 3"):
        empirical_copula([1.0, 2.0, 3.0])


# faults put into random rows: two or three equal values, a tie at the
# row's minimum or maximum, 0.0 beside -0.0, a lone -0.0 (no fault), and
# each non-finite value
_FAULTS = ["tie", "tie3", "min", "max", "zeros", "-0.0", "nan", "inf", "-inf"]


@st.composite
def faulty_matrices(draw):
    g = draw(st.integers(1, 3 * screen._RANK_GENES + 1))
    n = draw(st.one_of(st.sampled_from([63, 64, 65]), st.integers(4, 70)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(g, n)) * 10.0 ** rng.integers(-5, 5, size=(g, 1))
    faults = st.tuples(st.integers(0, g - 1), st.sampled_from(_FAULTS))
    for row, fault in draw(st.lists(faults, max_size=4)):
        cells = rng.choice(n, size=3 if fault == "tie3" else 2, replace=False)
        if fault.startswith("tie"):
            values[row, cells] = values[row, cells[0]]
        elif fault in ("min", "max"):
            values[row, cells] = getattr(values[row], fault)()
        elif fault == "zeros":
            values[row, cells] = 0.0, -0.0
        else:
            values[row, cells[0]] = float(fault)
    return ExpressionMatrix(
        gene_ids=[f"G{i}" for i in range(g)],
        sample_ids=[f"S{j}" for j in range(n)],
        values=values,
    )


def outcome(compute):
    """compute()'s value, or the type, message and fields of its error."""
    try:
        return compute()
    except Exception as exc:
        return type(exc), str(exc), repr(sorted(vars(exc).items()))


@settings(max_examples=150, deadline=None)
@given(faulty_matrices(), st.integers(1, 4))
def test_block_ranker_matches_the_one_gene_oracle(m, depth):
    def oracle_columns():
        return list(map(empirical_copula_oracle, m.values, m.gene_ids))

    expected = outcome(lambda: [c.ranks.tolist() for c in oracle_columns()])
    got = outcome(lambda: [c.ranks.tolist() for c in precompute_copulas(m)])
    assert got == expected
    expected = outcome(lambda: [binary_expansion(c, depth) for c in oracle_columns()])
    assert outcome(lambda: precompute_bitplanes(m, depth)) == expected
    for values in m.values:
        expected = outcome(lambda: empirical_copula_oracle(values).ranks.tolist())
        assert outcome(lambda: empirical_copula(values).ranks.tolist()) == expected
