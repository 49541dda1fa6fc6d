"""Tests for one-way ANOVA, cross-checked against scipy."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.evaluation import one_way_anova
from repro.exceptions import EvaluationError

_values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_constant_group = st.builds(lambda v, n: [v] * n, _values, st.integers(2, 50))
_any_group = st.one_of(st.lists(_values, min_size=2, max_size=50), _constant_group)


@st.composite
def _equal_mean_groups(draw) -> list[list[float]]:
    """Integer groups whose float means are all exactly ``centre``: each
    group's last value cancels the others' deviations, and integer sums
    are exact, so ss_between is 0 and F = 0."""
    centre = draw(st.integers(-100, 100))
    groups = []
    for _ in range(draw(st.integers(2, 6))):
        deviations = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=49))
        groups.append(
            [float(centre + d) for d in deviations] + [float(centre - sum(deviations))]
        )
    return groups


_groups = st.one_of(
    st.lists(_any_group, min_size=2, max_size=6),
    st.lists(_constant_group, min_size=2, max_size=6),
    _equal_mean_groups(),
)


class TestAnova:
    def test_matches_scipy(self, rng):
        groups = [
            rng.normal(0.0, 1.0, 40),
            rng.normal(0.5, 1.0, 35),
            rng.normal(1.0, 1.2, 50),
        ]
        result = one_way_anova(groups)
        expected = stats.f_oneway(*groups)
        assert result.f_statistic == pytest.approx(expected.statistic)
        assert result.p_value == pytest.approx(expected.pvalue)

    def test_identical_means_high_p(self, rng):
        groups = [rng.normal(0, 1, 200) for _ in range(4)]
        result = one_way_anova(groups)
        assert result.p_value > 0.001
        assert not result.rejects_equal_means(alpha=0.0005)

    def test_separated_means_reject(self, rng):
        groups = [
            rng.normal(0, 0.1, 50),
            rng.normal(5, 0.1, 50),
            rng.normal(10, 0.1, 50),
        ]
        result = one_way_anova(groups)
        assert result.p_value < 1e-10
        assert result.rejects_equal_means()
        assert result.eta_squared > 0.99

    def test_degrees_of_freedom(self, rng):
        groups = [rng.normal(size=10), rng.normal(size=20)]
        result = one_way_anova(groups)
        assert result.df_between == 1
        assert result.df_within == 28

    def test_nan_values_dropped(self):
        groups = [
            np.array([1.0, np.nan, 2.0]),
            np.array([5.0, 6.0]),
        ]
        result = one_way_anova(groups)
        assert result.df_within == 2

    def test_constant_groups_different_means(self):
        result = one_way_anova([np.ones(5), np.full(5, 2.0)])
        assert result.f_statistic == float("inf")
        assert result.p_value == 0.0

    def test_all_constant_same_mean(self):
        result = one_way_anova([np.ones(5), np.ones(5)])
        assert result.f_statistic == 0.0
        assert result.p_value == 1.0

    def test_single_group_rejected(self):
        with pytest.raises(EvaluationError):
            one_way_anova([np.ones(5)])

    def test_empty_groups_dropped(self):
        with pytest.raises(EvaluationError):
            one_way_anova([np.array([]), np.ones(5)])

    def test_insufficient_observations(self):
        with pytest.raises(EvaluationError):
            one_way_anova([np.array([1.0]), np.array([2.0])])


class TestAnovaProperties:
    @settings(max_examples=300, deadline=None)
    @given(groups=_groups)
    def test_p_value_is_f_sf_bit_for_bit(self, groups):
        """The p-value is ``stats.f.sf`` of the reported F exactly, in
        both constant-group branches (F = 0 and F = inf) as well."""
        result = one_way_anova([np.array(g) for g in groups])
        expected = float(
            stats.f.sf(result.f_statistic, result.df_between, result.df_within)
        )
        assert result.p_value.hex() == expected.hex()

    @settings(max_examples=100, deadline=None)
    @given(groups=_equal_mean_groups())
    def test_equal_means_give_f_zero(self, groups):
        result = one_way_anova([np.array(g) for g in groups])
        assert result.f_statistic == 0.0
        assert result.p_value == 1.0

    @settings(max_examples=200, deadline=None)
    @given(groups=st.lists(_constant_group, min_size=2, max_size=6))
    @example(groups=[[0.1] * 3, [0.2] * 3])
    def test_constant_groups_match_f_oneway(self, groups):
        """Constant groups give F = inf and p = 0 as ``f_oneway`` does,
        or F = 0 and p = 1 when every group holds one value, even when
        a group's float mean is an ulp off its values (0.1 * 3 / 3)."""
        result = one_way_anova([np.array(g) for g in groups])
        assert result.ss_within == 0.0
        if len({g[0] for g in groups}) == 1:
            assert (result.f_statistic, result.p_value) == (0.0, 1.0)
            assert result.ss_between == 0.0
        else:
            expected = stats.f_oneway(*groups)
            assert (result.f_statistic, result.p_value) == (
                expected.statistic,
                expected.pvalue,
            ) == (math.inf, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        groups=st.lists(
            st.lists(st.integers(-1000, 1000), min_size=2, max_size=50),
            min_size=2,
            max_size=6,
        ),
        exponent=st.floats(-3.0, 3.0),
        negative=st.booleans(),
        shift=st.floats(-1e3, 1e3),
    )
    def test_affine_rescaling_keeps_f_and_p(self, groups, exponent, negative, shift):
        """F and p are invariant under x -> a*x + b, a != 0, up to
        rounding, all-constant groups included."""
        a = (-1.0 if negative else 1.0) * 10.0**exponent
        b = a * shift
        before = one_way_anova([np.array(g, dtype=float) for g in groups])
        after = one_way_anova([a * np.array(g, dtype=float) + b for g in groups])
        # F = 0 (equal integer means) can come back as a rounding residue
        # near 1e-25, hence the absolute floor.
        assert math.isclose(
            after.f_statistic, before.f_statistic, rel_tol=1e-9, abs_tol=1e-12
        )
        assert math.isclose(after.p_value, before.p_value, rel_tol=1e-9, abs_tol=1e-300)
