"""Tests for the Section 6.3 probabilistic reservation algorithm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ProbabilisticAdmission,
    handoff_in_probability,
    nonblocking_probability,
    probabilistic,
    reserved_bandwidth,
    stay_probability,
    weighted_binomial_sum_pmf,
)

#: Figure 6's two connection types: (bandwidth, mu, handoff probability).
FIG6_TYPES = [(1.0, 5.0, 0.7), (4.0, 4.0, 0.7)]


def test_stay_probability_formula():
    assert stay_probability(mu=5.0, window=0.1) == pytest.approx(math.exp(-0.5))
    assert stay_probability(mu=5.0, window=0.0) == 1.0
    with pytest.raises(ValueError):
        stay_probability(0.0, 1.0)
    with pytest.raises(ValueError):
        stay_probability(1.0, -1.0)


def test_handoff_in_probability_formula():
    p = handoff_in_probability(mu=5.0, window=0.1, handoff_prob=0.7)
    assert p == pytest.approx((1 - math.exp(-0.5)) * 0.7)
    with pytest.raises(ValueError):
        handoff_in_probability(5.0, 0.1, 1.5)


def test_probabilities_complementary():
    """p_s + p_m/h + termination share = 1 structure."""
    mu, window, h = 4.0, 0.05, 0.7
    p_s = stay_probability(mu, window)
    p_m = handoff_in_probability(mu, window, h)
    leave = 1 - p_s
    assert p_m == pytest.approx(leave * h)


def test_pmf_single_binomial():
    pmf, unit = weighted_binomial_sum_pmf([(1.0, 2, 0.5)])
    assert unit == 1.0
    assert list(pmf) == pytest.approx([0.25, 0.5, 0.25])


def test_pmf_bandwidth_expansion():
    pmf, unit = weighted_binomial_sum_pmf([(4.0, 1, 0.5)])
    # Load is 0 or 4 units.
    assert pmf[0] == pytest.approx(0.5)
    assert pmf[4] == pytest.approx(0.5)
    assert pmf[1] == pmf[2] == pmf[3] == 0.0


def test_pmf_convolution_of_types():
    pmf, _ = weighted_binomial_sum_pmf([(1.0, 1, 0.5), (2.0, 1, 0.5)])
    # Loads: 0, 1, 2, 3 each with prob 0.25.
    assert list(pmf) == pytest.approx([0.25, 0.25, 0.25, 0.25])


def test_pmf_fractional_bandwidths_scaled():
    pmf, unit = weighted_binomial_sum_pmf([(0.5, 1, 1.0)])
    assert unit == pytest.approx(0.5)
    assert pmf[1] == pytest.approx(1.0)


def test_pmf_empty_groups():
    pmf, unit = weighted_binomial_sum_pmf([])
    assert list(pmf) == [1.0]


@pytest.mark.parametrize(
    "groups", [[(1.0, -3, 0.5)], [(1.0, 2, 0.5), (4.0, -1, 0.3)]]
)
def test_negative_count_rejected(groups):
    with pytest.raises(ValueError, match="count must be non-negative"):
        weighted_binomial_sum_pmf(groups)
    with pytest.raises(ValueError, match="count must be non-negative"):
        nonblocking_probability(5.0, groups)


def test_nonblocking_probability_extremes():
    groups = [(1.0, 10, 0.5)]
    assert nonblocking_probability(10.0, groups) == pytest.approx(1.0)
    assert nonblocking_probability(0.0, groups) == pytest.approx(0.5**10)


def test_nonblocking_matches_monte_carlo():
    rng = np.random.default_rng(5)
    groups = [(1.0, 12, 0.6), (4.0, 3, 0.3)]
    capacity = 14.0
    exact = nonblocking_probability(capacity, groups)
    samples = rng.binomial(12, 0.6, 40000) + 4 * rng.binomial(3, 0.3, 40000)
    mc = float(np.mean(samples <= capacity))
    assert exact == pytest.approx(mc, abs=0.01)


def test_reserved_bandwidth_eqn7():
    assert reserved_bandwidth(40.0, [1.0, 4.0], [20, 3]) == pytest.approx(8.0)
    assert reserved_bandwidth(40.0, [1.0, 4.0], [40, 10]) == 0.0  # clamped
    with pytest.raises(ValueError):
        reserved_bandwidth(40.0, [1.0], [1, 2])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1.0, 2.0, 4.0]),
            st.integers(min_value=0, max_value=25),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        max_size=4,
    )
)
def test_property_pmf_is_distribution(groups):
    pmf, unit = weighted_binomial_sum_pmf(groups)
    assert pmf.sum() == pytest.approx(1.0)
    assert (pmf >= -1e-12).all()
    assert unit > 0


# -- reference: the uncached P_nb arithmetic ---------------------------------
#
# A copy of the implementation without memoization, with scipy's gammaln
# in place of the log-gamma port, so the tests that call it need scipy.
# The memoized path must reproduce it bit for bit, because admission
# compares P_nb against 1 - P_QOS and one flipped decision changes every
# later event.


def reference_binomial_pmf(n, p):
    if n == 0:
        return np.array([1.0])
    if p <= 0.0:
        pmf = np.zeros(n + 1)
        pmf[0] = 1.0
        return pmf
    if p >= 1.0:
        pmf = np.zeros(n + 1)
        pmf[n] = 1.0
        return pmf
    from scipy.special import gammaln

    k = np.arange(n + 1)
    log_pmf = (
        gammaln(n + 1)
        - gammaln(k + 1)
        - gammaln(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log(1.0 - p)
    )
    return np.exp(log_pmf)


def reference_scale_to_integers(bandwidths):
    for scale in (1, 2, 4, 5, 8, 10, 16, 20, 25, 50, 100, 1000):
        scaled = [b * scale for b in bandwidths]
        if all(abs(s - round(s)) < 1e-9 and round(s) >= 1 for s in scaled):
            return [int(round(s)) for s in scaled], 1.0 / scale
    raise ValueError(
        f"bandwidths {list(bandwidths)} cannot be scaled to integers"
    )


def reference_weighted_binomial_sum_pmf(groups):
    for _, n, _ in groups:
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
    active = [(b, n, p) for b, n, p in groups if n > 0]
    if not active:
        return np.array([1.0]), 1.0
    weights, unit = reference_scale_to_integers([b for b, _, _ in active])
    pmf = np.array([1.0])
    for (bw, (_, n, p)) in zip(weights, active):
        base = reference_binomial_pmf(n, p)
        expanded = np.zeros(n * bw + 1)
        expanded[:: bw] = base
        pmf = np.convolve(pmf, expanded)
    return pmf, unit


def reference_nonblocking_probability(capacity, groups):
    pmf, unit = reference_weighted_binomial_sum_pmf(groups)
    limit = int(math.floor(capacity / unit + 1e-9))
    return float(pmf[: limit + 1].sum()) if limit >= 0 else 0.0


def clear_memos():
    probabilistic._log_gamma.cache_clear()
    probabilistic._binomial_pmf.cache_clear()
    probabilistic._placed_binomial_pmf.cache_clear()
    probabilistic._scale_to_integers.cache_clear()


def test_log_gamma_port_equals_scipy_gammaln():
    """The pmf's log-factorials match the scipy oracle bit for bit, on
    1..100,000 and on both sides of Cephes' branches at 13, 1000 and 1e8."""
    special = pytest.importorskip("scipy.special")
    m = np.arange(1, 100_001)
    ported = np.array([probabilistic._log_gamma(int(v)) for v in m])
    assert np.array_equal(ported, special.gammaln(m))
    for v in (12, 13, 999, 1000, 10**8, 10**8 + 1):
        assert probabilistic._log_gamma(v) == special.gammaln(v)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.5, 1.0, 2.0, 4.0]),
            st.integers(min_value=0, max_value=40),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        max_size=4,
    ),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_property_memoized_pmf_bit_identical_to_uncached(groups, capacity):
    pytest.importorskip("scipy.special")
    expected_pmf, expected_unit = reference_weighted_binomial_sum_pmf(groups)
    expected_pnb = reference_nonblocking_probability(capacity, groups)
    clear_memos()
    for _ in ("first call: memo misses", "repeated call: memo hits"):
        pmf, unit = weighted_binomial_sum_pmf(groups)
        assert np.array_equal(pmf, expected_pmf)
        assert unit == expected_unit
        assert nonblocking_probability(capacity, groups) == expected_pnb


@pytest.mark.parametrize(
    "n, p", [(0, 0.3), (6, 0.0), (6, 1.0), (6, 0.3)]
)
def test_memoized_arrays_are_read_only(n, p):
    for array in (
        probabilistic._binomial_pmf(n, p),
        probabilistic._placed_binomial_pmf(n, p, 4),
    ):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5


@pytest.mark.parametrize(
    "groups",
    [[], [(1.0, 3, 0.4)], [(1.0, 3, 0.4), (4.0, 2, 0.2)]],
)
def test_returned_pmf_is_the_callers_own(groups):
    first, _ = weighted_binomial_sum_pmf(groups)
    expected = first.copy()
    first[:] = -1.0
    second, _ = weighted_binomial_sum_pmf(groups)
    assert np.array_equal(second, expected)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=60.0))
def test_property_nonblocking_monotone_in_capacity(capacity):
    groups = [(1.0, 20, 0.5), (4.0, 5, 0.5)]
    assert nonblocking_probability(capacity, groups) <= nonblocking_probability(
        capacity + 1.0, groups
    ) + 1e-12


class TestProbabilisticAdmission:
    def make(self, window=0.05, p_qos=0.01):
        return ProbabilisticAdmission(
            capacity=40.0, window=window, p_qos=p_qos, types=FIG6_TYPES
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbabilisticAdmission(0, 0.1, 0.01, FIG6_TYPES)
        with pytest.raises(ValueError):
            ProbabilisticAdmission(40, 0, 0.01, FIG6_TYPES)
        with pytest.raises(ValueError):
            ProbabilisticAdmission(40, 0.1, 0.0, FIG6_TYPES)
        # Per-type parameters fail at construction, not at the first
        # admission inside a running simulation.
        with pytest.raises(ValueError, match="mu must be positive"):
            ProbabilisticAdmission(40, 0.1, 0.01, [(1.0, 0.0, 0.7)])
        with pytest.raises(ValueError, match="handoff_prob"):
            ProbabilisticAdmission(40, 0.1, 0.01, [(1.0, 5.0, 1.5)])
        for bandwidth in (0.0, -1.0):
            with pytest.raises(ValueError, match="bandwidth must be positive"):
                ProbabilisticAdmission(40, 0.1, 0.01, [(bandwidth, 5.0, 0.7)])

    def test_empty_cell_admits(self):
        admission = self.make()
        assert admission.admit_new(0, [0, 0], [0, 0])
        assert admission.admit_new(1, [0, 0], [0, 0])

    def test_full_cell_refuses(self):
        admission = self.make(p_qos=0.001)
        assert not admission.admit_new(0, [38, 0], [38, 0])

    def test_stricter_pqos_refuses_earlier(self):
        """Find the admission boundary: strict P_QOS stops at lower counts."""

        def max_admitted(p_qos):
            admission = self.make(p_qos=p_qos)
            counts = [0, 0]
            while admission.admit_new(0, counts, counts) and counts[0] < 60:
                counts[0] += 1
            return counts[0]

        assert max_admitted(0.001) < max_admitted(0.2)

    def test_vanishing_window_reduces_to_bandwidth_fit(self):
        """As T -> 0 nothing moves (p_s -> 1, p_m -> 0): the test admits up
        to raw capacity regardless of the neighbor's load."""
        admission = self.make(window=1e-6, p_qos=0.01)
        counts = [0, 0]
        neighbor = [38, 0]
        while admission.admit_new(0, counts, neighbor) and counts[0] < 60:
            counts[0] += 1
        assert counts[0] == 40

    def test_moderate_window_protects_against_loaded_neighbor(self):
        """With a real look-ahead, a loaded neighbor curbs admissions."""

        def max_admitted(neighbor):
            admission = self.make(window=0.05, p_qos=0.01)
            counts = [0, 0]
            while admission.admit_new(0, counts, neighbor) and counts[0] < 60:
                counts[0] += 1
            return counts[0]

        # (The probabilistic test alone may exceed raw capacity slightly —
        # departures within T free space; the simulator combines it with a
        # plain bandwidth-fit check.)
        assert max_admitted([38, 0]) < max_admitted([0, 0])

    def test_counts_validation(self):
        admission = self.make()
        with pytest.raises(ValueError):
            admission.admit_new(0, [1], [0, 0])

    def test_max_admissible_counts_boundary(self):
        admission = self.make(p_qos=0.05)
        counts = admission.max_admissible_counts([0, 0], [0, 0])
        # The boundary is tight: one more of the cheap type would break (6).
        assert not admission.admit_new(0, counts, [0, 0])
        assert admission.nonblocking(counts, [0, 0]) >= 1 - 0.05

    def test_reservation_for_uses_eqn7(self):
        admission = self.make()
        assert admission.reservation_for([20, 3]) == pytest.approx(8.0)

    def test_nonblocking_memoized(self):
        """One P_nb memo serves every controller with equal parameters."""
        memo = probabilistic._nonblocking
        memo.cache_clear()
        occupancy = ([5, 1], [3, 0])
        strict, loose = self.make(p_qos=0.001), self.make(p_qos=0.1)
        admissions = [strict, loose]
        values = [admission.nonblocking(*occupancy) for admission in admissions]
        assert values[0] == values[1]
        assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)
        # A different window or capacity is a different parameter set.
        admissions += [
            self.make(window=0.2),
            ProbabilisticAdmission(36.0, 0.05, 0.01, FIG6_TYPES),
        ]
        values += [admission.nonblocking(*occupancy) for admission in admissions[2:]]
        assert (memo.cache_info().misses, memo.cache_info().hits) == (3, 1)
        pytest.importorskip("scipy.special")
        for admission, value in zip(admissions, values):
            groups = admission.survival_groups(*occupancy)
            assert value == reference_nonblocking_probability(
                admission.capacity, groups
            )
