"""Tests for three-body state counting and ladder construction."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efano.efimov import (
    UNBOUNDED,
    EfimovLadder,
    ThresholdPartition,
    build_efimov_ladder,
    classify_states_vs_threshold,
    count_states,
)
from efano.errors import DomainError

# Lengths spread over every decade of a wide range: scaled by a power of
# two within [-300, 300] they stay normal floats, so the scaling is exact.
LENGTHS = st.floats(-100.0, 100.0).map(lambda e: 10.0**e)


class TestCountStates:
    @pytest.mark.parametrize("k", range(7))
    def test_exact_boundary_ratios(self, k):
        # |a|/r0 = e^(k*pi) admits exactly k states; the boundary itself
        # belongs to the count-k side.
        r0 = 1.0
        assert count_states(r0 * math.exp(k * math.pi), r0) == k

    def test_negative_a_counts_by_magnitude(self):
        r0 = 0.7
        a = -r0 * math.exp(2.0 * math.pi) * 1.5
        assert count_states(a, r0) == 2

    def test_window_smaller_than_range(self):
        assert count_states(0.5, 1.0) == 0
        assert count_states(-0.5, 1.0) == 0
        assert count_states(1.0, 1.0) == 0

    def test_zero_length(self):
        assert count_states(0.0, 1.0) == 0
        assert count_states(-0.0, 1.0) == 0

    def test_infinite_length_is_unbounded(self):
        assert count_states(math.inf, 1.0) is UNBOUNDED
        assert count_states(-math.inf, 1.0) is UNBOUNDED

    def test_unbounded_marker(self):
        assert repr(UNBOUNDED) == "unbounded"
        assert type(UNBOUNDED)() is UNBOUNDED

    @settings(max_examples=100, deadline=None)
    @given(ratios=st.lists(st.floats(0.0, 1e100), min_size=1, max_size=12), r0=LENGTHS)
    @example(ratios=[1.0, 3.0, 23.0, 23.2, 500.0, 540.0, 1e4, 1e6], r0=1.0)
    def test_count_monotone_in_ratio(self, ratios, r0):
        # Multiplying by r0 rounds monotonically, so the lengths stay sorted.
        counts = [count_states(r * r0, r0) for r in sorted(ratios)]
        assert counts == sorted(counts)

    @settings(max_examples=100, deadline=None)
    @given(
        a=LENGTHS, r0=LENGTHS, sign=st.sampled_from([1.0, -1.0]),
        factor=st.integers(-300, 300).map(lambda k: 2.0**k),
    )
    @example(a=100.0, r0=1.0, sign=1.0, factor=0.001)
    def test_count_depends_only_on_ratio(self, a, r0, sign, factor):
        # The count is floor(ln(|a|/r0)/pi): scaling both lengths by the
        # same factor keeps it, and each factor e^pi of |a|/r0 past 1 adds
        # one state.  That last check skips ratios within 1e-9 of a
        # boundary e^(k*pi), which rounding may put on either side.
        a *= sign
        count = count_states(a, r0)
        assert count_states(a * factor, r0 * factor) == count
        t = (math.log(abs(a)) - math.log(r0)) / math.pi
        if t > 1e-9 and abs(t - round(t)) > 1e-9:
            assert count_states(a * math.exp(math.pi), r0) == count + 1

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            count_states(math.nan, 1.0)

    @pytest.mark.parametrize(
        "a,r0,count",
        [(1e-320, 1e308, 0), (1e308, 1e-308, 451), (-1e308, 5e-324, 462)],
        ids=["ratio-underflows", "ratio-overflows", "ratio-overflows-negative-a"],
    )
    def test_ratio_at_float_range_ends(self, a, r0, count):
        # Expected counts are floor(ln(|a|/r0)/pi) in 40-digit arithmetic.
        assert count_states(a, r0) == count

    @pytest.mark.parametrize("r0", [0.0, -1.0, math.nan, math.inf])
    def test_bad_range(self, r0):
        with pytest.raises(DomainError):
            count_states(1.0, r0)


class TestBuildEfimovLadder:
    def test_entries_follow_geometric_law(self):
        ladder = build_efimov_ladder(1.0, -1.0, 4)
        assert isinstance(ladder, EfimovLadder)
        assert len(ladder.entries) == 4
        for n, energy in ladder.entries:
            assert energy == pytest.approx(
                -math.exp(-2.0 * math.pi * n), rel=1e-12
            )

    def test_indices_start_at_zero(self):
        ladder = build_efimov_ladder(0.8, -5.0, 3)
        assert [n for n, _ in ladder.entries] == [0, 1, 2]
        assert ladder.entries[0][1] == -5.0

    @settings(max_examples=150, deadline=None)
    @given(
        alpha=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        ground=st.floats(-300.0, 300.0).map(lambda e: -(10.0**e)),
        count=st.integers(1, 400),
    )
    @example(alpha=1.2, ground=-2.0, count=5)
    @example(alpha=2.0 * math.pi / 10.0, ground=-1e300, count=200)
    def test_energies_increase_toward_zero(self, alpha, ground, count):
        # Entries are numbered from 0, normal, negative and strictly
        # shallower; each is ground * exp(step * n), step = -2*pi/alpha,
        # so consecutive ones differ by exp(step).  That ratio is compared
        # in logs, where it cannot underflow, to the size of the logs and
        # exponents involved times 2**-53.
        ladder = build_efimov_ladder(alpha, ground, count)
        ns = [n for n, _ in ladder.entries]
        energies = [e for _, e in ladder.entries]
        assert ns == list(range(len(ns)))
        assert ladder.truncated_at == (None if len(ns) == count else len(ns))
        assert all(-math.inf < e <= -sys.float_info.min for e in energies)
        assert all(a < b < 0.0 for a, b in zip(energies, energies[1:]))
        step = -2.0 * math.pi / alpha
        logs = [math.log(-e) for e in energies]
        for n, (la, lb) in enumerate(zip(logs, logs[1:])):
            size = abs(la) + abs(lb) + abs(step) * (2 * n + 2) + 1.0
            assert abs(lb - la - step) <= 8.0 * size * 2.0**-53

    @pytest.mark.parametrize("count", [0, -1, 2.0])
    def test_requires_at_least_one_state(self, count):
        with pytest.raises(DomainError):
            build_efimov_ladder(1.0, -1.0, count)

    def test_truncates_before_subnormal(self):
        ladder = build_efimov_ladder(1.0, -1.0, 200)
        assert ladder.truncated_at == 113
        assert [n for n, _ in ladder.entries] == list(range(113))
        assert build_efimov_ladder(1.0, -1.0, 113).truncated_at is None

    def test_propagates_energy_validation(self):
        with pytest.raises(DomainError):
            build_efimov_ladder(1.0, 1.0, 2)
        with pytest.raises(DomainError):
            build_efimov_ladder(-1.0, -1.0, 2)


class TestThresholdClassification:
    def test_partition_is_total_and_ordered(self):
        ladder = build_efimov_ladder(1.0, -1.0, 6)
        part = classify_states_vs_threshold(ladder, -1e-4)
        assert isinstance(part, ThresholdPartition)
        merged = sorted(part.bound + part.embedded)
        assert merged == sorted(ladder.entries)
        for _, energy in part.bound:
            assert energy <= -1e-4
        for _, energy in part.embedded:
            assert -1e-4 < energy < 0.0

    def test_boundary_entry_counts_as_bound(self):
        ladder = build_efimov_ladder(1.0, -1.0, 3)
        threshold = ladder.entries[1][1]
        part = classify_states_vs_threshold(ladder, threshold)
        assert ladder.entries[1] in part.bound

    def test_threshold_below_everything(self):
        ladder = build_efimov_ladder(1.0, -1.0, 3)
        part = classify_states_vs_threshold(ladder, -50.0)
        assert part.bound == ()
        assert part.embedded == ladder.entries

    @settings(max_examples=300, deadline=None)
    @given(
        threshold=st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
        data=st.data(),
    )
    @example(threshold=-1e-3, data=None)
    def test_matches_two_filters_in_any_order(self, threshold, data):
        # A hand-built ladder need not be ordered; entries exactly at the
        # threshold are drawn often.
        if data is None:
            energies = [-1e-4, -1e-3, -1.0, -1e-3, -0.5e-3]
            entries = tuple(enumerate(energies))[::-1]
        else:
            energy = st.just(threshold) | st.floats()
            entries = tuple(data.draw(st.lists(st.tuples(st.integers(0, 60), energy))))
        part = classify_states_vs_threshold(EfimovLadder(1.0, -1.0, entries), threshold)
        assert part.bound == tuple(e for e in entries if e[1] <= threshold)
        assert part.embedded == tuple(e for e in entries if e[1] > threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, math.nan, -math.inf])
    def test_bad_threshold(self, threshold):
        ladder = build_efimov_ladder(1.0, -1.0, 2)
        with pytest.raises(DomainError):
            classify_states_vs_threshold(ladder, threshold)
