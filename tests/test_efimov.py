"""Tests for three-body state counting and ladder construction."""

import math

import pytest

from efano.efimov import (
    UNBOUNDED,
    EfimovLadder,
    ThresholdPartition,
    build_efimov_ladder,
    classify_states_vs_threshold,
    count_states,
)
from efano.errors import DomainError


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

    def test_count_monotone_in_ratio(self):
        r0 = 1.0
        ratios = [1.0, 3.0, 23.0, 23.2, 500.0, 540.0, 1e4, 1e6]
        counts = [count_states(r, r0) for r in ratios]
        assert counts == sorted(counts)

    def test_count_depends_only_on_ratio(self):
        assert count_states(100.0, 1.0) == count_states(0.1, 0.001)

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

    def test_energies_increase_toward_zero(self):
        ladder = build_efimov_ladder(1.2, -2.0, 5)
        energies = [e for _, e in ladder.entries]
        assert all(a < b < 0.0 for a, b in zip(energies, energies[1:]))

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

    @pytest.mark.parametrize("threshold", [0.0, 1.0, math.nan, -math.inf])
    def test_bad_threshold(self, threshold):
        ladder = build_efimov_ladder(1.0, -1.0, 2)
        with pytest.raises(DomainError):
            classify_states_vs_threshold(ladder, threshold)
