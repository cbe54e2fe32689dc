"""Tests for the branch distribution mechanism (Section 5)."""

import pytest

from repro.harness import build_inception_3a_graph
from repro.nn import find_branch_regions
from repro.runtime import (BranchProfile, Partitioner, PartitionerConfig,
                           estimate_mapping, profile_branches)
from repro.soc import EXYNOS_7420


@pytest.fixture(scope="module")
def inception():
    return build_inception_3a_graph()


@pytest.fixture(scope="module")
def oracle_partitioner():
    return Partitioner(EXYNOS_7420,
                       config=PartitionerConfig(use_oracle_costs=True))


class TestProfiles:
    def test_four_branches_profiled(self, inception, oracle_partitioner):
        region = find_branch_regions(inception)[0]
        profiles = profile_branches(inception, region, EXYNOS_7420,
                                    oracle_partitioner._busy)
        assert len(profiles) == 4
        for profile in profiles:
            assert profile.cpu_s > 0
            assert profile.gpu_s > 0

    def test_3x3_branch_dominates(self, inception, oracle_partitioner):
        """Inception 3a's 3x3 branch carries ~80% of the MACs."""
        region = find_branch_regions(inception)[0]
        profiles = profile_branches(inception, region, EXYNOS_7420,
                                    oracle_partitioner._busy)
        branch_costs = [p.cpu_s for p in profiles]
        assert max(branch_costs) > 3 * sorted(branch_costs)[-2]


class TestMappingEstimates:
    def test_all_cpu_serializes(self):
        profiles = [BranchProfile(1.0, 2.0), BranchProfile(1.0, 2.0)]
        assert estimate_mapping(profiles, ("cpu", "cpu"), 0.1) == 2.0

    def test_parallel_overlap(self):
        profiles = [BranchProfile(1.0, 1.5), BranchProfile(1.0, 1.5)]
        est = estimate_mapping(profiles, ("cpu", "gpu"), 0.1)
        assert est == pytest.approx(max(1.0, 1.5 + 0.1))

    def test_sync_charged_only_with_gpu(self):
        profiles = [BranchProfile(1.0, 9.0)]
        assert estimate_mapping(profiles, ("cpu",), 0.5) == 1.0
        assert estimate_mapping(profiles, ("gpu",), 0.5) == 9.5


class TestPartitionerIntegration:
    def test_inception_region_branch_distributed(self, inception):
        """On the high-end SoC the partitioner should choose branch
        distribution for Inception 3a (the Figure 12 scenario)."""
        partitioner = Partitioner(
            EXYNOS_7420, config=PartitionerConfig(use_oracle_costs=True))
        plan = partitioner.plan(inception)
        assert plan.branch_assignments, \
            "expected branch distribution on Inception 3a"
        mapping = plan.branch_assignments[0].mapping
        assert "cpu" in mapping and "gpu" in mapping

    def test_disabled_branch_distribution(self, inception):
        config = PartitionerConfig(enable_branch_distribution=False,
                                   use_oracle_costs=True)
        plan = Partitioner(EXYNOS_7420, config=config).plan(inception)
        assert plan.branch_assignments == []

    def test_branch_plan_validates(self, inception):
        partitioner = Partitioner(
            EXYNOS_7420, config=PartitionerConfig(use_oracle_costs=True))
        plan = partitioner.plan(inception)
        plan.validate(inception)
