"""Determinism source lint: CL rules and the repo itself."""

import textwrap

import pytest

from repro.analysis import (DeterminismLinter, apply_baseline, fingerprint,
                            load_baseline)
from repro.soc import SOCS, soc_by_name


def _lint(source):
    return DeterminismLinter().lint_source(
        textwrap.dedent(source), "sample.py")


class TestCL003Randomness:
    def test_unseeded_default_rng_fires(self):
        report = _lint("""
            import numpy as np

            def roll():
                return np.random.default_rng().random()
        """)
        assert "CL003" in report.rules_fired()

    def test_seeded_default_rng_is_clean(self):
        report = _lint("""
            import numpy as np

            def roll(seed):
                return np.random.default_rng(seed).random()
        """)
        assert report.clean

    def test_legacy_np_random_fires(self):
        report = _lint("""
            import numpy as np

            def noise(n):
                return np.random.randn(n)
        """)
        assert report.rules_fired() == ["CL003"]

    def test_stdlib_random_fires(self):
        report = _lint("""
            import random

            def pick(items):
                return random.choice(items)
        """)
        assert report.rules_fired() == ["CL003"]

    def test_generator_methods_are_clean(self):
        report = _lint("""
            def draw(rng):
                return rng.random() + rng.choice([1, 2])
        """)
        assert report.clean


class TestCL004WallClock:
    def test_time_calls_fire_as_info(self):
        report = _lint("""
            import time

            def stamp():
                return time.time(), time.perf_counter()
        """)
        assert report.rules_fired() == ["CL004"]
        assert report.ok
        assert len(report) == 2

    def test_datetime_now_fires(self):
        report = _lint("""
            from datetime import datetime

            def stamp():
                return datetime.now()
        """)
        assert report.rules_fired() == ["CL004"]

    def test_simulated_clocks_are_clean(self):
        report = _lint("""
            def advance(clock, dt):
                clock.now_s += dt
                return clock.now_s
        """)
        assert report.clean


class TestRepoLint:
    def test_src_repro_is_clean_after_baseline(self):
        report = DeterminismLinter().lint_paths(["src/repro"])
        baseline = load_baseline("lint-baseline.json")
        left = apply_baseline(report, baseline)
        assert left.clean, left.render()
        # No stale entries: every suppression still matches a finding.
        current = {fingerprint(diagnostic) for diagnostic in report}
        stale = sorted(set(baseline) - current)
        assert not stale, stale

    def test_lint_is_deterministic(self):
        first = DeterminismLinter().lint_paths(["src/repro"])
        second = DeterminismLinter().lint_paths(["src/repro"])
        assert first.to_dict() == second.to_dict()

    def test_baseline_reasons_are_filled_in(self):
        baseline = load_baseline("lint-baseline.json")
        assert baseline
        assert all(reason for reason in baseline.values())


class TestMulayerCacheBounded:
    def test_cache_evicts_least_recently_used(self):
        import dataclasses

        from repro.analysis import verify
        verify._MULAYER_CACHE.clear()
        base = soc_by_name("exynos7420")
        for index in range(verify._MULAYER_CACHE_CAPACITY + 3):
            soc = dataclasses.replace(base, name=f"soc{index}")
            verify._cached_runtime(soc)
        assert (len(verify._MULAYER_CACHE)
                == verify._MULAYER_CACHE_CAPACITY)
        # The oldest entries were evicted, the newest survive.
        assert "soc0" not in verify._MULAYER_CACHE
        assert f"soc{verify._MULAYER_CACHE_CAPACITY + 2}" in (
            verify._MULAYER_CACHE)
        verify._MULAYER_CACHE.clear()

    def test_cache_hit_returns_same_runtime(self):
        from repro.analysis import verify
        verify._MULAYER_CACHE.clear()
        soc = soc_by_name("exynos7420")
        first = verify._cached_runtime(soc)
        second = verify._cached_runtime(soc)
        assert first is second
        assert len(verify._MULAYER_CACHE) == 1
        verify._MULAYER_CACHE.clear()

    def test_all_socs_fit_within_the_bound(self):
        from repro.analysis import verify
        assert len(SOCS) <= verify._MULAYER_CACHE_CAPACITY
