"""Tests for the serving schedulers: FIFO, least-loaded, EDF."""

import pytest

from repro.serve import (EDFScheduler, FIFOScheduler,
                         LeastLoadedScheduler, Fleet, Request, Shed,
                         Start, make_scheduler)


@pytest.fixture(scope="module")
def fleet():
    return Fleet.build(("exynos7420",), 2)


@pytest.fixture()
def trace(fleet):
    """Three simultaneous arrivals with *reversed* deadline order:
    the latest arrival has the tightest deadline."""
    base = fleet.isolated_latency_s("vgg_mini")
    return [
        Request(request_id=0, model="vgg_mini", arrival_s=0.0,
                slo_s=8.0 * base),
        Request(request_id=1, model="vgg_mini", arrival_s=0.0,
                slo_s=6.0 * base),
        Request(request_id=2, model="vgg_mini", arrival_s=0.0,
                slo_s=2.0 * base),
    ]


def reset(fleet):
    for device in fleet.devices:
        for resource in device.free_s:
            device.free_s[resource] = 0.0
            device.busy_s[resource] = 0.0
        device.completed = 0


class TestFIFO:
    def test_picks_head_of_queue(self, fleet, trace):
        reset(fleet)
        action = FIFOScheduler().next_action(trace, fleet, 0.0)
        assert isinstance(action, Start)
        assert [r.request_id for r in action.requests] == [0]
        assert action.mechanism == "mulayer"
        assert action.device_id == fleet.devices[0].device_id

    def test_head_of_line_blocks(self, fleet, trace):
        """While the head cannot start, FIFO starts nothing at all."""
        reset(fleet)
        for device in fleet.devices:
            device.occupy(device.soc.resources(), 0.0, 1.0)
        assert FIFOScheduler().next_action(trace, fleet, 0.0) is None
        reset(fleet)

    def test_empty_queue(self, fleet):
        reset(fleet)
        assert FIFOScheduler().next_action([], fleet, 0.0) is None


class TestLeastLoaded:
    def test_prefers_least_worked_device(self, fleet, trace):
        reset(fleet)
        # dev0 has served more cumulative work; both are idle now.
        fleet.devices[0].busy_s["cpu"] = 5.0
        action = LeastLoadedScheduler().next_action(trace, fleet, 0.0)
        assert isinstance(action, Start)
        assert action.device_id == fleet.devices[1].device_id
        reset(fleet)


class TestEDF:
    def test_earliest_deadline_dispatched_first(self, fleet, trace):
        """FIFO starts request 0; EDF starts request 2 -- the last
        arrival, but the tightest deadline."""
        reset(fleet)
        action = EDFScheduler().next_action(trace, fleet, 0.0)
        assert isinstance(action, Start)
        assert [r.request_id for r in action.requests] == [2]
        assert action.predicted_service_s > 0.0

    def test_sheds_hopeless_request(self, fleet):
        reset(fleet)
        doomed = Request(request_id=0, model="vgg_mini",
                         arrival_s=0.0, slo_s=1e-9)
        action = EDFScheduler().next_action([doomed], fleet, 0.0)
        assert isinstance(action, Shed)
        assert action.reason == "predicted-deadline-miss"

    def test_no_shed_without_admission_control(self, fleet):
        reset(fleet)
        doomed = Request(request_id=0, model="vgg_mini",
                         arrival_s=0.0, slo_s=1e-9)
        scheduler = EDFScheduler(admission_control=False)
        assert scheduler.next_action([doomed], fleet, 0.0) is None

    def test_waits_for_busy_but_feasible_device(self, fleet, trace):
        """All resources busy for a moment << the deadlines: the
        requests are feasible later, so EDF neither starts nor sheds."""
        reset(fleet)
        for device in fleet.devices:
            device.occupy(device.soc.resources(), 0.0, 1e-6)
        assert EDFScheduler().next_action(trace, fleet, 0.0) is None
        reset(fleet)

    def test_mechanism_restriction_honored(self, fleet):
        reset(fleet)
        loose = Request(request_id=0, model="vgg_mini",
                        arrival_s=0.0, slo_s=10.0)
        action = EDFScheduler(mechanisms=("gpu",)).next_action(
            [loose], fleet, 0.0)
        assert isinstance(action, Start)
        assert action.mechanism == "gpu"


class TestFactory:
    def test_known_names(self):
        assert make_scheduler("fifo").name == "fifo"
        assert make_scheduler("least-loaded").name == "least-loaded"
        assert make_scheduler("edf").name == "edf"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="bogus"):
            make_scheduler("bogus")
