"""A pool: one named group of identical replicas behind a scheduler.

A pool owns a serve-layer :class:`~repro.serve.fleet.Fleet` provisioned
at ``max_replicas`` devices, of which only the first ``active`` are
visible to its scheduler -- scaling up or down is a matter of widening
or narrowing that active prefix, so the serve-layer scheduler and the
serve-layer :class:`~repro.serve.simulator.EventLoop` drain run
unchanged on each pool's fleet and queue.  All pools of
a cluster share one :class:`~repro.runtime.plan_cache.PlanCache`, which
is what makes replica activation and warm-plan migration cheap: a new
replica of an already-serving SoC type finds every plan it needs
already cached.

Scale-up models a **cold start**: the activated replica's per-processor
clocks are pushed ``cold_start_s`` into the future, so it accepts no
work until its (simulated) plan load completes.  Scale-down simply
narrows the active prefix; an in-flight request on the retired replica
still completes, because device clocks advance at dispatch time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..runtime.plan_cache import PlanCache
from ..serve.fleet import Device, Fleet
from ..serve.scheduler import Scheduler, make_scheduler
from ..serve.workload import Request
from .config import PoolSpec


class Pool:
    """One pool of identical replicas with its own queue and scheduler.

    Args:
        spec: the pool's declarative configuration.
        plan_cache: the cluster-shared plan cache.
    """

    def __init__(self, spec: PoolSpec,
                 plan_cache: Optional[PlanCache] = None) -> None:
        self.spec = spec
        self.fleet = Fleet.build([spec.soc], spec.max_replicas,
                                 plan_cache=plan_cache)
        for device in self.fleet.devices:
            device.device_id = f"{spec.name}/{device.device_id}"
        self._all_devices: List[Device] = list(self.fleet.devices)
        self._active = spec.start_replicas
        self.fleet.devices = self._all_devices[:self._active]
        self.scheduler: Scheduler = make_scheduler(
            spec.scheduler,
            max_batch=spec.max_batch if spec.max_batch > 1 else None,
            batch_timeout_s=(spec.batch_timeout_s
                             if spec.scheduler == "batch" else None))
        self.pending: List[Request] = []
        self.models: Tuple[str, ...] = ()
        self.completed = 0
        self.last_scale_s = float("-inf")
        #: Integral of active replicas over time (replica-seconds),
        #: maintained by :meth:`note_time` -- what the fleet "paid".
        self.replica_seconds = 0.0
        self._last_note_s = 0.0

    # -- replica accounting --------------------------------------------------

    @property
    def name(self) -> str:
        """The pool's name."""
        return self.spec.name

    @property
    def active(self) -> int:
        """Replicas currently active."""
        return self._active

    @property
    def queue_cap(self) -> int:
        """Pending-queue bound at the current replica count."""
        return self.spec.queue_cap_per_replica * self._active

    def queue_depth(self) -> int:
        """Requests waiting in the pool's queue."""
        return len(self.pending)

    def depth_per_replica(self) -> float:
        """Queue depth normalized by active replicas (the autoscaler's
        watermark metric)."""
        return len(self.pending) / self._active

    def note_time(self, now: float) -> None:
        """Accumulate replica-seconds up to ``now`` (call before any
        replica-count change and once at the end of a run)."""
        if now > self._last_note_s:
            self.replica_seconds += ((now - self._last_note_s)
                                     * self._active)
            self._last_note_s = now

    def scale_up(self, now: float, cold_start_s: float) -> int:
        """Activate one replica; it serves from ``now + cold_start_s``.

        Returns:
            The new active count.

        Raises:
            RuntimeError: at the ``max_replicas`` ceiling.
        """
        if self._active >= self.spec.max_replicas:
            raise RuntimeError(f"pool {self.name!r} is already at its "
                               f"ceiling of {self.spec.max_replicas}")
        self.note_time(now)
        device = self._all_devices[self._active]
        for resource in device.free_s:
            device.free_s[resource] = max(device.free_s[resource],
                                          now + cold_start_s)
        self._active += 1
        self.fleet.devices = self._all_devices[:self._active]
        self.last_scale_s = now
        return self._active

    def scale_down(self, now: float) -> int:
        """Retire the most recently activated replica.

        In-flight work on it completes (clocks advanced at dispatch);
        it just receives nothing new.

        Returns:
            The new active count.

        Raises:
            RuntimeError: at the ``min_replicas`` floor.
        """
        if self._active <= self.spec.min_replicas:
            raise RuntimeError(f"pool {self.name!r} is already at its "
                               f"floor of {self.spec.min_replicas}")
        self.note_time(now)
        self._active -= 1
        self.fleet.devices = self._all_devices[:self._active]
        self.last_scale_s = now
        return self._active

    # -- queueing ------------------------------------------------------------

    def enqueue(self, request: Request) -> Optional[Request]:
        """Add a request, evicting under queue pressure.

        At the cap, the least urgent queued request -- highest
        priority number, then latest deadline -- yields its slot when
        the arrival outranks it; otherwise the arrival itself is
        rejected.  Priority classes thus hold end-to-end: a premium
        request is never turned away while a best-effort one waits.

        Returns:
            The evicted (or rejected) request, or None when the
            arrival was absorbed without loss.
        """
        if len(self.pending) < self.queue_cap:
            self.pending.append(request)
            return None
        worst = max(self.pending,
                    key=lambda r: (r.priority, r.deadline_s,
                                   r.request_id))
        if (worst.priority, worst.deadline_s) > (request.priority,
                                                 request.deadline_s):
            self.pending.remove(worst)
            self.pending.append(request)
            return worst
        return request

    # -- estimates for routing ----------------------------------------------

    def service_estimate_s(self, model: str) -> float:
        """Predicted μLayer service time of ``model`` on this pool's
        SoC type (the batch-grid predictor at batch 1)."""
        return self.fleet.estimate_service_s(
            model, self._all_devices[0], "mulayer")

    def expected_latency_s(self, model: str, now: float) -> float:
        """Expected completion latency of a new arrival.

        The earliest any active replica could start it, plus the
        queued work ahead of it spread over the active replicas, plus
        its own predicted service time -- the predictor-informed score
        the least-expected-latency router minimizes.
        """
        service = self.service_estimate_s(model)
        resources = self.fleet.resources_for(
            model, self._all_devices[0], "mulayer")
        earliest = min(
            device.earliest_start_s(resources, now)
            for device in self.fleet.devices)
        queued = sum(self.service_estimate_s(r.model)
                     for r in self.pending) / self._active
        return (earliest - now) + queued + service

    def utilization(self, horizon_s: float) -> Dict[str, float]:
        """Mean per-resource busy fraction over the active prefix's
        provisioned devices (retired replicas included -- they did
        work during their tenure)."""
        if horizon_s <= 0.0 or not self._all_devices:
            return {}
        totals: Dict[str, float] = {}
        for device in self._all_devices:
            for resource, busy in device.busy_s.items():
                totals[resource] = totals.get(resource, 0.0) + busy
        return {resource: busy / (horizon_s * len(self._all_devices))
                for resource, busy in sorted(totals.items())}
