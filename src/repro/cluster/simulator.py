"""The cluster discrete-event simulator: router, pools, autoscaler.

Drives the serve-layer :class:`~repro.serve.simulator.EventLoop` one
level up.  Arrivals first pass the **router**, which picks a host pool
from the request's model's replica set; the loop then drains each
pool's own serve-layer scheduler over its own queue and active
replicas, exactly as the single-fleet simulator would.  The event
kinds are the loop's -- arrivals and wakeups -- with two cluster-level
twists:

* **queue caps** -- a pool absorbs an arrival only up to its queue
  bound (per active replica); past it, the least urgent queued request
  is evicted in favour of a more urgent arrival, or the arrival itself
  is rejected.  Evictions are recorded as sheds with reason
  ``queue-overflow``.
* **autoscaling** -- after the pools drain their schedulers, the
  autoscaler inspects each pool; a scale-up bumps the new replica's
  clocks ``cold_start_s`` into the future and schedules a wakeup at
  that instant so the replica's first dispatch happens exactly when it
  comes online.

Determinism: events are ordered by ``(time, insertion sequence)``,
pools are always visited in configuration order, the router's only
randomness is a generator seeded from the cluster config, and the
fleet's executor is deterministic -- one seed, one cluster history,
byte-identical ``--json`` output across runs and machines.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..runtime.plan_cache import PlanCache
from ..serve.fleet import Completion
from ..serve.simulator import EventLoop, ShedRecord
from ..serve.workload import Request
from .autoscale import Autoscaler, ScaleEvent
from .config import ClusterConfig
from .placement import PlacementOptimizer
from .pool import Pool
from .router import Router, make_router


@dataclasses.dataclass
class ClusterResult:
    """Everything one cluster simulation produced.

    Attributes:
        config: the scenario that ran.
        placement: the resolved per-model replica sets.
        completions: served requests, in dispatch order.
        sheds: requests dropped (queue overflow or scheduler admission
            control).
        unserved: requests still queued when the event heap drained.
        scale_events: the autoscaler's decision history.
        makespan_s: time of the last completion (or last arrival).
        pools: the pools in their final state.
        plan_cache: the cluster-shared plan cache.
    """

    config: ClusterConfig
    placement: Mapping[str, Tuple[str, ...]]
    completions: List[Completion]
    sheds: List[ShedRecord]
    unserved: List[Request]
    scale_events: List[ScaleEvent]
    makespan_s: float
    pools: List[Pool]
    plan_cache: PlanCache

    @property
    def num_offered(self) -> int:
        """Total requests submitted."""
        return (len(self.completions) + len(self.sheds)
                + len(self.unserved))

    def pool_of_completion(self, completion: Completion) -> str:
        """The pool a completion ran in (device ids are
        pool-prefixed)."""
        return completion.device_id.split("/", 1)[0]


class ClusterSimulator:
    """Runs request traces through router, pools, and autoscaler.

    Construction stands the cluster up: pools are built over one
    shared plan cache, the placement is resolved (raising
    :class:`~repro.cluster.placement.PlacementError` on an infeasible
    configuration), and warm-plan migration pre-builds every hosting
    pool's plans so the event loop never partitions.

    Args:
        config: the cluster scenario.
        jobs: process fan-out for warm-plan building (None = serial).
    """

    def __init__(self, config: ClusterConfig,
                 jobs: Optional[int] = None) -> None:
        self.config = config
        self.plan_cache = PlanCache()
        self.pools = [Pool(spec, plan_cache=self.plan_cache)
                      for spec in config.pools]
        self._by_name = {pool.name: pool for pool in self.pools}
        optimizer = PlacementOptimizer(self.pools, config)
        self.placement = optimizer.resolve()
        optimizer.apply(self.placement, jobs=jobs)
        self.router: Router = make_router(config.router,
                                          seed=config.seed)
        self.autoscaler = Autoscaler(config.autoscaler)
        self._hosts: Dict[str, List[Pool]] = {
            model: [self._by_name[name] for name in hosts]
            for model, hosts in self.placement.items()}

    def run(self, requests: Sequence[Request]) -> ClusterResult:
        """Simulate one trace to completion."""
        loop = EventLoop(requests)
        for now, arrived in loop:
            if arrived is not None:
                hosts = self._hosts[arrived.model]
                pool = self.router.route(arrived, hosts, now)
                self.autoscaler.observe_arrival(pool, now)
                dropped = pool.enqueue(arrived)
                if dropped is not None:
                    loop.shed(dropped, now, "queue-overflow")
            for pool in self.pools:
                pool.completed += loop.drain(pool.scheduler, pool.fleet,
                                             pool.pending, now)
            for pool in self.pools:
                event = self.autoscaler.evaluate(pool, now)
                if event is None:
                    continue
                if event.direction == "up":
                    # The new replica comes online after its cold
                    # start; poll the pool exactly then (no arrival or
                    # completion is guaranteed to land on the instant).
                    loop.wake_at(now + self.config.autoscaler.cold_start_s)
                pool.completed += loop.drain(pool.scheduler, pool.fleet,
                                             pool.pending, now)
            for pool in self.pools:
                loop.wake_for(pool.scheduler, pool.fleet, pool.pending,
                              now)
        makespan = loop.makespan_s()
        unserved: List[Request] = []
        for pool in self.pools:
            pool.note_time(makespan)
            unserved.extend(pool.pending)
        unserved.sort(key=lambda r: r.request_id)
        return ClusterResult(config=self.config,
                             placement=self.placement,
                             completions=loop.completions,
                             sheds=loop.sheds, unserved=unserved,
                             scale_events=self.autoscaler.events,
                             makespan_s=makespan, pools=self.pools,
                             plan_cache=self.plan_cache)
