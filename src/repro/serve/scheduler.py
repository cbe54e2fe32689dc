"""Serving schedulers: FIFO, least-loaded, SLO-aware EDF, and dynamic
batching.

A scheduler is consulted by the event loop at every event (arrival,
completion, or timer wakeup).  It inspects the pending queue and the
fleet and returns *one* action at a time until it has nothing more to
do at the current simulated time.  There are two actions:

* :class:`Start` -- dispatch one or more same-model requests as one
  inference on a device via a mechanism (a batch of one is a plain
  start);
* :class:`Shed` -- drop a request (admission control).

Returning single actions keeps the protocol simple and race-free: the
fleet's clocks advance between calls, so the scheduler always sees the
true residual capacity.

Four policies are provided:

* :class:`FIFOScheduler` -- strict arrival order with head-of-line
  blocking; every request runs μLayer co-executed on the first fully
  idle device.  The baseline.
* :class:`LeastLoadedScheduler` -- FIFO order, but ties between idle
  devices break toward the least cumulative work, balancing mixed
  fleets.
* :class:`EDFScheduler` -- earliest-deadline-first over the pending
  queue, choosing *both* the device and the execution mechanism
  (μLayer co-execution vs. a single processor) by predicted
  completion time, using the runtime's fitted
  :class:`~repro.runtime.predictor.LatencyPredictor` as its service
  time oracle.  Admission control sheds a request as soon as no
  (device, mechanism) pair is predicted to meet its deadline --
  predicted queue delay included -- so a saturated fleet spends no
  cycles on requests that are already lost.  With ``max_batch > 1``
  it additionally coalesces same-model requests into one dispatch,
  but only when the predictor says the *batched* completion time
  still meets every member's deadline.
* :class:`DynamicBatchScheduler` -- coalesces queued same-model
  requests into batched dispatches of up to ``max_batch``, flushing a
  partial batch once its oldest request has waited
  ``batch_timeout_s``.  The throughput-oriented policy: batched GEMMs
  amortize weight traffic, so a loaded fleet completes more requests
  per second at the price of per-request latency (queue wait plus the
  whole batched run).
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .fleet import Device, Fleet
from .workload import Request


@dataclasses.dataclass(frozen=True)
class Start:
    """Dispatch same-model ``requests`` as one inference on
    ``device_id`` via ``mechanism`` now (a batch of one is a plain
    start)."""

    requests: Tuple[Request, ...]
    device_id: str
    mechanism: str
    predicted_service_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("Start needs at least one request")
        models = {request.model for request in self.requests}
        if len(models) > 1:
            raise ValueError(
                f"one batch must serve one model, got {sorted(models)}")


@dataclasses.dataclass(frozen=True)
class Shed:
    """Drop ``request`` (admission control)."""

    request: Request
    reason: str


Action = Union[Start, Shed]


class Scheduler(abc.ABC):
    """Policy interface consulted by the simulator."""

    name: str = "scheduler"

    @abc.abstractmethod
    def next_action(self, pending: Sequence[Request], fleet: Fleet,
                    now: float) -> Optional[Action]:
        """The next action at simulated time ``now``, or None.

        ``pending`` is in arrival order.  A returned :class:`Start`
        must be startable immediately (its resources idle at ``now``);
        the event loop executes it, advances the device clocks, and
        asks again.
        """

    def next_wakeup_s(self, pending: Sequence[Request], fleet: Fleet,
                      now: float) -> Optional[float]:
        """Earliest future time this scheduler wants to be polled even
        without a new arrival or completion (batch-timeout flushes).
        None -- the default -- means events alone suffice."""
        return None


class FIFOScheduler(Scheduler):
    """Arrival order, first idle device, fixed mechanism.

    Head-of-line blocking included: while the oldest request cannot
    start, nothing behind it runs -- the classic baseline the SLO-aware
    policy is measured against.
    """

    name = "fifo"

    def __init__(self, mechanism: str = "mulayer") -> None:
        self.mechanism = mechanism

    def _pick_device(self, request: Request, fleet: Fleet,
                     now: float) -> Optional[Device]:
        for device in fleet.devices:
            resources = fleet.resources_for(request.model, device,
                                            self.mechanism)
            if device.idle_now(resources, now):
                return device
        return None

    def next_action(self, pending: Sequence[Request], fleet: Fleet,
                    now: float) -> Optional[Action]:
        if not pending:
            return None
        # Priority classes are strict: the head of the queue is the
        # oldest request of the most urgent class present.  With one
        # class this is plain arrival order.
        head = min(pending, key=lambda r: (r.priority, r.request_id))
        device = self._pick_device(head, fleet, now)
        if device is None:
            return None
        return Start(requests=(head,), device_id=device.device_id,
                     mechanism=self.mechanism)


class LeastLoadedScheduler(FIFOScheduler):
    """FIFO order, but idle-device ties break to the least-worked
    device -- keeps a mixed fleet's fast SoCs from idling."""

    name = "least-loaded"

    def _pick_device(self, request: Request, fleet: Fleet,
                     now: float) -> Optional[Device]:
        best: Optional[Device] = None
        best_load = float("inf")
        for device in fleet.devices:
            resources = fleet.resources_for(request.model, device,
                                            self.mechanism)
            if not device.idle_now(resources, now):
                continue
            load = device.total_busy_s()
            if load < best_load:
                best, best_load = device, load
        return best


class EDFScheduler(Scheduler):
    """Earliest-deadline-first with latency-predictor admission.

    For each pending request (in deadline order) every (device,
    mechanism) pair is scored by its predicted completion time:
    ``max(now, resources free) + predicted service``.  The request is

    * **shed** when no pair is predicted to make the deadline,
    * **started** on the best immediately startable pair that makes
      the deadline,
    * **left queued** when a pair could make the deadline but none of
      the feasible pairs is idle yet.

    Because single-processor mechanisms occupy only part of a device,
    EDF naturally co-schedules: while one request holds the GPU, a
    tight-deadline arrival can still start CPU-only on the same SoC.
    There is no head-of-line blocking -- later-deadline requests may
    start on resources the front of the queue cannot use yet.
    """

    name = "edf"

    def __init__(self, mechanisms: Optional[Sequence[str]] = None,
                 admission_control: bool = True,
                 max_batch: int = 1) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.mechanisms = tuple(mechanisms) if mechanisms else None
        self.admission_control = admission_control
        self.max_batch = max_batch

    def _mechanisms_for(self, fleet: Fleet,
                        device: Device) -> Tuple[str, ...]:
        available = fleet.mechanisms(device)
        if self.mechanisms is None:
            return available
        return tuple(m for m in self.mechanisms if m in available)

    def next_action(self, pending: Sequence[Request], fleet: Fleet,
                    now: float) -> Optional[Action]:
        # EDF within each priority class; classes are strict (a class-1
        # request never jumps ahead of any class-0 request, however
        # tight its deadline).
        ordered = sorted(pending,
                         key=lambda r: (r.priority, r.deadline_s,
                                        r.request_id))
        for request in ordered:
            feasible_later = False
            best: Optional[Tuple[float, int, str, float]] = None
            for index, device in enumerate(fleet.devices):
                for mechanism in self._mechanisms_for(fleet, device):
                    service = fleet.estimate_service_s(
                        request.model, device, mechanism)
                    resources = fleet.resources_for(request.model,
                                                    device, mechanism)
                    start = device.earliest_start_s(resources, now)
                    finish = start + service
                    if finish > request.deadline_s + 1e-12:
                        continue
                    if not device.idle_now(resources, now):
                        feasible_later = True
                        continue
                    candidate = (finish, index, mechanism, service)
                    if best is None or candidate < best:
                        best = candidate
            if best is not None:
                _, index, mechanism, service = best
                device = fleet.devices[index]
                if self.max_batch > 1:
                    batched = self._widen_batch(request, device,
                                                mechanism, ordered,
                                                fleet, now)
                    if batched is not None:
                        return batched
                return Start(requests=(request,),
                             device_id=device.device_id,
                             mechanism=mechanism,
                             predicted_service_s=service)
            if not feasible_later and self.admission_control:
                return Shed(request=request,
                            reason="predicted-deadline-miss")
            # Feasible on a busy device (or shedding disabled): wait.
        return None

    def _widen_batch(self, request: Request, device: Device,
                     mechanism: str, ordered: Sequence[Request],
                     fleet: Fleet, now: float) -> Optional[Start]:
        """Greedily grow a same-model batch around ``request``.

        Candidates join in deadline order; each is admitted only while
        the predictor says the *batched* run still finishes before
        every member's deadline -- batching must never turn a met SLO
        into a miss the scheduler could foresee.  Returns None when no
        candidate survives (the caller then starts ``request`` alone).
        """
        members = [request]
        deadline = request.deadline_s
        service = None
        for candidate in ordered:
            if candidate is request or len(members) >= self.max_batch:
                continue
            if candidate.model != request.model:
                continue
            trial_deadline = min(deadline, candidate.deadline_s)
            trial_service = fleet.estimate_service_s(
                request.model, device, mechanism,
                batch=len(members) + 1)
            if now + trial_service > trial_deadline + 1e-12:
                continue
            members.append(candidate)
            deadline = trial_deadline
            service = trial_service
        if len(members) == 1:
            return None
        return Start(requests=tuple(members),
                     device_id=device.device_id, mechanism=mechanism,
                     predicted_service_s=service)


class DynamicBatchScheduler(Scheduler):
    """Dynamic request batching: coalesce, then dispatch together.

    Pending requests are grouped by model (the fleet serves one
    quantization policy, so same model means same plan configuration).
    A group dispatches as one batched inference when it has
    ``max_batch`` requests waiting, or -- partial batch -- once its
    oldest request has waited ``batch_timeout_s``; the simulator's
    timer wakeups (:meth:`next_wakeup_s`) guarantee the flush happens
    at exactly that instant even with no arrival or completion nearby.

    Groups are scanned in arrival order of their oldest request, so a
    stalling group does not block a ready one behind it, but no group
    starves either.
    """

    name = "batch"

    def __init__(self, mechanism: str = "mulayer", max_batch: int = 4,
                 batch_timeout_s: float = 0.05) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if batch_timeout_s < 0.0:
            raise ValueError("batch_timeout_s must be >= 0")
        self.mechanism = mechanism
        self.max_batch = max_batch
        self.batch_timeout_s = batch_timeout_s

    def _groups(self, pending: Sequence[Request]
                ) -> "List[List[Request]]":
        """Same-model groups, ordered by (priority, arrival) of their
        most urgent member, members most-urgent-first.  With one
        priority class this is arrival order of the oldest member."""
        ordered = sorted(pending,
                         key=lambda r: (r.priority, r.request_id))
        by_model: Dict[str, List[Request]] = {}
        for request in ordered:
            by_model.setdefault(request.model, []).append(request)
        return list(by_model.values())

    def _ready(self, group: Sequence[Request], now: float) -> bool:
        """A group dispatches when full or past its timeout window
        (measured from its *oldest* member, which under priority
        ordering is not necessarily the first)."""
        if len(group) >= self.max_batch:
            return True
        oldest = min(request.arrival_s for request in group)
        return now - oldest >= self.batch_timeout_s - 1e-12

    def next_action(self, pending: Sequence[Request], fleet: Fleet,
                    now: float) -> Optional[Action]:
        for group in self._groups(pending):
            if not self._ready(group, now):
                continue
            members = group[:self.max_batch]
            batch = len(members)
            for device in fleet.devices:
                resources = fleet.resources_for(
                    members[0].model, device, self.mechanism,
                    batch=batch)
                if not device.idle_now(resources, now):
                    continue
                return Start(requests=tuple(members),
                             device_id=device.device_id,
                             mechanism=self.mechanism)
            # Ready but no idle device: a completion will re-poll.
        return None

    def next_wakeup_s(self, pending: Sequence[Request], fleet: Fleet,
                      now: float) -> Optional[float]:
        """The earliest pending timeout flush among partial groups."""
        deadlines = [min(r.arrival_s for r in group)
                     + self.batch_timeout_s
                     for group in self._groups(pending)
                     if len(group) < self.max_batch]
        if not deadlines:
            return None
        return min(deadlines)


def make_scheduler(name: str, max_batch: Optional[int] = None,
                   batch_timeout_s: Optional[float] = None) -> Scheduler:
    """Scheduler factory used by the CLI and the harness.

    ``max_batch``/``batch_timeout_s`` configure the batching policies
    ("batch" always batches; "edf" batches when ``max_batch > 1``) and
    are ignored by the non-batching ones.

    Raises:
        ValueError: for unknown scheduler names.
    """
    if name == "fifo":
        return FIFOScheduler()
    if name == "least-loaded":
        return LeastLoadedScheduler()
    if name == "edf":
        return EDFScheduler(max_batch=max_batch or 1)
    if name == "batch":
        kwargs: Dict[str, object] = {}
        if max_batch is not None:
            kwargs["max_batch"] = max_batch
        if batch_timeout_s is not None:
            kwargs["batch_timeout_s"] = batch_timeout_s
        return DynamicBatchScheduler(**kwargs)   # type: ignore[arg-type]
    raise ValueError(f"unknown scheduler {name!r}; "
                     "choose fifo, least-loaded, edf, or batch")
