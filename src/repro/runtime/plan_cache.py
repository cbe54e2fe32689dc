"""A shared execution-plan (and compiled-program) cache.

Partitioning is by far the most expensive step of an inference request
(the partitioner sweeps candidate splits per layer and profiles branch
regions), yet its output depends only on the *configuration* -- the
model, the SoC, the execution mechanism, and the quantization policy.
The serving layer therefore shares one :class:`PlanCache` across all
devices of a fleet so the partitioner runs once per configuration
instead of once per request; :class:`~repro.runtime.mulayer.MuLayer`
uses the same cache type for its per-graph memoization.

Next to each plan the cache can hold the plan's **compiled programs**
(:class:`~repro.compile.program.CompiledProgram`), keyed by the same
:class:`PlanKey` plus the run batch they were specialized for.
Programs live and die with their plan: storing a new plan under a key
or evicting the key drops its programs, and a lookup that passes the
current graph/calibration identity-validates the entry (a stale
program -- ``set_weights`` installed new arrays -- is dropped and
reported as a miss).  These program slots are the runtime's only
program memo; the :class:`~repro.runtime.executor.Executor` keeps none.

The cache is optionally bounded: with ``max_entries`` set it evicts
the least recently used plan, which keeps a long-lived serving process
from accumulating plans for configurations it no longer sees.  Like
every runtime object it belongs to one thread of control; fan-out
across processes shares nothing.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from ..quant.calibrate import CalibrationTable
from .plan import ExecutionPlan

if TYPE_CHECKING:   # pragma: no cover - typing only (avoids a cycle)
    from ..compile.program import CompiledProgram
    from ..nn import Graph


@dataclasses.dataclass(frozen=True)
class PlanKey:
    """Identity of one plannable configuration.

    Attributes:
        model: graph name the plan was built for.
        soc: SoC name.
        mechanism: ``"mulayer"``, ``"cpu"``, ``"gpu"``, ``"npu"``, or
            ``"l2p"``.
        policy: name of the quantization policy in force (distinct
            dtype policies must never share a plan).
        batch: the batch size the plan was partitioned for.  Plans for
            different batch sizes have different split ratios and
            timings, so they never share a cache entry; the default
            keeps all pre-batching keys unchanged.
    """

    model: str
    soc: str
    mechanism: str
    policy: str
    batch: int = 1


class PlanCache:
    """Maps :class:`PlanKey` to built plans, counting hits and misses.

    Args:
        max_entries: optional LRU bound; None (the default) never
            evicts, preserving the original unbounded behaviour.  The
            same bound applies independently to the compiled-program
            side table.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        self.max_entries = max_entries
        self._plans: "OrderedDict[PlanKey, ExecutionPlan]" = OrderedDict()
        self._programs: ("OrderedDict[Tuple[PlanKey, int], "
                         "CompiledProgram]") = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.program_hits = 0
        self.program_misses = 0
        self.program_evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._plans

    def get(self, key: PlanKey) -> Optional[ExecutionPlan]:
        """The cached plan for ``key`` (counts a hit or a miss)."""
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
        else:
            self.hits += 1
            self._plans.move_to_end(key)
        return plan

    def put(self, key: PlanKey, plan: ExecutionPlan) -> None:
        """Store ``plan`` under ``key``, evicting the least recently
        used entry beyond ``max_entries``.

        Replacing a key's plan (or evicting one) also drops every
        compiled program attached to that key -- a program lowers one
        specific plan and must never outlive it.
        """
        replaced = key in self._plans
        self._plans[key] = plan
        self._plans.move_to_end(key)
        if replaced:
            self._drop_programs(key)
        if (self.max_entries is not None
                and len(self._plans) > self.max_entries):
            evicted_key, _ = self._plans.popitem(last=False)
            self.evictions += 1
            self._drop_programs(evicted_key)

    def _drop_programs(self, key: PlanKey) -> None:
        """Drop every program attached to ``key``."""
        dropped = [pk for pk in self._programs if pk[0] == key]
        for pk in dropped:
            del self._programs[pk]
        self.program_evictions += len(dropped)

    def get_or_build(self, key: PlanKey,
                     builder: Callable[[], ExecutionPlan]
                     ) -> ExecutionPlan:
        """The cached plan, building and storing it on a miss."""
        plan = self.get(key)
        if plan is None:
            plan = builder()
            self.put(key, plan)
        return plan

    # -- compiled programs ---------------------------------------------------

    def program_count(self) -> int:
        """Number of compiled programs currently cached."""
        return len(self._programs)

    def get_program(self, key: PlanKey, batch: int,
                    graph: "Optional[Graph]" = None,
                    calibration: Optional[CalibrationTable] = None
                    ) -> "Optional[CompiledProgram]":
        """The compiled program for (``key``, ``batch``), if current.

        When ``graph`` is given the entry is identity-validated
        against it (and against ``calibration``): a stale program --
        the graph object changed, ``set_weights`` installed new
        weight arrays, or the calibration table differs -- is dropped
        and the lookup counts as a miss.
        """
        program = self._programs.get((key, batch))
        if program is not None and graph is not None \
                and not program.matches(graph, calibration):
            del self._programs[(key, batch)]
            self.program_evictions += 1
            program = None
        if program is None:
            self.program_misses += 1
        else:
            self.program_hits += 1
            self._programs.move_to_end((key, batch))
        return program

    def put_program(self, key: PlanKey, batch: int,
                    program: "CompiledProgram") -> None:
        """Attach a compiled program to its plan's key.

        Requires the plan to be cached (a program must never outlive
        or predate its plan); evicts the least recently used program
        beyond ``max_entries``.
        """
        if key not in self._plans:
            raise KeyError(
                f"cannot cache a program for {key}: no plan is "
                "cached under that key")
        self._programs[(key, batch)] = program
        self._programs.move_to_end((key, batch))
        if (self.max_entries is not None
                and len(self._programs) > self.max_entries):
            self._programs.popitem(last=False)
            self.program_evictions += 1

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when cold)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    @property
    def program_hit_rate(self) -> float:
        """Fraction of program lookups served from the cache."""
        lookups = self.program_hits + self.program_misses
        return self.program_hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters as a JSON-friendly dict."""
        return {
            "entries": float(len(self._plans)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "evictions": float(self.evictions),
            "program_entries": float(len(self._programs)),
            "program_hits": float(self.program_hits),
            "program_misses": float(self.program_misses),
            "program_hit_rate": self.program_hit_rate,
            "program_evictions": float(self.program_evictions),
        }
