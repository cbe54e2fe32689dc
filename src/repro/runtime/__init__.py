"""The uLayer runtime: planning, distribution, and execution."""

from .baselines import (ThroughputResult, layer_to_processor_plan,
                        run_layer_to_processor, run_network_to_processor,
                        run_single_processor, single_processor_plan)
from .branch_dist import BranchProfile, estimate_mapping, profile_branches
from .compute import LayerComputer
from .distribution import (channel_ranges, output_channels_of,
                           share_counts, split_layer_work_shares)
from .executor import Executor
from .metrics import (InferenceResult, LayerTrace, geometric_mean,
                      speed_improvement)
from .mulayer import MuLayer, mulayer_ablation_stages
from .partitioner import Partitioner, PartitionerConfig
from .pfq import (PROCESSOR_FRIENDLY, QuantizationPolicy, UNIFORM_F16,
                  UNIFORM_F32, UNIFORM_QUINT8, uniform_policy)
from .plan import (BranchAssignment, ExecutionPlan, LayerAssignment,
                   Placement, SPLIT_CHOICES)
from .plan_cache import PlanCache, PlanKey
from .predictor import (DEFAULT_PROFILING_SEED, LatencyPredictor,
                        default_profiling_samples)

__all__ = [
    "ThroughputResult",
    "layer_to_processor_plan",
    "run_layer_to_processor",
    "run_network_to_processor",
    "run_single_processor",
    "single_processor_plan",
    "BranchProfile",
    "estimate_mapping",
    "profile_branches",
    "LayerComputer",
    "output_channels_of",
    "split_layer_work_shares",
    "share_counts",
    "channel_ranges",
    "Executor",
    "InferenceResult",
    "LayerTrace",
    "geometric_mean",
    "speed_improvement",
    "MuLayer",
    "mulayer_ablation_stages",
    "Partitioner",
    "PartitionerConfig",
    "PROCESSOR_FRIENDLY",
    "QuantizationPolicy",
    "UNIFORM_F16",
    "UNIFORM_F32",
    "UNIFORM_QUINT8",
    "uniform_policy",
    "BranchAssignment",
    "ExecutionPlan",
    "LayerAssignment",
    "Placement",
    "SPLIT_CHOICES",
    "PlanCache",
    "PlanKey",
    "DEFAULT_PROFILING_SEED",
    "LatencyPredictor",
    "default_profiling_samples",
]
