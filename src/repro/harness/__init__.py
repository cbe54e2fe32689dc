"""Experiment harness: regenerates every paper table and figure."""

from .figures import (DEFAULT_SOCS, ExperimentResult,
                      build_inception_3a_graph, fig05_perlayer_vgg,
                      fig06_nn_latency, fig08_quantization_latency,
                      fig10_quantization_accuracy, fig12_branch_potential,
                      fig16_e2e_latency, fig17_ablation, fig18_energy,
                      table1_applicability)
from .gantt import render_gantt
from .parallel import (default_cli_jobs, default_jobs,
                       parallel_map)
from .profiles import (LayerProfile, hotspots, memory_bound_layers,
                       profile_layers, render_profile)
from .report import format_bars, format_table, normalized

__all__ = [
    "default_cli_jobs",
    "default_jobs",
    "parallel_map",
    "DEFAULT_SOCS",
    "ExperimentResult",
    "build_inception_3a_graph",
    "fig05_perlayer_vgg",
    "fig06_nn_latency",
    "fig08_quantization_latency",
    "fig10_quantization_accuracy",
    "fig12_branch_potential",
    "fig16_e2e_latency",
    "fig17_ablation",
    "fig18_energy",
    "table1_applicability",
    "render_gantt",
    "LayerProfile",
    "hotspots",
    "memory_bound_layers",
    "profile_layers",
    "render_profile",
    "format_bars",
    "format_table",
    "normalized",
]
