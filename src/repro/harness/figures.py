"""Data generators for every table and figure of the paper's evaluation.

Each ``figNN_*`` function reproduces one figure: it runs the relevant
mechanisms on the simulated SoCs and returns an
:class:`ExperimentResult` whose rows mirror the series the paper plots.
The benchmarks under ``benchmarks/`` call these functions, print the
tables, and assert the paper's qualitative shapes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..models import (PAPER_MODELS, Stack, build_model, model_info)
from ..models.googlenet import GOOGLENET_INCEPTIONS, add_inception
from ..nn import Graph, LayerKind
from ..runtime import (MuLayer, geometric_mean, mulayer_ablation_stages,
                       run_layer_to_processor, run_single_processor)
from ..soc import EXYNOS_7420, EXYNOS_7880, SoCSpec, kernel_cost
from ..tensor import DType

#: Both simulated SoCs, high-end first (the paper's presentation order).
DEFAULT_SOCS = (EXYNOS_7420, EXYNOS_7880)

#: MuLayer runtimes / ablation stages per SoC, so per-(soc, model)
#: sweep units (serial or in a worker process) fit the latency
#: predictor once per SoC instead of once per unit.
_RUNTIMES: Dict[str, MuLayer] = {}
_ABLATIONS: Dict[str, Dict[str, MuLayer]] = {}


def _runtime_for(soc: SoCSpec) -> MuLayer:
    runtime = _RUNTIMES.get(soc.name)
    if runtime is None:
        runtime = _RUNTIMES[soc.name] = MuLayer(soc)
    return runtime


def _ablation_for(soc: SoCSpec) -> Dict[str, MuLayer]:
    stages = _ABLATIONS.get(soc.name)
    if stages is None:
        stages = _ABLATIONS[soc.name] = mulayer_ablation_stages(soc)
    return stages


@dataclasses.dataclass
class ExperimentResult:
    """One reproduced table/figure: labelled rows plus free-form notes."""

    experiment: str
    title: str
    headers: List[str]
    rows: List[List]
    notes: List[str] = dataclasses.field(default_factory=list)

    def render(self) -> str:
        """The result as a printable table."""
        from .report import format_table
        text = format_table(self.headers, self.rows,
                            title=f"[{self.experiment}] {self.title}")
        if self.notes:
            text += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return text

    def column(self, header: str) -> List:
        """All values of one column."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


# ---------------------------------------------------------------------------
# Figure 5: per-layer latency of VGG-16 on the CPU and the GPU (F32)
# ---------------------------------------------------------------------------

def fig05_perlayer_vgg(socs: Sequence[SoCSpec] = DEFAULT_SOCS
                       ) -> ExperimentResult:
    """Per-layer CPU vs GPU execution latency of VGG-16 at F32."""
    graph = build_model("vgg16", with_weights=False)
    rows: List[List] = []
    for soc in socs:
        for name in graph.compute_layers():
            layer = graph.layer(name)
            if layer.kind not in (LayerKind.CONV, LayerKind.FC):
                continue
            work = graph.layer_work(name)
            cpu = kernel_cost(soc.cpu, soc.memory, work, DType.F32)
            gpu = kernel_cost(soc.gpu, soc.memory, work, DType.F32)
            rows.append([soc.name, name, cpu.total_s * 1e3,
                         gpu.total_s * 1e3,
                         cpu.total_s / gpu.total_s])
    return ExperimentResult(
        experiment="fig05",
        title="Per-layer VGG-16 latency, CPU vs GPU, F32 (ms)",
        headers=["soc", "layer", "cpu_ms", "gpu_ms", "gpu_speedup"],
        rows=rows,
        notes=["Paper: GPU averages only ~1.40x over CPU on the "
               "high-end SoC; the CPU is faster on the mid-range SoC."])


# ---------------------------------------------------------------------------
# Figure 6: whole-NN latency on CPU vs GPU (F32)
# ---------------------------------------------------------------------------

def _fig06_unit(item: "tuple[SoCSpec, str]") -> List:
    soc, model = item
    graph = build_model(model, with_weights=False)
    cpu = run_single_processor(soc, graph, "cpu", DType.F32)
    gpu = run_single_processor(soc, graph, "gpu", DType.F32)
    return [soc.name, model, cpu.latency_ms, gpu.latency_ms,
            cpu.latency_s / gpu.latency_s]


def fig06_nn_latency(models: Sequence[str] = PAPER_MODELS,
                     socs: Sequence[SoCSpec] = DEFAULT_SOCS,
                     jobs: Optional[int] = None) -> ExperimentResult:
    """End-to-end CPU-only vs GPU-only latency at F32, five NNs.

    ``jobs`` fans the (soc, model) grid across processes; row order is
    deterministic regardless.
    """
    from .parallel import parallel_map
    rows = parallel_map(_fig06_unit,
                        [(soc, model) for soc in socs for model in models],
                        jobs=jobs)
    return ExperimentResult(
        experiment="fig06",
        title="NN execution latency, CPU-only vs GPU-only, F32 (ms)",
        headers=["soc", "model", "cpu_ms", "gpu_ms", "gpu_speedup"],
        rows=rows,
        notes=["Balanced CPU/GPU performance motivates cooperative "
               "single-layer acceleration (Section 3.1)."])


# ---------------------------------------------------------------------------
# Figure 8: impact of quantization on latency
# ---------------------------------------------------------------------------

def _fig08_unit(item: "tuple[SoCSpec, str]") -> List:
    soc, model = item
    graph = build_model(model, with_weights=False)
    latency: Dict[str, float] = {}
    for resource in ("cpu", "gpu"):
        for dtype in (DType.F32, DType.F16, DType.QUINT8):
            result = run_single_processor(soc, graph, resource, dtype)
            latency[f"{resource}_{dtype}"] = result.latency_s
    base = latency["cpu_f32"]
    return [
        soc.name, model,
        latency["cpu_f32"] / base, latency["cpu_f16"] / base,
        latency["cpu_quint8"] / base, latency["gpu_f32"] / base,
        latency["gpu_f16"] / base, latency["gpu_quint8"] / base,
    ]


def fig08_quantization_latency(models: Sequence[str] = PAPER_MODELS,
                               socs: Sequence[SoCSpec] = DEFAULT_SOCS,
                               jobs: Optional[int] = None
                               ) -> ExperimentResult:
    """Latency of F32/F16/QUInt8 per processor, normalized to CPU-F32."""
    from .parallel import parallel_map
    rows = parallel_map(_fig08_unit,
                        [(soc, model) for soc in socs for model in models],
                        jobs=jobs)
    return ExperimentResult(
        experiment="fig08",
        title="Quantization impact on latency (normalized to CPU F32)",
        headers=["soc", "model", "cpu_f32", "cpu_f16", "cpu_quint8",
                 "gpu_f32", "gpu_f16", "gpu_quint8"],
        rows=rows,
        notes=["Expected shape: CPU gains from QUInt8 but not F16; "
               "GPU gains most from F16 and regresses on QUInt8."])


# ---------------------------------------------------------------------------
# Figure 10: impact of quantization on accuracy
# ---------------------------------------------------------------------------

def fig10_quantization_accuracy(train_size: int = 1200,
                                test_size: int = 300,
                                epochs: int = 6,
                                qat_epochs: int = 10,
                                seed: int = 5) -> ExperimentResult:
    """Accuracy under F32/F16/QUInt8/QUInt8+FakeQuant for trained CNNs.

    Substitutes ImageNet + TF-Slim models with small CNNs trained on the
    synthetic shapes dataset (see DESIGN.md).  The ``fragile`` variants
    carry function-preserving channel imbalance, the mechanism behind
    the catastrophic post-training QUInt8 drops of e.g. Inception-v4;
    fake-quant retraining (QAT) recovers them, as in the paper.
    """
    from ..eval import (evaluate_policy_accuracy, make_shapes_dataset,
                        quantization_accuracy_sweep)
    from ..runtime import UNIFORM_QUINT8
    from ..train import (ConvLayer, FCLayer, FlattenLayer, MaxPoolLayer,
                         ReLULayer, Sequential,
                         imbalance_channels, qat_calibration,
                         quantize_aware, to_graph, train_epochs)

    def build_micronet(name: str, model_seed: int) -> Sequential:
        rng = np.random.default_rng(model_seed)
        return Sequential(name, [
            ConvLayer("c1", 1, 12, 3, padding=1, rng=rng), ReLULayer(),
            MaxPoolLayer(2, 2),
            ConvLayer("c2", 12, 24, 3, padding=1, rng=rng), ReLULayer(),
            MaxPoolLayer(2, 2),
            FlattenLayer(),
            FCLayer("fc1", 24 * 16, 48, rng=rng), ReLULayer(),
            FCLayer("fc2", 48, 4, rng=rng),
        ])

    data = make_shapes_dataset(train_size + test_size, image_size=16,
                               noise=0.7, seed=seed)
    train, test = data.split(train_size / (train_size + test_size))
    configurations = (
        ("micronet-a", 0.0),     # well-conditioned, like VGG/AlexNet
        ("micronet-b", 8.0),     # mildly fragile
        ("micronet-c", 15.0),    # catastrophic PTQ, like Inception-v4
    )
    rows: List[List] = []
    for name, spread in configurations:
        model = build_micronet(name, model_seed=1)
        train_epochs(model, train.images, train.labels, epochs=epochs,
                     lr=0.02, seed=0)
        if spread > 0:
            imbalance_channels(model, spread=spread, seed=2)
        graph = to_graph(model, (1, 1, 16, 16))
        sweep = quantization_accuracy_sweep(
            graph, test.images, test.labels, train.images[:64])
        qat_model = quantize_aware(model)
        train_epochs(qat_model, train.images, train.labels,
                     epochs=qat_epochs, lr=0.01, seed=1, clip_norm=2.0)
        qat_graph = to_graph(model, (1, 1, 16, 16))
        table = qat_calibration(qat_model, qat_graph,
                                sample_input=train.images[:200])
        qat_accuracy = evaluate_policy_accuracy(
            qat_graph, test.images, test.labels, UNIFORM_QUINT8,
            calibration=table)
        rows.append([name, spread, sweep["f32"], sweep["f16"],
                     sweep["quint8"], qat_accuracy])
    return ExperimentResult(
        experiment="fig10",
        title="Quantization impact on accuracy (shapes dataset, top-1)",
        headers=["model", "imbalance", "f32", "f16", "quint8_ptq",
                 "quint8_fakequant"],
        rows=rows,
        notes=["Paper shape: F16 is lossless; post-training QUInt8 can "
               "lose heavily (Inception-v4: -50.7pp); fake-quant "
               "retraining bounds the loss to a few points."])


# ---------------------------------------------------------------------------
# Figure 12: branch distribution potential on one Inception module
# ---------------------------------------------------------------------------

def build_inception_3a_graph(with_weights: bool = False) -> Graph:
    """GoogLeNet's first Inception module (3a) as a standalone graph."""
    graph = Graph("inception_3a")
    stack = Stack(graph, with_weights)
    stack.input("input", (1, 192, 28, 28))
    config = GOOGLENET_INCEPTIONS[0]
    add_inception(stack, config, "input")
    return graph


def fig12_branch_potential(soc: SoCSpec = EXYNOS_7420
                           ) -> ExperimentResult:
    """CPU-only vs Cooperative vs Cooperative(Optimal) on Inception 3a."""
    graph = build_inception_3a_graph()
    cpu_only = run_single_processor(soc, graph, "cpu", DType.QUINT8)
    cooperative = MuLayer(soc, enable_branch_distribution=False,
                          use_oracle_costs=True).run(graph)
    optimal = MuLayer(soc, enable_branch_distribution=True,
                      use_oracle_costs=True).run(graph)
    base = cpu_only.latency_s
    rows = [
        ["cpu_only_quint8", cpu_only.latency_ms, 0.0],
        ["cooperative", cooperative.latency_ms,
         (base - cooperative.latency_s) / base * 100.0],
        ["cooperative_optimal_branches", optimal.latency_ms,
         (base - optimal.latency_s) / base * 100.0],
    ]
    mapping: Optional[str] = None
    plan = MuLayer(soc, enable_branch_distribution=True,
                   use_oracle_costs=True).plan(graph)
    if plan.branch_assignments:
        mapping = str(plan.branch_assignments[0].mapping)
    return ExperimentResult(
        experiment="fig12",
        title=f"Inception 3a on {soc.name}: branch distribution potential",
        headers=["mechanism", "latency_ms", "improvement_vs_cpu_%"],
        rows=rows,
        notes=[f"chosen branch mapping: {mapping}",
               "Paper: Cooperative improves 52.1% over CPU-only; the "
               "optimal branch assignment reaches 63.4% (6.3 ms)."])


# ---------------------------------------------------------------------------
# Table 1: evaluated NNs and mechanism applicability
# ---------------------------------------------------------------------------

def table1_applicability() -> ExperimentResult:
    """The five evaluated NNs and which mechanisms apply to each."""
    from ..nn import find_branch_regions
    rows: List[List] = []
    for model in PAPER_MODELS:
        info = model_info(model)
        graph = build_model(model, with_weights=False)
        regions = len(find_branch_regions(graph))
        rows.append([info.display_name, info.paper_class,
                     "yes" if info.channel_distribution_applies else "no",
                     "yes" if info.processor_quantization_applies
                     else "no",
                     "yes" if info.branch_distribution_applies else "no",
                     regions])
    return ExperimentResult(
        experiment="table1",
        title="Evaluated NNs and mechanism applicability",
        headers=["model", "class", "ch_dist", "proc_quant", "br_dist",
                 "branch_regions_found"],
        rows=rows)


# ---------------------------------------------------------------------------
# Figure 16: end-to-end latency of all mechanisms
# ---------------------------------------------------------------------------

def _fig16_unit(item: "tuple[SoCSpec, str]") -> List:
    soc, model = item
    runtime = _runtime_for(soc)
    graph = build_model(model, with_weights=False)
    best_cpu = run_single_processor(soc, graph, "cpu", DType.QUINT8)
    best_gpu = run_single_processor(soc, graph, "gpu", DType.F16)
    l2p = run_layer_to_processor(soc, graph)
    mulayer = runtime.run(graph)
    base = l2p.latency_s
    return [
        soc.name, model,
        best_cpu.latency_s / base, best_gpu.latency_s / base,
        1.0, mulayer.latency_s / base,
        (base - mulayer.latency_s) / base * 100.0,
        l2p.latency_ms, mulayer.latency_ms,
    ]


def fig16_e2e_latency(models: Sequence[str] = PAPER_MODELS,
                      socs: Sequence[SoCSpec] = DEFAULT_SOCS,
                      jobs: Optional[int] = None) -> ExperimentResult:
    """Single-processor / layer-to-processor / uLayer latency,
    normalized to layer-to-processor (the paper's presentation)."""
    from .parallel import parallel_map
    rows = parallel_map(_fig16_unit,
                        [(soc, model) for soc in socs for model in models],
                        jobs=jobs)
    speedups = [1.0 / row[5] for row in rows]
    return ExperimentResult(
        experiment="fig16",
        title="End-to-end latency normalized to layer-to-processor",
        headers=["soc", "model", "cpu_quint8", "gpu_f16",
                 "layer_to_proc", "mulayer", "latency_reduction_%",
                 "l2p_ms", "mulayer_ms"],
        rows=rows,
        notes=[f"geomean uLayer speedup over layer-to-processor: "
               f"{geometric_mean(speedups):.2f}x",
               "Paper: geomean speed improvements of 30.5% (high-end) "
               "and 35.3% (mid-range); up to 59.9% / 69.6%."])


# ---------------------------------------------------------------------------
# Figure 17: contribution of the three optimizations
# ---------------------------------------------------------------------------

def _fig17_unit(item: "tuple[SoCSpec, str]") -> List:
    soc, model = item
    stages = _ablation_for(soc)
    graph = build_model(model, with_weights=False)
    latencies = {name: runtime.run(graph).latency_s
                 for name, runtime in stages.items()}
    full = latencies["full"]
    return [soc.name, model,
            latencies["ch_dist"] / full,
            latencies["ch_dist+pfq"] / full,
            1.0]


def fig17_ablation(models: Sequence[str] = PAPER_MODELS,
                   socs: Sequence[SoCSpec] = DEFAULT_SOCS,
                   jobs: Optional[int] = None) -> ExperimentResult:
    """Latency as the optimizations are applied incrementally,
    normalized to the complete uLayer (the paper's Figure 17)."""
    from .parallel import parallel_map
    rows = parallel_map(_fig17_unit,
                        [(soc, model) for soc in socs for model in models],
                        jobs=jobs)
    return ExperimentResult(
        experiment="fig17",
        title="Incremental optimization contributions (normalized to "
              "full uLayer)",
        headers=["soc", "model", "ch_dist", "ch_dist+pfq", "full"],
        rows=rows,
        notes=["Channel distribution matters most for AlexNet/VGG; "
               "PFQ for GoogLeNet; branch distribution helps only "
               "GoogLeNet and SqueezeNet (Section 7.2)."])


# ---------------------------------------------------------------------------
# Figure 18: energy consumption of all mechanisms
# ---------------------------------------------------------------------------

def _fig18_unit(item: "tuple[SoCSpec, str]") -> "tuple[List, float]":
    soc, model = item
    runtime = _runtime_for(soc)
    graph = build_model(model, with_weights=False)
    best_cpu = run_single_processor(soc, graph, "cpu", DType.QUINT8)
    best_gpu = run_single_processor(soc, graph, "gpu", DType.F16)
    l2p = run_layer_to_processor(soc, graph)
    mulayer = runtime.run(graph)
    base = l2p.energy.total_j
    row = [
        soc.name, model,
        best_cpu.energy.total_j / base,
        best_gpu.energy.total_j / base,
        1.0, mulayer.energy.total_j / base,
        l2p.energy.total_mj, mulayer.energy.total_mj,
    ]
    return row, base / mulayer.energy.total_j


def fig18_energy(models: Sequence[str] = PAPER_MODELS,
                 socs: Sequence[SoCSpec] = DEFAULT_SOCS,
                 jobs: Optional[int] = None) -> ExperimentResult:
    """Energy of each mechanism, normalized to layer-to-processor."""
    from .parallel import parallel_map
    units = parallel_map(_fig18_unit,
                         [(soc, model) for soc in socs for model in models],
                         jobs=jobs)
    rows = [row for row, _ in units]
    ratios = [ratio for _, ratio in units]
    return ExperimentResult(
        experiment="fig18",
        title="Energy consumption normalized to layer-to-processor",
        headers=["soc", "model", "cpu_quint8", "gpu_f16",
                 "layer_to_proc", "mulayer", "l2p_mj", "mulayer_mj"],
        rows=rows,
        notes=[f"geomean uLayer energy-efficiency gain: "
               f"{geometric_mean(ratios):.2f}x",
               "Paper: geomean 1.26x (high-end) and 1.34x (mid-range), "
               "up to 58.1%."])
