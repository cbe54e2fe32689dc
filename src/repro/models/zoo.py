"""The model registry and Table 1 metadata.

Table 1 of the paper lists the five evaluated NNs and which of uLayer's
mechanisms apply to each.  Channel-wise distribution and the
processor-friendly quantization apply to all of them; branch
distribution applies only to the networks with divergent branches
(GoogLeNet and SqueezeNet v1.1).  The applicability flags here are not
hard-coded judgments -- ``has_branches`` is verified against the actual
branch analysis in the test suite.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from ..errors import UnknownNameError
from ..nn import Graph
from .alexnet import build_alexnet, build_alexnet_mini
from .googlenet import build_googlenet, build_googlenet_mini
from .lenet import build_lenet5
from .mobilenet import build_mobilenet, build_mobilenet_mini
from .resnet import build_resnet18, build_resnet_mini
from .squeezenet import build_squeezenet, build_squeezenet_mini
from .vgg import build_vgg16, build_vgg_mini


@dataclasses.dataclass(frozen=True)
class ModelInfo:
    """Registry entry for one model.

    Attributes:
        name: registry key.
        display_name: the name the paper uses.
        builder: zero-config graph builder.
        paper_class: the NN class Table 1 assigns (branching / large
            filters / computation-minimizing).
        has_branches: whether branch distribution applies.
        evaluated_in_paper: True for the five NNs of Table 1.
        mini_of: for ``*_mini`` variants, the full model they shrink.
    """

    name: str
    display_name: str
    builder: Callable[[bool], Graph]
    paper_class: str
    has_branches: bool
    evaluated_in_paper: bool
    mini_of: "str | None" = None

    @property
    def channel_distribution_applies(self) -> bool:
        """Channel-wise workload distribution applies to every NN."""
        return True

    @property
    def processor_quantization_applies(self) -> bool:
        """Processor-friendly quantization applies to every NN."""
        return True

    @property
    def branch_distribution_applies(self) -> bool:
        """Branch distribution applies only to branching NNs."""
        return self.has_branches


_REGISTRY: Dict[str, ModelInfo] = {}


def _register(info: ModelInfo) -> None:
    _REGISTRY[info.name] = info


_register(ModelInfo(
    name="googlenet", display_name="GoogLeNet", builder=build_googlenet,
    paper_class="divergent branches", has_branches=True,
    evaluated_in_paper=True))
_register(ModelInfo(
    name="squeezenet", display_name="SqueezeNet v1.1",
    builder=build_squeezenet, paper_class="divergent branches",
    has_branches=True, evaluated_in_paper=True))
_register(ModelInfo(
    name="vgg16", display_name="VGG-16", builder=build_vgg16,
    paper_class="large filter sizes", has_branches=False,
    evaluated_in_paper=True))
_register(ModelInfo(
    name="alexnet", display_name="AlexNet", builder=build_alexnet,
    paper_class="large filter sizes", has_branches=False,
    evaluated_in_paper=True))
_register(ModelInfo(
    name="mobilenet", display_name="MobileNet v1",
    builder=build_mobilenet, paper_class="minimized computation",
    has_branches=False, evaluated_in_paper=True))
_register(ModelInfo(
    name="resnet18", display_name="ResNet-18", builder=build_resnet18,
    paper_class="residual shortcuts (accuracy study, Fig. 10)",
    has_branches=True, evaluated_in_paper=False))
_register(ModelInfo(
    name="resnet_mini", display_name="ResNet (mini)",
    builder=build_resnet_mini,
    paper_class="residual shortcuts (accuracy study, Fig. 10)",
    has_branches=True, evaluated_in_paper=False, mini_of="resnet18"))
_register(ModelInfo(
    name="lenet5", display_name="LeNet-5", builder=build_lenet5,
    paper_class="digit recognition (background example)",
    has_branches=False, evaluated_in_paper=False))
_register(ModelInfo(
    name="googlenet_mini", display_name="GoogLeNet (mini)",
    builder=build_googlenet_mini, paper_class="divergent branches",
    has_branches=True, evaluated_in_paper=False, mini_of="googlenet"))
_register(ModelInfo(
    name="squeezenet_mini", display_name="SqueezeNet (mini)",
    builder=build_squeezenet_mini, paper_class="divergent branches",
    has_branches=True, evaluated_in_paper=False, mini_of="squeezenet"))
_register(ModelInfo(
    name="vgg_mini", display_name="VGG (mini)", builder=build_vgg_mini,
    paper_class="large filter sizes", has_branches=False,
    evaluated_in_paper=False, mini_of="vgg16"))
_register(ModelInfo(
    name="alexnet_mini", display_name="AlexNet (mini)",
    builder=build_alexnet_mini, paper_class="large filter sizes",
    has_branches=False, evaluated_in_paper=False, mini_of="alexnet"))
_register(ModelInfo(
    name="mobilenet_mini", display_name="MobileNet (mini)",
    builder=build_mobilenet_mini, paper_class="minimized computation",
    has_branches=False, evaluated_in_paper=False, mini_of="mobilenet"))

#: The five networks of Table 1, in the paper's order.
PAPER_MODELS = ("googlenet", "squeezenet", "vgg16", "alexnet", "mobilenet")

#: Fast stand-ins for the paper networks, same order.
MINI_MODELS = ("googlenet_mini", "squeezenet_mini", "vgg_mini",
               "alexnet_mini", "mobilenet_mini")


def model_info(name: str) -> ModelInfo:
    """Registry metadata for ``name``.

    Raises:
        UnknownNameError: if the model is not registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownNameError(
            f"unknown model {name!r}; known models: {known}") from None


def build_model(name: str, with_weights: bool = True) -> Graph:
    """Build a registered model by name.

    Args:
        name: registry key (see :func:`list_models`).
        with_weights: install deterministic synthetic weights.  Full
            VGG-16/AlexNet weights occupy hundreds of MB; timing-only
            studies should pass False.
    """
    return model_info(name).builder(with_weights)


def list_models() -> List[str]:
    """All registered model names, sorted."""
    return sorted(_REGISTRY)
