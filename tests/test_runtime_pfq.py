"""Which compute pipelines a quantization policy admits."""

import dataclasses

import pytest

from repro.errors import QuantizationError
from repro.runtime import (PROCESSOR_FRIENDLY, QuantizationPolicy,
                           UNIFORM_F16, UNIFORM_F32, UNIFORM_QUINT8)
from repro.tensor import DType


@pytest.mark.parametrize("policy", [PROCESSOR_FRIENDLY, UNIFORM_F32,
                                    UNIFORM_F16, UNIFORM_QUINT8],
                         ids=lambda policy: policy.name)
def test_admitted_policies_construct(policy):
    assert QuantizationPolicy(**dataclasses.asdict(policy)) == policy


@pytest.mark.parametrize("resource", ["cpu", "gpu"])
def test_f32_compute_over_quint8_storage_raises(resource):
    with pytest.raises(QuantizationError,
                       match=f"QUInt8 or F16, not f32 on {resource}"):
        dataclasses.replace(PROCESSOR_FRIENDLY,
                            **{f"{resource}_compute": DType.F32})
