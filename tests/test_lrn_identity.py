"""Byte identity of ``LRN.forward_f32`` against its earlier formula.

``forward_f32`` squares into one buffer, sums it up in place and does
the scale, ``+ k``, ``** beta`` and divide in place.  Those are the
same float32 operations in the same order as the formula below, which
built the padded squares, cumsum, a zero-channel concatenate and each
intermediate as a fresh array.  The interpreter and the compiled path
both call ``forward_f32``, so any drift here would move both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn.layers import LRN


def _reference(x, size, alpha, beta, k):
    """LRN as the sum of squares over a sliding channel window, by
    a zero-padded cumsum with a zero channel concatenated in front."""
    x = x.astype(np.float32)
    squared = x * x
    channels = x.shape[1]
    half = size // 2
    padded = np.zeros(
        (x.shape[0], channels + 2 * half, x.shape[2], x.shape[3]),
        dtype=np.float32)
    padded[:, half:half + channels] = squared
    cumsum = np.cumsum(padded, axis=1)
    cumsum = np.concatenate(
        [np.zeros_like(cumsum[:, :1]), cumsum], axis=1)
    window = cumsum[:, size:] - cumsum[:, :-size]
    denom = (k + (alpha / size) * window) ** beta
    return (x / denom).astype(np.float32)


@st.composite
def lrn_cases(draw):
    """Odd window sizes 1-7, 1-11 channels, batch 1-3, maps up to
    6x6, and betas that include numpy's fast-power exponents."""
    size = draw(st.sampled_from([1, 3, 5, 7]))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 11)),
             draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    alpha = draw(st.sampled_from([1e-4, 1e-2, 0.5, 2.0]))
    beta = draw(st.sampled_from([0.75, 0.5, 1.0, 2.0, -1.0, 0.3]))
    k = draw(st.sampled_from([1.0, 2.0, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 30.0]))
    x = (rng.standard_normal(shape) * scale).astype(np.float32)
    return x, size, alpha, beta, k


@given(lrn_cases())
@settings(max_examples=300, deadline=None)
def test_forward_matches_reference_formula(case):
    x, size, alpha, beta, k = case
    layer = LRN("lrn", size=size, alpha=alpha, beta=beta, k=k)
    out = layer.forward_f32([x])
    want = _reference(x, size, alpha, beta, k)
    assert out.dtype == np.float32
    assert out.shape == want.shape
    assert out.tobytes() == want.tobytes()


def test_googlenet_norm2_shape_matches_reference(rng):
    """googlenet conv2/norm2's (1, 192, 56, 56) at its defaults."""
    x = (rng.standard_normal((1, 192, 56, 56)) * 20).astype(np.float32)
    layer = LRN("conv2/norm2")
    assert (layer.forward_f32([x]).tobytes()
            == _reference(x, 5, 1e-4, 0.75, 1.0).tobytes())


@pytest.mark.parametrize("size", [0, 2, 4])
def test_rejects_even_or_empty_window(size):
    with pytest.raises(ShapeError, match="'norm'"):
        LRN("norm", size=size)
