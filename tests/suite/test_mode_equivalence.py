"""The kernels' references are references only if training on them lands on the kernels' bits.

Two training steps of each of the seven benchmarks, once on the kernels and
once under the ``reference_kernels`` fixture (every kernel on its reference
composition), from the same seed: the exported model state must be
byte-equal.  (Before
the reference convolution returned a dense NCHW output, batch statistics
taken over its NHWC-backed view differed in the last bit, and with them
the weights of every benchmark that has a convolution.)
"""

from __future__ import annotations

import pytest

from repro.suite import REGISTRY

from .test_dtype_closure import _Stop, _session, _stop_after_calls


def _state_after_two_steps(name):
    session = _session(name)
    _stop_after_calls(session.step_executor(), "step", calls=2)
    with pytest.raises(_Stop):
        session.run_epoch(0)
    return {key: (value.dtype, value.shape, value.tobytes())
            for key, value in session.export_state().items()}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_two_steps_export_the_same_bytes_in_both_modes(reference_kernels, name):
    with reference_kernels():
        naive = _state_after_two_steps(name)
    fused = _state_after_two_steps(name)
    assert naive.keys() == fused.keys() and naive
    differing = [key for key in naive if naive[key] != fused[key]]
    assert not differing, f"{name}: {differing[:5]} differ between naive and fused"
