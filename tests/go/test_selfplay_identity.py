"""Golden digest of a seeded self-play batch.

Self-play is the only place the suite feeds a network's output back into
its own training data, so a single flipped low bit (a reordered sum in a
normalisation kernel, a different child order in the search tree) changes
every later game.  The digest below was recorded on the commit *before*
the flat-cell board, the lazy search tree and the single-node ``normalize``
kernel were written; it covers the examples' planes/policy/value bytes,
the generator's final state and the network's BatchNorm running statistics
(mutated on every evaluation, because self-play runs before the first
``eval()`` call and so in training mode).  The kernels and their reference
compositions (the ``reference_kernels`` fixture) both produce it: the
reference is the reference only if it is bit-identical to the kernels.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.framework import no_grad
from repro.go import MCTSConfig, selfplay_batch
from repro.models import MiniGoNet

SEED = 20240913

GOLDEN = "9ec622bd5657463498787359fd0dbf5e41af705904c2cb0c2901164eb587452a"

# A forward of the same network on fixed input, through the reference
# compositions.  The digest is only meaningful where BLAS rounds as it did
# on the recording host (OpenBLAS picks its GEMM kernel by CPU), so a host
# that fails this probe skips instead of reporting a difference the code
# did not cause.
HOST_PROBE = "28f1104c0e7cdbe5153e26e201fcb009e8fefa28d88c5aa83b2352f28cd021b0"

def _host_probe(reference_kernels) -> str:
    """The probe's digest (pass the ``reference_kernels`` fixture)."""
    with reference_kernels(), no_grad():
        net = MiniGoNet(5, np.random.default_rng(SEED))
        net.eval()
        x = np.random.default_rng(1).normal(size=(4, 3, 5, 5)).astype(np.float32)
        logits, value = net(x)
    return hashlib.sha256(logits.data.tobytes() + value.data.tobytes()).hexdigest()


def _selfplay_digest() -> tuple[int, str]:
    rng = np.random.default_rng(SEED)
    net = MiniGoNet(5, rng)
    examples = selfplay_batch(net, 2, 5, rng, MCTSConfig(num_simulations=8), komi=8.5)
    digest = hashlib.sha256()
    for example in examples:
        digest.update(example.planes.tobytes())
        digest.update(example.policy.tobytes())
        digest.update(np.float64(example.value).tobytes())
    digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    for module in net.modules():
        if hasattr(module, "running_mean"):
            digest.update(module.running_mean.tobytes())
            digest.update(module.running_var.tobytes())
    return len(examples), digest.hexdigest()


@pytest.mark.parametrize("mode", ("naive", "fused"))
def test_selfplay_batch_matches_golden_digest(reference_kernels, mode):
    if _host_probe(reference_kernels) != HOST_PROBE:
        pytest.skip("BLAS rounds differently here than on the host that recorded the digest")
    with reference_kernels(mode == "naive"):
        count, digest = _selfplay_digest()
    assert count == 107
    assert digest == GOLDEN
