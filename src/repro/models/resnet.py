"""MiniResNet: a scaled-down ResNet v1.5 for image classification.

§3.1.1 stresses that "there are at least 5 variants of ResNet-50" and that
MLPerf had to pin one down.  The v1.5 variant is defined by three choices,
all of which this model retains at reduced depth/width:

1. **addition after batch normalization** — the residual add happens after
   the final BN of the block, then ReLU (post-activation v1);
2. **no 1×1 convolution in the skip connection of the first residual
   block** — when the first block of a stage keeps spatial size and the
   channel count already matches, the shortcut is the identity;
3. **downsampling applied by the 3×3 convolutions** — when a stage halves
   resolution, the stride-2 lives in the block's 3×3 conv (not in the 1×1
   projection path of the original v1 bottleneck).

For 16×16 synthetic images we use basic (two-conv) blocks in three stages.
"""

from __future__ import annotations

import numpy as np

from ..framework import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    Module,
    ModuleList,
    Tensor,
)

__all__ = ["BasicBlockV15", "MiniResNet"]


class BasicBlockV15(Module):
    """Two 3×3 convs with BN; residual added after the second BN (v1.5)."""

    def __init__(self, in_channels: int, out_channels: int, stride: int, rng: np.random.Generator):
        super().__init__()
        # v1.5: downsampling stride sits on the 3x3 conv.
        self.conv1 = Conv2d(in_channels, out_channels, 3, rng, stride=stride, padding=1, bias=False)
        self.bn1 = BatchNorm2d(out_channels, activation="relu")
        self.conv2 = Conv2d(out_channels, out_channels, 3, rng, stride=1, padding=1, bias=False)
        # v1.5: the residual is added after this BN, then the ReLU.
        self.bn2 = BatchNorm2d(out_channels, activation="relu")
        if stride != 1 or in_channels != out_channels:
            # Projection shortcut (1x1, stride matching the main path).
            self.shortcut = Conv2d(in_channels, out_channels, 1, rng, stride=stride, bias=False)
            self.shortcut_bn = BatchNorm2d(out_channels)
        else:
            # v1.5: identity skip — notably in the first residual block.
            self.shortcut = None
            self.shortcut_bn = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.conv2(self.bn1(self.conv1(x)))
        skip = x if self.shortcut is None else self.shortcut_bn(self.shortcut(x))
        return self.bn2(out, residual=skip)  # relu(bn2(out) + skip): addition after BN


class MiniResNet(Module):
    """Three-stage ResNet v1.5 classifier.

    Default widths (16, 32, 64) over 16×16 inputs give ~180k parameters —
    small enough to train to the quality target in seconds on a CPU while
    keeping the architecture family and its training dynamics.
    """

    def __init__(
        self,
        num_classes: int,
        rng: np.random.Generator,
        in_channels: int = 3,
        widths: tuple[int, ...] = (16, 32, 64),
        blocks_per_stage: int = 2,
    ):
        super().__init__()
        self.stem = Conv2d(in_channels, widths[0], 3, rng, stride=1, padding=1, bias=False)
        self.stem_bn = BatchNorm2d(widths[0], activation="relu")
        stages: list[Module] = []
        channels = widths[0]
        for stage_idx, width in enumerate(widths):
            for block_idx in range(blocks_per_stage):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                stages.append(BasicBlockV15(channels, width, stride, rng))
                channels = width
        self.blocks = ModuleList(stages)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(channels, num_classes, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc(self.pool(self.features(x)))

    def features(self, x: Tensor) -> Tensor:
        """Backbone feature map before pooling (used by detection models)."""
        out = self.stem_bn(self.stem(x))
        for block in self.blocks:
            out = block(out)
        return out
