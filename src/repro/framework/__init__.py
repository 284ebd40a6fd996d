"""A from-scratch NumPy deep-learning framework.

This package stands in for the PyTorch/TensorFlow substrate the MLPerf
reference implementations are built on: tensors with reverse-mode autodiff,
the layer zoo the seven benchmarks need, optimizers (including both §2.2.4
momentum formulations and LARS), LR schedules, and a seeded data pipeline.
"""

from .tensor import Tensor, inference_mode, is_grad_enabled, is_inference_mode, no_grad
from .module import Module, ModuleList, Parameter, Sequential
from . import functional
from . import init
from .config import kernel_mode
from .conv import conv2d, conv2d_naive, conv2d_same, global_avg_pool2d, im2col, col2im
from .fused import conv2d_bias_relu, linear_bias_act, lstm_cell
from .layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    ReLU,
)
from .rnn import LSTM, LSTMCell
from .attention import (
    FeedForward,
    MultiHeadAttention,
    TransformerDecoderLayer,
    TransformerEncoderLayer,
    attention_bias,
    causal_mask,
    positional_encoding,
)
from .optim import LARS, SGD, Adam, Optimizer, clip_grad_norm, MOMENTUM_STYLES
from .schedules import (
    ConstantLR,
    CosineLR,
    LRScheduler,
    NoamLR,
    StepDecayLR,
    WarmupStepLR,
    linear_scaled_lr,
)
from .data import ArrayDataset, DataLoader, train_val_split

__all__ = [
    "Tensor",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "Module",
    "ModuleList",
    "Parameter",
    "Sequential",
    "functional",
    "init",
    "kernel_mode",
    "conv2d",
    "conv2d_naive",
    "conv2d_same",
    "conv2d_bias_relu",
    "linear_bias_act",
    "lstm_cell",
    "global_avg_pool2d",
    "im2col",
    "col2im",
    "BatchNorm1d",
    "BatchNorm2d",
    "Conv2d",
    "Dropout",
    "Embedding",
    "Flatten",
    "GlobalAvgPool2d",
    "LayerNorm",
    "Linear",
    "ReLU",
    "LSTM",
    "LSTMCell",
    "FeedForward",
    "MultiHeadAttention",
    "TransformerDecoderLayer",
    "TransformerEncoderLayer",
    "attention_bias",
    "causal_mask",
    "positional_encoding",
    "LARS",
    "SGD",
    "Adam",
    "Optimizer",
    "clip_grad_norm",
    "MOMENTUM_STYLES",
    "ConstantLR",
    "CosineLR",
    "LRScheduler",
    "NoamLR",
    "StepDecayLR",
    "WarmupStepLR",
    "linear_scaled_lr",
    "ArrayDataset",
    "DataLoader",
    "train_val_split",
]
