"""Module system: parameter containers with PyTorch-like ergonomics.

A :class:`Module` registers :class:`Parameter` and sub-``Module`` attributes
automatically, exposes ``parameters()`` / ``named_parameters()`` for
optimizers, ``train()`` / ``eval()`` mode switching, and a flat
``state_dict`` for checkpointing and the equivalence checks the Closed
division requires.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor, is_inference_mode

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A tensor that is a learnable model weight (always requires grad)."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)
        # Parameters track grads even inside no_grad(); only the explicit
        # forward-only inference mode suppresses that, so a model built
        # for serving carries no grad bookkeeping anywhere.
        self.requires_grad = not is_inference_mode()


class Module:
    """Base class for all network components."""

    def __init__(self) -> None:
        self.training = True

    # -- attribute walking --------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- mode ----------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- gradient & state management ------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}")
            p.data = state[name].astype(p.data.dtype).copy()

    # -- call protocol ---------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain modules; each must map one tensor to one tensor."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def __len__(self) -> int:
        return len(self.layers)


class ModuleList(Module):
    """A registered list of modules (no implicit forward)."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self.items = list(modules or [])

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, idx: int) -> Module:
        return self.items[idx]

    def __len__(self) -> int:
        return len(self.items)
