"""Optimizers.

§2.2.4 of the paper shows that frameworks disagree on the *mathematics* of
momentum SGD: Caffe folds the learning rate into the velocity
(``v = a*v + lr*g; w -= v``) while PyTorch/TensorFlow scale at the update
(``v = a*v + g; w -= lr*v``).  The two coincide only under a constant
learning rate.  Both variants are implemented here so that the §2.2.4 bench
can demonstrate exactly that divergence, and so the Closed-division
equivalence checker can insist on a specific formulation.

LARS (You et al., 2017) is included because allowing it for large ResNet
batches was the headline v0.5→v0.6 rule change (§5).

Each update has one implementation (DESIGN.md, *Measured and removed*).
"""

from __future__ import annotations

import numpy as np

from .module import Parameter
from .prof import profiler

__all__ = ["Optimizer", "SGD", "Adam", "LARS", "MOMENTUM_STYLES", "clip_grad_norm"]

MOMENTUM_STYLES = ("caffe", "torch")


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class Optimizer:
    """Base optimizer: holds parameters and the current learning rate."""

    def __init__(self, params: list[Parameter], lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = float(lr)
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        prof = profiler()
        if prof.active:
            nbytes = sum(p.data.nbytes + p.grad.nbytes for p in self.params
                         if p.grad is not None)
            with prof.op("optimizer_step", phase="update", nbytes=nbytes):
                self.step_count += 1
                for p in self.params:
                    if p.grad is not None:
                        self._update(p)
            return
        self.step_count += 1
        for p in self.params:
            if p.grad is not None:
                self._update(p)

    def _update(self, p: Parameter) -> None:
        raise NotImplementedError

    def hyperparameters(self) -> dict[str, float | str]:
        """Report tunables for the submission log (compliance checking)."""
        return {"lr": self.lr}


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    ``momentum_style`` selects between the two formulations of §2.2.4.
    Weight decay is applied as L2 regularization added to the gradient
    (the convention of both reference formulations in the paper's framing).
    """

    def __init__(self, params, lr: float, momentum: float = 0.0, weight_decay: float = 0.0,
                 momentum_style: str = "torch"):
        super().__init__(params, lr)
        if momentum_style not in MOMENTUM_STYLES:
            raise ValueError(f"momentum_style must be one of {MOMENTUM_STYLES}, got {momentum_style!r}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.momentum_style = momentum_style
        self._velocity: dict[int, np.ndarray] = {}

    def _update(self, p: Parameter) -> None:
        grad = p.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data
        if self.momentum == 0.0:
            p.data -= self.lr * grad
            return
        v = self._velocity.get(id(p))
        if v is None:
            v = np.zeros_like(p.data)
            self._velocity[id(p)] = v
        if self.momentum_style == "caffe":
            # momentum = a*momentum + lr*dL/dw ; w -= momentum   (Eq. 1)
            v *= self.momentum
            v += self.lr * grad
            p.data -= v
        else:
            # momentum = a*momentum + dL/dw ; w -= lr*momentum   (Eq. 2)
            v *= self.momentum
            v += grad
            p.data -= self.lr * v

    def hyperparameters(self) -> dict[str, float | str]:
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "momentum_style": self.momentum_style,
        }


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, params, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = float(weight_decay)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t: dict[int, int] = {}

    def _update(self, p: Parameter) -> None:
        grad = p.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data
        key = id(p)
        if key not in self._m:
            self._m[key] = np.zeros_like(p.data)
            self._v[key] = np.zeros_like(p.data)
            self._t[key] = 0
        self._t[key] += 1
        t = self._t[key]
        m, v = self._m[key], self._v[key]
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1**t)
        v_hat = v / (1 - self.beta2**t)
        p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def hyperparameters(self) -> dict[str, float | str]:
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "weight_decay": self.weight_decay,
        }


class LARS(Optimizer):
    """Layer-wise Adaptive Rate Scaling (You et al., 2017).

    Each layer's update is rescaled by ``trust * ||w|| / (||g|| + wd*||w||)``,
    which keeps the update-to-weight ratio uniform across layers and is what
    makes very large minibatches trainable — the mechanism behind the v0.6
    large-batch ResNet entries (§5).
    """

    def __init__(self, params, lr: float, momentum: float = 0.9, weight_decay: float = 0.0,
                 trust_coefficient: float = 0.001, eps: float = 1e-9):
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.trust = float(trust_coefficient)
        self.eps = eps
        self._velocity: dict[int, np.ndarray] = {}

    def _update(self, p: Parameter) -> None:
        grad = p.grad + self.weight_decay * p.data
        w_norm = float(np.linalg.norm(p.data))
        g_norm = float(np.linalg.norm(grad))
        if w_norm > 0 and g_norm > 0:
            local_lr = self.trust * w_norm / (g_norm + self.eps)
        else:
            local_lr = 1.0
        v = self._velocity.get(id(p))
        if v is None:
            v = np.zeros_like(p.data)
            self._velocity[id(p)] = v
        v *= self.momentum
        v += self.lr * local_lr * grad
        p.data -= v

    def hyperparameters(self) -> dict[str, float | str]:
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "trust_coefficient": self.trust,
        }
