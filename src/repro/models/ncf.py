"""NCF (NeuMF): neural collaborative filtering for recommendation.

§3.1.5: recommendation workloads "are characterized by large embedding
tables, followed by linear layers"; the benchmark model is "Neural
Collaborative Filtering, an instance of Wide and Deep models".  This is
the full NeuMF architecture of He et al. (2017b): a GMF branch (elementwise
product of user/item embeddings) and an MLP branch (concatenated
embeddings through a tower), fused by a final linear layer into an
interaction logit.  Trained with BCE over sampled negatives; evaluated as
HR@10 under leave-one-out.
"""

from __future__ import annotations

import numpy as np

from ..framework import Embedding, Linear, Module, Tensor, functional as F, no_grad

__all__ = ["NCF"]


class NCF(Module):
    """NeuMF: GMF + MLP with separate embedding tables per branch."""

    def __init__(self, num_users: int, num_items: int, rng: np.random.Generator,
                 gmf_dim: int = 8, mlp_dim: int = 16, mlp_hidden: tuple[int, ...] = (32, 16)):
        super().__init__()
        self.user_gmf = Embedding(num_users, gmf_dim, rng)
        self.item_gmf = Embedding(num_items, gmf_dim, rng)
        self.user_mlp = Embedding(num_users, mlp_dim, rng)
        self.item_mlp = Embedding(num_items, mlp_dim, rng)
        layers = []
        in_dim = 2 * mlp_dim
        for width in mlp_hidden:
            layers.append(Linear(in_dim, width, rng, activation="relu"))
            in_dim = width
        self.mlp_layers = layers
        self.head = Linear(gmf_dim + in_dim, 1, rng)

    def forward(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        """Interaction logits ``(N,)`` for user/item id pairs."""
        gmf = self.user_gmf(users) * self.item_gmf(items)
        h = Tensor.concat([self.user_mlp(users), self.item_mlp(items)], axis=1)
        for layer in self.mlp_layers:
            h = layer(h)
        fused = Tensor.concat([gmf, h], axis=1)
        return self.head(fused).reshape(-1)

    def loss(self, users: np.ndarray, items: np.ndarray, labels: np.ndarray) -> Tensor:
        return F.binary_cross_entropy_with_logits(self.forward(users, items), labels)

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Inference scores (no graph) for ranking evaluation."""
        with no_grad():
            return self.forward(users, items).data
