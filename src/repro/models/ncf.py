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
from ..framework.fused import fused_path, linear_array
from ..framework.prof import profiled_op
from ..framework.tensor import gather_rows

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

    @profiled_op("ncf_score")
    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Inference scores for serving and ranking evaluation: :meth:`forward`'s
        values, wired over the kernels' array functions."""
        tables = (self.user_gmf.weight, self.item_gmf.weight,
                  self.user_mlp.weight, self.item_mlp.weight)
        linears = (*self.mlp_layers, self.head)
        if not fused_path("ncf_score", *tables, *(t for m in linears for t in (m.weight, m.bias))):
            with no_grad():
                return self.forward(users, items).data
        users, items = np.asarray(users), np.asarray(items)
        user_gmf, item_gmf, user_mlp, item_mlp = (t.data for t in tables)
        gmf = gather_rows(user_gmf, users) * gather_rows(item_gmf, items)
        # The MLP tables have the GMF tables' rows, so these ids are checked.
        h = np.concatenate([user_mlp[users], item_mlp[items]], axis=1)
        for layer in self.mlp_layers:
            h = linear_array(h, layer.weight.data, layer.bias.data, layer.activation)[0]
        h = np.concatenate([gmf, h], axis=1)
        return linear_array(h, self.head.weight.data, self.head.bias.data,
                            self.head.activation)[0].reshape(-1)
