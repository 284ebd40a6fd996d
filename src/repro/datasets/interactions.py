"""SyntheticInteractions: implicit-feedback data for the NCF benchmark.

The paper notes (§3.1.5) that public recommendation datasets are orders of
magnitude smaller than industrial ones and that v0.7 moves to *synthetic*
data that retains the characteristics of the original (Belletti et al.,
2019).  In that spirit this generator produces implicit user-item feedback
with the two characteristics that matter for the workload:

- a **power-law item popularity** distribution (long tail), which shapes
  embedding-table access patterns, and
- **latent structure**: interactions are drawn from a low-rank user-item
  affinity model, so collaborative filtering genuinely outperforms a
  popularity baseline.

The split follows NCF's leave-one-out protocol: one held-out positive per
user, ranked against sampled negatives at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["InteractionConfig", "SyntheticInteractions"]


@dataclass(frozen=True)
class InteractionConfig:
    num_users: int = 160
    num_items: int = 320
    latent_dim: int = 6
    interactions_per_user: int = 22
    popularity_exponent: float = 1.1  # power-law tail
    num_eval_negatives: int = 50
    seed: int = 2015


class SyntheticInteractions:
    """Deterministic synthetic implicit-feedback dataset.

    Attributes
    ----------
    train_users, train_items:
        Parallel arrays of observed positive interactions (training set).
    eval_positives:
        ``(num_users,)`` — each user's held-out positive item.
    eval_negatives:
        ``(num_users, num_eval_negatives)`` — sampled unseen items.
    """

    def __init__(self, config: InteractionConfig = InteractionConfig()):
        unseen = config.num_items - config.interactions_per_user
        if unseen < config.num_eval_negatives:
            raise ValueError(
                f"need at least {config.num_eval_negatives} unseen items per user "
                f"for eval negatives, but only {unseen} remain "
                f"({config.num_items} items - {config.interactions_per_user} interactions)"
            )
        self.config = config
        rng = np.random.default_rng(config.seed)

        # Latent affinity model with popularity bias.
        user_factors = rng.normal(0, 1.0, size=(config.num_users, config.latent_dim))
        item_factors = rng.normal(0, 1.0, size=(config.num_items, config.latent_dim))
        popularity = (np.arange(1, config.num_items + 1, dtype=np.float64)
                      ** -config.popularity_exponent)
        rng.shuffle(popularity)
        affinity = user_factors @ item_factors.T + 2.0 * np.log(popularity)[None, :]

        users: list[int] = []
        items: list[int] = []
        positives = np.empty(config.num_users, dtype=np.int64)
        negatives = np.empty((config.num_users, config.num_eval_negatives), dtype=np.int64)
        self._seen: list[set[int]] = []
        for u in range(config.num_users):
            # Sample the user's item set by softmax over affinity.
            logits = affinity[u]
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            chosen = rng.choice(
                config.num_items, size=config.interactions_per_user, replace=False, p=probs
            )
            seen = set(int(i) for i in chosen)
            self._seen.append(seen)
            # Leave-one-out: last sampled item becomes the eval positive.
            positives[u] = chosen[-1]
            for item in chosen[:-1]:
                users.append(u)
                items.append(int(item))
            # Eval negatives: uniform over unseen items (in increasing order;
            # np.setdiff1d would give the same array but import numpy.ma).
            unseen = np.ones(config.num_items, dtype=bool)
            unseen[chosen] = False
            negatives[u] = rng.choice(np.flatnonzero(unseen), size=config.num_eval_negatives,
                                      replace=False)

        self.train_users = np.array(users, dtype=np.int64)
        self.train_items = np.array(items, dtype=np.int64)
        self.eval_positives = positives
        self.eval_negatives = negatives
        self.item_popularity = popularity

    def sample_training_batch(
        self, batch_size: int, num_negatives: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample (users, items, labels) with ``num_negatives`` negatives per
        positive — the NCF training scheme (BCE with negative sampling)."""
        idx = rng.integers(0, len(self.train_users), size=batch_size)
        pos_users = self.train_users[idx]
        pos_items = self.train_items[idx]
        neg_users = np.repeat(pos_users, num_negatives)
        neg_items = rng.integers(0, self.config.num_items, size=len(neg_users))
        # Resample any accidental positives (cheap rejection, one pass is
        # plenty at our sparsity).
        for i, (u, it) in enumerate(zip(neg_users, neg_items)):
            if int(it) in self._seen[u]:
                neg_items[i] = int(rng.integers(0, self.config.num_items))
        users = np.concatenate([pos_users, neg_users])
        items = np.concatenate([pos_items, neg_items])
        labels = np.concatenate(
            [np.ones(len(pos_users), dtype=np.float32), np.zeros(len(neg_users), dtype=np.float32)]
        )
        return users, items, labels

    @property
    def all_users(self) -> np.ndarray:
        return np.arange(self.config.num_users, dtype=np.int64)
