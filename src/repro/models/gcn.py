"""A small two-layer graph convolutional encoder with manual backprop.

Shared by :class:`~repro.models.GCNAlign` and :class:`~repro.models.DualAMN`.
The encoder computes

.. math::

    H = \\hat{A} \\,\\mathrm{ReLU}(\\hat{A} X W_1)\\, W_2

where ``X`` are learnable input features and ``\\hat{A}`` is a (normalised)
propagation matrix supplied by the caller — the plain symmetric-normalised
adjacency for GCN-Align, an attention-weighted adjacency for Dual-AMN.
Both models pass a :class:`~repro.models.sparse.SparseAdjacency`; the
encoder only needs ``\\hat{A} @ M`` and ``\\hat{A}.T @ M`` for dense ``M``,
so a dense ``(n, n)`` array works as well.  Gradients with respect to
``X``, ``W_1`` and ``W_2`` are computed manually from an upstream gradient
on the output embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..embedding import Optimizer, xavier_uniform
from .sparse import SparseAdjacency


@dataclass
class GCNGradients:
    """Gradients of the encoder parameters for one backward pass."""

    features: np.ndarray
    weight1: np.ndarray
    weight2: np.ndarray


class GCNEncoder:
    """Two-layer GCN with learnable input features.

    Args:
        num_nodes: number of graph nodes (entities of both KGs).
        input_dim / hidden_dim / output_dim: layer sizes.
        rng: NumPy random generator for initialisation.
    """

    def __init__(
        self,
        num_nodes: int,
        input_dim: int,
        hidden_dim: int,
        output_dim: int,
        rng: np.random.Generator,
    ) -> None:
        self.features = xavier_uniform((num_nodes, input_dim), rng)
        self.weight1 = xavier_uniform((input_dim, hidden_dim), rng)
        self.weight2 = xavier_uniform((hidden_dim, output_dim), rng)
        self._cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def forward(self, adjacency: SparseAdjacency | np.ndarray) -> np.ndarray:
        """Return output embeddings ``H`` and cache intermediates for backward."""
        propagated_features = adjacency @ self.features
        pre_activation = propagated_features @ self.weight1
        hidden = np.maximum(pre_activation, 0.0)
        propagated_hidden = adjacency @ hidden
        output = propagated_hidden @ self.weight2
        self._cache = {
            "adjacency": adjacency,
            "propagated_features": propagated_features,
            "pre_activation": pre_activation,
            "hidden": hidden,
            "propagated_hidden": propagated_hidden,
        }
        return output

    def backward(self, output_gradient: np.ndarray) -> GCNGradients:
        """Backpropagate *output_gradient* (dL/dH) through the cached forward pass."""
        if not self._cache:
            raise RuntimeError("forward() must be called before backward()")
        adjacency = self._cache["adjacency"]
        grad_weight2 = self._cache["propagated_hidden"].T @ output_gradient
        grad_hidden = adjacency.T @ output_gradient @ self.weight2.T
        grad_pre_activation = grad_hidden * (self._cache["pre_activation"] > 0)
        grad_weight1 = self._cache["propagated_features"].T @ grad_pre_activation
        grad_features = adjacency.T @ grad_pre_activation @ self.weight1.T
        return GCNGradients(grad_features, grad_weight1, grad_weight2)

    def apply_gradients(self, gradients: GCNGradients, optimizer: Optimizer) -> None:
        """Update all parameters in place with *optimizer*."""
        optimizer.step("gcn/features", self.features, gradients.features)
        optimizer.step("gcn/weight1", self.weight1, gradients.weight1)
        optimizer.step("gcn/weight2", self.weight2, gradients.weight2)


def pair_margin_gradient(
    output: np.ndarray,
    source_ids: np.ndarray,
    target_ids: np.ndarray,
    negative_target_ids: np.ndarray,
    margin: float,
) -> tuple[np.ndarray, float]:
    """Gradient of the pairwise margin loss used by GCN-Align.

    ``L = mean over pairs of [ ||h_s - h_t||^2 + margin - ||h_s - h_n||^2 ]_+``

    Returns the dense gradient on the output embeddings and the mean loss.
    """
    gradient = np.zeros_like(output)
    positive_diff = output[source_ids] - output[target_ids]
    negative_diff = output[source_ids] - output[negative_target_ids]
    violation = np.sum(positive_diff**2, axis=1) + margin - np.sum(negative_diff**2, axis=1)
    active = violation > 0
    if np.any(active):
        scale = 2.0 / max(len(source_ids), 1)
        np.add.at(gradient, source_ids[active], scale * (positive_diff[active] - negative_diff[active]))
        np.add.at(gradient, target_ids[active], -scale * positive_diff[active])
        np.add.at(gradient, negative_target_ids[active], scale * negative_diff[active])
    loss = float(np.mean(np.maximum(violation, 0.0))) if len(violation) else 0.0
    return gradient, loss


def logsumexp_mining_gradient(
    output: np.ndarray,
    source_ids: np.ndarray,
    target_ids: np.ndarray,
    margin: float,
    scale: float,
) -> tuple[np.ndarray, float]:
    """Gradient of the normalised hard-sample-mining loss used by Dual-AMN.

    Every seed source treats all other seed targets as in-batch negatives:

    ``L_i = log(1 + sum_j exp(scale * (margin + d(s_i, t_i) - d(s_i, t_j))))``

    The soft weighting concentrates the gradient on the hardest negatives,
    which is the mechanism Dual-AMN [10] introduces to speed up and sharpen
    alignment learning.  Returns the dense output gradient and mean loss.
    """
    gradient = np.zeros_like(output)
    num_pairs = len(source_ids)
    if num_pairs == 0:
        return gradient, 0.0
    sources = output[source_ids]
    targets = output[target_ids]
    # Pairwise squared distances between every seed source and every seed target.
    distances = (
        np.sum(sources**2, axis=1, keepdims=True)
        - 2.0 * sources @ targets.T
        + np.sum(targets**2, axis=1)[None, :]
    )
    positive = np.diag(distances)
    logits = scale * (margin + positive[:, None] - distances)
    np.fill_diagonal(logits, -np.inf)
    # Numerically stable softmax-style weights of each negative.
    max_logit = np.maximum(np.max(logits, axis=1, keepdims=True), 0.0)
    exp_logits = np.exp(logits - max_logit)
    denominator = np.exp(-max_logit[:, 0]) + np.sum(exp_logits, axis=1)
    weights = exp_logits / denominator[:, None]
    total_weight = np.sum(weights, axis=1)

    loss = float(np.mean(max_logit[:, 0] + np.log(denominator)))

    scale_factor = 2.0 * scale / num_pairs
    # d(positive)/dh terms.
    positive_diff = sources - targets
    np.add.at(gradient, source_ids, scale_factor * total_weight[:, None] * positive_diff)
    np.add.at(gradient, target_ids, -scale_factor * total_weight[:, None] * positive_diff)
    # d(-negative)/dh terms, weighted per negative target.
    weighted_targets = weights @ targets
    np.add.at(
        gradient,
        source_ids,
        -scale_factor * (total_weight[:, None] * sources - weighted_targets),
    )
    np.add.at(gradient, target_ids, scale_factor * (weights.T @ sources))
    np.add.at(
        gradient,
        target_ids,
        -scale_factor * (np.sum(weights, axis=0)[:, None] * targets),
    )
    return gradient, loss
