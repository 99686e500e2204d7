"""Spatial field operators: gradient energy, Gumbel-Softmax, and the
Dice + cross-entropy segmentation loss.

Fields follow the (..., K, H, W) convention with the class axis third from
last; a missing batch axis is fine.  All operators are built from the
differentiable core so they can sit anywhere in the loss graph.
"""

from __future__ import annotations

import numpy as np

from .diffcore import Tensor, concat

_CE_CLAMP = 1e-12
_DICE_EPS = 1e-6


def grad_sqnorm(f: Tensor) -> Tensor:
    """Squared norm of the forward-difference gradient, replicate edges.

    The replicate convention makes the difference vanish on the last row
    and column.
    """
    if f.ndim < 2:
        raise ValueError(f"grad_sqnorm expects at least 2 dims, got {f.shape}")
    h, w = f.shape[-2], f.shape[-1]
    ax_h, ax_w = f.ndim - 2, f.ndim - 1
    zeros_col = Tensor(np.zeros(f.shape[:-1] + (1,)))
    zeros_row = Tensor(np.zeros(f.shape[:-2] + (1, w)))
    dx = concat([f.slice(ax_w, 1, w) - f.slice(ax_w, 0, w - 1), zeros_col], axis=ax_w)
    dy = concat([f.slice(ax_h, 1, h) - f.slice(ax_h, 0, h - 1), zeros_row], axis=ax_h)
    return dx.square() + dy.square()


def gumbel_softmax(logits: Tensor, tau: float, rng: np.random.Generator) -> Tensor:
    """Relaxed one-hot sample over the class axis (third from last)."""
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if logits.ndim < 3:
        raise ValueError(f"gumbel_softmax expects (..., K, H, W), got {logits.shape}")
    u = rng.uniform(1e-12, 1.0 - 1e-12, size=logits.shape)
    gumbel = Tensor(-np.log(-np.log(u)))
    return ((logits + gumbel) * (1.0 / tau)).softmax(axis=logits.ndim - 3)


def dice_ce_loss_per_item(pred: Tensor, target: Tensor) -> Tensor:
    """Cross-entropy plus soft Dice, one value per batch item.

    pred holds class probabilities, target a one-hot mask, both (B, K, H, W).
    """
    if pred.shape != target.shape or pred.ndim != 4:
        raise ValueError(f"pred {pred.shape} and target {target.shape} must both be "
                         "(B, K, H, W)")
    _, _, h, w = pred.shape
    ce = -(target * (pred + _CE_CLAMP).log()).sum(axis=(1, 2, 3)) * (1.0 / (h * w))
    inter = (pred * target).sum(axis=(2, 3))
    denom = pred.sum(axis=(2, 3)) + target.sum(axis=(2, 3))
    dice_k = (inter * 2.0 + _DICE_EPS) / (denom + _DICE_EPS)
    return ce + (1.0 - dice_k.mean(axis=1))
