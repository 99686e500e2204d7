"""Masked autoregressive flows over K-dimensional rows.

A stack is MAF layers only, with alternating MADE orderings: odd layers
order their coordinates last to first, which is MAF's reversal between
layers moved into the masks.  Conditioner output layers are
zero-initialized, so a fresh stack is exactly the identity map at every
depth.  The forward (push) direction is one masked conditioner pass; the
inverse recovers coordinates sequentially in ordering position, one
conditioner pass per coordinate.  Log-scales are bounded to (-7, 7) so
Jacobian factors stay finite.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .diffcore import Tensor, bias_act, concat

LOG_SCALE_BOUND = 7.0
LOG_TWO_PI = math.log(2.0 * math.pi)


def _bounded_log_scale(a_raw: Tensor) -> Tensor:
    # smooth clamp: identity-like near 0, saturates at +/- LOG_SCALE_BOUND
    return (a_raw * (1.0 / LOG_SCALE_BOUND)).tanh() * LOG_SCALE_BOUND


def _made_masks(dim: int, hidden: int, ordering: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connectivity masks enforcing the autoregressive property.

    position[i] is the 1-based rank of coordinate i in the ordering; the
    (shift, log-scale) outputs for coordinate i may depend only on
    coordinates of strictly smaller rank.
    """
    position = np.empty(dim, dtype=int)
    position[ordering] = np.arange(1, dim + 1)
    max_deg = max(1, dim - 1)
    hidden_deg = (np.arange(hidden) % max_deg) + 1
    m1 = (hidden_deg[None, :] >= position[:, None]).astype(float)        # (dim, hidden)
    m2 = (position[None, :] > hidden_deg[:, None]).astype(float)         # (hidden, dim)
    return m1, np.concatenate([m2, m2], axis=1)                          # outputs: (s || a)


class MafLayer:
    """One masked autoregressive layer: z_i = u_i * exp(a_i) + s_i.

    With ``reverse`` the ordering runs last to first: the layer maps u to
    rev(L(rev(u))) for the identity-ordered layer L with the same draw.
    """

    def __init__(self, dim: int, hidden: int = 32, *, reverse: bool = False,
                 rng: np.random.Generator):
        self.dim = dim
        self.hidden = hidden
        self.ordering = np.arange(dim)[::-1] if reverse else np.arange(dim)
        m1, m2 = _made_masks(dim, hidden, self.ordering)
        self._mask1 = Tensor(m1)
        self._mask2 = Tensor(m2)
        # input rows follow the ordering
        w1 = rng.normal(0.0, 1.0 / math.sqrt(max(dim, 1)), (dim, hidden))
        self.w1 = Tensor(w1[self.ordering], requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        # zero-initialized output layer: the layer starts as the identity map
        self.w2 = Tensor(np.zeros((hidden, 2 * dim)), requires_grad=True)
        self.b2 = Tensor(np.zeros(2 * dim), requires_grad=True)

    def _conditioner(self, u: Tensor) -> tuple[Tensor, Tensor]:
        h = bias_act(u.matmul(self.w1 * self._mask1), self.b1, tanh=True)
        sa = bias_act(h.matmul(self.w2 * self._mask2), self.b2)
        shift = sa.slice(1, 0, self.dim)
        log_scale = _bounded_log_scale(sa.slice(1, self.dim, 2 * self.dim))
        return shift, log_scale

    def forward(self, u: Tensor) -> tuple[Tensor, Tensor]:
        """Push u -> z in one pass; returns (z, per-row logdet)."""
        shift, log_scale = self._conditioner(u)
        z = u * log_scale.exp() + shift
        return z, log_scale.sum(axis=1)

    def inverse(self, z: Tensor) -> tuple[Tensor, Tensor]:
        """Pull z -> u sequentially; returns (u, per-row logdet of the pull)."""
        n = z.shape[0]
        zero_col = Tensor(np.zeros((n, 1)))
        cols: list[Tensor | None] = [None] * self.dim
        a_cols: list[Tensor | None] = [None] * self.dim
        for i in self.ordering:              # ordering position 1, 2, ...
            u_partial = concat([c if c is not None else zero_col for c in cols], axis=1)
            shift, log_scale = self._conditioner(u_partial)
            s_i = shift.slice(1, int(i), int(i) + 1)
            a_i = log_scale.slice(1, int(i), int(i) + 1)
            cols[int(i)] = (z.slice(1, int(i), int(i) + 1) - s_i) * (-a_i).exp()
            a_cols[int(i)] = a_i
        u = concat(cols, axis=1)             # type: ignore[arg-type]
        logdet_inv = -concat(a_cols, axis=1).sum(axis=1)  # type: ignore[arg-type]
        return u, logdet_inv


class FlowStack:
    """MAF layers over a standard normal base; odd layers run reversed."""

    def __init__(self, layers: Sequence[MafLayer], dim: int):
        self.layers = list(layers)
        self.dim = dim

    @classmethod
    def create(cls, dim: int, n_maf: int = 4, hidden: int = 32, *,
               rng: np.random.Generator) -> "FlowStack":
        return cls([MafLayer(dim, hidden, reverse=bool(i % 2), rng=rng)
                    for i in range(n_maf)], dim)


def _as_rows(x, dim: int) -> Tensor:
    t = x if isinstance(x, Tensor) else Tensor(x)
    if t.ndim != 2 or t.shape[1] != dim:
        raise ValueError(f"expected rows of dimension {dim}, got shape {t.shape}")
    return t


def flow_push(stack: FlowStack, u) -> tuple[Tensor, Tensor]:
    """Map base rows through every layer; returns (z, per-row total logdet)."""
    z = _as_rows(u, stack.dim)
    logdet = Tensor(np.zeros(z.shape[0]))
    for layer in stack.layers:
        z, ld = layer.forward(z)
        logdet = logdet + ld
    return z, logdet


def flow_inverse(stack: FlowStack, z) -> tuple[Tensor, Tensor]:
    """Pull rows back to the base; returns (u, per-row total pull logdet)."""
    u = _as_rows(z, stack.dim)
    logdet_inv = Tensor(np.zeros(u.shape[0]))
    for layer in reversed(stack.layers):
        u, ld = layer.inverse(u)
        logdet_inv = logdet_inv + ld
    return u, logdet_inv


def base_log_density(u: Tensor) -> Tensor:
    """Per-row standard normal log density."""
    return u.square().sum(axis=1) * -0.5 - 0.5 * u.shape[1] * LOG_TWO_PI


def flow_log_density(stack: FlowStack, z) -> Tensor:
    """Per-row log q(z) by pulling z back through the stack (change of variables)."""
    u, logdet_inv = flow_inverse(stack, z)
    return base_log_density(u) + logdet_inv


def flow_sample(stack: FlowStack, n: int, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """Draw n rows from the flow; returns (z, per-row log q(z))."""
    u = Tensor(rng.standard_normal((n, stack.dim)))
    z, logdet = flow_push(stack, u)
    return z, base_log_density(u) - logdet
