"""Euler-Maruyama simulation of an Ornstein-Uhlenbeck latent SDE.

The process dZ = (mu - Z) dt + sigma dW runs from t=0 to a fixed horizon on
a uniform grid.  Sampling is reparameterized: the Wiener increments are
drawn as constants and the recursion runs on plain arrays, in one pass that
also accumulates the Girsanov log Radon-Nikodym weight of the drifted
measure against the driftless one at left endpoints.  The weight is
reported detached because weights enter the loss only as importance
factors.  Each step is affine in (mu, sigma, z0), so Z_T is one tape node
whose closure keeps one array, the increments summed by Horner's rule, and
backward is closed-form whatever the number of steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import DomainError, Tensor, _accumulate, _finite_or_raise, _unbroadcast


@dataclass
class OuParams:
    """Mean-reversion target mu, diffusion scale sigma, grid settings."""

    mu: Tensor
    sigma: Tensor
    horizon: float = 1.0
    n_steps: int = 8

    def __post_init__(self):
        if not isinstance(self.mu, Tensor):
            self.mu = Tensor(self.mu)
        if not isinstance(self.sigma, Tensor):
            self.sigma = Tensor(self.sigma)
        if np.any(self.sigma.data <= 0.0):
            raise DomainError("sigma must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


def euler_maruyama(params: OuParams, z0, rng: np.random.Generator,
                   drifted: bool = True) -> tuple[Tensor, np.ndarray]:
    """Integrate Z' = Z + (mu - Z) dt + sigma * eps; returns (Z_T, log weight).

    eps ~ N(0, dt) elementwise.  With drifted=False the drift term is
    dropped, which simulates the reference (driftless) measure on the same
    grid.  Either way the weight is the per-element log RN derivative of the
    drifted law against the driftless one, evaluated on the simulated path.
    """
    z0 = z0 if isinstance(z0, Tensor) else Tensor(z0)
    mu, sigma, dt = params.mu, params.sigma, params.dt
    sqrt_dt = np.sqrt(dt)
    decay = 1.0 - dt if drifted else 1.0
    z, log_w, s = z0.data, 0.0, 0.0
    for _ in range(params.n_steps):
        eps = rng.standard_normal(z.shape) * sqrt_dt
        lam = (mu.data - z) / sigma.data
        log_w = log_w + (-0.5 * lam * lam * dt + lam * eps)
        s = s * decay + eps
        step = _finite_or_raise(sigma.data * eps, "mul")
        if drifted:
            drift = _finite_or_raise(_finite_or_raise(mu.data - z, "sub") * dt, "mul")
            step = _finite_or_raise(drift + step, "add")
        z = _finite_or_raise(z + step, "add")

    # Z_T = decay^N z0 + (1 - decay^N) mu + sigma * s, with s the increments
    # summed by Horner's rule, so s is all the closure keeps.
    n_mu, n_sigma, n_z0 = mu._node if drifted else None, sigma._node, z0._node
    mu_shape, sigma_shape, z0_shape = mu.shape, sigma.shape, z0.shape
    decay_n = decay ** params.n_steps

    def backward(g: np.ndarray) -> None:
        if n_sigma is not None:
            _accumulate(n_sigma, _unbroadcast(g * s, sigma_shape))
        if n_mu is not None:
            _accumulate(n_mu, _unbroadcast(g * (1.0 - decay_n), mu_shape))
        if n_z0 is not None:
            _accumulate(n_z0, _unbroadcast(g * decay_n, z0_shape))

    return Tensor._from_op(z, (n_mu, n_sigma, n_z0), backward), log_w


def sde_girsanov_sample_field(params: OuParams, rng: np.random.Generator
                              ) -> tuple[Tensor, np.ndarray]:
    """Draw Z_T starting from z0 ~ N(0, I); returns (Z_T, per-element log weight)."""
    z0 = Tensor(rng.standard_normal(params.mu.shape))
    return euler_maruyama(params, z0, rng)


def ou_analytic_moments(params: OuParams, z0, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact continuous-time mean and variance of the OU process at time t."""
    z0a = z0.data if isinstance(z0, Tensor) else np.asarray(z0, dtype=float)
    mu = params.mu.data
    sigma = params.sigma.data
    mean = mu + (z0a - mu) * np.exp(-t)
    var = sigma * sigma * (1.0 - np.exp(-2.0 * t)) / 2.0
    mean_b, var_b = np.broadcast_arrays(mean, var)
    return mean_b.copy(), var_b.copy()
