"""Euler-Maruyama simulation of an Ornstein-Uhlenbeck latent SDE.

The process dZ = (mu - Z) dt + sigma dW runs from t=0 to a fixed horizon on
a uniform grid.  Sampling is reparameterized: the Wiener increments are
drawn once as constants and the recursion runs on plain arrays.  Each step
is affine in (mu, sigma, z0), so the path is one tape node whose closure
runs the adjoint recursion over the increments, last step first.  The
Girsanov log Radon-Nikodym weight of the drifted measure against the
driftless one is accumulated at left endpoints; it is reported detached
because weights enter the loss only as importance factors.
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
        if np.any(self.sigma.data < 0.0):
            raise DomainError("sigma must be nonnegative")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


@dataclass
class DiffusionPath:
    """States Z_0..Z_N (Z_N the path's tape node, Z_1..Z_{N-1} detached) and increments."""

    states: list[Tensor]
    increments: list[np.ndarray]
    dt: float
    drifted: bool = True

    @property
    def terminal(self) -> Tensor:
        return self.states[-1]


def euler_maruyama(params: OuParams, z0, rng: np.random.Generator,
                   drifted: bool = True) -> DiffusionPath:
    """Integrate the OU recursion Z' = Z + (mu - Z) dt + sigma * eps.

    eps ~ N(0, dt) elementwise.  With drifted=False the drift term is
    dropped, which simulates the reference (driftless) measure on the same
    grid; the Girsanov weight of a drifted law can then be evaluated on it.
    """
    z0 = z0 if isinstance(z0, Tensor) else Tensor(z0)
    mu, sigma, dt = params.mu, params.sigma, params.dt
    sqrt_dt = np.sqrt(dt)
    z = z0.data
    states = [z0]
    increments: list[np.ndarray] = []
    for _ in range(params.n_steps):
        eps = rng.standard_normal(z.shape) * sqrt_dt
        increments.append(eps)
        step = _finite_or_raise(sigma.data * eps, "mul")
        if drifted:
            drift = _finite_or_raise(_finite_or_raise(mu.data - z, "sub") * dt, "mul")
            step = _finite_or_raise(drift + step, "add")
        z = _finite_or_raise(z + step, "add")
        states.append(Tensor._from_op(z, (), None))

    # The closure keeps the increments and no value of a state or parameter;
    # only Z_0 can be narrower than the broadcast shape of the later states.
    n_mu, n_sigma, n_z0 = mu._node if drifted else None, sigma._node, z0._node
    mu_shape, sigma_shape, z0_shape = mu.shape, sigma.shape, z0.shape

    def backward(g: np.ndarray) -> None:
        for eps in reversed(increments):
            if n_sigma is not None:
                _accumulate(n_sigma, _unbroadcast(g * eps, sigma_shape))
            if n_mu is not None:
                _accumulate(n_mu, _unbroadcast(g * dt, mu_shape))
            g = g + (-(g * dt)) if drifted else g
        if n_z0 is not None:
            _accumulate(n_z0, _unbroadcast(g, z0_shape))

    states[-1] = Tensor._from_op(z, (n_mu, n_sigma, n_z0), backward)
    return DiffusionPath(states=states, increments=increments, dt=dt, drifted=drifted)


def girsanov_log_weight_field(path: DiffusionPath, params: OuParams) -> np.ndarray:
    """Per-element log RN weight, summed over steps (detached values)."""
    if np.any(params.sigma.data == 0.0):
        raise DomainError("girsanov weight undefined for sigma = 0")
    mu = params.mu.data
    sigma = params.sigma.data
    total = np.zeros(np.broadcast_shapes(path.states[0].shape, mu.shape, sigma.shape))
    for z_t, eps in zip(path.states[:-1], path.increments):
        lam = (mu - z_t.data) / sigma
        total = total + (-0.5 * lam * lam * path.dt + lam * eps)
    return total


def sde_girsanov_sample_field(params: OuParams, rng: np.random.Generator
                              ) -> tuple[Tensor, np.ndarray]:
    """Draw Z_T starting from z0 ~ N(0, I); returns (Z_T, per-element log weight)."""
    z0 = Tensor(rng.standard_normal(params.mu.shape))
    path = euler_maruyama(params, z0, rng)
    return path.terminal, girsanov_log_weight_field(path, params)


def ou_analytic_moments(params: OuParams, z0, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact continuous-time mean and variance of the OU process at time t."""
    z0a = z0.data if isinstance(z0, Tensor) else np.asarray(z0, dtype=float)
    mu = params.mu.data
    sigma = params.sigma.data
    mean = mu + (z0a - mu) * np.exp(-t)
    var = sigma * sigma * (1.0 - np.exp(-2.0 * t)) / 2.0
    mean_b, var_b = np.broadcast_arrays(mean, var)
    return mean_b.copy(), var_b.copy()
