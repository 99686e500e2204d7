"""Closed-form variational precision updates, Monte Carlo KL, and digamma.

The precision-style updates are evaluated on detached values: they act as
coefficient fields in the KL penalties, while gradients flow only through
the live mean/variance fields those penalties touch.  Shapes follow the
pipeline convention (B, C, H, W) with C=1 for appearance-type fields and
C=K for segmentation-type fields, but every update is elementwise or a
plain axis reduction, so unbatched fields work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import DomainError, Tensor
from .flows import FlowStack, base_log_density, flow_sample


@dataclass(frozen=True)
class Hyperpriors:
    """Fixed hyperprior constants for the hierarchical model."""

    sigma0: float = 1.0
    phi_rho: float = 1e-6
    gamma_rho: float = 2.0
    phi_upsilon: float = 1e-8
    gamma_upsilon: float = 2.0
    phi_omega: float = 1e-4
    gamma_omega: float = 2.0
    alpha_pi: float = 2.0
    beta_pi: float = 2.0


@dataclass
class VariationalState:
    """Detached coefficient fields refreshed once per forward pass."""

    mu_rho: np.ndarray
    mu_upsilon: np.ndarray
    mu_omega: np.ndarray
    pi: np.ndarray
    alpha_pi: np.ndarray
    beta_pi: np.ndarray
    psi: np.ndarray


def _arr(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=float)


def digamma(x):
    """Digamma via upward recurrence to x >= 6 plus the asymptotic series.

    Accepts scalars or arrays of positive reals; absolute error stays below
    1e-10 away from the origin.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("digamma requires positive arguments")
    scalar = arr.ndim == 0
    w = np.atleast_1d(arr).copy()
    acc = np.zeros_like(w)
    while True:
        mask = w < 6.0
        if not mask.any():
            break
        acc[mask] -= 1.0 / w[mask]
        w[mask] += 1.0
    inv2 = 1.0 / (w * w)
    series = 1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (
        1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0)))
    res = acc + np.log(w) - 0.5 / w - inv2 * series
    return float(res[0]) if scalar else res.reshape(arr.shape)


def update_mu_rho(r, hp: Hyperpriors) -> np.ndarray:
    """Residual precision: (2 gamma_rho + 1) / (r^2 + 2 phi_rho)."""
    ra = _arr(r)
    return (2.0 * hp.gamma_rho + 1.0) / (ra * ra + 2.0 * hp.phi_rho)


def update_mu_upsilon(mu_z, grad_sq_mu_x, sigma_x, hp: Hyperpriors) -> np.ndarray:
    """Image-boundary precision, classes summed out; keeps a channel axis."""
    mz = _arr(mu_z)
    gx = _arr(grad_sq_mu_x)
    sx = _arr(sigma_x)
    k = mz.shape[-3]
    denom = (mz * (gx + 2.0 * sx * sx)).sum(axis=-3, keepdims=True)
    return (2.0 * hp.gamma_upsilon + k) / (denom + 2.0 * hp.phi_upsilon)


def update_mu_omega(pi, grad_sq_mu_z, sigma_z, hp: Hyperpriors) -> np.ndarray:
    """Segmentation-boundary precision per class."""
    pia = _arr(pi)
    gz = _arr(grad_sq_mu_z)
    sz = _arr(sigma_z)
    pi_field = pia.reshape(pia.shape + (1, 1))
    return (2.0 * hp.gamma_omega + 1.0) / (pi_field * (gz + 2.0 * sz * sz)
                                           + 2.0 * hp.phi_omega)


def update_pi(mu_z) -> np.ndarray:
    """Per-class spatial mean of the segmentation mean field."""
    return _arr(mu_z).mean(axis=(-2, -1))


def update_beta_prior(mu_omega, grad_sq_mu_z, sigma_z, hp: Hyperpriors
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Refreshed Beta prior: alpha stays, beta absorbs half the weighted
    boundary energy per class."""
    mo = _arr(mu_omega)
    gz = _arr(grad_sq_mu_z)
    sz = _arr(sigma_z)
    energy = (mo * (gz + 2.0 * sz * sz)).sum(axis=(-2, -1))
    alpha = np.full(energy.shape, hp.alpha_pi)
    return alpha, hp.beta_pi + 0.5 * energy


def psi_term(alpha, beta):
    """digamma(alpha + beta) - digamma(beta)."""
    a = np.asarray(alpha, dtype=float)
    b = np.asarray(beta, dtype=float)
    res = digamma(a + b) - digamma(b)
    return res


def refresh_state(r, mu_z, grad_sq_mu_x, grad_sq_mu_z, sigma_x, sigma_z,
                  hp: Hyperpriors) -> VariationalState:
    """Run every closed-form update on detached values, in dependency order."""
    mu_rho = update_mu_rho(_arr(r), hp)
    mu_upsilon = update_mu_upsilon(_arr(mu_z), _arr(grad_sq_mu_x), _arr(sigma_x), hp)
    pi = update_pi(_arr(mu_z))
    mu_omega = update_mu_omega(pi, _arr(grad_sq_mu_z), _arr(sigma_z), hp)
    alpha, beta = update_beta_prior(mu_omega, _arr(grad_sq_mu_z), _arr(sigma_z), hp)
    psi = psi_term(alpha, beta)
    return VariationalState(mu_rho=mu_rho, mu_upsilon=mu_upsilon, mu_omega=mu_omega,
                            pi=pi, alpha_pi=alpha, beta_pi=beta, psi=psi)


def kl_terms(state: VariationalState, r: Tensor, grad_sq_mu_x: Tensor,
             grad_sq_mu_z: Tensor, sigma_x: Tensor, sigma_z: Tensor,
             mu_z: Tensor, mu_m: Tensor, sigma_m: Tensor, hp: Hyperpriors
             ) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The four KL penalties; state fields enter as detached constants.

    KL_y = sum mu_rho r^2
    KL_z = sum psi mu_omega (|grad mu_z|^2 + 2 sigma_z^2)
    KL_x = sum mu_z mu_upsilon (|grad mu_x|^2 + 2 sigma_x^2)
    KL_m = sum sigma0 (mu_m^2 + sigma_m^2)
    """
    psi_field = Tensor(state.psi.reshape(state.psi.shape + (1, 1)))
    kl_y = (Tensor(state.mu_rho) * r.square()).sum()
    kl_z = (psi_field * Tensor(state.mu_omega)
            * (grad_sq_mu_z + sigma_z.square() * 2.0)).sum()
    kl_x = (mu_z * Tensor(state.mu_upsilon)
            * (grad_sq_mu_x + sigma_x.square() * 2.0)).sum()
    kl_m = ((mu_m.square() + sigma_m.square()) * hp.sigma0).sum()
    return kl_y, kl_z, kl_x, kl_m


def gaussian_kl_closed(mu: Tensor, log_var: Tensor) -> Tensor:
    """Elementwise closed-form KL[N(mu, e^{lv}) || N(0, 1)], summed."""
    return ((mu.square() + log_var.exp() - log_var - 1.0) * 0.5).sum()


def mc_kl(stack: FlowStack, n_samples: int, rng: np.random.Generator) -> Tensor:
    """Monte Carlo estimate of KL[q_flow || N(0, I)], differentiable.

    Samples the flow's own base, pushes forward, and averages
    log q(z) - log p(z); scalar tensor on the tape.
    """
    z, logq = flow_sample(stack, n_samples, rng)
    logp = base_log_density(z)
    return (logq - logp).mean()
