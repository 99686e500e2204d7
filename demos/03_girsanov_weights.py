#!/usr/bin/env python3
"""Ornstein-Uhlenbeck latents and change-of-measure weights.

Two facts carry the whole sampler:

  * simulating WITHOUT drift and attaching exp(log RN weight) reweights
    exactly onto the drifted law -- so E[w] = 1, a martingale check;
  * the Euler scheme has its own discrete-time moments, which converge to
    the continuous-time formulas as the grid refines.
"""

import math

import numpy as np

from flowseg.diffcore import Tensor
from flowseg.sde import OuParams, euler_maruyama, ou_analytic_moments

rng = np.random.default_rng(11)
n_paths = 100_000

print("=" * 70)
print("1. martingale property of the importance weights")
print("=" * 70)

params = OuParams(mu=Tensor(np.full(n_paths, 0.7)),
                  sigma=Tensor(np.full(n_paths, 1.0)),
                  horizon=1.0, n_steps=8)
_, log_w = euler_maruyama(params, Tensor(np.zeros(n_paths)), rng, drifted=False)
w = np.exp(log_w)
se = w.std(ddof=1) / math.sqrt(n_paths)
print(f"driftless paths, mu=0.7 sigma=1.0 n=8: "
      f"E[w] = {w.mean():.5f} +- {se:.5f}  (want 1)")

print()
print("=" * 70)
print("2. empirical terminal moments vs the discrete recursion")
print("=" * 70)

mu, sigma, z0 = 0.5, 1.2, 2.0
for n_steps in (8, 64):
    p = OuParams(mu=Tensor(np.full(n_paths, mu)),
                 sigma=Tensor(np.full(n_paths, sigma)),
                 horizon=1.0, n_steps=n_steps)
    terminal = euler_maruyama(p, Tensor(np.full(n_paths, z0)), rng)[0].data
    dt = 1.0 / n_steps
    mean_d = mu + (z0 - mu) * (1.0 - dt) ** n_steps
    var_d = sigma * sigma * (1.0 - (1.0 - dt) ** (2 * n_steps)) / (2.0 - dt)
    print(f"n={n_steps:3d}: empirical mean {terminal.mean():.5f} "
          f"(recursion {mean_d:.5f}), empirical var {terminal.var(ddof=1):.5f} "
          f"(recursion {var_d:.5f})")

print()
print("=" * 70)
print("3. the discretization bias vanishes as the grid refines")
print("=" * 70)

p0 = OuParams(mu=Tensor(np.array([mu])), sigma=Tensor(np.array([sigma])),
              horizon=1.0, n_steps=8)
cont_mean, cont_var = ou_analytic_moments(p0, np.array([z0]), 1.0)
print(f"continuous-time target: mean {cont_mean[0]:.6f}, var {cont_var[0]:.6f}")
for n_steps in (8, 32, 128, 512):
    dt = 1.0 / n_steps
    mean_d = mu + (z0 - mu) * (1.0 - dt) ** n_steps
    var_d = sigma * sigma * (1.0 - (1.0 - dt) ** (2 * n_steps)) / (2.0 - dt)
    bias = abs(mean_d - cont_mean[0]) + abs(var_d - cont_var[0])
    print(f"n={n_steps:4d}: discrete mean {mean_d:.6f}, var {var_d:.6f}, "
          f"total bias {bias:.2e}")

print()
print("done.")
