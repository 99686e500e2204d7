#!/usr/bin/env python3
"""Normalizing-flow posteriors: exact invertibility, tracked log-determinants,
and a density that actually integrates to one.

The stack is masked-autoregressive layers whose orderings alternate between
forward and reversed.  The output layers are zero-initialized, so a freshly
built stack is the identity map; randomizing those layers produces a
genuinely warped distribution while keeping the inverse exact.
"""

import math

import numpy as np

from flowseg.flows import (FlowStack, MafLayer, flow_inverse, flow_log_density,
                           flow_push, flow_sample)

rng = np.random.default_rng(7)

print("=" * 70)
print("1. identity at init, exact round trip after randomization")
print("=" * 70)

stack = FlowStack.create(4, n_maf=4, rng=rng)
u = rng.normal(size=(5, 4))
z, logdet = flow_push(stack, u)
print(f"fresh stack: max |push(u) - u| = {np.abs(z.data - u).max():.2e} "
      f"(identity), max |logdet| = {np.abs(logdet.data).max():.2e}")

for layer in stack.layers:
    layer.w2.assign(rng.normal(size=layer.w2.shape) * 0.3)
    layer.b2.assign(rng.normal(size=layer.b2.shape) * 0.3)

u = rng.normal(size=(200, 4))
z, logdet = flow_push(stack, u)
u_back, inv_logdet = flow_inverse(stack, z)
print(f"randomized:  max |pull(push(u)) - u| = {np.abs(u_back.data - u).max():.2e}")
print(f"             max |logdet + inv_logdet| = "
      f"{np.abs(logdet.data + inv_logdet.data).max():.2e}")

print()
print("=" * 70)
print("2. the pushforward density integrates to one (1D quadrature)")
print("=" * 70)

stack1 = FlowStack.create(1, n_maf=4, rng=rng)
for layer in stack1.layers:
    layer.w2.assign(rng.normal(size=layer.w2.shape) * 0.5)
    layer.b2.assign(rng.normal(size=layer.b2.shape) * 0.5)

xs = np.linspace(-10.0, 10.0, 4001)
logq = flow_log_density(stack1, xs.reshape(-1, 1))
mass = np.trapezoid(np.exp(logq.data), xs)
print(f"integral of q(z) dz over [-10, 10]: {mass:.6f}")

print()
print("=" * 70)
print("3. a shifted flow has a known KL divergence")
print("=" * 70)

# One affine layer with shift 1: q = N(1, 1), so KL[q || N(0,1)] = 0.5.
shift = FlowStack([MafLayer(1, rng=np.random.default_rng(0))], dim=1)
b2 = np.zeros(2)
b2[0] = 1.0
shift.layers[0].b2.assign(b2)

n = 200_000
z, logq = flow_sample(shift, n, rng)
logp = -0.5 * (z.data ** 2).sum(axis=1) - 0.5 * math.log(2 * math.pi)
kl = (logq.data - logp).mean()
print(f"Monte-Carlo KL[N(1,1) || N(0,1)] over {n} samples: {kl:.5f} "
      f"(closed form: 0.5)")

print()
print("done.")
