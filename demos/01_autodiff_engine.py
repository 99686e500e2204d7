#!/usr/bin/env python3
"""Walk through the reverse-mode tape: build expressions, differentiate them,
check gradients against finite differences, and trip the non-finite guard.

Everything downstream (flows, the SDE sampler, the whole training loop) rides
on this one Tensor class, so this demo is deliberately small and explicit.
"""

import numpy as np

from flowseg.diffcore import (NonFiniteError, Tensor, backward, conv2d,
                              grad_check)

rng = np.random.default_rng(0)

print("=" * 70)
print("1. a scalar expression and its gradient")
print("=" * 70)

x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
y = (x.square() * 0.5 + x.exp() * 0.1).sum()
backward(y)
print("x =\n", x.data)
print("dy/dx (analytic: x + 0.1 e^x) =\n", x.grad)
print("expected =\n", x.data + 0.1 * np.exp(x.data))

print()
print("=" * 70)
print("2. finite-difference audit of a composite function")
print("=" * 70)

w = Tensor(rng.normal(size=(4, 4)))


def fn(t: Tensor) -> Tensor:
    h = (t @ w).tanh()
    return h.softmax(axis=1).square().sum()


err = grad_check(fn, Tensor(rng.normal(size=(3, 4))))
print(f"max relative error vs finite differences: {err:.3e}  (want < 1e-4)")

print()
print("=" * 70)
print("3. convolution gradient, the workhorse of every network here")
print("=" * 70)

img = Tensor(rng.normal(size=(1, 1, 8, 8)))
kern = Tensor(rng.normal(size=(2, 1, 3, 3)) * 0.4)
err = grad_check(lambda t: conv2d(t, kern).square().sum(), img)
print(f"conv2d input-gradient error: {err:.3e}")
err = grad_check(lambda t: conv2d(img, t).square().sum(), Tensor(kern.data))
print(f"conv2d kernel-gradient error: {err:.3e}")

print()
print("=" * 70)
print("4. the non-finite guard aborts loudly, not silently")
print("=" * 70)

big = Tensor(np.array([700.0, 710.0]))
try:
    big.exp()
except NonFiniteError as exc:
    print(f"caught NonFiniteError: {exc}")

print()
print("done.")
