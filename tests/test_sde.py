"""Tests for the OU SDE sampler and Girsanov weighting."""

import math

import numpy as np
import pytest

from flowseg import sde
from flowseg.diffcore import DomainError, Tensor, backward, grad_check
from flowseg.sde import OuParams, euler_maruyama, ou_analytic_moments, \
    sde_girsanov_sample_field


def replay(params, z0, seed, drifted=True):
    """Z_T and the log weight of a path, redrawn in a plain loop from a
    fresh generator with the sampler's seed, in the sampler's order."""
    rng = np.random.default_rng(seed)
    mu, sigma, dt = params.mu.data, params.sigma.data, params.dt
    z, log_w = z0, 0.0
    for _ in range(params.n_steps):
        eps = rng.standard_normal(z.shape) * math.sqrt(dt)
        lam = (mu - z) / sigma
        log_w = log_w + (-0.5 * lam * lam * dt + lam * eps)
        step = sigma * eps
        if drifted:
            step = (mu - z) * dt + step
        z = z + step
    return z, log_w


def test_replay_reproduces_terminal_state():
    rng = np.random.default_rng(3)
    params = OuParams(mu=Tensor(rng.normal(size=(4, 4))),
                      sigma=Tensor(np.full((4, 4), 0.8)), n_steps=8)
    z0 = rng.normal(size=(4, 4))
    for drifted in (True, False):
        z_t, log_w = euler_maruyama(params, Tensor(z0), np.random.default_rng(4), drifted)
        z_ref, log_w_ref = replay(params, z0, 4, drifted)
        np.testing.assert_array_equal(z_t.data, z_ref)
        np.testing.assert_array_equal(log_w, log_w_ref)


def test_one_step_weight_hand_computed():
    params = OuParams(mu=Tensor([2.0]), sigma=Tensor([0.5]), horizon=1.0, n_steps=1)
    _, log_w = euler_maruyama(params, Tensor([0.3]), np.random.default_rng(7))
    eps = np.random.default_rng(7).standard_normal(1)[0]  # dt = 1
    lam = (2.0 - 0.3) / 0.5
    expected = -0.5 * lam * lam * 1.0 + lam * eps
    assert log_w.sum() == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("sigma", [0.0, -0.5])
def test_weight_requires_positive_sigma(sigma):
    with pytest.raises(DomainError):
        OuParams(mu=Tensor([0.0, 1.0]), sigma=Tensor([1.0, sigma]), n_steps=2)


@pytest.mark.parametrize("sigma,n_steps", [(1.0, 8), (0.5, 64)])
def test_martingale_property_driftless_paths(sigma, n_steps):
    # E[exp(log weight)] = 1 exactly in discrete time for adapted drift
    n_paths = 100_000
    rng = np.random.default_rng(123)
    params = OuParams(mu=Tensor(np.full(n_paths, 0.7)),
                      sigma=Tensor(np.full(n_paths, sigma)), n_steps=n_steps)
    z0 = Tensor(rng.standard_normal(n_paths))
    _, log_w = euler_maruyama(params, z0, rng, drifted=False)
    w = np.exp(log_w)
    se = w.std(ddof=1) / math.sqrt(n_paths)
    assert abs(w.mean() - 1.0) <= 3.0 * se


def test_martingale_property_drifted_paths():
    # the exponential weight is a unit-mean martingale under the sampling
    # measure as well, since lambda is adapted to the driving noise
    n_paths = 100_000
    rng = np.random.default_rng(99)
    params = OuParams(mu=Tensor(np.full(n_paths, 0.5)),
                      sigma=Tensor(np.ones(n_paths)), n_steps=8)
    _, log_w = euler_maruyama(params, Tensor(rng.standard_normal(n_paths)), rng)
    w = np.exp(log_w)
    se = w.std(ddof=1) / math.sqrt(n_paths)
    assert abs(w.mean() - 1.0) <= 3.0 * se


def test_terminal_moments_match_analytic_on_fine_grid():
    # at n_steps=64 the discrete-step variance bias is ~0.0045, inside the
    # 3 SE band (~0.0059); the fixed seed keeps sampling noise from stacking
    # on top of that bias
    n_paths = 100_000
    rng = np.random.default_rng(14)
    for n_steps in (64, 512):
        params = OuParams(mu=Tensor(np.zeros(n_paths)),
                          sigma=Tensor(np.ones(n_paths)), n_steps=n_steps)
        z = euler_maruyama(params, Tensor(np.zeros(n_paths)), rng)[0].data
        mean_a, var_a = ou_analytic_moments(
            OuParams(mu=Tensor([0.0]), sigma=Tensor([1.0]), n_steps=n_steps), [0.0], 1.0)
        se_mean = z.std(ddof=1) / math.sqrt(n_paths)
        se_var = z.var(ddof=1) * math.sqrt(2.0 / (n_paths - 1))
        assert abs(z.mean() - mean_a[0]) <= 3.0 * se_mean
        assert abs(z.var(ddof=1) - var_a[0]) <= 3.0 * se_var


def test_moment_bias_shrinks_with_dt():
    # weak order-1: halving dt reduces the absolute moment bias, 3 refinements
    n_paths = 100_000
    rng = np.random.default_rng(21)
    mean_bias, var_bias = [], []
    for n_steps in (8, 16, 32):
        params = OuParams(mu=Tensor(np.full(n_paths, 1.0)),
                          sigma=Tensor(np.ones(n_paths)), n_steps=n_steps)
        z = euler_maruyama(params, Tensor(np.zeros(n_paths)), rng)[0].data
        mean_a = 1.0 + (0.0 - 1.0) * math.exp(-1.0)
        var_a = (1.0 - math.exp(-2.0)) / 2.0
        mean_bias.append(abs(z.mean() - mean_a))
        var_bias.append(abs(z.var(ddof=1) - var_a))
    assert mean_bias[0] > mean_bias[1] > mean_bias[2]
    assert var_bias[0] > var_bias[1] > var_bias[2]


def test_terminal_moments_at_coarse_grid_match_discrete_recursion():
    # at n_steps=8 the discretization bias dominates Monte Carlo error, so
    # the coarse grid is checked against the exact discrete-step moments
    n_paths = 100_000
    rng = np.random.default_rng(31)
    params = OuParams(mu=Tensor(np.full(n_paths, 1.0)),
                      sigma=Tensor(np.ones(n_paths)), n_steps=8)
    z = euler_maruyama(params, Tensor(np.zeros(n_paths)), rng)[0].data
    dt = 0.125
    mean_d = 1.0 + (0.0 - 1.0) * (1.0 - dt) ** 8
    var_d = (1.0 - (1.0 - dt) ** 16) / (2.0 - dt)
    se_mean = z.std(ddof=1) / math.sqrt(n_paths)
    se_var = z.var(ddof=1) * math.sqrt(2.0 / (n_paths - 1))
    assert abs(z.mean() - mean_d) <= 3.0 * se_mean
    assert abs(z.var(ddof=1) - var_d) <= 3.0 * se_var


def test_analytic_moments_limits():
    params = OuParams(mu=Tensor([2.0]), sigma=Tensor([0.8]))
    mean0, var0 = ou_analytic_moments(params, [0.5], 0.0)
    np.testing.assert_allclose(mean0, [0.5], atol=1e-14)
    np.testing.assert_allclose(var0, [0.0], atol=1e-14)
    mean_inf, var_inf = ou_analytic_moments(params, [0.5], 50.0)
    np.testing.assert_allclose(mean_inf, [2.0], atol=1e-12)
    np.testing.assert_allclose(var_inf, [0.8 ** 2 / 2.0], atol=1e-12)


def test_gradient_flows_through_recursion():
    # reparameterized path: d z_T / d mu and d z_T / d sigma via the tape
    rng = np.random.default_rng(5)
    incs = [rng.standard_normal(3) for _ in range(4)]

    def run(mu_t, sigma_t):
        z = Tensor([0.1, -0.2, 0.3])
        dt = 0.25
        for eps in incs:
            z = z + (mu_t - z) * dt + sigma_t * Tensor(eps * math.sqrt(dt))
        return z.sum()

    def fn_mu(t):
        return run(t, Tensor([0.7, 0.7, 0.7]))

    def fn_sigma(t):
        return run(Tensor([1.0, 1.0, 1.0]), t)

    assert grad_check(fn_mu, Tensor([0.5, 1.0, -0.5])) < 1e-6
    assert grad_check(fn_sigma, Tensor([0.6, 0.9, 1.2])) < 1e-6


@pytest.mark.parametrize("drifted", [True, False])
def test_path_node_gradient_matches_finite_differences(drifted):
    # The path is one tape node whose closure has a closed-form backward;
    # mu is broadcast over rows, and the square makes the upstream gradient
    # depend on the state.
    rng = np.random.default_rng(8)
    mu = rng.normal(size=(1, 4))
    sigma = rng.uniform(0.3, 1.0, size=(3, 4))
    z0 = rng.normal(size=(3, 4))
    weights = Tensor(rng.normal(size=(3, 4)))

    def loss(mu_t, sigma_t, z0_t):
        params = OuParams(mu=mu_t, sigma=sigma_t, n_steps=5)
        z_t, _ = euler_maruyama(params, z0_t, np.random.default_rng(9), drifted)
        return (z_t * weights).square().sum()

    errs = [grad_check(lambda t: loss(Tensor(mu), t, Tensor(z0)), Tensor(sigma)),
            grad_check(lambda t: loss(Tensor(mu), Tensor(sigma), t), Tensor(z0))]
    if drifted:
        errs.append(grad_check(lambda t: loss(t, Tensor(sigma), Tensor(z0)), Tensor(mu)))
    assert max(errs) < 1e-8, errs


def test_sample_propagates_gradients_to_params():
    rng = np.random.default_rng(6)
    mu = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    sigma = Tensor(np.full((2, 3), 0.5), requires_grad=True)
    z, log_w = sde_girsanov_sample_field(OuParams(mu=mu, sigma=sigma), rng)
    assert isinstance(log_w, np.ndarray) and log_w.shape == (2, 3)
    backward(z.sum())
    assert mu.grad is not None and np.all(np.abs(mu.grad) > 0)
    assert sigma.grad is not None


def test_path_determinism_under_fixed_seed():
    params = OuParams(mu=Tensor(np.ones(5)), sigma=Tensor(np.full(5, 0.3)))
    z_a, log_w_a = euler_maruyama(params, Tensor(np.zeros(5)), np.random.default_rng(77))
    z_b, log_w_b = euler_maruyama(params, Tensor(np.zeros(5)), np.random.default_rng(77))
    np.testing.assert_array_equal(z_a.data, z_b.data)
    np.testing.assert_array_equal(log_w_a, log_w_b)
