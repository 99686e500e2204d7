"""Tests for variational updates, digamma, and the Monte Carlo KL."""

import math

import numpy as np
import pytest
from scipy import special

from flowseg import ncvi
from flowseg.diffcore import DomainError, Tensor, backward
from flowseg.flows import FlowStack, MafLayer
from flowseg.ncvi import (Hyperpriors, digamma, gaussian_kl_closed,
                          kl_terms, mc_kl, psi_term,
                          refresh_state, update_beta_prior, update_mu_omega,
                          update_mu_rho, update_mu_upsilon, update_pi)

HP = Hyperpriors()


# -- digamma -----------------------------------------------------------------

def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-0.5772156649, abs=1e-9)
    assert digamma(2.0) == pytest.approx(0.4227843351, abs=1e-9)


def test_digamma_matches_independent_oracle():
    xs = np.linspace(0.001, 10.0, 20001)
    assert np.abs(digamma(xs) - special.digamma(xs)).max() < 1e-10


def test_digamma_recurrence_identity():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.001, 10.0, 5000)
    assert np.abs(digamma(x + 1.0) - digamma(x) - 1.0 / x).max() < 1e-10


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(np.array([1.0, -2.0]))


def test_psi_term_values():
    assert psi_term(2.0, 2.0) == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert psi_term(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


# -- closed-form updates -----------------------------------------------------

def test_mu_rho_spot_values():
    assert update_mu_rho(np.zeros(1), HP)[0] == pytest.approx(2.5e6, rel=1e-12)
    hp = Hyperpriors(phi_rho=0.5)
    assert update_mu_rho(np.ones(1), hp)[0] == pytest.approx(2.5, rel=1e-12)


def test_mu_upsilon_spot_value():
    mu_z = np.zeros((1, 2, 3, 3))
    gx = np.zeros((1, 1, 3, 3))
    sx = np.zeros((1, 1, 3, 3))
    out = update_mu_upsilon(mu_z, gx, sx, HP)
    assert out.shape == (1, 1, 3, 3)
    np.testing.assert_allclose(out, 3e8, rtol=1e-12)


def test_mu_omega_spot_value():
    pi = np.full((1, 2), 0.5)
    gz = np.zeros((1, 2, 3, 3))
    sz = np.zeros((1, 2, 3, 3))
    np.testing.assert_allclose(update_mu_omega(pi, gz, sz, HP), 2.5e4, rtol=1e-12)


def _random_fields(rng, b=2, k=3, h=5, w=4):
    return {
        "r": rng.normal(size=(b, 1, h, w)),
        "mu_z": rng.uniform(0.05, 1.0, size=(b, k, h, w)),
        "gx": rng.uniform(0.0, 2.0, size=(b, 1, h, w)),
        "gz": rng.uniform(0.0, 2.0, size=(b, k, h, w)),
        "sx": rng.uniform(0.1, 1.0, size=(b, 1, h, w)),
        "sz": rng.uniform(0.1, 1.0, size=(b, k, h, w)),
    }


def test_updates_match_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    f = _random_fields(rng)
    b, k, h, w = f["mu_z"].shape

    rho = update_mu_rho(f["r"], HP)
    ups = update_mu_upsilon(f["mu_z"], f["gx"], f["sx"], HP)
    pi = update_pi(f["mu_z"])
    omg = update_mu_omega(pi, f["gz"], f["sz"], HP)
    alpha, beta = update_beta_prior(omg, f["gz"], f["sz"], HP)

    for bi in range(b):
        for i in range(h):
            for j in range(w):
                expect = (2 * HP.gamma_rho + 1) / (f["r"][bi, 0, i, j] ** 2
                                                   + 2 * HP.phi_rho)
                assert rho[bi, 0, i, j] == pytest.approx(expect, rel=1e-9)
                s = 0.0
                for ki in range(k):
                    s += f["mu_z"][bi, ki, i, j] * (f["gx"][bi, 0, i, j]
                                                    + 2 * f["sx"][bi, 0, i, j] ** 2)
                expect = (2 * HP.gamma_upsilon + k) / (s + 2 * HP.phi_upsilon)
                assert ups[bi, 0, i, j] == pytest.approx(expect, rel=1e-9)

    for bi in range(b):
        for ki in range(k):
            expect_pi = f["mu_z"][bi, ki].sum() / (h * w)
            assert pi[bi, ki] == pytest.approx(expect_pi, rel=1e-9)
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    e = f["gz"][bi, ki, i, j] + 2 * f["sz"][bi, ki, i, j] ** 2
                    expect = (2 * HP.gamma_omega + 1) / (expect_pi * e
                                                         + 2 * HP.phi_omega)
                    assert omg[bi, ki, i, j] == pytest.approx(expect, rel=1e-9)
                    acc += omg[bi, ki, i, j] * e
            assert alpha[bi, ki] == HP.alpha_pi
            assert beta[bi, ki] == pytest.approx(HP.beta_pi + 0.5 * acc, rel=1e-9)


def test_refresh_state_shapes_and_positivity():
    rng = np.random.default_rng(4)
    f = _random_fields(rng)
    state = refresh_state(f["r"], f["mu_z"], f["gx"], f["gz"], f["sx"], f["sz"], HP)
    assert state.mu_rho.shape == (2, 1, 5, 4)
    assert state.mu_upsilon.shape == (2, 1, 5, 4)
    assert state.mu_omega.shape == (2, 3, 5, 4)
    assert state.pi.shape == (2, 3)
    assert state.psi.shape == (2, 3)
    for arr in (state.mu_rho, state.mu_upsilon, state.mu_omega, state.psi):
        assert np.all(arr > 0)


# -- KL terms ------------------------------------------------------------------

def test_kl_m_single_element():
    state = refresh_state(np.zeros((1, 1, 1, 1)), np.full((1, 2, 1, 1), 0.5),
                          np.zeros((1, 1, 1, 1)), np.zeros((1, 2, 1, 1)),
                          np.zeros((1, 1, 1, 1)), np.zeros((1, 2, 1, 1)), HP)
    zeros1 = Tensor(np.zeros((1, 1, 1, 1)))
    zerosk = Tensor(np.zeros((1, 2, 1, 1)))
    _, _, _, kl_m = kl_terms(state, zeros1, zeros1, zerosk, zeros1, zerosk,
                             Tensor(np.full((1, 2, 1, 1), 0.5)),
                             Tensor(np.ones((1, 1, 1, 1))),
                             Tensor(np.ones((1, 1, 1, 1))), HP)
    assert kl_m.item() == pytest.approx(2.0, abs=1e-12)


def test_kl_terms_zero_inputs_are_zero():
    zeros1 = Tensor(np.zeros((1, 1, 2, 2)))
    zerosk = Tensor(np.zeros((1, 2, 2, 2)))
    state = refresh_state(zeros1, zerosk, zeros1, zerosk, zeros1, zerosk, HP)
    kls = kl_terms(state, zeros1, zeros1, zerosk, zeros1, zerosk,
                   zerosk, zeros1, zeros1, HP)
    for t in kls:
        assert t.item() == pytest.approx(0.0, abs=1e-12)


def test_kl_terms_nonnegative_and_live():
    rng = np.random.default_rng(9)
    f = _random_fields(rng)
    state = refresh_state(f["r"], f["mu_z"], f["gx"], f["gz"], f["sx"], f["sz"], HP)
    r = Tensor(f["r"], requires_grad=True)
    kls = kl_terms(state, r, Tensor(f["gx"]), Tensor(f["gz"]),
                   Tensor(f["sx"]), Tensor(f["sz"]), Tensor(f["mu_z"]),
                   Tensor(f["r"] * 0.5), Tensor(f["sx"]), HP)
    for t in kls:
        assert t.item() >= 0.0
    backward(kls[0])
    assert r.grad is not None and np.abs(r.grad).max() > 0


# -- Gaussian KL helpers -------------------------------------------------------

def test_gaussian_kl_closed_values():
    zero = Tensor(np.zeros((2, 2)))
    assert gaussian_kl_closed(zero, zero).item() == pytest.approx(0.0, abs=1e-14)
    one = Tensor(np.ones((1, 1)))
    assert gaussian_kl_closed(one, Tensor(np.zeros((1, 1)))).item() == \
        pytest.approx(0.5, abs=1e-12)


# -- Monte Carlo KL --------------------------------------------------------------

def _shift_stack() -> FlowStack:
    stack = FlowStack([MafLayer(1, rng=np.random.default_rng(0))], dim=1)
    b2 = np.zeros(2)
    b2[0] = 1.0
    stack.layers[0].b2.assign(b2)
    return stack


def test_mc_kl_identity_stack_is_zero():
    stack = FlowStack.create(2, n_maf=4, rng=np.random.default_rng(1))
    est = mc_kl(stack, 2000, np.random.default_rng(2))
    assert abs(est.item()) < 1e-12


def test_mc_kl_unit_shift_flow():
    # KL[N(1,1) || N(0,1)] = 0.5; single-draw variance is 1
    stack = _shift_stack()
    n = 100_000
    rng = np.random.default_rng(5)
    est = mc_kl(stack, n, rng)
    assert abs(est.item() - 0.5) < 3.0 / math.sqrt(n)


def test_mc_kl_error_rate_halves_when_n_quadruples():
    stack = _shift_stack()
    rng = np.random.default_rng(6)
    reps = 200
    se = []
    for n in (250, 1000):
        ests = np.array([mc_kl(stack, n, rng).item() for _ in range(reps)])
        se.append(ests.std(ddof=1))
    ratio = se[0] / se[1]
    assert 1.6 < ratio < 2.4


def test_mc_kl_gradient_reaches_flow_params():
    rng = np.random.default_rng(7)
    stack = FlowStack.create(2, n_maf=2, rng=rng)
    for layer in stack.layers:
        layer.w2.assign(rng.normal(size=layer.w2.shape) * 0.2)
    est = mc_kl(stack, 256, rng)
    backward(est)
    grads = [p.grad for layer in stack.layers
             for p in (layer.w1, layer.b1, layer.w2, layer.b2)]
    assert any(g is not None and np.abs(g).max() > 0 for g in grads)
