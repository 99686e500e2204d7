"""Tests for the masked autoregressive flow stack."""

import math

import numpy as np
import pytest
from scipy import stats

from flowseg import flows
from flowseg.diffcore import Tensor, backward
from flowseg.flows import FlowStack, MafLayer


def _randomize(stack: FlowStack, rng: np.random.Generator, scale: float = 0.4) -> None:
    for layer in stack.layers:
        layer.w2.assign(rng.normal(size=layer.w2.shape) * scale)
        layer.b2.assign(rng.normal(size=layer.b2.shape) * scale)


def test_zero_init_stack_is_identity():
    # Odd MAF counts included: the stack ends on either ordering.
    rng = np.random.default_rng(0)
    for n_maf in range(6):
        stack = FlowStack.create(3, n_maf=n_maf, rng=rng)
        u = rng.normal(size=(20, 3))
        z, logdet = flows.flow_push(stack, u)
        np.testing.assert_allclose(z.data, u, atol=1e-14, err_msg=f"n_maf={n_maf}")
        np.testing.assert_allclose(logdet.data, 0.0, atol=1e-14)


def test_affine_shift_flow_in_1d():
    # bias-only conditioner: z = u + 1 exactly
    stack = FlowStack([MafLayer(1, rng=np.random.default_rng(0))], dim=1)
    b2 = np.zeros(2)
    b2[0] = 1.0
    stack.layers[0].b2.assign(b2)
    u = np.linspace(-2, 2, 9).reshape(-1, 1)
    z, logdet = flows.flow_push(stack, u)
    np.testing.assert_allclose(z.data, u + 1.0, atol=1e-14)
    np.testing.assert_allclose(logdet.data, 0.0, atol=1e-14)


def test_symmetric_log_scales_cancel_in_logdet():
    # conditioner biases give a = (0.5, -0.5): contributions cancel exactly
    layer = MafLayer(2, rng=np.random.default_rng(0))
    b2 = np.zeros(4)
    b2[2], b2[3] = 0.5, -0.5
    layer.b2.assign(b2)
    z, logdet = layer.forward(Tensor(np.random.default_rng(1).normal(size=(8, 2))))
    np.testing.assert_allclose(logdet.data, 0.0, atol=1e-12)


def test_log_scale_bound():
    layer = MafLayer(2, rng=np.random.default_rng(0))
    layer.b2.assign(np.array([0.0, 0.0, 500.0, -500.0]))
    u = Tensor(np.random.default_rng(1).normal(size=(4, 2)))
    _, log_scale = layer._conditioner(u)
    assert np.all(np.abs(log_scale.data) <= flows.LOG_SCALE_BOUND + 1e-12)


def test_autoregressive_masking():
    # (s_i, a_i) may depend only on coordinates earlier in the ordering
    rng = np.random.default_rng(2)
    for reverse in (False, True):
        layer = MafLayer(4, reverse=reverse, rng=rng)
        layer.w2.assign(rng.normal(size=layer.w2.shape))
        layer.b2.assign(rng.normal(size=layer.b2.shape))
        base = rng.normal(size=(1, 4))
        s0, a0 = layer._conditioner(Tensor(base))
        for r in range(4):
            bumped = base.copy()
            later = layer.ordering[r:]                      # coords at rank >= r
            bumped[0, later] += rng.normal(size=4 - r) * 3.0
            s1, a1 = layer._conditioner(Tensor(bumped))
            upto = layer.ordering[:r + 1]
            np.testing.assert_allclose(s1.data[0, upto], s0.data[0, upto], atol=1e-12)
            np.testing.assert_allclose(a1.data[0, upto], a0.data[0, upto], atol=1e-12)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_round_trip_and_logdet_consistency(dim):
    rng = np.random.default_rng(10 + dim)
    stack = FlowStack.create(dim, n_maf=4, rng=rng)
    _randomize(stack, rng)
    u = rng.normal(size=(100, dim))
    z, logdet = flows.flow_push(stack, u)
    u_back, logdet_inv = flows.flow_inverse(stack, z)
    assert np.abs(u_back.data - u).max() < 1e-6
    np.testing.assert_allclose(logdet.data, -logdet_inv.data, atol=1e-9)


@pytest.mark.parametrize("dim", [2, 4])
def test_logdet_matches_numerical_jacobian(dim):
    rng = np.random.default_rng(20 + dim)
    stack = FlowStack.create(dim, n_maf=4, rng=rng)
    _randomize(stack, rng)
    eps = 1e-6
    for _ in range(20):
        x0 = rng.normal(size=dim)
        jac = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = eps
            hi, _ = flows.flow_push(stack, (x0 + e).reshape(1, -1))
            lo, _ = flows.flow_push(stack, (x0 - e).reshape(1, -1))
            jac[:, j] = (hi.data - lo.data).ravel() / (2 * eps)
        _, logdet = flows.flow_push(stack, x0.reshape(1, -1))
        ld_num = math.log(abs(np.linalg.det(jac)))
        assert abs(logdet.data[0] - ld_num) / max(abs(ld_num), 1.0) < 1e-3


def test_single_layer_jacobian_is_triangular():
    rng = np.random.default_rng(31)
    for reverse in (False, True):
        layer = MafLayer(4, reverse=reverse, rng=rng)
        layer.w2.assign(rng.normal(size=layer.w2.shape) * 0.5)
        layer.b2.assign(rng.normal(size=layer.b2.shape) * 0.5)
        eps = 1e-6
        x0 = rng.normal(size=4)
        jac = np.zeros((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = eps
            hi, _ = layer.forward(Tensor((x0 + e).reshape(1, -1)))
            lo, _ = layer.forward(Tensor((x0 - e).reshape(1, -1)))
            jac[:, j] = (hi.data - lo.data).ravel() / (2 * eps)
        # permuted by ordering rank the Jacobian is lower triangular, positive diag
        perm = layer.ordering
        jp = jac[np.ix_(perm, perm)]
        assert np.abs(np.triu(jp, k=1)).max() < 1e-8
        assert np.all(np.diag(jp) > 0)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_reversed_layer_is_reversal_of_identity_ordered_layer(dim):
    # Oracle: rev o L o rev, where L is identity-ordered and holds the
    # reversed layer's weights with w1 rows reversed and the w2 / b2 columns
    # reversed within each (s || a) half.
    layer = MafLayer(dim, reverse=True, rng=np.random.default_rng(50 + dim))
    ref = MafLayer(dim, rng=np.random.default_rng(50 + dim))
    # both kinds hold the same w1 draw, up to the reversal
    np.testing.assert_array_equal(layer.w1.data, ref.w1.data[::-1])
    rng = np.random.default_rng(60 + dim)
    for p in (layer.w1, layer.b1, layer.w2, layer.b2):
        p.assign(rng.normal(size=p.shape) * 0.5)

    def halves(x):
        return np.concatenate([x[..., :dim][..., ::-1], x[..., dim:][..., ::-1]],
                              axis=-1)

    ref.w1.assign(layer.w1.data[::-1])
    ref.b1.assign(layer.b1.data)
    ref.w2.assign(halves(layer.w2.data))
    ref.b2.assign(halves(layer.b2.data))

    u = rng.normal(size=(30, dim))
    z, logdet = layer.forward(Tensor(u))
    z_ref, logdet_ref = ref.forward(Tensor(u[:, ::-1]))
    np.testing.assert_allclose(z.data, z_ref.data[:, ::-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(logdet.data, logdet_ref.data, rtol=0, atol=1e-12)
    back, logdet_inv = layer.inverse(Tensor(z.data))
    back_ref, logdet_inv_ref = ref.inverse(Tensor(z.data[:, ::-1]))
    np.testing.assert_allclose(back.data, back_ref.data[:, ::-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(logdet_inv.data, logdet_inv_ref.data, rtol=0, atol=1e-12)
    assert np.abs(back.data - u).max() < 1e-9


def test_density_normalizes_in_1d():
    rng = np.random.default_rng(40)
    stack = FlowStack.create(1, n_maf=4, rng=rng)
    _randomize(stack, rng)
    xs = np.linspace(-10.0, 10.0, 4001)
    logq = flows.flow_log_density(stack, xs.reshape(-1, 1))
    integral = np.trapezoid(np.exp(logq.data), xs)
    assert abs(integral - 1.0) < 1e-2


def test_density_normalizes_in_2d():
    rng = np.random.default_rng(41)
    stack = FlowStack.create(2, n_maf=4, rng=rng)
    _randomize(stack, rng, scale=0.1)
    # quadrature box sized from the flow's own samples
    z, _ = flows.flow_sample(stack, 2000, rng)
    lo = z.data.min() - 6.0 * z.data.std()
    hi = z.data.max() + 6.0 * z.data.std()
    xs = np.linspace(lo, hi, 641)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    q = np.exp(flows.flow_log_density(stack, pts).data).reshape(641, 641)
    integral = np.trapezoid(np.trapezoid(q, xs, axis=1), xs)
    assert abs(integral - 1.0) < 1e-2


def test_sample_logq_matches_log_density():
    rng = np.random.default_rng(42)
    stack = FlowStack.create(3, n_maf=4, rng=rng)
    _randomize(stack, rng)
    z, logq = flows.flow_sample(stack, 200, rng)
    logq_pull = flows.flow_log_density(stack, Tensor(z.data))
    np.testing.assert_allclose(logq.data, logq_pull.data, atol=1e-9)


def test_zero_init_samples_match_base_distribution():
    rng = np.random.default_rng(43)
    stack = FlowStack.create(2, n_maf=4, rng=rng)
    z, _ = flows.flow_sample(stack, 4000, rng)
    base = rng.standard_normal((4000, 2))
    # 99th percentile two-sample KS null threshold
    threshold = 1.6276 * math.sqrt(2.0 / 4000.0)
    for j in range(2):
        stat = stats.ks_2samp(z.data[:, j], base[:, j]).statistic
        assert stat < threshold


def test_sample_mean_matches_quadrature_mean():
    rng = np.random.default_rng(44)
    stack = FlowStack.create(1, n_maf=4, rng=rng)
    _randomize(stack, rng)
    xs = np.linspace(-10.0, 10.0, 4001)
    q = np.exp(flows.flow_log_density(stack, xs.reshape(-1, 1)).data)
    mean_quad = np.trapezoid(xs * q, xs)
    z, _ = flows.flow_sample(stack, 20000, rng)
    sample = z.data.ravel()
    assert abs(sample.mean() - mean_quad) < 4.0 * sample.std() / math.sqrt(sample.size)


def test_log_density_gradient_reaches_conditioner_weights():
    rng = np.random.default_rng(45)
    stack = FlowStack.create(2, n_maf=2, rng=rng)
    _randomize(stack, rng, scale=0.3)
    z0 = rng.normal(size=(6, 2))
    loss = flows.flow_log_density(stack, z0).sum()
    backward(loss)
    layer = stack.layers[0]
    assert layer.w2.grad is not None and np.abs(layer.w2.grad).max() > 0

    # finite differences on a few conditioner weights
    eps = 1e-6
    flat_idx = [(0, 0), (3, 1), (7, 2)]
    for i, j in flat_idx:
        w = layer.w2.data.copy()
        w[i, j] += eps
        layer.w2.assign(w)
        hi = flows.flow_log_density(stack, z0).sum().item()
        w[i, j] -= 2 * eps
        layer.w2.assign(w)
        lo = flows.flow_log_density(stack, z0).sum().item()
        w[i, j] += eps
        layer.w2.assign(w)
        numeric = (hi - lo) / (2 * eps)
        assert abs(layer.w2.grad[i, j] - numeric) < 1e-4 * max(1.0, abs(numeric))


def test_push_gradient_passes_grad_check():
    from flowseg.diffcore import grad_check

    rng = np.random.default_rng(46)
    stack = FlowStack.create(2, n_maf=2, rng=rng)
    _randomize(stack, rng, scale=0.3)

    def fn(t):
        z, logdet = flows.flow_push(stack, t)
        return (z.square()).sum() + logdet.sum()

    assert grad_check(fn, Tensor(rng.normal(size=(3, 2)))) < 1e-4

