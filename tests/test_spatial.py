"""Tests for spatial operators and the segmentation loss."""

import math

import numpy as np
import pytest

from flowseg.diffcore import Tensor, grad_check
from flowseg.spatial import dice_ce_loss_per_item, grad_sqnorm, gumbel_softmax


# -- gradient squared norm -------------------------------------------------------

def test_grad_sqnorm_linear_ramp():
    # f(i, j) = 2 j: forward difference 2 except on the replicated last column
    h, w = 5, 6
    f = np.tile(2.0 * np.arange(w), (h, 1)).reshape(1, h, w)
    out = grad_sqnorm(Tensor(f)).data[0]
    np.testing.assert_allclose(out[:, :-1], 4.0, atol=1e-12)
    np.testing.assert_allclose(out[:, -1], 0.0, atol=1e-12)


def test_grad_sqnorm_constant_is_zero():
    out = grad_sqnorm(Tensor(np.full((2, 4, 4), 7.0)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-14)


def test_grad_sqnorm_matches_loop():
    rng = np.random.default_rng(2)
    f = rng.normal(size=(1, 5, 4))
    out = grad_sqnorm(Tensor(f)).data[0]
    for i in range(5):
        for j in range(4):
            dx = f[0, i, j + 1] - f[0, i, j] if j < 3 else 0.0
            dy = f[0, i + 1, j] - f[0, i, j] if i < 4 else 0.0
            assert out[i, j] == pytest.approx(dx * dx + dy * dy, abs=1e-12)


def test_grad_sqnorm_is_differentiable():
    rng = np.random.default_rng(3)
    err = grad_check(lambda t: grad_sqnorm(t).sum(),
                     Tensor(rng.normal(size=(1, 4, 5))))
    assert err < 1e-4


# -- Gumbel-Softmax ----------------------------------------------------------------

def test_gumbel_softmax_simplex():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(2, 3, 4, 4)))
    y = gumbel_softmax(logits, tau=1.0, rng=rng)
    np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(y.data >= 0.0) and np.all(y.data <= 1.0)


def test_gumbel_softmax_balanced_logits_pick_each_class_half_the_time():
    rng = np.random.default_rng(5)
    n = 20000
    logits = Tensor(np.zeros((n, 2, 1, 1)))
    y = gumbel_softmax(logits, tau=1.0, rng=rng)
    frac = (y.data[:, 0, 0, 0] > y.data[:, 1, 0, 0]).mean()
    se = 0.5 / math.sqrt(n)
    assert abs(frac - 0.5) <= 3.0 * se


def test_gumbel_softmax_low_tau_concentrates_on_vertices():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(64, 3, 2, 2)))
    y = gumbel_softmax(logits, tau=0.05, rng=rng)
    assert y.data.max(axis=1).mean() > 0.95


def test_gumbel_softmax_rejects_bad_tau():
    with pytest.raises(ValueError):
        gumbel_softmax(Tensor(np.zeros((1, 2, 2, 2))), tau=0.0,
                       rng=np.random.default_rng(0))


def test_gumbel_softmax_deterministic_under_seed():
    logits = Tensor(np.random.default_rng(8).normal(size=(1, 2, 3, 3)))
    a = gumbel_softmax(logits, 1.0, np.random.default_rng(42))
    b = gumbel_softmax(logits, 1.0, np.random.default_rng(42))
    np.testing.assert_array_equal(a.data, b.data)


# -- Dice + cross-entropy -----------------------------------------------------------

def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], k) + labels.shape[1:])
    for c in range(k):
        out[:, c][labels == c] = 1.0
    return out


def test_dice_ce_perfect_prediction_is_near_zero():
    labels = (np.arange(16).reshape(1, 4, 4) % 2)
    target = _one_hot(labels, 2)
    loss = dice_ce_loss_per_item(Tensor(target), Tensor(target)).mean()
    assert abs(loss.item()) < 1e-5


def test_dice_term_is_one_for_disjoint_prediction():
    labels = np.zeros((1, 4, 4), dtype=int)
    target = _one_hot(labels, 2)
    wrong = _one_hot(1 - labels, 2)
    per = dice_ce_loss_per_item(Tensor(wrong), Tensor(target))
    ce = -math.log(1e-12)
    dice_term = per.item() - ce
    assert dice_term == pytest.approx(1.0, abs=1e-4)


def test_dice_ce_handles_zero_probability_without_error():
    target = np.zeros((1, 2, 2, 2))
    target[0, 0] = 1.0
    pred = np.zeros((1, 2, 2, 2))
    pred[0, 1] = 1.0
    loss = dice_ce_loss_per_item(Tensor(pred), Tensor(target)).mean()
    assert np.isfinite(loss.item())


def test_dice_ce_gradient():
    rng = np.random.default_rng(9)
    labels = (rng.random((1, 4, 4)) > 0.5).astype(int)
    target = Tensor(_one_hot(labels, 2))

    def fn(t):
        return dice_ce_loss_per_item(t.softmax(axis=1), target).mean()

    assert grad_check(fn, Tensor(rng.normal(size=(1, 2, 4, 4)))) < 1e-4


def test_dice_ce_shape_mismatch():
    with pytest.raises(ValueError):
        dice_ce_loss_per_item(Tensor(np.zeros((1, 2, 4, 4))),
                              Tensor(np.zeros((1, 3, 4, 4))))

