"""Pipeline tests: forward contract, toggles, training dynamics, checkpoints."""

import copy
import os
import re
import select
import struct
import time
import tracemalloc
import weakref
import zlib
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import flowseg.data as fd
import flowseg.diffcore as dc
import flowseg.pipeline as pl
from flowseg.ncvi import Hyperpriors

# -- helpers --------------------------------------------------------------------


def _toy_samples(n, h, w, k=2, seed=0):
    """Handmade z-scored images with a centered blob of a nonzero class."""
    rng = np.random.default_rng(seed)
    out = []
    ii, jj = np.ogrid[:h, :w]
    blob = (ii - h // 2) ** 2 + (jj - w // 2) ** 2 <= (h // 4) ** 2
    for _ in range(n):
        img = rng.standard_normal((h, w)) + 2.0 * blob
        img = (img - img.mean()) / img.std()
        mask = np.zeros((h, w), dtype=np.int64)
        mask[blob] = rng.integers(1, k)
        out.append(fd.Sample(image=img, mask=mask))
    return out


def _tiny_cfg(**overrides):
    base = dict(image_size=(16, 16), channels=4, flow_layers=2, flow_hidden=8,
                flow_kl_samples=16, batch_size=4, epochs=2, seed=3)
    base.update(overrides)
    return pl.ModelConfig(**base)


def _perturbed_flow(model):
    """Move the flow's zero-initialized output layers off zero, so that it is
    not the identity and its MC KL is not near zero."""
    if model.flow is not None:
        for layer in model.flow.layers:
            layer.w2.assign(np.random.default_rng(5).normal(
                size=layer.w2.shape) * 0.1)
    return model


def _recon_value(samples, model, seed):
    """Reconstruction term under common random numbers, no parameter update."""
    images, targets = pl.batch_tensors(samples, model.cfg.num_classes)
    _, terms = pl.training_loss(images, targets, model,
                                np.random.default_rng(seed))
    return terms["recon"]


# -- config ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="num_classes"):
        pl.ModelConfig(num_classes=1)
    with pytest.raises(ValueError, match="divisible by 4"):
        pl.ModelConfig(image_size=(15, 16))
    with pytest.raises(ValueError, match="tau"):
        pl.ModelConfig(tau=0.0)
    with pytest.raises(ValueError, match="sde_steps"):
        pl.ModelConfig(sde_steps=0)
    with pytest.raises(ValueError, match="sde_horizon"):
        pl.ModelConfig(sde_horizon=float("nan"))
    with pytest.raises(ValueError, match="early_stop_dice"):
        pl.ModelConfig(early_stop_dice=1.5)
    with pytest.raises(ValueError, match="hp.phi_omega"):
        pl.ModelConfig(hp=Hyperpriors(phi_omega=-1.0))


@pytest.mark.parametrize("size", [(0, 0), (-4, 8), (8, 0)])
def test_image_size_sides_must_be_at_least_4(size):
    with pytest.raises(ValueError, match=r"image_size sides must be >= 4"):
        pl.ModelConfig(image_size=size)


def test_config_items_round_trip():
    cfg = _tiny_cfg(hp=Hyperpriors(phi_rho=1e-3, beta_pi=3.0))
    items = pl.config_items(cfg)
    assert items["hp.beta_pi"] == 3.0
    assert pl.config_from_items(items) == cfg
    assert len(pl.config_items(pl.ModelConfig())) == 28


def test_every_config_field_is_read():
    # A field that no module reads is a setting that changes nothing.
    src = "".join(path.read_text()
                  for path in Path(pl.__file__).parent.glob("*.py"))
    for cls in (pl.ModelConfig, Hyperpriors):
        for f in fields(cls):
            assert re.search(rf"\.{f.name}\b", src), \
                f"{cls.__name__}.{f.name} is never read"


def test_config_for_version():
    cfg = _tiny_cfg()
    assert pl.config_for_version(cfg, "ver1").nf_posterior is False
    v3 = pl.config_for_version(cfg, "ver3")
    assert (v3.nf_posterior, v3.ncvi, v3.sde_girsanov) == (True, False, True)
    v5 = pl.config_for_version(cfg, "ver5")
    assert (v5.nf_posterior, v5.ncvi, v5.sde_girsanov) == (True, True, True)
    with pytest.raises(ValueError, match="ver9"):
        pl.config_for_version(cfg, "ver9")


def test_version_table_covers_all_toggle_corners():
    rows = set(pl.VERSION_TOGGLES.values())
    assert (False, False, False) in rows
    assert (True, True, True) in rows
    assert len(rows) == 5


# -- blocks ------------------------------------------------------------------------


def test_avg_pool_and_upsample():
    x = dc.Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
    pooled = pl.avg_pool2(x)
    expected = np.array([[2.5, 4.5], [10.5, 12.5]])
    assert np.allclose(pooled.data[0, 0], expected)
    up = pl.upsample2(pooled)
    assert up.shape == (1, 1, 4, 4)
    assert np.allclose(up.data[0, 0, :2, :2], 2.5)
    with pytest.raises(dc.ShapeError):
        pl.avg_pool2(dc.Tensor(np.zeros((1, 1, 3, 4))))


def test_bounded_log_var_range():
    t = dc.Tensor(np.array([-1e6, -1.0, 0.0, 1.0, 1e6]))
    out = pl._bounded_log_var(t).data
    assert np.all(np.abs(out) <= 10.0)
    assert abs(out[2]) < 1e-12
    assert out[0] < -9.99 and out[4] > 9.99


def _conv_outputs(monkeypatch) -> list:
    """Weak references to the value of every conv2d output that pipeline makes."""
    refs, real_conv2d = [], pl.conv2d

    def conv2d(x, w):
        out = real_conv2d(x, w)
        refs.append(weakref.ref(out.data))
        return out
    monkeypatch.setattr(pl, "conv2d", conv2d)
    return refs


def test_conv_tanh_is_one_node_and_bitwise_equal_to_conv_then_tanh(monkeypatch):
    rng = np.random.default_rng(3)
    conv = pl.Conv(3, 4, rng)
    conv.b.assign(rng.normal(size=4))
    x0, g = rng.normal(size=(2, 3, 5, 6)), rng.normal(size=(2, 4, 5, 6))
    x = dc.Tensor(x0, requires_grad=True)
    convs = _conv_outputs(monkeypatch)
    y = conv.tanh(x)
    # one node on the conv's operands and the bias: no conv output, sum or
    # reshape, and the conv output is freed once the block returns
    assert [n for n in dc.trace(y) if n.backward is not None] == [y._node]
    assert y._node.parents == (x._node, conv.w._node, conv.b._node)
    assert len(convs) == 1 and convs[0]() is None
    dc.backward((y * dc.Tensor(g)).sum())
    grads = [x.grad, conv.w.grad, conv.b.grad]
    dc.zero_grad([conv.w, conv.b])
    x_ref = dc.Tensor(x0, requires_grad=True)
    y_ref = (dc.conv2d(x_ref, conv.w) + conv.b.reshape((1, -1, 1, 1))).tanh()
    dc.backward((y_ref * dc.Tensor(g)).sum())
    np.testing.assert_array_equal(y.data, y_ref.data)
    for got, ref in zip(grads, [x_ref.grad, conv.w.grad, conv.b.grad]):
        np.testing.assert_array_equal(got, ref)


def test_residual_block_is_one_node_on_its_skip_and_conv_operands(monkeypatch):
    rng = np.random.default_rng(4)
    enc = pl.ResEncoder(2, 3, 1, rng)
    params = [p for name, p in pl._named_tensors(enc, "") if not name.startswith("head")]
    for p in params[1::2]:  # the biases, zero at init
        p.assign(rng.normal(size=p.shape))
    x0 = rng.normal(size=(2, 2, 5, 6))
    x = dc.Tensor(x0, requires_grad=True)
    convs = _conv_outputs(monkeypatch)
    y = enc.trunk(x)
    (c1, c2) = enc.blocks[-1]
    skip, x1, w, b = y._node.parents
    assert (w, b) == (c2.w._node, c2.b._node)
    assert x1.parents == (skip, c1.w._node, c1.b._node)
    # no conv output outlives its block; the block input and the inner tanh
    # output stay, each read by the closure of the conv it feeds
    assert len(convs) == 5 and [r for r in convs if r() is not None] == []
    assert skip.data.size > 0 and x1.data.size > 0
    g = dc.Tensor(rng.normal(size=y.shape))
    dc.backward((y * g).sum())
    grads = [x.grad] + [p.grad for p in params]
    dc.zero_grad(params)

    def conv(c, h):
        return dc.conv2d(h, c.w) + c.b.reshape((1, -1, 1, 1))
    x_ref = dc.Tensor(x0, requires_grad=True)
    h = conv(enc.stem, x_ref).tanh()
    for c1, c2 in enc.blocks:
        h = (h + conv(c2, conv(c1, h).tanh())).tanh()
    dc.backward((h * g).sum())
    np.testing.assert_array_equal(y.data, h.data)
    for got, ref in zip(grads, [x_ref.grad] + [p.grad for p in params]):
        np.testing.assert_array_equal(got, ref)


def test_batch_tensors_onehot():
    samples = _toy_samples(3, 8, 8, k=3, seed=1)
    images, onehot = pl.batch_tensors(samples, 3)
    assert images.shape == (3, 1, 8, 8)
    assert onehot.shape == (3, 3, 8, 8)
    assert np.allclose(onehot.data.sum(axis=1), 1.0)
    recovered = onehot.data.argmax(axis=1)
    assert np.array_equal(recovered, np.stack([s.mask for s in samples]))
    with pytest.raises(ValueError, match="num_classes"):
        pl.batch_tensors(samples, 2)


def test_rn_weights_normalized_and_clamped():
    w = pl.rn_weights([0.3, -0.2, 1.1, 0.0])
    assert w.shape == (4,)
    assert abs(w.mean() - 1.0) < 1e-12
    assert np.all(w > 0)
    big = pl.rn_weights([1000.0, -1000.0])
    assert big.max() / big.min() <= np.exp(2 * pl.RN_LOG_CLAMP) * (1 + 1e-12)
    flat = pl.rn_weights([0.7, 0.7, 0.7])
    assert np.allclose(flat, 1.0)


def test_adam_single_step_matches_formula():
    p = dc.Tensor(np.array([2.0]), requires_grad=True)
    opt = pl.Adam([("p", p)], lr=0.1, weight_decay=0.0)
    loss = (p * 3.0).sum()
    dc.backward(loss)
    opt.step()
    # t=1 bias correction makes the update lr * g / (|g| + eps).
    assert abs(p.data[0] - (2.0 - 0.1 * 3.0 / (3.0 + 1e-8))) < 1e-12


def test_checkpoint_load_rejects_missing_moments(tmp_path):
    model = pl.Model(_tiny_cfg())
    opt = pl.Adam(model.named_params(), lr=0.1)
    opt.t = 4
    for name, p in model.named_params():
        opt.m[name] = np.full(p.shape, 0.5)
        opt.v[name] = np.full(p.shape, 2.0)
    path = tmp_path / "full.dbfc"
    pl.checkpoint_save(model, path, opt=opt, epoch=1)
    raw = path.read_bytes()[:-4]
    for moment in ("m", "v"):
        # Rename one moment section, so only that moment is missing.
        key = f"opt.{moment}.seg.enc0a.w".encode()
        assert raw.count(key) == 1
        cut = raw.replace(key, key[:-1] + b"q")
        bad = tmp_path / f"no-{moment}.dbfc"
        bad.write_bytes(cut + struct.pack("<I", zlib.crc32(cut)))
        with pytest.raises(fd.FormatError, match=(
                rf"missing sections: \['opt\.{moment}\.seg\.enc0a\.w'\]")) as exc:
            pl.checkpoint_load(bad)
        assert str(exc.value).startswith(f"{bad}: ")
    # Moments of a parameter the model lacks are not dropped without a word.
    opt.m["ghost"], opt.v["ghost"] = np.zeros(1), np.zeros(1)
    ghost = tmp_path / "ghost.dbfc"
    pl.checkpoint_save(model, ghost, opt=opt, epoch=1)
    with pytest.raises(fd.FormatError, match=r"unrecognized sections.*ghost"):
        pl.checkpoint_load(ghost)
    _, restored, _ = pl.checkpoint_load(path)
    assert restored.t == 4
    np.testing.assert_array_equal(restored.v["seg.enc0a.w"],
                                  opt.v["seg.enc0a.w"])


# -- forward contract ----------------------------------------------------------------


def test_forward_shapes_and_simplex():
    cfg = _tiny_cfg()
    model = pl.Model(cfg)
    samples = _toy_samples(4, 16, 16)
    images, _ = pl.batch_tensors(samples, 2)
    out = pl.forward(images, model, "train", np.random.default_rng(0))
    assert out.y_hat.shape == (4, 2, 16, 16)
    assert np.allclose(out.y_hat.data.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out.y_hat.data >= 0)
    assert len(out.log_rn_weights) == 4
    assert list(out.kls) == ["kl_y", "kl_z", "kl_x", "kl_m"]
    assert all(kl.data.size == 1 for kl in out.kls.values())


def test_posterior_mean_deterministic():
    model = pl.Model(_tiny_cfg())
    images, _ = pl.batch_tensors(_toy_samples(2, 16, 16), 2)
    a = pl.posterior_mean(images, model)
    b = pl.posterior_mean(images, model)
    assert np.array_equal(a.data, b.data)
    assert np.allclose(a.data.sum(axis=1), 1.0, atol=1e-9)


def test_forward_input_validation():
    model = pl.Model(_tiny_cfg())
    with pytest.raises(dc.ShapeError, match="expected images"):
        pl.posterior_mean(np.zeros((2, 1, 8, 8)), model)
    with pytest.raises(ValueError, match="posterior_mean"):
        pl.forward(np.zeros((2, 1, 16, 16)), model, "eval",
                   np.random.default_rng(0))
    with pytest.raises(ValueError, match="rng"):
        pl.forward(np.zeros((2, 1, 16, 16)), model, "train")


@pytest.mark.parametrize("version", sorted(pl.VERSION_TOGGLES))
def test_toggle_matrix_phases(version):
    nf, ncvi, sde = pl.VERSION_TOGGLES[version]
    cfg = pl.config_for_version(_tiny_cfg(), version)
    model = pl.Model(cfg)
    assert (model.flow is not None) == nf
    images, _ = pl.batch_tensors(_toy_samples(2, 16, 16), 2)
    out = pl.forward(images, model, "train", np.random.default_rng(1))
    assert (out.kls["kl_y"].data.item() != 0.0) == ncvi
    assert (out.kls["kl_x"].data.item() != 0.0) == ncvi
    if not sde:
        assert all(v == 0.0 for v in out.log_rn_weights)


@pytest.mark.parametrize("ncvi", [False, True])
def test_appearance_stream_runs_only_with_ncvi(ncvi, monkeypatch):
    # Only the NCVI terms read the appearance latent, so without NCVI the
    # model has no appearance encoder and a pass runs the shape encoder alone.
    calls = []
    encode = pl.ResEncoder.__call__

    def counted(self, x):
        calls.append(self)
        return encode(self, x)

    monkeypatch.setattr(pl.ResEncoder, "__call__", counted)
    model = pl.Model(_tiny_cfg(ncvi=ncvi))
    images, _ = pl.batch_tensors(_toy_samples(2, 16, 16), 2)
    for seed in (5, 6):
        pl.forward(images, model, "train", np.random.default_rng(seed))
    assert len(calls) == (4 if ncvi else 2)
    assert (model.appearance is not None) == ncvi
    has_appearance = any(name.startswith("appearance.")
                         for name, _ in model.named_params())
    assert has_appearance == ncvi


@pytest.mark.parametrize("version", sorted(pl.VERSION_TOGGLES))
def test_kl_terms_nonnegative_finite(version):
    cfg = pl.config_for_version(_tiny_cfg(), version)
    model = pl.Model(cfg)
    images, _ = pl.batch_tensors(_toy_samples(4, 16, 16, seed=9), 2)
    out = pl.forward(images, model, "train", np.random.default_rng(2))
    for name, kl in out.kls.items():
        val = kl.data.item()
        assert np.isfinite(val), f"{name} not finite"
        assert val >= -1e-9, f"{name} negative: {val}"


def test_flow_kl_term_only_when_both_components_on():
    samples = _toy_samples(4, 16, 16)
    for version in sorted(pl.VERSION_TOGGLES):
        nf, ncvi, _ = pl.VERSION_TOGGLES[version]
        cfg = pl.config_for_version(_tiny_cfg(), version)
        model = pl.Model(cfg)
        opt = pl.Adam(model.named_params(), cfg.learning_rate)
        terms = pl.train_step(samples, model, opt, np.random.default_rng(3))
        assert ("flow_kl" in terms) == (nf and ncvi)


@pytest.mark.parametrize("version", ["ver1", "ver5"])
def test_training_loss_weights_its_terms(version):
    cfg = pl.config_for_version(_tiny_cfg(), version)
    model = _perturbed_flow(pl.Model(cfg))
    images, targets = pl.batch_tensors(_toy_samples(4, 16, 16), cfg.num_classes)
    loss, terms = pl.training_loss(images, targets, model, np.random.default_rng(6))
    flow = ["flow_kl"] if version == "ver5" else []
    assert list(terms) == ["recon", "kl_y", "kl_z", "kl_x", "kl_m", *flow, "loss"]
    assert terms["loss"] == loss.data.item()
    kls = terms["kl_y"] + terms["kl_z"] + terms["kl_x"] + terms["kl_m"]
    lam = cfg.lambda_bayes
    want = (terms["recon"] + lam / (4 * 16 * 16) * kls
            + lam * terms.get("flow_kl", 0.0))
    assert terms["loss"] == pytest.approx(want, rel=1e-12, abs=0.0)
    if flow:
        assert abs(lam * terms["flow_kl"]) > 1e-9 * abs(want)
    model.cfg = replace(cfg, lambda_bayes=0.0)
    _, terms = pl.training_loss(images, targets, model, np.random.default_rng(6))
    assert terms["loss"] == terms["recon"]


@pytest.mark.parametrize("version", ["ver1", "ver5"])
def test_train_step_differentiates_training_loss(version):
    # train_step is training_loss, backward and one Adam step: a twin model
    # stepped by hand from the same rng ends with the same terms and bits.
    cfg = pl.config_for_version(_tiny_cfg(), version)
    samples = _toy_samples(4, 16, 16)
    model, twin = _perturbed_flow(pl.Model(cfg)), _perturbed_flow(pl.Model(cfg))
    opt = pl.Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    twin_opt = pl.Adam(twin.named_params(), cfg.learning_rate, cfg.weight_decay)
    start = {name: p.data for name, p in model.named_params()}
    terms = pl.train_step(samples, model, opt, np.random.default_rng(4))
    images, targets = pl.batch_tensors(samples, cfg.num_classes)
    loss, twin_terms = pl.training_loss(images, targets, twin,
                                        np.random.default_rng(4))
    dc.backward(loss)
    twin_opt.step()
    assert list(terms.items()) == list(twin_terms.items())
    for (name, p), (_, q) in zip(model.named_params(), twin.named_params()):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)
    assert all(not np.array_equal(p.data, start[name])
               for name, p in model.named_params())


def test_a_nonfinite_gradient_names_every_term(monkeypatch):
    def backward(loss):
        raise dc.NonFiniteError("injected")

    monkeypatch.setattr(pl, "backward", backward)
    cfg = _tiny_cfg()
    model = pl.Model(cfg)
    opt = pl.Adam(model.named_params(), cfg.learning_rate)
    with pytest.raises(dc.NonFiniteError) as info:
        pl.train_step(_toy_samples(4, 16, 16), model, opt, np.random.default_rng(0))
    message = str(info.value)
    assert message.startswith("injected; terms so far: recon=")
    assert re.findall(r"(\w+)=", message) == ["recon", "kl_y", "kl_z", "kl_x",
                                              "kl_m", "flow_kl", "loss"]
    assert opt.t == 0


# -- training dynamics ---------------------------------------------------------------


@pytest.mark.parametrize("version", sorted(pl.VERSION_TOGGLES))
def test_every_parameter_trains(version):
    # The parameter-side twin of test_every_config_field_is_read: a tensor
    # that two steps leave unchanged is state that never trains.  Two steps,
    # because the flow's zero-initialized output layer shuts off the
    # gradient of its inputs until it moves.
    cfg = pl.config_for_version(_tiny_cfg(), version)
    model = pl.Model(cfg)
    start = {name: p.data for name, p in model.named_params()}
    opt = pl.Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    rng = np.random.default_rng(0)
    for _ in range(2):
        pl.train_step(_toy_samples(4, 16, 16), model, opt, rng)
    frozen = [name for name, p in model.named_params()
              if np.array_equal(p.data, start[name])]
    assert frozen == []


def test_gradient_reaches_every_param_group():
    cfg = _tiny_cfg()
    model = pl.Model(cfg)
    samples = _toy_samples(4, 16, 16)
    opt = pl.Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    # One step first: the zero-initialized output layers of the flow block
    # gradient flow into their inputs until they move off exact zero.
    pl.train_step(samples, model, opt, np.random.default_rng(0))

    images, targets = pl.batch_tensors(samples, cfg.num_classes)
    loss, _ = pl.training_loss(images, targets, model, np.random.default_rng(1))
    dc.backward(loss)
    norms: dict[str, float] = {}
    for name, p in model.named_params():
        group = name.split(".")[0]
        if p.grad is not None:
            norms[group] = norms.get(group, 0.0) + float(np.abs(p.grad).sum())
    for group in ("appearance", "shape_enc", "seg", "flow"):
        assert norms.get(group, 0.0) > 1e-12, f"no gradient in {group}"


def _swap_param(model, name, t):
    """Put ``t`` where ``model.named_params()`` found ``name``; returns the
    tensor it replaced."""
    path, attr = name.rsplit(".", 1)
    owner = model
    for part in path.split("."):
        owner = owner[int(part)] if part.isdigit() else getattr(owner, part)
    saved = getattr(owner, attr)
    setattr(owner, attr, t)
    return saved


@pytest.mark.parametrize("version", ["ver2", "ver3", "ver4", "ver5"])
def test_train_loss_gradient_matches_finite_differences(version, monkeypatch):
    # Criterion 07's end-to-end check covers ncvi=False only.  This one takes
    # training_loss, which train_step differentiates, with the NCVI terms and
    # mc_kl included, through the OU paths.  B=1 makes the self-normalised RN
    # weight exactly 1; the closed-form NCVI state is detached by design, so
    # it is pinned to its value at the unperturbed point; the rng is replayed
    # in each call.
    cfg = pl.config_for_version(
        pl.ModelConfig(image_size=(8, 8), channels=2, flow_hidden=4,
                       sde_steps=4, flow_kl_samples=16, seed=1), version)
    model = _perturbed_flow(pl.Model(cfg))
    img = np.random.default_rng(707).normal(size=(1, 1, 8, 8))
    target = np.zeros((1, 2, 8, 8))
    target[0, 0] = 1.0

    def loss_fn(images):
        return pl.training_loss(images, dc.Tensor(target), model,
                                np.random.default_rng(11))[0]

    pinned = []
    refresh = pl.refresh_state

    def refresh_once(*args):
        if not pinned:
            pinned.append(refresh(*args))
        return pinned[0]

    monkeypatch.setattr(pl, "refresh_state", refresh_once)
    loss_fn(dc.Tensor(img))
    assert bool(pinned) == cfg.ncvi

    errs = {"input": dc.grad_check(loss_fn, dc.Tensor(img))}
    names = ["shape_enc.stem.w", "seg.head_lv.b"]
    if cfg.ncvi:
        names.append("appearance.head_lv.b")
    if cfg.nf_posterior:
        names.append("flow.layers.0.w1")
    params = dict(model.named_params())
    for name in names:
        def wrt_param(t, name=name):
            saved = _swap_param(model, name, t)
            try:
                return loss_fn(dc.Tensor(img))
            finally:
                _swap_param(model, name, saved)

        errs[name] = dc.grad_check(wrt_param, params[name])
    assert max(errs.values()) < 1e-4, errs


class _GatedEncoder(pl.ResEncoder):
    """A ResEncoder with one more public block, which its pass uses."""

    def __init__(self, *args):
        super().__init__(*args)
        self.gate = pl.Conv(1, 1, np.random.default_rng(11))

    def __call__(self, x):
        mu, lv = super().__call__(x)
        return self.gate(mu), lv


def test_a_block_added_to_a_module_is_trained_and_saved(tmp_path, monkeypatch):
    # No list names the gate: the parameter walk finds it, so Adam trains it
    # and the checkpoint keeps it.
    monkeypatch.setattr(pl, "ResEncoder", _GatedEncoder)
    cfg = _tiny_cfg()
    model = pl.Model(cfg)
    named = dict(model.named_params())
    gate = [name for name in named if ".gate." in name]
    assert gate == ["appearance.gate.w", "appearance.gate.b",
                    "shape_enc.gate.w", "shape_enc.gate.b"]
    start = {name: named[name].data for name in gate}
    opt = pl.Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    rng = np.random.default_rng(0)
    for _ in range(2):
        pl.train_step(_toy_samples(4, 16, 16), model, opt, rng)
    for name in gate:
        assert not np.array_equal(named[name].data, start[name]), name
    path = tmp_path / "gated.dbfc"
    pl.checkpoint_save(model, path, opt=opt, epoch=1)
    loaded, loaded_opt, _ = pl.checkpoint_load(path)
    loaded_named = dict(loaded.named_params())
    for name in gate:
        np.testing.assert_array_equal(loaded_named[name].data, named[name].data)
        np.testing.assert_array_equal(loaded_opt.m[name], opt.m[name])


def test_recon_term_decreases_over_training():
    # The penalty terms are self-normalizing (their values sit near the
    # hyperprior constants by construction), so the trainable signal that a
    # short run must visibly improve is the reconstruction term.
    cfg = _tiny_cfg(seed=11)
    model = pl.Model(cfg)
    samples = _toy_samples(8, 16, 16, seed=5)
    opt = pl.Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    start = _recon_value(samples[:4], model, seed=99)
    rng = np.random.default_rng(7)
    terms = {}
    for i in range(50):
        terms = pl.train_step(samples[:4] if i % 2 == 0 else samples[4:],
                              model, opt, rng)
    end = _recon_value(samples[:4], model, seed=99)
    assert end < start - 0.02, f"recon did not decrease: {start} -> {end}"
    assert np.isfinite(terms["loss"])


def test_fit_is_deterministic():
    samples = _toy_samples(8, 16, 16, seed=2)
    cfg = _tiny_cfg(epochs=2)
    _, hist_a = pl.fit(samples, samples[:4], cfg)
    _, hist_b = pl.fit(samples, samples[:4], cfg)
    assert hist_a == hist_b
    assert len(hist_a) == 2
    for row in hist_a:
        assert list(row) == ["epoch", "dice_val", "recon", "kl_y", "kl_z",
                             "kl_x", "kl_m", "flow_kl", "loss"]


def test_fit_early_stop():
    samples = _toy_samples(8, 16, 16, seed=2)
    cfg = _tiny_cfg(epochs=50, early_stop_dice=1e-9)
    _, hist = pl.fit(samples, samples[:4], cfg)
    assert len(hist) == 1


def test_train_eval_argmax_agreement():
    # With the diffusion off, tiny predicted variances, a frozen identity
    # flow, and well-separated logits, the relaxed training prediction and
    # the deterministic path agree almost everywhere.
    cfg = _tiny_cfg(sde_girsanov=False, tau=0.05)
    model = pl.Model(cfg)
    model.seg.head_mu.b.assign(np.array([8.0, -8.0]))
    model.seg.head_lv.b.assign(np.array([-60.0, -60.0]))
    images, _ = pl.batch_tensors(_toy_samples(4, 16, 16), 2)
    train_out = pl.forward(images, model, "train", np.random.default_rng(0))
    a = train_out.y_hat.data.argmax(axis=1)
    b = pl.posterior_mean(images, model).data.argmax(axis=1)
    assert (a == b).mean() >= 0.99


def test_nonfinite_loss_reports_phase():
    cfg = _tiny_cfg()
    model = pl.Model(cfg)
    model.appearance.stem.w.assign(
        np.full_like(model.appearance.stem.w.data, 1e308))
    samples = _toy_samples(4, 16, 16)
    opt = pl.Adam(model.named_params(), cfg.learning_rate)
    with np.errstate(over="ignore"):
        with pytest.raises(dc.NonFiniteError, match=r"\[phase: "):
            pl.train_step(samples, model, opt, np.random.default_rng(0))


# -- prediction and evaluation ----------------------------------------------------------


def test_predict_contract():
    model = pl.Model(_tiny_cfg())
    sample = _toy_samples(1, 16, 16)[0]
    labels, conf = pl.predict(sample, model)
    assert labels.shape == (16, 16)
    assert conf.shape == (2, 16, 16)
    assert np.allclose(conf.sum(axis=0), 1.0, atol=1e-9)
    assert set(np.unique(labels)) <= {0, 1}
    assert np.array_equal(labels, conf.argmax(axis=0))
    with pytest.raises(dc.ShapeError, match="does not match"):
        pl.predict(np.zeros((8, 8)), model)


def test_evaluate_bounds_and_empty():
    model = pl.Model(_tiny_cfg())
    samples = _toy_samples(5, 16, 16)
    score = pl.evaluate(samples, model)
    assert 0.0 <= score <= 1.0
    with pytest.raises(ValueError, match="nonempty"):
        pl.evaluate([], model)


def test_evaluate_equals_mean_of_predict_dice():
    # The score is the mean of the per-image Dice that predict gives, to the
    # last bit, whatever the training batch size.
    cfg = _tiny_cfg(num_classes=3, batch_size=4)
    model = pl.Model(cfg)
    samples = _toy_samples(5, 16, 16, k=3, seed=4)
    per_image = []
    for s in samples:
        labels, _ = pl.predict(s, model)
        per_image.append(np.mean([fd.dice_score(labels, s.mask, k)
                                  for k in (1, 2)]))
    assert 0.0 < np.mean(per_image) < 1.0
    assert pl.evaluate(samples, model) == float(np.mean(per_image))


def _cpus(monkeypatch, n):
    """Make evaluate see n CPUs; returns the list of pids it forks."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(pl.os, "fork", fork)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 17])
def test_evaluate_on_workers_is_the_serial_mean_to_the_bit(monkeypatch, n, cpus):
    model = pl.Model(_tiny_cfg(num_classes=3))
    samples = _toy_samples(n, 16, 16, k=3, seed=n)
    per_image = [np.mean([fd.dice_score(pl.predict(s, model)[0], s.mask, k)
                          for k in (1, 2)]) for s in samples]
    forked = _cpus(monkeypatch, cpus)
    assert pl.evaluate(samples, model) == float(np.mean(per_image))
    assert len(forked) == min(n, cpus) - 1
    _assert_no_child_left()


def _predict_failing_at(monkeypatch, sample, fail):
    """Make predict call ``fail()`` for ``sample``."""
    real_predict = pl.predict

    def predict(s, model):
        if s is sample:
            fail()
        return real_predict(s, model)

    monkeypatch.setattr(pl, "predict", predict)


@pytest.mark.parametrize("error", [dc.NonFiniteError, ValueError, KeyError])
def test_a_worker_exception_is_raised_by_evaluate(monkeypatch, error):
    samples = _toy_samples(4, 16, 16)

    def fail():
        raise error(f"injected in {os.getpid()}")

    _predict_failing_at(monkeypatch, samples[3], fail)
    forked = _cpus(monkeypatch, 2)
    with pytest.raises(error) as info:
        pl.evaluate(samples, pl.Model(_tiny_cfg()))
    assert len(forked) == 1
    assert info.value.args == (f"injected in {forked[0]}",)
    _assert_no_child_left()


def _unpicklable():
    exc = RuntimeError("holds a lambda")
    exc.hook = lambda: None
    raise exc


@pytest.mark.parametrize("fail, status", [(lambda: os._exit(7), 7),
                                          (_unpicklable, 1)],
                         ids=["exit", "unpicklable"])
def test_a_worker_that_dies_without_a_reply_is_a_child_process_error(
        monkeypatch, fail, status):
    # A worker that cannot send its exception still leaves by os._exit(1).
    samples = _toy_samples(4, 16, 16)
    _predict_failing_at(monkeypatch, samples[2], fail)
    _cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError,
                       match=f"ended with status {status} and no reply"):
        pl.evaluate(samples, pl.Model(_tiny_cfg()))
    _assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_in_the_caller_stops_every_worker(monkeypatch, error):
    # The workers would sleep for a minute; evaluate must kill and reap them.
    samples = _toy_samples(6, 16, 16)
    real_predict, parent = pl.predict, os.getpid()

    def predict(s, model):
        if os.getpid() != parent:
            time.sleep(60)
        elif s is samples[1]:
            raise error("injected")
        return real_predict(s, model)

    monkeypatch.setattr(pl, "predict", predict)
    forked = _cpus(monkeypatch, 3)
    start = time.perf_counter()
    with pytest.raises(error, match="injected"):
        pl.evaluate(samples, pl.Model(_tiny_cfg()))
    assert time.perf_counter() - start < 30
    assert len(forked) == 2
    _assert_no_child_left()


def test_a_failed_fork_leaks_no_pipe_and_reaps_the_workers(monkeypatch):
    forked = _cpus(monkeypatch, 3)
    counted_fork = pl.os.fork

    def fork():
        if forked:
            raise BlockingIOError("injected")
        return counted_fork()

    monkeypatch.setattr(pl.os, "fork", fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError, match="injected"):
        pl.evaluate(_toy_samples(3, 16, 16), pl.Model(_tiny_cfg()))
    assert len(forked) == 1
    assert len(os.listdir("/proc/self/fd")) == open_fds
    _assert_no_child_left()


@pytest.mark.parametrize("version", ["ver1", "ver5"])
def test_fit_on_workers_is_the_serial_fit_to_the_bit(monkeypatch, tmp_path, version):
    # 13 training images at B=4: the last batch holds one image, fewer than
    # the CPUs.  Each step forks min(cpus, B) - 1 workers, and each
    # validation min(cpus, 4) - 1.
    samples = _toy_samples(17, 16, 16, seed=6)
    cfg = pl.config_for_version(_tiny_cfg(epochs=2), version)
    runs = []
    for cpus in (1, 2, 5):
        forked = _cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        _, history = pl.fit(samples[:13], samples[13:], cfg, out_dir=out)
        forks = sum(min(cpus, b) - 1 for b in (4, 4, 4, 1)) + min(cpus, 4) - 1
        assert len(forked) == 2 * forks
        _assert_no_child_left()
        runs.append((history, (out / "ckpt-last.dbfc").read_bytes(),
                     (out / "ckpt-best.dbfc").read_bytes()))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def _in_workers(monkeypatch, name, fail):
    """Make ``pl.<name>`` call ``fail()`` in a forked process only."""
    real, parent = getattr(pl, name), os.getpid()

    def patched(*args):
        if os.getpid() != parent:
            fail()
        return real(*args)

    monkeypatch.setattr(pl, name, patched)


def _step(samples):
    cfg = _tiny_cfg()
    model = pl.Model(cfg)
    opt = pl.Adam(model.named_params(), cfg.learning_rate)
    return pl.train_step(samples, model, opt, np.random.default_rng(0)), opt


def test_a_train_step_on_workers_leaves_no_child(monkeypatch):
    forked = _cpus(monkeypatch, 3)
    terms, opt = _step(_toy_samples(4, 16, 16))
    assert len(forked) == 2 and opt.t == 1 and np.isfinite(terms["loss"])
    _assert_no_child_left()


# gumbel_softmax runs in phase one, backward in phase two.
@pytest.mark.parametrize("name", ["gumbel_softmax", "backward"])
def test_a_training_worker_that_dies_without_a_reply(monkeypatch, name):
    _in_workers(monkeypatch, name, lambda: os._exit(7))
    _cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="ended with status 7 and no reply"):
        _step(_toy_samples(4, 16, 16))
    _assert_no_child_left()


def test_a_training_worker_exception_names_its_phase(monkeypatch):
    def fail():
        raise dc.NonFiniteError(f"injected in {os.getpid()}")

    _in_workers(monkeypatch, "gumbel_softmax", fail)
    forked = _cpus(monkeypatch, 2)
    with pytest.raises(dc.NonFiniteError) as info:
        _step(_toy_samples(4, 16, 16))
    assert str(info.value).startswith(
        f"[phase: prediction] injected in {forked[0]}; terms so far: ")
    _assert_no_child_left()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_between_the_phases_stops_every_worker(monkeypatch, error):
    # The workers wait for the batch's RN weights, which never come.
    def weigh(*args):
        raise error("injected")

    monkeypatch.setattr(pl, "_weigh", weigh)
    forked = _cpus(monkeypatch, 3)
    start = time.perf_counter()
    with pytest.raises(error, match="injected"):
        _step(_toy_samples(4, 16, 16))
    assert time.perf_counter() - start < 30
    assert len(forked) == 2
    _assert_no_child_left()


def test_a_worker_whose_caller_has_gone_ends():
    # A worker waiting on ask must not wait forever once its caller is
    # gone, as when a killed `flowseg train` leaves its worker behind.
    worker = pl._Worker(lambda ask: ask("rows"))
    try:
        assert worker.reply() == "rows"
        worker._orders.close()
        ready, _, _ = select.select([worker._replies], [], [], 30)
        assert ready, "the worker still waits for its caller"
        with pytest.raises(EOFError):
            worker.reply()
    finally:
        worker.stop()
    _assert_no_child_left()


def test_scoring_walks_no_tensor_list(monkeypatch):
    # predict asks each image's view for its frozen view; a view answers by
    # its class, without listing its tensors.
    walks = []
    real_params = pl.Model.params
    monkeypatch.setattr(pl.Model, "params",
                        lambda self: walks.append(1) or real_params(self))
    _cpus(monkeypatch, 1)
    model = pl.Model(_tiny_cfg())
    pl.evaluate(_toy_samples(5, 16, 16), model)
    pl.evaluate(_toy_samples(5, 16, 16), model.frozen())
    assert walks == []


def test_evaluate_rejects_a_mask_label_beyond_the_classes():
    samples = _toy_samples(3, 16, 16)
    samples[2].mask[0, 0] = 2
    with pytest.raises(ValueError, match="mask label 2 >= num_classes 2"):
        pl.evaluate(samples, pl.Model(_tiny_cfg()))


def test_posterior_mean_of_a_batch_equals_its_images_one_at_a_time():
    # evaluate streams one image at a time, so it relies on this.
    cfg = _tiny_cfg(num_classes=3, image_size=(16, 24))
    model = pl.Model(cfg)
    images = np.stack([s.image for s in _toy_samples(5, 16, 24, k=3)])[:, None]
    batch = pl.posterior_mean(images, model).data
    single = np.concatenate([pl.posterior_mean(images[i:i + 1], model).data
                             for i in range(5)])
    assert batch.shape == (5, 3, 16, 24)
    assert batch.tobytes() == single.tobytes()


@pytest.mark.parametrize("version", ["ver1", "ver5"])
def test_evaluation_runs_no_training_only_code(version, monkeypatch):
    model = pl.Model(pl.config_for_version(_tiny_cfg(), version))

    def forbidden(*args, **kwargs):
        raise AssertionError("training-only code ran during evaluation")

    class ForbiddenEncoder(pl.ResEncoder):
        # Swapping the class keeps the parameters listed, so the guard
        # survives the copy that Model.frozen makes.
        __call__ = forbidden

    class ForbiddenConv(pl.Conv):
        __call__ = tanh = forbidden

    # Nothing at inference reads a log-variance head.
    heads = [model.shape_enc.head_lv, model.seg.head_lv]
    if version == "ver1":
        assert model.appearance is None
    else:
        heads.append(model.appearance.head_lv)
        monkeypatch.setattr(model.appearance, "__class__", ForbiddenEncoder)
    for head in heads:
        monkeypatch.setattr(head, "__class__", ForbiddenConv)
    for name in ("refresh_state", "kl_terms", "grad_sqnorm",
                 "gaussian_kl_closed"):
        monkeypatch.setattr(pl, name, forbidden)
    samples = _toy_samples(5, 16, 16)
    assert 0.0 <= pl.evaluate(samples, model) <= 1.0
    labels, _ = pl.predict(samples[0], model)
    assert labels.shape == (16, 16)


def test_posterior_mean_records_no_tape():
    model = pl.Model(_tiny_cfg())
    assert all(p.requires_grad for p in model.params())
    images, _ = pl.batch_tensors(_toy_samples(2, 16, 16), 2)
    probs = pl.posterior_mean(images, model)
    assert not probs.requires_grad
    assert probs._node is None and probs._backward is None and dc.trace(probs) == []
    assert all(p.requires_grad for p in model.params())


def _tensors(obj) -> list:
    """Every tensor reachable from obj through attributes, lists and tuples."""
    if isinstance(obj, dc.Tensor):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [t for item in obj for t in _tensors(item)]
    if hasattr(obj, "__dict__"):
        return [t for value in vars(obj).values() for t in _tensors(value)]
    return []


def test_frozen_view_shares_every_buffer():
    model = pl.Model(_tiny_cfg())
    view = model.frozen()
    assert view.cfg == model.cfg
    named, view_named = model.named_params(), view.named_params()
    assert [n for n, _ in view_named] == [n for n, _ in named]
    assert all(p.requires_grad for _, p in named)
    # Beyond the parameters, the view reaches the flow's MADE masks.
    source, copied = _tensors(model), _tensors(view)
    assert len(copied) == len(source) > len(named)
    for p, q in zip(source, copied):
        assert q is not p
        assert np.shares_memory(p.data, q.data)
        assert not q.data.flags.writeable and not q.requires_grad


def test_a_frozen_view_is_its_own_view():
    view = pl.Model(_tiny_cfg()).frozen()
    assert view.frozen() is view


def test_evaluate_copies_the_model_at_most_once(monkeypatch):
    copies = []

    def deepcopy(obj):
        copies.append(type(obj))
        return copy.deepcopy(obj)

    monkeypatch.setattr(pl, "copy", SimpleNamespace(deepcopy=deepcopy))
    model = pl.Model(_tiny_cfg(batch_size=2))
    pl.evaluate(_toy_samples(5, 16, 16), model)
    assert copies == [pl.Model]
    pl.evaluate(_toy_samples(5, 16, 16), model.frozen())
    assert copies == [pl.Model] * 2


class _GradRecorder(pl.Adam):
    """Adam that keeps a copy of every gradient it steps with."""

    def step(self):
        self.grads = {name: None if p.grad is None else p.grad.copy()
                      for name, p in self.named}
        super().step()


@pytest.mark.parametrize("version", ["ver1", "ver5"])
def test_evaluate_leaves_training_gradients_unchanged(version):
    samples = _toy_samples(4, 16, 16)
    grads = []
    for run_evaluate in (False, True):
        model = pl.Model(pl.config_for_version(_tiny_cfg(), version))
        if run_evaluate:
            pl.evaluate(samples, model)
        opt = _GradRecorder(model.named_params(), 0.01)
        pl.train_step(samples, model, opt, np.random.default_rng(0))
        grads.append(opt.grads)
    plain, after_eval = grads
    assert plain.keys() == after_eval.keys()
    for name, g in plain.items():
        if g is None:
            assert after_eval[name] is None, name
        else:
            np.testing.assert_array_equal(after_eval[name], g, err_msg=name)
    if version == "ver5":
        assert all(g is not None for g in after_eval.values())


def test_posterior_mean_peak_memory_guard():
    # One call at B=8, 64x64 and the default config peaked at 132 MiB of
    # traced allocations while it recorded a tape, and at 22 MiB without.
    model = pl.Model(pl.ModelConfig())
    images = np.random.default_rng(0).standard_normal((8, 1, 64, 64))
    tracemalloc.start()
    try:
        pl.posterior_mean(images, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_evaluate_peak_memory_is_about_one_image(monkeypatch):
    # Scoring 16 images one at a time on one frozen view peaks at about one
    # image's activations: 3.08 against 2.95 MiB of traced allocations.  A
    # chunk of batch_size (8) images at once peaks at 20.8 MiB.  tracemalloc
    # sees only this process, so evaluate runs on one CPU here: with forked
    # workers it would measure only the caller's share of the images.
    _cpus(monkeypatch, 1)
    model = pl.Model(pl.ModelConfig())
    samples = _toy_samples(16, 64, 64)
    peaks = []
    for run in (lambda: pl.posterior_mean(samples[0].image[None, None], model),
                lambda: pl.evaluate(samples, model)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    single, streamed = peaks
    assert streamed < 1.25 * single, (
        f"evaluate {streamed / 2**20:.2f} MiB, one image {single / 2**20:.2f} MiB")


def test_tape_size_does_not_grow_with_sde_steps(monkeypatch):
    # Each OU path is one node, however many Euler-Maruyama steps it takes,
    # and its closure keeps one array.
    roots = []
    real_backward = pl.backward
    monkeypatch.setattr(pl, "backward",
                        lambda loss: roots.append(loss) or real_backward(loss))
    samples = _toy_samples(2, 16, 16)
    op_nodes = []
    for n_steps in (1, 8):
        cfg = _tiny_cfg(sde_steps=n_steps, batch_size=2)
        model = pl.Model(cfg)
        opt = pl.Adam(model.named_params(), cfg.learning_rate)
        roots.clear()
        pl.train_step(samples, model, opt, np.random.default_rng(0))
        nodes = dc.trace(roots[0])  # the first item's tape
        op_nodes.append(sum(n.backward is not None for n in nodes))
        kept = [sum(isinstance(c.cell_contents, np.ndarray) for c in n.backward.__closure__)
                for n in nodes
                if n.backward is not None and n.backward.__module__ == "flowseg.sde"]
        assert kept and set(kept) == {1}, kept
    assert op_nodes[0] == op_nodes[1], op_nodes


def test_no_conv_output_stays_on_a_training_tape(monkeypatch):
    # bias_act absorbs each conv node and no closure reads a conv output, so
    # each is freed once its block returns, while the whole tape is alive
    outputs = _conv_outputs(monkeypatch)
    alive, real_backward = [], pl.backward

    def backward(loss):
        alive.append([i for i, r in enumerate(outputs) if r() is not None])
        real_backward(loss)
    monkeypatch.setattr(pl, "backward", backward)
    _cpus(monkeypatch, 1)
    model = pl.Model(pl.config_for_version(_tiny_cfg(batch_size=2), "ver5"))
    pl.train_step(_toy_samples(2, 16, 16), model, pl.Adam(model.named_params(), 0.1),
                  np.random.default_rng(0))
    # per item, two encoders of seven convs and a U-Net of twelve; a backward
    # walk for each item's tape, then one for the flow KL's
    assert len(outputs) == 2 * 26
    assert alive == [[]] * 3


def test_a_training_tape_keeps_only_what_backward_reads(monkeypatch):
    # One ver5 tape at B=8, 64x64 and the default config held 103.6 MB of
    # distinct buffers while each node kept its parents' values alive, and
    # 64.0 MB of the values its closures read (and the few the step still
    # held when it called backward).  Each item now has a tape of its own,
    # which holds 8.2 MB, an eighth of that plus the parameters.
    nbytes, real_backward = [], pl.backward

    def backward(loss):
        nbytes.append(dc.tape_nbytes(loss))
        real_backward(loss)
    monkeypatch.setattr(pl, "backward", backward)
    _cpus(monkeypatch, 1)
    model = pl.Model(pl.ModelConfig())
    pl.train_step(_toy_samples(8, 64, 64), model, pl.Adam(model.named_params(), 0.1),
                  np.random.default_rng(0))
    assert len(nbytes) == 9, nbytes  # eight items, then the flow KL
    assert all(57e6 / 8 < n < 71e6 / 8 for n in nbytes[:8]), nbytes


def _step_peak(monkeypatch, cpus):
    """tracemalloc's peak over one default-config ver5 step at B=8, 64x64
    with ``cpus`` usable CPUs.  tracemalloc sees only this process, so with
    workers it measures the caller's share of the items."""
    _cpus(monkeypatch, cpus)
    cfg = pl.ModelConfig()
    samples = _toy_samples(8, 64, 64)
    model = pl.Model(cfg)
    opt = pl.Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    tracemalloc.start()
    try:
        pl.train_step(samples, model, opt, np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_step_peak_memory_guard(monkeypatch):
    # One ver5 step at B=8, 64x64 and the default config peaked at 303 MiB of
    # traced allocations while each OU step kept five nodes and each conv
    # closure a padded input, at 214 MiB while each bias add before a tanh
    # kept its sum, at 173 MiB while each conv output stayed on the tape for
    # its bias add to name, at 121.5 MiB while each node kept its parents'
    # values, at 85.5 MiB while each OU path's closure kept its Wiener
    # increments, at 78.5 MiB while it kept their Horner sum alone, and at
    # 71.0 MiB since each item has a tape of its own.  One CPU, so that this
    # process holds every item's tape.
    peak = _step_peak(monkeypatch, 1)
    assert peak < 87 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_a_step_on_two_cpus_holds_half_the_tapes_here(monkeypatch):
    # The caller keeps only its own chunk's tapes: 37.3 against 71.0 MiB.
    single, split = _step_peak(monkeypatch, 1), _step_peak(monkeypatch, 2)
    assert split < 0.6 * single, f"{split / 2**20:.1f} of {single / 2**20:.1f} MiB"
    _assert_no_child_left()


# -- checkpoints -------------------------------------------------------------------------


def test_checkpoint_load_holds_one_copy_of_the_file(tmp_path):
    # The sections are read-only views of the file's bytes: assign copies
    # each parameter, and the loaded Adam keeps its moments as views.  A
    # fresh Adam's moments are broadcast zeros that hold no memory.  Copying
    # every section on load as well peaked at about 2.5 times the file.
    model = pl.Model(pl.ModelConfig())
    path = tmp_path / "full.dbfc"
    pl.checkpoint_save(model, path, opt=pl.Adam(model.named_params(), 1e-3), epoch=1)
    tracemalloc.start()
    try:
        pl.checkpoint_load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 2 * size, f"peak {peak} bytes for a file of {size}"


def test_checkpoint_round_trip_byte_identical(tmp_path):
    cfg = _tiny_cfg()
    model = pl.Model(cfg)
    opt = pl.Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    pl.train_step(_toy_samples(4, 16, 16), model, opt, np.random.default_rng(0))
    p1 = tmp_path / "a.dbfc"
    p2 = tmp_path / "b.dbfc"
    pl.checkpoint_save(model, p1, opt=opt, epoch=7)
    model2, opt2, epoch = pl.checkpoint_load(p1)
    assert epoch == 7
    assert opt2.t == opt.t
    assert model2.cfg == model.cfg
    assert model2.cfg.hp == model.cfg.hp
    for (na, pa), (nb, pb) in zip(model.named_params(), model2.named_params()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    # The loaded Adam steps the loaded model's own tensors.
    assert [(n, id(p)) for n, p in opt2.named] == \
        [(n, id(p)) for n, p in model2.named_params()]
    # Its moments are read-only views of the file, not copies.
    with pytest.raises(ValueError, match="read-only"):
        opt2.m["seg.enc0a.w"][...] = 0.0
    pl.checkpoint_save(model2, p2, opt=opt2, epoch=7)
    assert p1.read_bytes() == p2.read_bytes()
    # One more step of each pair, from equal streams, lands on the same bits.
    for m, o in ((model, opt), (model2, opt2)):
        pl.train_step(_toy_samples(4, 16, 16, seed=1), m, o, np.random.default_rng(1))
    assert opt2.t == opt.t == 2
    for (name, pa), (_, pb) in zip(model.named_params(), model2.named_params()):
        assert np.array_equal(pa.data, pb.data), name
        assert np.array_equal(opt.m[name], opt2.m[name]), name
        assert np.array_equal(opt.v[name], opt2.v[name]), name
    pl.checkpoint_save(model, p1, opt=opt, epoch=8)
    pl.checkpoint_save(model2, p2, opt=opt2, epoch=8)
    assert p1.read_bytes() == p2.read_bytes()


# Each id keeps its "-opt" suffix, so the cases keep their names.
@pytest.mark.parametrize("version", sorted(pl.VERSION_TOGGLES),
                         ids=lambda version: f"{version}-opt")
def test_checkpoint_save_load_save_is_byte_identical(tmp_path, version):
    # Every variant's section list reads back into a model and optimizer
    # that write the same bytes again.
    model = pl.Model(pl.config_for_version(_tiny_cfg(), version))
    opt = pl.Adam(model.named_params(), lr=0.1)
    opt.t = 3
    rng = np.random.default_rng(5)
    for name, p in model.named_params():
        opt.m[name] = rng.normal(size=p.shape)
        opt.v[name] = rng.random(p.shape)
    first, second = tmp_path / "a.dbfc", tmp_path / "b.dbfc"
    pl.checkpoint_save(model, first, opt=opt, epoch=5)
    loaded, reopt, epoch = pl.checkpoint_load(first)
    assert epoch == 5 and reopt.t == 3
    pl.checkpoint_save(loaded, second, opt=reopt, epoch=epoch)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_preserves_custom_hyperpriors(tmp_path):
    hp = Hyperpriors(phi_rho=1e-3, gamma_omega=5.0)
    model = pl.Model(replace(_tiny_cfg(), hp=hp))
    path = tmp_path / "hp.dbfc"
    pl.checkpoint_save(model, path, opt=pl.Adam(model.named_params(), 1e-3), epoch=0)
    model2, _, _ = pl.checkpoint_load(path)
    assert model2.cfg.hp == hp


def test_checkpoint_rejects_corruption(tmp_path):
    model = pl.Model(_tiny_cfg())
    path = tmp_path / "c.dbfc"
    pl.checkpoint_save(model, path, opt=pl.Adam(model.named_params(), 1e-3), epoch=0)
    raw = path.read_bytes()

    bad = tmp_path / "bad.dbfc"
    bad.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(fd.FormatError, match="checksum|truncated"):
        pl.checkpoint_load(bad)

    flipped = bytearray(raw)
    flipped[30] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(fd.FormatError, match="checksum"):
        pl.checkpoint_load(bad)

    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(fd.FormatError, match="DBFC"):
        pl.checkpoint_load(bad)

    import struct
    import zlib
    versioned = bytearray(raw[:-4])
    struct.pack_into("<H", versioned, 4, 99)
    versioned += struct.pack("<I", zlib.crc32(bytes(versioned)))
    bad.write_bytes(bytes(versioned))
    with pytest.raises(fd.FormatError, match="version.*99"):
        pl.checkpoint_load(bad)

    bad.write_bytes(b"")
    with pytest.raises(fd.FormatError, match="too short"):
        pl.checkpoint_load(bad)


def test_resume_reproduces_trajectory(tmp_path):
    # Interrupt a 4-epoch run after its second epoch by snapshotting the
    # rolling checkpoint, then resume; the tail must match the unbroken run.
    import shutil

    samples = _toy_samples(8, 16, 16, seed=4)
    val = samples[:4]
    cfg = _tiny_cfg(epochs=4)
    run = tmp_path / "run"
    snap = tmp_path / "snap.dbfc"

    def grab(row):
        if row["epoch"] == 1:
            shutil.copy(run / "ckpt-last.dbfc", snap)

    _, straight = pl.fit(samples, val, cfg, out_dir=run, progress=grab)
    _, resumed = pl.fit(samples, val, cfg, resume=pl.checkpoint_load(snap))

    assert [r["epoch"] for r in resumed] == [2, 3]
    for row_r, row_s in zip(resumed, straight[2:]):
        for key in row_s:
            assert row_r[key] == pytest.approx(row_s[key], rel=1e-10), key


@pytest.mark.parametrize("epochs", [1, 2])
def test_fit_resume_with_nothing_left_to_train(tmp_path, epochs):
    # The checkpoint has trained two epochs, so epochs <= 2 would train none.
    cfg = _tiny_cfg(epochs=epochs)
    snap = tmp_path / "snap.dbfc"
    model = pl.Model(cfg)
    pl.checkpoint_save(model, snap, opt=pl.Adam(model.named_params(), 1e-3), epoch=2)
    samples = _toy_samples(4, 16, 16)
    with pytest.raises(ValueError,
                       match=f"epochs = {epochs} .*already trained 2 epochs"):
        pl.fit(samples, samples, cfg, resume=pl.checkpoint_load(snap))
