"""End-to-end segmentation pipeline.

The shape encoder's latent, and with NCVI the appearance encoder's latent
that only the NCVI terms read, are sampled through the OU diffusion with a
Girsanov weight (or by Gaussian reparameterization when that is off).  The
shape latent drives a small U-shaped segmentation net whose logits the flow
refines and Gumbel-Softmax discretizes during training.  ``training_loss``,
the objective, adds closed-form KL penalties and the flow KL to Dice + CE.
Every pass (``forward``, ``posterior_mean``) takes one (H, W) image.  Each
item of a batch runs its own ``forward`` on its own stream, so its loss and
gradient depend on the parameters and that item alone, and ``train_step``
spreads the items over the usable CPUs as ``evaluate`` spreads its images.
Evaluation (``posterior_mean``) takes every latent at its mean, so it runs
only the shape stream and the U-Net and returns softmax(mu_z); it runs on a
frozen view of the model (``Model.frozen``) and records no tape.
"""

import copy
import math
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .container import (CHECKPOINT_MAGIC, FormatError, Reader, Writer,
                        atomic_write, unseal)
from .data import Sample, dice_score
from .diffcore import (NonFiniteError, ShapeError, Tensor, _accumulate, backward,
                       bias_act, concat, conv2d, zero_grad)
from .flows import FlowStack, flow_push
from .ncvi import (Hyperpriors, gaussian_kl_closed, kl_terms, mc_kl,
                   refresh_state)
from .sde import OuParams, sde_girsanov_sample_field
from .spatial import dice_ce_loss_per_item, grad_sqnorm, gumbel_softmax

# The three component toggles, and their rows for the five named variants.
TOGGLES = ("nf_posterior", "ncvi", "sde_girsanov")
VERSION_TOGGLES = {
    "ver1": (False, False, False),
    "ver2": (False, True, True),
    "ver3": (True, False, True),
    "ver4": (True, True, False),
    "ver5": (True, True, True),
}

# An item's log RN weight is the per-element mean of its path's log weight:
# the path weight tempered by 1/n, n the latent elements per item.  The
# summed weight is degenerate (its exponentials collapse onto one batch
# item).  The clamp is a guard only: at defaults it never binds, and the
# Kish ESS of a batch of 8 reads 7.98-8.00, before and after training.
RN_LOG_CLAMP = 5.0


# The least value each integer field of ModelConfig may take.
_INT_FLOORS = {"num_classes": 2, "channels": 1, "flow_layers": 0,
               "flow_hidden": 1, "flow_kl_samples": 1, "sde_steps": 1,
               "epochs": 1, "batch_size": 1, "seed": 0}

# Each float key's range beyond being finite, as (test, description).  A key
# not listed is a hyperprior: a Gamma shape or rate, a Beta parameter or a
# prior precision, so it must be positive.
_POSITIVE = (lambda v: v > 0.0, "positive")
_NONNEGATIVE = (lambda v: v >= 0.0, ">= 0")
_FLOAT_RANGES = {"sde_horizon": _POSITIVE, "tau": _POSITIVE,
                 "learning_rate": _POSITIVE, "lambda_bayes": _NONNEGATIVE,
                 "weight_decay": _NONNEGATIVE,
                 "early_stop_dice": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")}


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int = 2
    image_size: tuple[int, int] = (64, 64)
    nf_posterior: bool = True
    ncvi: bool = True
    sde_girsanov: bool = True
    channels: int = 8
    flow_layers: int = 2
    flow_hidden: int = 16
    flow_kl_samples: int = 128
    sde_steps: int = 8
    sde_horizon: float = 1.0
    tau: float = 1.0
    lambda_bayes: float = 100.0
    learning_rate: float = 3e-4
    weight_decay: float = 1e-4
    epochs: int = 30
    batch_size: int = 8
    seed: int = 42
    early_stop_dice: float = 0.0
    hp: Hyperpriors = Hyperpriors()

    def __post_init__(self):
        for key, value in config_items(self).items():
            if key in _INT_FLOORS:
                if value < _INT_FLOORS[key]:
                    raise ValueError(
                        f"{key} must be >= {_INT_FLOORS[key]}, got {value}")
            elif not isinstance(value, (bool, tuple)):
                in_range, want = _FLOAT_RANGES.get(key, _POSITIVE)
                if not (math.isfinite(value) and in_range(value)):
                    raise ValueError(
                        f"{key} must be finite and {want}, got {value}")
        h, w = self.image_size
        if min(h, w) < 4 or h % 4 != 0 or w % 4 != 0:
            raise ValueError(f"image_size sides must be >= 4 and divisible by 4 "
                             f"(two pooling levels), got {(h, w)}")


def config_for_version(cfg: ModelConfig, version: str) -> ModelConfig:
    """The same config with toggles set to one of the five named variants."""
    if version not in VERSION_TOGGLES:
        raise ValueError(
            f"unknown version {version!r}; expected one of {sorted(VERSION_TOGGLES)}")
    return replace(cfg, **dict(zip(TOGGLES, VERSION_TOGGLES[version])))


def resumed_config(cfg: ModelConfig, epoch: int, epochs: int) -> ModelConfig:
    """What a run resumed from a checkpoint at ``epoch`` trains with: the
    checkpoint's ``cfg``, which fixes the trajectory (seed, sizes, rates),
    with the caller's run length, which must leave an epoch to train."""
    if epochs <= epoch:
        raise ValueError(
            f"epochs = {epochs} but the checkpoint has already trained {epoch} "
            "epochs; nothing is left to train")
    return replace(cfg, epochs=epochs)


def config_items(cfg: ModelConfig) -> dict:
    """Every config field by key; the fields of ``cfg.hp`` take an ``hp.`` prefix."""
    items = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "hp"}
    items.update({f"hp.{f.name}": getattr(cfg.hp, f.name) for f in fields(cfg.hp)})
    return items


def config_from_items(items: dict) -> ModelConfig:
    """The inverse of ``config_items``; keys it does not produce are ignored."""
    hp = Hyperpriors(**{f.name: items[f"hp.{f.name}"] for f in fields(Hyperpriors)})
    return ModelConfig(hp=hp, **{f.name: items[f.name] for f in fields(ModelConfig)
                                 if f.name != "hp"})


def format_value(value) -> str:
    """The text form of one config value; ``parse_value`` reads it back."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return f"{value[0]}x{value[1]}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_value(default, raw: str):
    """Parse ``raw`` as the type of ``default``; raises ``ValueError``."""
    raw = raw.strip()
    if isinstance(default, bool):
        if raw not in ("true", "false"):
            raise ValueError(f"expected true/false, got {raw!r}")
        return raw == "true"
    if isinstance(default, tuple):
        h, _, w = raw.partition("x")
        return (int(h), int(w))
    return type(default)(raw)


def config_text(items: dict) -> str:
    """One ``key = value`` line per key, in sorted key order."""
    return "".join(f"{key} = {format_value(items[key])}\n" for key in sorted(items))


# -- parameterized blocks --------------------------------------------------------

def _bounded_log_var(t: Tensor) -> Tensor:
    # Smooth clamp of the log-variance head to (-10, 10).
    return (t * 0.1).tanh() * 10.0


class Conv:
    """3x3 same-padding convolution with bias."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator,
                 scale: float = 1.0):
        std = scale / math.sqrt(in_ch * 9)
        self.w = Tensor(rng.normal(0.0, std, (out_ch, in_ch, 3, 3)),
                        requires_grad=True)
        self.b = Tensor(np.zeros(out_ch), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return bias_act(conv2d(x, self.w), self.b)

    def tanh(self, x: Tensor, skip: Tensor | None = None) -> Tensor:
        """tanh(skip + self(x)) as one tape node, keeping neither conv nor sum."""
        return bias_act(conv2d(x, self.w), self.b, tanh=True, skip=skip)


def avg_pool2(x: Tensor) -> Tensor:
    b, c, h, w = x.shape
    if h % 2 != 0 or w % 2 != 0:
        raise ShapeError(f"avg_pool2 needs even spatial dims, got {(h, w)}")
    return x.reshape((b, c, h // 2, 2, w // 2, 2)).mean(axis=(3, 5))


def upsample2(x: Tensor) -> Tensor:
    b, c, h, w = x.shape
    return (x.reshape((b, c, h, 1, w, 1))
            .broadcast((b, c, h, 2, w, 2))
            .reshape((b, c, 2 * h, 2 * w)))


class ResEncoder:
    """Full-resolution encoder: stem, two residual blocks, mean/log-var heads."""

    def __init__(self, in_ch: int, ch: int, out_ch: int, rng: np.random.Generator):
        self.stem = Conv(in_ch, ch, rng)
        self.blocks = [(Conv(ch, ch, rng), Conv(ch, ch, rng)) for _ in range(2)]
        self.head_mu = Conv(ch, out_ch, rng, scale=0.1)
        self.head_lv = Conv(ch, out_ch, rng, scale=0.1)

    def trunk(self, x: Tensor) -> Tensor:
        h = self.stem.tanh(x)
        for c1, c2 in self.blocks:
            h = c2.tanh(c1.tanh(h), skip=h)
        return h

    def __call__(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h = self.trunk(x)
        return self.head_mu(h), _bounded_log_var(self.head_lv(h))


class UNet:
    """3-level U-shaped net with skip connections and per-class heads."""

    def __init__(self, in_ch: int, ch: int, out_ch: int, rng: np.random.Generator):
        self.enc0a = Conv(in_ch, ch, rng)
        self.enc0b = Conv(ch, ch, rng)
        self.enc1a = Conv(ch, 2 * ch, rng)
        self.enc1b = Conv(2 * ch, 2 * ch, rng)
        self.enc2a = Conv(2 * ch, 4 * ch, rng)
        self.enc2b = Conv(4 * ch, 4 * ch, rng)
        self.dec1a = Conv(6 * ch, 2 * ch, rng)
        self.dec1b = Conv(2 * ch, 2 * ch, rng)
        self.dec0a = Conv(3 * ch, ch, rng)
        self.dec0b = Conv(ch, ch, rng)
        self.head_mu = Conv(ch, out_ch, rng, scale=0.1)
        self.head_lv = Conv(ch, out_ch, rng, scale=0.1)

    def trunk(self, x: Tensor) -> Tensor:
        f0 = self.enc0b.tanh(self.enc0a.tanh(x))
        f1 = self.enc1b.tanh(self.enc1a.tanh(avg_pool2(f0)))
        f2 = self.enc2b.tanh(self.enc2a.tanh(avg_pool2(f1)))
        h = concat([upsample2(f2), f1], axis=1)
        h = self.dec1b.tanh(self.dec1a.tanh(h))
        h = concat([upsample2(h), f0], axis=1)
        return self.dec0b.tanh(self.dec0a.tanh(h))

    def __call__(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h = self.trunk(x)
        return self.head_mu(h), _bounded_log_var(self.head_lv(h))


class Model:
    """All trainable state plus the config that shaped it."""

    def __init__(self, cfg: ModelConfig):
        rng = np.random.default_rng(cfg.seed)
        self.cfg = cfg
        # Drawn in every variant, so that later modules start from the same
        # weights whatever the toggles, and kept only for NCVI, its one reader.
        appearance = ResEncoder(1, cfg.channels, 1, rng)
        self.appearance = appearance if cfg.ncvi else None
        self.shape_enc = ResEncoder(1, cfg.channels, 1, rng)
        self.seg = UNet(3, cfg.channels, cfg.num_classes, rng)
        self.flow = (FlowStack.create(cfg.num_classes, n_maf=cfg.flow_layers,
                                      hidden=cfg.flow_hidden, rng=rng)
                     if cfg.nf_posterior else None)

    def named_params(self) -> list[tuple[str, Tensor]]:
        """(path, tensor) for every tensor reachable through public
        attributes, lists and tuples, in definition order.  A path joins the
        names and indices with ``.``, as in ``appearance.blocks.0.1.b``.  An
        attribute named ``_...`` holds a constant (the MADE masks) and is
        not walked."""
        return _named_tensors(self, "")

    def params(self) -> list[Tensor]:
        return [p for _, p in self.named_params()]

    def frozen(self) -> "Model":
        """The same model with every tensor replaced by its ``detach()``.

        A deep copy of a tensor shares its frozen value buffer, so the view
        copies no tensor.  None of its tensors requires grad, so an op on it
        records no tape and keeps no backward closure.  A view is its own,
        known by its class, so asking again walks no tensor."""
        if isinstance(self, _View):
            return self
        view = copy.deepcopy(self)
        view.__class__ = _View
        return view


class _View(Model):
    """What ``Model.frozen`` returns."""


def _named_tensors(obj, path: str) -> list[tuple[str, Tensor]]:
    if isinstance(obj, Tensor):
        return [(path.lstrip("."), obj)]
    if isinstance(obj, (list, tuple)):
        children = enumerate(obj)
    else:
        attrs = getattr(obj, "__dict__", {})
        children = ((name, attrs[name]) for name in attrs if not name.startswith("_"))
    return [item for key, value in children
            for item in _named_tensors(value, f"{path}.{key}")]


# -- forward pass ----------------------------------------------------------------

@dataclass
class PipelineOutputs:
    y_hat: Tensor
    kls: dict[str, Tensor]  # the KL penalties by name, in loss order
    log_rn_weight: float


@contextmanager
def _phase(name: str):
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"[phase: {name}] {exc}") from exc


def _sample_latent(mu: Tensor, sigma: Tensor, cfg: ModelConfig,
                   rng: np.random.Generator) -> tuple[Tensor, float]:
    """Draw one image's latent field; returns (sample, its mean log RN weight).

    The reparameterized draw has no path measure to reweight, so its log
    weight is zero.
    """
    if cfg.sde_girsanov:
        params = OuParams(mu=mu, sigma=sigma, horizon=cfg.sde_horizon,
                          n_steps=cfg.sde_steps)
        z, weight_field = sde_girsanov_sample_field(params, rng)
        return z, float(weight_field.mean())
    eps = rng.standard_normal(mu.shape)
    return mu + sigma * Tensor(eps), 0.0


def _as_image(image, cfg: ModelConfig) -> Tensor:
    """One (H, W) image of the trained size, an array or a ``Tensor``, as the
    (1, 1, H, W) tensor that the convolutions take."""
    t = image if isinstance(image, Tensor) else Tensor(image)
    if t.shape != tuple(cfg.image_size):
        raise ShapeError(f"image shape {t.shape} does not match the trained size "
                         f"{tuple(cfg.image_size)}")
    return t.reshape((1, 1) + t.shape)


def posterior_mean(image, model: Model) -> Tensor:
    """Deterministic (K, H, W) class probabilities softmax(mu_z) of one
    image's all-means path.

    With every latent at its mean the appearance latent and the noise model
    do not reach the prediction, so only the shape encoder and the U-Net
    run, up to their mean heads, on ``model.frozen()``: the call records no
    tape, and each intermediate is freed as soon as it is consumed.
    """
    model = model.frozen()
    image = _as_image(image, model.cfg)
    with _phase("shape encoding"):
        mu_x = model.shape_enc.head_mu(model.shape_enc.trunk(image))
    with _phase("segmentation latent"):
        mu_z = model.seg.head_mu(model.seg.trunk(concat([mu_x] * 3, axis=1)))
    with _phase("prediction"):
        return mu_z.softmax(axis=1).reshape(mu_z.shape[1:])


def forward(image, model: Model, mode: str = "train",
            rng: np.random.Generator | None = None) -> PipelineOutputs:
    """One training pass of the eight-phase inference procedure on one
    (H, W) image.

    Samples every latent, relaxes the prediction with Gumbel-Softmax into a
    (1, K, H, W) ``y_hat`` and computes the KL penalties.  ``mode`` must be
    ``"train"``; the deterministic evaluation path is ``posterior_mean``.
    """
    if mode != "train":
        raise ValueError(f"mode must be 'train', got {mode!r}; "
                         "evaluation uses posterior_mean")
    if rng is None:
        raise ValueError("train mode requires an rng")
    cfg = model.cfg
    image = _as_image(image, cfg)
    k = cfg.num_classes

    log_w = 0.0
    if cfg.ncvi:
        with _phase("appearance encoding"):
            mu_m, lv_m = model.appearance(image)
            sigma_m = (lv_m * 0.5).exp()
            m, log_w = _sample_latent(mu_m, sigma_m, cfg, rng)

    with _phase("shape encoding"):
        mu_x, lv_x = model.shape_enc(image)
        sigma_x = (lv_x * 0.5).exp()
        x, w = _sample_latent(mu_x, sigma_x, cfg, rng)
        log_w = log_w + w

    with _phase("segmentation latent"):
        x_tiled = concat([x, x, x], axis=1)
        mu_z, lv_z = model.seg(x_tiled)
        sigma_z = (lv_z * 0.5).exp()
        z, w = _sample_latent(mu_z, sigma_z, cfg, rng)
        log_w = log_w + w

    with _phase("prediction"):
        logits = z
        if cfg.nf_posterior:
            h, wd = cfg.image_size
            rows = z.transpose((0, 2, 3, 1)).reshape((h * wd, k))
            refined, _ = flow_push(model.flow, rows)
            logits = refined.reshape((1, h, wd, k)).transpose((0, 3, 1, 2))
        y_hat = gumbel_softmax(logits, cfg.tau, rng)

    with _phase("variational updates"):
        if cfg.ncvi:
            # The noise precision enters only through the KL penalty on the
            # observation residual r.  The closed-form updates read mu_z as a
            # class-responsibility field, so the logits pass a softmax first.
            r = image - (x + m)
            resp = mu_z.softmax(axis=1)
            gsq_x = grad_sqnorm(mu_x)
            gsq_z = grad_sqnorm(mu_z)
            state = refresh_state(r.data, resp.data, gsq_x.data, gsq_z.data,
                                  sigma_x.data, sigma_z.data, cfg.hp)
            kls = kl_terms(state, r, gsq_x, gsq_z, sigma_x, sigma_z, resp,
                           mu_m, sigma_m, cfg.hp)
        else:
            # Plain-Gaussian baseline: the segmentation posterior is the
            # only latent with a prior penalty.  Penalizing the encoder
            # fields too at this loss weight drove their signal-to-noise to
            # zero, and the model degenerated into an unconditional shape
            # prior.
            kls = (Tensor(0.0), gaussian_kl_closed(mu_z, lv_z), Tensor(0.0),
                   Tensor(0.0))

    kls = dict(zip(("kl_y", "kl_z", "kl_x", "kl_m"), kls))
    return PipelineOutputs(y_hat, kls, log_w)


# -- optimizer ---------------------------------------------------------------------

class Adam:
    """Adam with L2 weight decay folded into the gradient.  A fresh moment is a
    read-only broadcast zero; ``step`` replaces each moment, never writes into it."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float,
                 weight_decay: float = 0.0):
        self.named = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.broadcast_to(0.0, p.shape) for name, p in self.named}
        self.v = dict(self.m)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.named:
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            update = (self.m[name] / bc1) / (np.sqrt(self.v[name] / bc2) + self.eps)
            p.assign(p.data - self.lr * update)


# -- training -----------------------------------------------------------------------

def _check_labels(samples: list[Sample], k: int) -> None:
    top = max(s.mask.max(initial=0) for s in samples)
    if top >= k:
        raise ValueError(f"mask label {top} >= num_classes {k}")


def rn_weights(log_weights: list[float]) -> np.ndarray:
    """Clamped, batch-self-normalized importance weights (mean exactly 1)."""
    w = np.exp(np.clip(np.asarray(log_weights, dtype=float),
                       -RN_LOG_CLAMP, RN_LOG_CLAMP))
    return w / w.mean()


@contextmanager
def _terms_so_far(terms: dict[str, float]):
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(
            f"{exc}; terms so far: "
            + ", ".join(f"{k}={v:.6g}" for k, v in terms.items())) from exc


def _share(recon, kls: dict, weight: float, b: int, cfg: ModelConfig):
    """One item's share of the objective, (w/B)*recon + (lambda/n)*(sum of its
    KLs) with n = B*H*W, in floats or in tensors alike."""
    h, w = cfg.image_size
    kl = list(kls.values())
    return recon * (weight / b) + sum(kl[1:], kl[0]) * (cfg.lambda_bayes / (b * h * w))


def _shares(batch: list[Sample], model: Model, rngs: list, lo: int, hi: int,
            weigh) -> list[Tensor]:
    """The shares of items lo..hi-1.  Each item runs ``forward`` alone on its
    own stream ``rngs[i]`` and is scored against its (1, K, H, W) one-hot
    mask; ``weigh`` takes their (recon, KLs, log RN weight) values and
    returns the whole batch's RN weights."""
    classes = np.arange(model.cfg.num_classes).reshape((-1, 1, 1))
    parts = []
    for i in range(lo, hi):
        out = forward(batch[i].image, model, "train", rngs[i])
        target = Tensor((batch[i].mask == classes)[None])
        parts.append((dice_ce_loss_per_item(out.y_hat, target), out.kls,
                      out.log_rn_weight))
    weights = weigh([(recon.item(), {k: t.item() for k, t in kls.items()}, log_w)
                     for recon, kls, log_w in parts])
    return [_share(recon, kls, w, len(weights), model.cfg)
            for (recon, kls, _), w in zip(parts, weights[lo:hi])]


def _weigh(rows: list, flow_kl: Tensor | None, cfg: ModelConfig,
           terms: dict[str, float]) -> list[float]:
    """The batch's RN weights from every item's (recon, KLs, log weight); puts
    the loss terms, each summed in item order, in ``terms``."""
    weights = rn_weights([log_w for _, _, log_w in rows]).tolist()
    b = len(rows)
    terms["recon"] = sum(recon * (w / b) for (recon, _, _), w in zip(rows, weights))
    terms.update((key, sum(kls[key] for _, kls, _ in rows)) for key in rows[0][1])
    loss = sum(_share(recon, kls, w, b, cfg) for (recon, kls, _), w in zip(rows, weights))
    if flow_kl is not None:
        terms["flow_kl"] = flow_kl.item()
        loss += terms["flow_kl"] * cfg.lambda_bayes
    terms["loss"] = loss
    return weights


def _flow_kl(model: Model, rng: np.random.Generator) -> Tensor | None:
    """With NF and NCVI on, the flow's MC KL.  It is already a per-element
    quantity, so it enters at lambda_bayes, the scale of the field KLs over n."""
    cfg = model.cfg
    on = cfg.nf_posterior and cfg.ncvi
    return mc_kl(model.flow, cfg.flow_kl_samples, rng) if on else None


def training_loss(batch: list[Sample], model: Model,
                  rng: np.random.Generator) -> tuple[Tensor, dict[str, float]]:
    """The training objective and its terms by name: ``recon``, the sum over
    items of each one's Dice + CE loss times its RN weight over B; each KL
    penalty summed over the items; with NF and NCVI on, ``flow_kl``; and the
    total ``loss``, the items' ``_share``s plus lambda_bayes times the flow
    KL.  ``rng`` spawns B + 1 streams: item i draws from the i-th and the flow
    KL from the last, so an item's share depends only on the parameters and
    that item, and ``train_step`` can differentiate it item by item.  An
    item's image may be a ``Tensor``, so that the loss can be differentiated
    with respect to the input, as the finite-difference oracles do."""
    cfg = model.cfg
    _check_labels(batch, cfg.num_classes)
    rngs = rng.spawn(len(batch) + 1)
    terms: dict[str, float] = {}
    with _terms_so_far(terms):
        flow_kl = _flow_kl(model, rngs[-1])
        shares = _shares(batch, model, rngs, 0, len(batch),
                         lambda rows: _weigh(rows, flow_kl, cfg, terms))
        loss = sum(shares[1:], shares[0])
        if flow_kl is not None:
            loss = loss + flow_kl * cfg.lambda_bayes
    return loss, terms


def train_step(batch: list[Sample], model: Model, opt: Adam,
               rng: np.random.Generator) -> dict[str, float]:
    """One optimizer step on the gradient of ``training_loss``; returns its
    terms.  The items run in one contiguous chunk per usable CPU (see
    ``_workers``): a worker sends back its items' values, is sent the batch's
    RN weights and replies with each item's gradient, taken from zero.  Here
    the gradients are summed in item order and the flow KL's added last, so
    the step is the same to the bit on any number of CPUs.  A
    ``NonFiniteError`` names the terms so far."""
    cfg = model.cfg
    _check_labels(batch, cfg.num_classes)
    rngs = rng.spawn(len(batch) + 1)
    params = model.params()
    terms: dict[str, float] = {}

    def grads(lo, hi, weigh):
        out = []
        for share in _shares(batch, model, rngs, lo, hi, weigh):
            backward(share)
            out.append([p.grad for p in params])
            zero_grad(params)
        return out

    with _terms_so_far(terms), _workers(len(batch), grads) as (first, workers):
        def weigh(rows):
            for worker in workers:
                rows += worker.reply()
            weights = _weigh(rows, flow_kl, cfg, terms)
            for worker in workers:
                worker.send(weights)
            return weights

        flow_kl = _flow_kl(model, rngs[-1])
        summed = grads(0, first, weigh)
        for worker in workers:
            summed += worker.reply()
        for item in summed:
            for p, g in zip(params, item):
                if g is not None:
                    _accumulate(p._node, g)
        if flow_kl is not None and flow_kl.requires_grad:  # a flow with layers
            backward(flow_kl * cfg.lambda_bayes)
    opt.step()
    zero_grad(params)
    return terms


def predict(image, model: Model) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (H, W) labels and (K, H, W) per-class confidence for one
    image of the trained size, an array or a ``Sample``'s."""
    conf = posterior_mean(image.image if isinstance(image, Sample) else image,
                          model).data
    return conf.argmax(axis=0), conf


def _dice_scores(samples: list[Sample], view: Model) -> list[float]:
    k = view.cfg.num_classes
    return [float(np.mean([dice_score(predict(s, view)[0], s.mask, c)
                           for c in range(1, k)])) for s in samples]


class _Worker:
    """A forked process that runs ``task(ask)`` and replies with what it
    returns or raises.  ``ask(value)`` replies with value and returns what the
    caller next ``send``s.  The worker leaves only by ``os._exit``, never into
    its caller's frames, and Ctrl-C ends it at once (the caller raises it)."""

    def __init__(self, task):
        up, down = os.pipe(), os.pipe()  # (read end, write end) each
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in up + down:
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                # Holding no write end of its own orders pipe, the worker
                # reads end-of-file once its caller has gone.
                os.close(up[0])
                os.close(down[1])
                replies, orders = open(up[1], "wb"), open(down[0], "rb")

                def ask(value):
                    replies.write(pickle.dumps(value))
                    replies.flush()
                    return pickle.load(orders)
                try:
                    reply = task(ask)
                except BaseException as exc:
                    reply = exc
                replies.write(pickle.dumps(reply))
                replies.close()
                os._exit(0)
            finally:
                os._exit(1)
        os.close(up[1])
        os.close(down[0])
        self.status = None
        # Unbuffered: what the caller sends is small, one write on the pipe.
        self._replies, self._orders = open(up[0], "rb"), open(down[1], "wb", 0)

    def reply(self):
        """The next reply; raises what the worker raised, and a
        ``ChildProcessError`` if it ended without replying."""
        try:
            reply = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            self.stop()
            raise ChildProcessError(f"worker {self.pid} ended with status "
                                    f"{self.status} and no reply") from None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def send(self, value) -> None:
        try:
            self._orders.write(pickle.dumps(value))
        except BrokenPipeError:
            pass  # the worker has ended; its reply says how

    def stop(self) -> None:
        """Close the pipes, and kill and reap the worker unless reaped.  Its
        reply pipe closes as it exits, so a kill then keeps its status."""
        self._replies.close()
        self._orders.close()
        if self.status is None:
            os.kill(self.pid, signal.SIGKILL)
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform
    has one (not macOS), else every CPU; 1 where it cannot fork (Windows)."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextmanager
def _workers(n: int, task):
    """Split range(n) into one contiguous chunk per usable CPU and fork a
    ``_Worker`` running ``task(lo, hi, ask)`` on each chunk but the first;
    yields (the first chunk's end, the workers), and stops them all on exit."""
    cpus = min(_usable_cpus(), n)
    cuts = [n * i // cpus for i in range(cpus + 1)]
    workers = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            workers.append(_Worker(partial(task, lo, hi)))
        yield cuts[1], workers
    finally:
        for worker in workers:
            worker.stop()


def evaluate(samples: list[Sample], model: Model) -> float:
    """Mean Dice over samples, averaged over the non-background classes;
    ``predict`` scores them one at a time on one frozen view of the model, in
    one contiguous chunk per usable CPU (see ``_workers``).  The scores join
    in sample order, so the mean is the serial one to the bit; a worker's
    exception is raised here."""
    if not samples:
        raise ValueError("evaluate needs a nonempty dataset")
    _check_labels(samples, model.cfg.num_classes)
    view = model.frozen()
    with _workers(len(samples), lambda lo, hi, _: _dice_scores(samples[lo:hi], view)
                  ) as (first, workers):
        scores = _dice_scores(samples[:first], view)
        for worker in workers:
            scores += worker.reply()
    return float(np.mean(scores))


def _epoch_rngs(seed: int, epoch: int) -> tuple[np.random.Generator, ...]:
    children = np.random.SeedSequence(seed, spawn_key=(epoch,)).spawn(2)
    return tuple(np.random.default_rng(c) for c in children)


def fit(train_set: list[Sample], val_set: list[Sample], cfg: ModelConfig,
        out_dir: str | Path | None = None,
        resume: tuple[Model, Adam, int] | None = None,
        progress=None) -> tuple[Model, list[dict]]:
    """Shuffled minibatch epochs with per-epoch derived RNG streams.

    A history row is ``epoch``, ``dice_val`` and the epoch's mean of each
    ``train_step`` term; ``progress`` gets each row as its epoch ends.
    Checkpoints go to out_dir (ckpt-last every epoch, ckpt-best at the best
    validation Dice); the returned model carries the best parameters.
    ``resume`` is what ``checkpoint_load`` returned; resuming steps its model
    with its ``Adam`` and continues its epoch numbering, reproducing the
    unbroken trajectory because every stream is re-derived from (seed, epoch).
    """
    if not train_set or not val_set:
        raise ValueError("fit needs nonempty train and validation sets")
    if resume is not None:
        model, opt, start_epoch = resume
        model.cfg = resumed_config(model.cfg, start_epoch, cfg.epochs)
    else:
        model, start_epoch = Model(cfg), 0
        opt = Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    cfg = model.cfg

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    decay_at = max(1, int(0.8 * cfg.epochs))
    history: list[dict] = []
    best_dice = -1.0
    best_params: dict[str, np.ndarray] | None = None

    for epoch in range(start_epoch, cfg.epochs):
        shuffle_rng, step_rng = _epoch_rngs(cfg.seed, epoch)
        opt.lr = cfg.learning_rate * (0.1 if epoch >= decay_at else 1.0)
        order = shuffle_rng.permutation(len(train_set))
        sums: dict[str, float] = {}
        n_steps = 0
        for i in range(0, len(order), cfg.batch_size):
            batch = [train_set[j] for j in order[i:i + cfg.batch_size]]
            for key, val in train_step(batch, model, opt, step_rng).items():
                sums[key] = sums.get(key, 0.0) + val
            n_steps += 1

        val_dice = evaluate(val_set, model)
        row = {"epoch": epoch, "dice_val": val_dice,
               **{key: total / n_steps for key, total in sums.items()}}
        history.append(row)
        if out_path is not None:
            checkpoint_save(model, out_path / "ckpt-last.dbfc", opt=opt,
                            epoch=epoch + 1)
        if val_dice > best_dice:
            best_dice = val_dice
            # assign replaces a parameter's frozen buffer, so this is a snapshot
            best_params = {name: p.data for name, p in model.named_params()}
            if out_path is not None:
                checkpoint_save(model, out_path / "ckpt-best.dbfc", opt=opt,
                                epoch=epoch + 1)
        if progress is not None:
            progress(row)
        if cfg.early_stop_dice > 0.0 and val_dice >= cfg.early_stop_dice:
            break

    if best_params is not None:
        for name, p in model.named_params():
            p.assign(best_params[name])
    return model, history


# -- checkpoints ------------------------------------------------------------------------

def _unpack_config(body: Reader) -> ModelConfig:
    """Read the config block, which must be ``config_text`` of the config it
    parses to: no key twice, none out of order, every value in its own form."""
    defaults = config_items(ModelConfig())
    text = body.take_str()
    lines = [line.partition(" = ") for line in text.splitlines()]
    items = {name: raw for name, _, raw in lines}
    keys = defaults.keys()
    unknown, missing = sorted(items.keys() - keys), sorted(keys - items.keys())
    if unknown or missing:
        raise FormatError(body.path, "config block does not match this build: "
                          f"unknown keys {unknown}, missing keys {missing}")
    try:
        cfg = config_from_items({name: parse_value(defaults[name], raw)
                                 for name, raw in items.items()})
    except ValueError as exc:
        raise FormatError(body.path, f"config block: {exc}") from exc
    written = config_text(config_items(cfg))
    if text != written:
        odd = next(a for a, b in zip_longest(text.splitlines(True),
                                             written.splitlines(True)) if a != b)
        raise FormatError(body.path, "config block is not the text of the config "
                          f"it parses to, from line {odd!r}")
    return cfg


def _pack_section(out: Writer, name: str, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    out.put_str(name)
    out.put(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
    out.put_bytes(arr)


def _unpack_section(body: Reader) -> tuple[str, np.ndarray]:
    name = body.take_str()
    (ndim,) = body.take("<B")
    if ndim > 4:  # no parameter or moment has more dimensions than a conv kernel
        raise FormatError(body.path, f"section {name!r}: {ndim} dimensions, at most 4")
    shape = body.take(f"<{ndim}I")
    if 0 in shape:
        raise FormatError(body.path, f"section {name!r}: shape {shape} has a zero dimension")
    count = math.prod(shape)  # exact: a corrupt shape must not wrap to a small count
    if count * 8 > body.remaining:
        raise FormatError(body.path, f"section {name!r}: shape {shape} overruns the body")
    data = np.frombuffer(body.take_bytes(count * 8), dtype="<f8")
    return name, data.reshape(shape)  # read-only; assign copies, Adam keeps views


def _sections(model: Model, opt: Adam, epoch: int) -> list:
    """(name, array) pairs in file order: the parameters, both moments of each
    parameter in name order, ``opt.t``, then ``epoch``."""
    sections = [(name, p.data) for name, p in model.named_params()]
    for name in sorted(opt.m):
        sections += [(f"opt.m.{name}", opt.m[name]), (f"opt.v.{name}", opt.v[name])]
    return sections + [("opt.t", np.array([float(opt.t)])),
                       ("epoch", np.array([float(epoch)]))]


def checkpoint_save(model: Model, path: str | Path, opt: Adam, epoch: int) -> None:
    """Self-describing snapshot: config block and the ``_sections``, sealed."""
    sections = _sections(model, opt, epoch)
    out = Writer(CHECKPOINT_MAGIC)
    out.put_str(config_text(config_items(model.cfg)))
    out.put("<I", len(sections))
    for name, arr in sections:
        _pack_section(out, name, arr)
    atomic_write(path, out.seal())


def checkpoint_load(path: str | Path) -> tuple[Model, Adam, int]:
    """Rebuild (model, the ``Adam`` that continues its run, epoch) from a file
    that holds exactly the ``_sections`` of its config's model and a fresh
    ``Adam``, each finite and of its shape.  The moments stay read-only views
    of the file's bytes."""
    body = unseal(Path(path).read_bytes(), CHECKPOINT_MAGIC, path)
    cfg = _unpack_config(body)
    (n_sections,) = body.take("<I")
    arrays = dict(_unpack_section(body) for _ in range(n_sections))
    if body.remaining:
        raise FormatError(path, f"{body.remaining} trailing bytes after sections")
    if len(arrays) < n_sections:
        raise FormatError(path, f"{n_sections} sections, {len(arrays)} distinct names")
    model = Model(cfg)
    opt = Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    expected = {name: arr.shape for name, arr in _sections(model, opt, 0)}
    faults: dict[str, list[str]] = {}
    for name in {**expected, **arrays}:
        want, got = expected.get(name), arrays.get(name)
        fault = ("missing sections: {}" if got is None else
                 "unrecognized sections: {}" if want is None else
                 "misshapen sections: {}" if got.shape != want else
                 "non-finite values in sections: {}" if not np.isfinite(got).all() else
                 "sections {} must each hold one whole number >= 0"
                 if name in ("epoch", "opt.t") and (got[0] < 0 or got[0] % 1) else None)
        if fault:
            faults.setdefault(fault, []).append(name)
    if faults:
        raise FormatError(path, "; ".join(f.format(n[:4]) for f, n in faults.items()))
    for name, p in opt.named:
        p.assign(arrays.pop(name))
        opt.m[name], opt.v[name] = arrays[f"opt.m.{name}"], arrays[f"opt.v.{name}"]
    opt.t = int(arrays["opt.t"].item())
    return model, opt, int(arrays["epoch"].item())
