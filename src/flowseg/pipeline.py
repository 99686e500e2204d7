"""End-to-end segmentation pipeline.

The shape encoder's latent, and with NCVI the appearance encoder's latent
that only the NCVI terms read, are sampled through the OU diffusion with a
Girsanov weight (or by Gaussian reparameterization when that is off).  The
shape latent drives a small U-shaped segmentation net whose logits the flow
refines and Gumbel-Softmax discretizes during training.  Closed-form
variational updates supply the KL penalties of the loss.  Evaluation
(``posterior_mean``) takes every latent at its mean, so it runs only the
shape stream and the U-Net and returns softmax(mu_z); it runs on a frozen
view of the model (``Model.frozen``) and records no tape.
"""

import copy
import math
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .container import (CHECKPOINT_MAGIC, FormatError, Reader, Writer,
                        atomic_write, unseal)
from .data import Sample, dice_score
from .diffcore import (NonFiniteError, ShapeError, Tensor, backward, bias_act,
                       concat, conv2d, zero_grad)
from .flows import FlowStack, flow_push
from .ncvi import (Hyperpriors, gaussian_kl_closed, kl_terms, mc_kl,
                   refresh_state)
from .sde import OuParams, sde_girsanov_sample_field
from .spatial import (dice_ce_loss_per_item, grad_sqnorm, gumbel_softmax,
                      total_loss)

# Toggle rows (nf_posterior, ncvi, sde_girsanov) for the five named variants.
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
    nf, ncvi, sde = VERSION_TOGGLES[version]
    return replace(cfg, nf_posterior=nf, ncvi=ncvi, sde_girsanov=sde)


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
    kl_y: Tensor
    kl_z: Tensor
    kl_x: Tensor
    kl_m: Tensor
    log_rn_weights: list[float]


@contextmanager
def _phase(name: str):
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"[phase: {name}] {exc}") from exc


def _sample_latent(mu: Tensor, sigma: Tensor, cfg: ModelConfig,
                   rng: np.random.Generator) -> tuple[Tensor, np.ndarray]:
    """Draw one latent field; returns (sample, per-item mean log RN weight).

    The reparameterized draw has no path measure to reweight, so its log
    weights are zero.
    """
    if cfg.sde_girsanov:
        params = OuParams(mu=mu, sigma=sigma, horizon=cfg.sde_horizon,
                          n_steps=cfg.sde_steps)
        z, weight_field = sde_girsanov_sample_field(params, rng)
        per_item = weight_field.mean(axis=tuple(range(1, weight_field.ndim)))
        return z, per_item
    eps = rng.standard_normal(mu.shape)
    return mu + sigma * Tensor(eps), np.zeros(mu.shape[0])


def _as_images(images, cfg: ModelConfig) -> Tensor:
    t = images if isinstance(images, Tensor) else Tensor(np.asarray(images))
    if t.ndim != 4 or t.shape[1] != 1 or t.shape[2:] != tuple(cfg.image_size):
        raise ShapeError(
            f"expected images of shape (B, 1, {cfg.image_size[0]}, "
            f"{cfg.image_size[1]}), got {t.shape}")
    return t


def posterior_mean(images, model: Model) -> Tensor:
    """Deterministic class probabilities softmax(mu_z) of the all-means path.

    With every latent at its mean the appearance latent and the noise model
    do not reach the prediction, so only the shape encoder and the U-Net
    run, up to their mean heads, on ``model.frozen()``: the call records no
    tape, and each intermediate is freed as soon as it is consumed.  Each
    image is computed alone, so a batch gives the bytes of its single images.
    """
    model = model.frozen()
    images = _as_images(images, model.cfg)
    with _phase("shape encoding"):
        mu_x = model.shape_enc.head_mu(model.shape_enc.trunk(images))
    with _phase("segmentation latent"):
        mu_z = model.seg.head_mu(model.seg.trunk(concat([mu_x] * 3, axis=1)))
    with _phase("prediction"):
        return mu_z.softmax(axis=1)


def forward(images, model: Model, mode: str = "train",
            rng: np.random.Generator | None = None) -> PipelineOutputs:
    """One training pass of the eight-phase inference procedure.

    Samples every latent, relaxes the prediction with Gumbel-Softmax and
    computes the KL penalties.  ``mode`` must be ``"train"``; the
    deterministic evaluation path is ``posterior_mean``.
    """
    if mode != "train":
        raise ValueError(f"mode must be 'train', got {mode!r}; "
                         "evaluation uses posterior_mean")
    if rng is None:
        raise ValueError("train mode requires an rng")
    cfg = model.cfg
    images = _as_images(images, cfg)
    b = images.shape[0]
    k = cfg.num_classes

    log_w = np.zeros(b)
    if cfg.ncvi:
        with _phase("appearance encoding"):
            mu_m, lv_m = model.appearance(images)
            sigma_m = (lv_m * 0.5).exp()
            m, log_w = _sample_latent(mu_m, sigma_m, cfg, rng)

    with _phase("shape encoding"):
        mu_x, lv_x = model.shape_enc(images)
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
            rows = z.transpose((0, 2, 3, 1)).reshape((b * h * wd, k))
            refined, _ = flow_push(model.flow, rows)
            logits = refined.reshape((b, h, wd, k)).transpose((0, 3, 1, 2))
        y_hat = gumbel_softmax(logits, cfg.tau, rng)

    with _phase("variational updates"):
        if cfg.ncvi:
            # The noise precision enters only through the KL penalty on the
            # observation residual r.  The closed-form updates read mu_z as a
            # class-responsibility field, so the logits pass a softmax first.
            r = images - (x + m)
            resp = mu_z.softmax(axis=1)
            gsq_x = grad_sqnorm(mu_x)
            gsq_z = grad_sqnorm(mu_z)
            state = refresh_state(r.data, resp.data, gsq_x.data, gsq_z.data,
                                  sigma_x.data, sigma_z.data, cfg.hp)
            kl_y, kl_z, kl_x, kl_m = kl_terms(
                state, r, gsq_x, gsq_z, sigma_x, sigma_z, resp, mu_m, sigma_m,
                cfg.hp)
        else:
            # Plain-Gaussian baseline: the segmentation posterior is the
            # only latent with a prior penalty.  Penalizing the encoder
            # fields too at this loss weight drove their signal-to-noise to
            # zero, and the model degenerated into an unconditional shape
            # prior.
            kl_y = Tensor(0.0)
            kl_z = gaussian_kl_closed(mu_z, lv_z)
            kl_x = Tensor(0.0)
            kl_m = Tensor(0.0)

    return PipelineOutputs(
        y_hat=y_hat, kl_y=kl_y, kl_z=kl_z, kl_x=kl_x, kl_m=kl_m,
        log_rn_weights=[float(v) for v in log_w])


# -- optimizer ---------------------------------------------------------------------

class Adam:
    """Adam with L2 weight decay folded into the gradient."""

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float,
                 weight_decay: float = 0.0, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.named = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named}

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

    def load_state(self, state: dict) -> None:
        """Restore step count and moments from the optimizer state that
        ``checkpoint_load`` checked against this model."""
        self.t = int(state["t"])
        for name, _ in self.named:
            self.m[name] = state["m"][name].copy()
            self.v[name] = state["v"][name].copy()


# -- training -----------------------------------------------------------------------

def batch_tensors(samples: list[Sample], num_classes: int) -> tuple[Tensor, Tensor]:
    """Stack samples into (B,1,H,W) images and (B,K,H,W) one-hot targets."""
    images = np.stack([s.image for s in samples])[:, None, :, :]
    masks = np.stack([s.mask for s in samples])
    if masks.max(initial=0) >= num_classes:
        raise ValueError(
            f"mask label {masks.max()} >= num_classes {num_classes}")
    onehot = np.zeros((len(samples), num_classes) + masks.shape[1:])
    for c in range(num_classes):
        onehot[:, c][masks == c] = 1.0
    return Tensor(images), Tensor(onehot)


def rn_weights(log_weights: list[float]) -> np.ndarray:
    """Clamped, batch-self-normalized importance weights (mean exactly 1)."""
    w = np.exp(np.clip(np.asarray(log_weights, dtype=float),
                       -RN_LOG_CLAMP, RN_LOG_CLAMP))
    return w / w.mean()


def train_step(batch: list[Sample], model: Model, opt: Adam,
               rng: np.random.Generator) -> dict[str, float]:
    """Forward, loss, backward, one optimizer step; returns each loss term
    by name in the order computed, their weighted total ``loss`` last."""
    cfg = model.cfg
    images, targets = batch_tensors(batch, cfg.num_classes)
    b, _, h, w = images.shape
    terms: dict[str, float] = {}
    try:
        out = forward(images, model, "train", rng)
        per_item = dice_ce_loss_per_item(out.y_hat, targets)
        recon = (per_item * Tensor(rn_weights(out.log_rn_weights))).mean()
        terms["recon"] = recon.data.item()
        for key, t in (("kl_y", out.kl_y), ("kl_z", out.kl_z),
                       ("kl_x", out.kl_x), ("kl_m", out.kl_m)):
            terms[key] = t.data.item()
        n_elems = b * h * w
        loss = total_loss(recon, [out.kl_y, out.kl_z, out.kl_x, out.kl_m],
                          cfg.lambda_bayes, n_elems)
        if cfg.nf_posterior and cfg.ncvi:
            # The flow KL is already a per-element quantity, so it enters at
            # the same normalized scale as the summed field KLs.
            flow_kl = mc_kl(model.flow, cfg.flow_kl_samples, rng)
            terms["flow_kl"] = flow_kl.data.item()
            loss = loss + flow_kl * cfg.lambda_bayes
        terms["loss"] = loss.data.item()
        backward(loss)
    except NonFiniteError as exc:
        raise NonFiniteError(
            f"{exc}; terms so far: "
            + ", ".join(f"{k}={v:.6g}" for k, v in terms.items())) from exc
    opt.step()
    zero_grad(model.params())
    return terms


def predict(image, model: Model) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic labels and per-class confidence for one image."""
    arr = image.image if isinstance(image, Sample) else np.asarray(image)
    if arr.shape != tuple(model.cfg.image_size):
        raise ShapeError(
            f"image shape {arr.shape} does not match the trained size "
            f"{tuple(model.cfg.image_size)}")
    conf = posterior_mean(arr[None, None, :, :], model).data[0]
    return conf.argmax(axis=0), conf


def _dice_scores(samples: list[Sample], view: Model) -> list[float]:
    k = view.cfg.num_classes
    return [float(np.mean([dice_score(predict(s, view)[0], s.mask, c)
                           for c in range(1, k)])) for s in samples]


def _fork_scorer(samples: list[Sample], view: Model):
    """Fork a worker that pickles ``_dice_scores(samples, view)``, or what it
    raised, into a pipe; return (pid, read end).  The worker leaves only by
    ``os._exit``, never into its caller's frames."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            # Ctrl-C ends a worker at once; the caller raises it.
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            try:
                reply = _dice_scores(samples, view)
            except BaseException as exc:
                reply = exc
            with open(w, "wb") as out:
                out.write(pickle.dumps(reply))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, open(r, "rb")


def evaluate(samples: list[Sample], model: Model) -> float:
    """Mean Dice over samples, averaged over the non-background classes;
    ``predict`` scores them one at a time on one frozen view of the model, in
    one contiguous chunk per usable CPU: the first here, each other in a
    forked worker.  The scores join in sample order, so the mean is the
    serial one to the bit; a worker's exception is raised here."""
    if not samples:
        raise ValueError("evaluate needs a nonempty dataset")
    k = model.cfg.num_classes
    top = max(s.mask.max(initial=0) for s in samples)
    if top >= k:
        raise ValueError(f"mask label {top} >= num_classes {k}")
    view = model.frozen()
    n = min(len(os.sched_getaffinity(0)), len(samples))
    cuts = [len(samples) * i // n for i in range(n + 1)]
    workers = []  # (pid, pipe) of every worker not yet reaped
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            workers.append(_fork_scorer(samples[lo:hi], view))
        scores = _dice_scores(samples[:cuts[1]], view)
        while workers:
            pid, pipe = workers[0]
            with pipe:
                reply = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            reply = pickle.loads(reply) if reply else ChildProcessError(
                f"evaluate worker {pid} ended with status {status} and no reply")
            if isinstance(reply, BaseException):
                raise reply
            scores += reply
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return float(np.mean(scores))


def _epoch_rngs(seed: int, epoch: int) -> tuple[np.random.Generator, ...]:
    children = np.random.SeedSequence(seed, spawn_key=(epoch,)).spawn(2)
    return tuple(np.random.default_rng(c) for c in children)


def fit(train_set: list[Sample], val_set: list[Sample], cfg: ModelConfig,
        out_dir: str | Path | None = None,
        resume: tuple[Model, dict | None, int] | None = None,
        progress=None) -> tuple[Model, list[dict]]:
    """Shuffled minibatch epochs with per-epoch derived RNG streams.

    A history row is ``epoch``, ``dice_val`` and the epoch's mean of each
    ``train_step`` term; ``progress`` gets each row as its epoch ends.
    Checkpoints go to out_dir (ckpt-last every epoch, ckpt-best at the best
    validation Dice); the returned model carries the best parameters.
    ``resume`` is what ``checkpoint_load`` returned; resuming continues its
    model with its optimizer moments and epoch numbering, reproducing the
    unbroken trajectory because every stream is re-derived from (seed, epoch).
    """
    if not train_set or not val_set:
        raise ValueError("fit needs nonempty train and validation sets")
    if resume is not None:
        model, opt_state, start_epoch = resume
        model.cfg = resumed_config(model.cfg, start_epoch, cfg.epochs)
    else:
        model, opt_state, start_epoch = Model(cfg), None, 0
    cfg = model.cfg
    opt = Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    if opt_state is not None:
        opt.load_state(opt_state)

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
    """Read the config block, which is ``config_text`` of the config's items."""
    defaults = config_items(ModelConfig())
    lines = [line.partition(" = ") for line in body.take_str().splitlines()]
    items = {name: raw for name, _, raw in lines}
    keys = defaults.keys()
    unknown, missing = sorted(items.keys() - keys), sorted(keys - items.keys())
    if unknown or missing:
        raise FormatError(body.path, "config block does not match this build: "
                          f"unknown keys {unknown}, missing keys {missing}")
    try:
        return config_from_items({name: parse_value(defaults[name], raw)
                                  for name, raw in items.items()})
    except ValueError as exc:
        raise FormatError(body.path, f"config block: {exc}") from exc


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
    return name, data.reshape(shape).copy()


def checkpoint_save(model: Model, path: str | Path, opt: Adam | None = None,
                    epoch: int = 0) -> None:
    """Self-describing snapshot: config block and named f64 sections, sealed."""
    sections = [(name, p.data) for name, p in model.named_params()]
    if opt is not None:
        for name in sorted(opt.m):
            sections.append((f"opt.m.{name}", opt.m[name]))
            sections.append((f"opt.v.{name}", opt.v[name]))
        sections.append(("opt.t", np.array(float(opt.t))))
    sections.append(("epoch", np.array(float(epoch))))

    out = Writer(CHECKPOINT_MAGIC)
    out.put_str(config_text(config_items(model.cfg)))
    out.put("<I", len(sections))
    for name, arr in sections:
        _pack_section(out, name, arr)
    atomic_write(path, out.seal())


def checkpoint_load(path: str | Path) -> tuple[Model, dict | None, int]:
    """Rebuild (model, optimizer state, epoch) from a checkpoint file.

    Every section must be finite.  Optimizer state, when stored, must hold
    both moments of every parameter, each of its parameter's shape.
    """
    body = unseal(Path(path).read_bytes(), CHECKPOINT_MAGIC, path)
    cfg = _unpack_config(body)
    (n_sections,) = body.take("<I")
    arrays = dict(_unpack_section(body) for _ in range(n_sections))
    if body.remaining:
        raise FormatError(path, f"{body.remaining} trailing bytes after sections")
    nonfinite = [name for name, arr in arrays.items() if not np.isfinite(arr).all()]
    if nonfinite:
        raise FormatError(path, f"non-finite values in sections: {nonfinite[:4]}")
    counts = [n for n in ("epoch", "opt.t") if n in arrays and (
        arrays[n].size != 1 or arrays[n].item() < 0 or not arrays[n].item().is_integer())]
    if counts:
        raise FormatError(path, f"sections {counts} must each hold one whole number >= 0")

    model = Model(cfg)
    named = model.named_params()
    missing = [name for name, _ in named if name not in arrays]
    if missing:
        raise FormatError(path, f"missing parameters: {missing[:4]}")
    for name, p in named:
        arr = arrays.pop(name)
        if arr.shape != p.data.shape:
            raise FormatError(
                path, f"parameter {name}: stored shape {arr.shape} != model "
                f"shape {p.data.shape}")
        p.assign(arr)

    epoch = int(arrays.pop("epoch", np.array(0.0)).item())
    opt_state = None
    if "opt.t" in arrays:
        opt_state = {"t": int(arrays.pop("opt.t").item())}
        for moment in ("m", "v"):
            opt_state[moment] = {name: arrays.pop(f"opt.{moment}.{name}")
                                 for name, _ in named
                                 if f"opt.{moment}.{name}" in arrays}
        missing = [name for name, _ in named
                   if name not in opt_state["m"] or name not in opt_state["v"]]
        if missing:
            raise FormatError(
                path, f"optimizer state is missing moments for: {missing}")
        misshapen = [name for name, p in named
                     if opt_state["m"][name].shape != p.data.shape
                     or opt_state["v"][name].shape != p.data.shape]
        if misshapen:
            raise FormatError(path, "optimizer moments differ in shape from "
                              f"their parameters for: {misshapen}")
    if arrays:
        raise FormatError(path, f"unrecognized sections: {sorted(arrays)[:4]}")
    return model, opt_state, epoch
