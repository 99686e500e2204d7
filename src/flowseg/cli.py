"""Command-line operator surface.

Subcommands cover the whole workflow: synthetic dataset generation,
training, cross-domain evaluation, the five-version ablation sweep,
posterior sampling with uncertainty maps, and file inspection.

Configuration is plain ``key = value`` text with ``#`` comments; flags
override file values, and the effective configuration is echoed into the
run directory.  Exit codes: 0 success, 2 usage/config, 3 I/O, 4 numerical
failure, 141 stdout closed by its reader.
"""

import os

# One BLAS thread in every process the CLI starts, set before numpy loads:
# training and evaluation already fork one process per CPU, and a second
# BLAS thread in each only contends with them.  A setting made by the caller
# still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import csv
import io
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .container import FormatError, atomic_write, sniff
from .data import (DOMAINS, dataset_load, dataset_meta, dataset_save,
                   gen_dataset, pgm_write)
from .diffcore import NonFiniteError
from .pipeline import (TOGGLES, ModelConfig, VERSION_TOGGLES, checkpoint_load,
                       config_from_items, config_items, config_text, evaluate,
                       fit, format_value, forward, parse_value, resumed_config)


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit code 2."""


# -- configuration ---------------------------------------------------------------

# Every key a config may set, with its default: the model's, then the run name.
_DEFAULTS = {**config_items(ModelConfig()), "run": "run"}


def default_config() -> dict:
    return dict(_DEFAULTS)


def _parse_value(key: str, raw: str):
    """Parse ``raw`` as the type of the key's default value."""
    try:
        return parse_value(_DEFAULTS[key], raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def _parse_setting(text: str, where: str) -> tuple[str, object]:
    """Split and parse one ``key = value`` setting; errors name ``where``."""
    key, eq, raw = text.partition("=")
    key = key.strip()
    if not eq or not key:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    if key not in _DEFAULTS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, _parse_value(key, raw)


def read_config_file(path: str | Path) -> dict:
    """Parse ``key = value`` lines; unknown keys name the offending line."""
    out = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            key, value = _parse_setting(stripped, f"{path}:{lineno}")
            out[key] = value
    return out


def effective_config(args) -> tuple[dict, set]:
    """Defaults, then the config file, then flag overrides.

    Returns (config, explicitly-set keys).
    """
    cfg = default_config()
    explicit: set[str] = set()
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        file_vals = read_config_file(path)
        cfg.update(file_vals)
        explicit |= set(file_vals)
    for setting in args.set or []:
        key, value = _parse_setting(setting, "--set")
        cfg[key] = value
        explicit.add(key)
    if args.seed is not None:
        cfg["seed"] = args.seed
        explicit.add("seed")
    return cfg, explicit


def write_config_echo(cfg: dict, path: Path) -> None:
    atomic_write(path, config_text(cfg).encode())


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.10g}" if isinstance(v, float) else v
                         for v in row])
    atomic_write(path, buf.getvalue().encode())


def _pin(cfg: dict, pinned: set, fixed: dict, source) -> dict:
    """``cfg`` with the settings that the file ``source`` fixes; a ``pinned``
    key of ``cfg`` that the file contradicts is an error naming the file."""
    for key in sorted(pinned & fixed.keys()):
        if cfg[key] != fixed[key]:
            raise ConfigError(f"{source}: {key} = {format_value(cfg[key])} but "
                              f"the file has {key} = {format_value(fixed[key])}")
    return {**cfg, **fixed}


def _load_dataset(path, cfg: dict, pinned=frozenset({"image_size", "num_classes"})):
    """(``cfg`` with the file's geometry, the file's samples); a file that
    contradicts a ``pinned`` key is rejected before it loads."""
    _, h, w, k = dataset_meta(path)
    cfg = _pin(cfg, pinned, {"image_size": (h, w), "num_classes": k}, path)
    return cfg, dataset_load(path)


def _split_train_val(samples):
    """Hold out the last fifth of the samples, at least one, for validation."""
    n_val = max(1, int(round(len(samples) * 0.2)))
    if n_val >= len(samples):
        raise ConfigError(
            f"cannot hold out {n_val} of {len(samples)} samples for validation")
    return samples[:-n_val], samples[-n_val:]


# -- subcommands ----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg, explicit = effective_config(args)
    if args.n <= 0:
        raise ConfigError(f"--n must be positive, got {args.n}")
    overrides = {field: getattr(args, field) for field in
                 ("noise_sigma", "bias_amplitude", "contrast_gamma")
                 if getattr(args, field) is not None}
    if "seed" in explicit:
        overrides["seed"] = cfg["seed"]
    domain = replace(DOMAINS[args.domain], **overrides)
    # A dataset's geometry is the model's, so the model config checks it.
    image_size = config_from_items(cfg).image_size
    samples = gen_dataset(domain, args.n, image_size=image_size)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataset_save(samples, out, num_classes=cfg["num_classes"])
    h, w = cfg["image_size"]
    print(f"wrote {out}: {args.n} samples, {h}x{w}, "
          f"{cfg['num_classes']} classes, domain {domain.name} "
          f"(noise {domain.noise_sigma}, bias {domain.bias_amplitude}, "
          f"gamma {domain.contrast_gamma})")
    return 0


def _train_common(args, cfg: dict, explicit: set, ckpt=None):
    """Shared train/ablate setup: (config, the training file's samples, train
    set, val set); ``ckpt`` is what checkpoint_load read for --resume.  A
    resumed run keeps every setting of its checkpoint but ``epochs``."""
    if ckpt is not None:
        model, _, epoch = ckpt
        saved = {k: v for k, v in config_items(model.cfg).items() if k != "epochs"}
        cfg = _pin(cfg, explicit, saved, args.resume)
        resumed_config(model.cfg, epoch, cfg["epochs"])
        explicit = explicit | saved.keys()
    cfg, samples = _load_dataset(args.data, cfg, explicit)
    if args.val:
        return cfg, samples, samples, _load_dataset(args.val, cfg)[1]
    return cfg, samples, *_split_train_val(samples)


def _fit_run(cfg: dict, train_samples, val_samples, run_dir: Path, resume=None):
    """``fit`` of ``cfg`` into ``run_dir``, which gets the config's echo first
    and a ``metrics.csv`` rewritten as each epoch ends, so a run that dies
    keeps its record; returns what ``fit`` returns."""
    model_cfg = config_from_items(cfg)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_config_echo(cfg, run_dir / "config.echo")
    history: list[dict] = []

    def record(row):
        history.append(row)
        _write_csv(run_dir / "metrics.csv", list(row),
                   [list(r.values()) for r in history])
        print(f"epoch {row['epoch']}: loss {row['loss']:.4f} "
              f"dice {row['dice_val']:.4f}", flush=True)

    return fit(train_samples, val_samples, model_cfg, out_dir=run_dir,
               resume=resume, progress=record)


def cmd_train(args) -> int:
    cfg, explicit = effective_config(args)
    if cfg["run"] in ("", ".", "..") or Path(cfg["run"]).name != cfg["run"]:
        raise ConfigError(
            f"run must name one directory inside --out, got {cfg['run']!r}")
    ckpt = checkpoint_load(args.resume) if args.resume else None
    cfg, _, train_samples, val_samples = _train_common(args, cfg, explicit, ckpt)
    run_dir = Path(args.out) / cfg["run"]
    _, history = _fit_run(cfg, train_samples, val_samples, run_dir, ckpt)
    best = max(row["dice_val"] for row in history)
    print(f"best validation dice {best:.4f}; artifacts in {run_dir}")
    return 0


def cmd_eval(args) -> int:
    if not args.data:
        raise ConfigError("eval needs at least one target dataset")
    # One frozen view scores each dataset, loaded only while it is scored.
    model = checkpoint_load(args.ckpt)[0].frozen()
    cfg = config_items(model.cfg)
    paths = ([args.source] if args.source else []) + list(args.data)
    dices = [evaluate(_load_dataset(path, cfg)[1], model) for path in paths]
    rows = [[Path(path).stem, dice] for path, dice in zip(paths, dices)]
    rows.append(["avg_targets", float(np.mean(dices[-len(args.data):]))])
    for name, dice in rows:
        print(f"{name}: {dice:.4f}")
    _write_csv(Path(args.out), ["dataset", "dice"], rows)
    return 0


def cmd_ablate(args) -> int:
    if not args.targets:
        raise ConfigError("ablate needs at least one target dataset")
    cfg, explicit = effective_config(args)
    cfg, source, train_samples, val_samples = _train_common(args, cfg, explicit)
    config_from_items(cfg)  # a bad value exits 2 before anything is written
    # The source column is measured on the full source file so the row is
    # reproducible by a standalone train + eval with the same seed.
    eval_sets = [(Path(args.data).stem, source)]
    for path in args.targets:
        eval_sets.append((Path(path).stem, _load_dataset(path, cfg)[1]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_config_echo(cfg, out / "config.echo")

    # The versions fit here one after another, ver5 first, each into the
    # run directory that a standalone `train` of this config with its
    # toggles writes; every step spreads over every CPU.  fit returns the
    # model of ckpt-best.dbfc, which is scored as its fit ends.
    dices: dict[str, list[float]] = {}
    for version in sorted(VERSION_TOGGLES, reverse=True):
        print(f"{version}: fitting into {out / version}", flush=True)
        toggles = dict(zip(TOGGLES, VERSION_TOGGLES[version]))
        try:
            model, _ = _fit_run({**cfg, **toggles, "run": version},
                                train_samples, val_samples, out / version)
        except Exception:
            print(f"error: ablate {version} failed", file=sys.stderr)
            raise
        dices[version] = [evaluate(s, model) for _, s in eval_sets]

    header = ["version", *TOGGLES, *(name for name, _ in eval_sets), "avg_targets"]
    rows: list[list] = []
    avg = {version: float(np.mean(d[1:])) for version, d in dices.items()}
    for version, toggles in sorted(VERSION_TOGGLES.items()):
        rows.append([version, *toggles, *dices[version], avg[version]])
        marks = "  ".join("✓" if t else "×" for t in toggles)
        cells = "  ".join(f"{d:.4f}" for d in dices[version])
        print(f"{version}  {marks}  {cells}  {avg[version]:.4f}")

    _write_csv(out / "ablate.csv", header,
               [[format_value(v) if isinstance(v, bool) else v for v in row]
                for row in rows])
    delta = avg["ver5"] - avg["ver1"]
    print(f"ver5 - ver1 target average: {delta:+.4f} (reported, not gated)")
    return 0


def cmd_sample_posterior(args) -> int:
    # No sample is ever differentiated, so the draws run on a frozen view.
    model = checkpoint_load(args.ckpt)[0].frozen()
    samples = _load_dataset(args.data, config_items(model.cfg))[1]
    if not 0 <= args.index < len(samples):
        raise ConfigError(
            f"--index {args.index} out of range for {len(samples)} samples")
    if args.m <= 0:
        raise ConfigError(f"--m must be positive, got {args.m}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    image = samples[args.index].image
    seed = args.seed if args.seed is not None else model.cfg.seed
    rng = np.random.default_rng(seed)

    k = model.cfg.num_classes
    labels = []
    log_weights = []
    for i in range(args.m):
        out = forward(image, model, "train", rng)
        labels.append(out.y_hat.data[0].argmax(axis=0))
        log_weights.append(out.log_rn_weight)
        pgm_write(labels[-1], out_dir / f"sample_{i:02d}.pgm")

    stack = np.stack(labels)
    freq = np.stack([(stack == c).mean(axis=0) for c in range(k)])
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = -np.where(freq > 0, freq * np.log(freq), 0.0).sum(axis=0)
    pgm_write(entropy, out_dir / "entropy.pgm")
    _write_csv(out_dir / "log_weights.csv", ["sample", "log_weight"],
               [[i, w] for i, w in enumerate(log_weights)])

    mean_rn = float(np.mean(np.exp(log_weights)))
    band = "within" if 0.2 <= mean_rn <= 5.0 else "OUTSIDE"
    print(f"wrote {args.m} samples + entropy map to {out_dir}")
    print(f"mean exp(log_weight) = {mean_rn:.4f} ({band} sanity band [0.2, 5])")
    return 0


def cmd_inspect(args) -> int:
    path = Path(args.path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    kind = sniff(path)
    if kind == "dataset":
        dataset_load(path)  # full checksum validation
        n, h, w, k = dataset_meta(path)
        print(f"kind: dataset\nsamples: {n}\nheight: {h}\nwidth: {w}\n"
              f"classes: {k}\nbytes: {path.stat().st_size}\nchecksum: ok")
        return 0
    model, _, epoch = checkpoint_load(path)
    named = model.named_params()
    print("kind: checkpoint")
    print(f"epoch: {epoch}")
    print(f"tensors: {len(named)}")
    print(f"parameters: {sum(p.data.size for _, p in named)}")
    for key, value in config_items(model.cfg).items():
        print(f"{key}: {format_value(value)}")
    return 0


# -- parser ------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override any config key (repeatable)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowseg",
        description="Flow-posterior Bayesian segmentation workbench")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen-data", help="generate a synthetic dataset file")
    _add_common(g)
    g.add_argument("--domain", choices=sorted(DOMAINS), default="A")
    g.add_argument("--n", type=int, default=200, help="number of samples")
    g.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    g.add_argument("--bias-amplitude", dest="bias_amplitude", type=float)
    g.add_argument("--contrast-gamma", dest="contrast_gamma", type=float)
    g.add_argument("--out", required=True, help="output .dbfd path")
    g.set_defaults(func=cmd_gen_data)

    t = subs.add_parser("train", help="fit the pipeline on a dataset")
    _add_common(t)
    t.add_argument("--data", required=True, help="training .dbfd file")
    t.add_argument("--val", help="validation .dbfd file (default: held-out split)")
    t.add_argument("--resume", help="checkpoint to continue from; its config "
                   "is kept, and a flag other than epochs may not contradict it")
    t.add_argument("--out", default="out", help="parent of the run directory")
    t.set_defaults(func=cmd_train)

    e = subs.add_parser("eval", help="evaluate a checkpoint on datasets")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--source", help="source-domain dataset (reported, "
                                    "excluded from the target average)")
    e.add_argument("--out", default="eval.csv", help="output CSV path")
    e.add_argument("data", nargs="*", help="target dataset files")
    e.set_defaults(func=cmd_eval)

    a = subs.add_parser("ablate", help="train and compare ver1..ver5")
    _add_common(a)
    a.add_argument("--data", required=True, help="source-domain training file")
    a.add_argument("--val", help="validation .dbfd file (default: held-out split)")
    a.add_argument("--targets", nargs="*", help="target-domain dataset files")
    a.add_argument("--out", default="out/ablate", help="output directory")
    a.set_defaults(func=cmd_ablate)

    s = subs.add_parser("sample-posterior",
                        help="draw posterior segmentation samples")
    s.add_argument("--seed", type=int,
                   help="sampling seed (default: the checkpoint's seed)")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--data", required=True, help=".dbfd file to sample from")
    s.add_argument("--index", type=int, default=0, help="image index")
    s.add_argument("--m", type=int, default=8, help="number of samples")
    s.add_argument("--out", default="out/posterior", help="output directory")
    s.set_defaults(func=cmd_sample_posterior)

    i = subs.add_parser("inspect", help="describe a .dbfd or .dbfc file")
    i.add_argument("path")
    i.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at the null device so
        # the flush at interpreter exit cannot raise again, and exit as a
        # process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError and any bad-parameter complaint from the library.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
