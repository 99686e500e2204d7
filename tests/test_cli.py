"""CLI tests: every subcommand, config handling, exit codes, artifacts."""

import contextlib
import csv
import io
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import flowseg.cli as cli
import flowseg.data as fd
import flowseg.pipeline as pl
from flowseg.container import CHECKPOINT_MAGIC, Writer, unseal
from flowseg.diffcore import NonFiniteError

# Small geometry that the default blob parameters still fit into.
SIZE = "32x32"
FAST = ["--set", f"image_size={SIZE}", "--set", "channels=4",
        "--set", "flow_layers=1", "--set", "flow_hidden=8",
        "--set", "flow_kl_samples=16", "--set", "batch_size=4",
        "--set", "epochs=1"]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Datasets plus one trained run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cliwork")
    a = root / "doma.dbfd"
    c = root / "domc.dbfd"
    d = root / "domd.dbfd"
    for domain, path, n in (("A", a, 12), ("C", c, 6), ("D", d, 6)):
        code = cli.main(["gen-data", "--domain", domain, "--n", str(n),
                         "--set", f"image_size={SIZE}", "--out", str(path)])
        assert code == 0
    code = cli.main(["train", "--data", str(a), "--out", str(root / "out"),
                     "--set", "run=base"] + FAST)
    assert code == 0
    run = root / "out" / "base"
    return {"root": root, "a": a, "c": c, "d": d, "run": run,
            "ckpt": run / "ckpt-best.dbfc"}


def _save_fresh(model, path):
    """Checkpoint ``model`` with a fresh Adam: zero moments, step 0, epoch 0."""
    pl.checkpoint_save(model, path, opt=pl.Adam(model.named_params(), 1e-3), epoch=0)


def _three_class_file(tmp_path):
    """A dataset at the shared size whose class count differs from the runs'."""
    three = tmp_path / "three.dbfd"
    samples = fd.gen_dataset(fd.DOMAINS["A"], 3, image_size=(32, 32))
    fd.dataset_save(samples, three, num_classes=3)
    return three


# -- gen-data ----------------------------------------------------------------------


def test_gen_data_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "x.dbfd"
    code = cli.main(["gen-data", "--domain", "B", "--n", "5",
                     "--set", f"image_size={SIZE}", "--out", str(out)])
    assert code == 0
    samples = fd.dataset_load(out)
    assert len(samples) == 5
    assert samples[0].image.shape == (32, 32)
    stdout = capsys.readouterr().out
    assert "5 samples" in stdout and "domain B" in stdout


def test_gen_data_deterministic(tmp_path):
    args = ["gen-data", "--domain", "A", "--n", "4",
            "--set", f"image_size={SIZE}"]
    p1, p2 = tmp_path / "1.dbfd", tmp_path / "2.dbfd"
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_data_seed_changes_content(tmp_path):
    base = ["gen-data", "--domain", "A", "--n", "4",
            "--set", f"image_size={SIZE}"]
    p1, p2 = tmp_path / "1.dbfd", tmp_path / "2.dbfd"
    assert cli.main(base + ["--out", str(p1)]) == 0
    assert cli.main(base + ["--seed", "9", "--out", str(p2)]) == 0
    assert p1.read_bytes() != p2.read_bytes()


def test_gen_data_rejects_bad_count(tmp_path, capsys):
    code = cli.main(["gen-data", "--domain", "A", "--n", "0",
                     "--out", str(tmp_path / "x.dbfd")])
    assert code == 2
    assert "--n" in capsys.readouterr().err


# A side above 65535 does not fit the dataset header's 16 bits; it is
# rejected before any image is generated, so 4000000x64 allocates nothing.
@pytest.mark.parametrize("size, message", [
    ("-4x8", "image_size sides must be >= 4"),
    ("0x0", "image_size sides must be >= 4"),
    ("64x65536", "image_size sides must be <= 65535"),
    ("4000000x64", "image_size sides must be <= 65535"),
], ids=["-4x8", "0x0", "64x65536", "4000000x64"])
def test_gen_data_rejects_an_image_side_below_4(tmp_path, capsys, size, message):
    out = tmp_path / "x.dbfd"
    code = cli.main(["gen-data", "--domain", "A", "--n", "3",
                     "--set", f"image_size={size}", "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_unknown_domain_is_usage_error(tmp_path):
    code = cli.main(["gen-data", "--domain", "Z", "--n", "3",
                     "--out", str(tmp_path / "x.dbfd")])
    assert code == 2


def test_gen_data_domain_overrides(tmp_path):
    out = tmp_path / "o.dbfd"
    code = cli.main(["gen-data", "--domain", "A", "--n", "3",
                     "--noise-sigma", "0.4", "--set", f"image_size={SIZE}",
                     "--out", str(out)])
    assert code == 0
    plain = tmp_path / "p.dbfd"
    cli.main(["gen-data", "--domain", "A", "--n", "3",
              "--set", f"image_size={SIZE}", "--out", str(plain)])
    assert out.read_bytes() != plain.read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--noise-sigma", "--bias-amplitude",
                                  "--contrast-gamma"])
def test_gen_data_rejects_a_non_finite_domain_override(tmp_path, capsys,
                                                       flag, value):
    out = tmp_path / "x.dbfd"
    code = cli.main(["gen-data", "--domain", "A", "--n", "3", flag, value,
                     "--set", f"image_size={SIZE}", "--out", str(out)])
    assert code == 2
    field = flag[2:].replace("-", "_")
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not out.exists()


# -- config handling --------------------------------------------------------------


def test_config_file_applies_and_echoes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# toy settings\nepochs = 1\nseed = 5  # inline comment\n")
    out = tmp_path / "x.dbfd"
    code = cli.main(["gen-data", "--config", str(cfg), "--domain", "A",
                     "--n", "3", "--set", f"image_size={SIZE}",
                     "--out", str(out)])
    assert code == 0


def test_config_unknown_key_names_line(tmp_path, capsys):
    # Keys that older builds had, and this one does not, are unknown too.
    for key in ("not_a_key", "augment", "hp.mu0"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"epochs = 1\n{key} = 0\n")
        code = cli.main(["gen-data", "--config", str(cfg), "--domain", "A",
                         "--n", "3", "--out", str(tmp_path / "x.dbfd")])
        assert code == 2
        err = capsys.readouterr().err
        assert ":2:" in err and key in err


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs 1\n")
    code = cli.main(["gen-data", "--config", str(cfg), "--domain", "A",
                     "--n", "3", "--out", str(tmp_path / "x.dbfd")])
    assert code == 2
    assert ":1:" in capsys.readouterr().err


def test_config_file_missing(tmp_path):
    code = cli.main(["gen-data", "--config", str(tmp_path / "nope.cfg"),
                     "--domain", "A", "--n", "3",
                     "--out", str(tmp_path / "x.dbfd")])
    assert code == 3


def test_parse_value_types():
    assert cli._parse_value("image_size", "48x32") == (48, 32)
    assert cli._parse_value("ncvi", "false") is False
    assert cli._parse_value("tau", "0.5") == 0.5
    assert cli._parse_value("hp.phi_rho", "1e-3") == 1e-3
    with pytest.raises(cli.ConfigError):
        cli._parse_value("ncvi", "si")
    with pytest.raises(cli.ConfigError):
        cli._parse_value("epochs", "two")


def _other(value):
    """A second valid value of the same type as a config default."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, tuple):
        return (value[0] + 4, value[1] + 8)
    if isinstance(value, str):
        return value + "x"
    return value + 3 if isinstance(value, int) else value * 1.5 + 0.1


def test_every_config_key_round_trips_through_echo(tmp_path):
    # Defaults, then a second value of the same type for every key.
    defaults = dict(cli._DEFAULTS)
    for cfg in (defaults, {k: _other(v) for k, v in defaults.items()}):
        path = tmp_path / "echo.cfg"
        cli.write_config_echo(pl.config_from_items(cfg), cfg["run"], path)
        back = cli.read_config_file(path)
        assert back == cfg
        assert {k: type(v) for k, v in back.items()} == \
            {k: type(v) for k, v in cfg.items()}


@pytest.mark.parametrize("kind", ["csv", "config.echo"])
def test_failed_replace_keeps_old_text_file(tmp_path, monkeypatch, kind):
    # The os.replace failure of test_container's binary-file test: a rewrite
    # that dies leaves the old rows (or echo) in place and no temporary file.
    path = tmp_path / f"out.{kind}"

    def save(epochs):
        if kind == "csv":
            cli._write_csv(path, ["epoch", "dice_val"],
                           [[e, 0.5] for e in range(epochs)])
        else:
            cli.write_config_echo(pl.ModelConfig(epochs=epochs), "run", path)
    save(1)
    before = path.read_bytes()

    def broken_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk went away"):
        save(2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    monkeypatch.undo()
    save(2)
    assert path.read_bytes() != before


def test_every_model_key_round_trips_through_checkpoint(tmp_path):
    items = {k: _other(v) for k, v in pl.config_items(pl.ModelConfig()).items()}
    path = tmp_path / "other.dbfc"
    _save_fresh(pl.Model(pl.config_from_items(items)), path)
    back = pl.config_items(pl.checkpoint_load(path)[0].cfg)
    assert back == items
    assert {k: type(v) for k, v in back.items()} == \
        {k: type(v) for k, v in items.items()}


# -- train -------------------------------------------------------------------------


def test_train_run_artifacts(work):
    run = work["run"]
    assert (run / "config.echo").exists()
    assert (run / "ckpt-best.dbfc").exists()
    assert (run / "ckpt-last.dbfc").exists()
    rows = list(csv.reader((run / "metrics.csv").open()))
    assert rows[0] == ["epoch", "dice_val", "recon", "kl_y", "kl_z",
                       "kl_x", "kl_m", "flow_kl", "loss"]
    assert len(rows) == 2  # header + one epoch
    echo = (run / "config.echo").read_text()
    assert "epochs = 1\n" in echo
    assert f"image_size = {SIZE}" in echo
    assert "hp.phi_rho = 1e-06" in echo


def test_train_missing_dataset(tmp_path, capsys):
    missing = tmp_path / "ghost.dbfd"
    code = cli.main(["train", "--data", str(missing),
                     "--out", str(tmp_path / "out")] + FAST)
    assert code == 3
    assert "ghost.dbfd" in capsys.readouterr().err


def test_train_resume_continues_epochs(work, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(out),
                     "--set", "run=r", "--resume",
                     str(work["run"] / "ckpt-last.dbfc")]
                    + FAST[:-2] + ["--set", "epochs=2"])
    assert code == 0
    rows = list(csv.reader((out / "r" / "metrics.csv").open()))
    assert [r[0] for r in rows[1:]] == ["1"]  # continues after epoch 0


def test_train_resume_echoes_checkpoint_config(work, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(out),
                     "--set", "run=r", "--set", "epochs=2", "--resume",
                     str(work["run"] / "ckpt-last.dbfc")])
    assert code == 0
    echo = (out / "r" / "config.echo").read_text()
    # the run trained with the checkpoint's config, not with the defaults
    for line in ("channels = 4", "flow_layers = 1", "batch_size = 4",
                 f"image_size = {SIZE}", "seed = 42", "epochs = 2"):
        assert f"{line}\n" in echo


@pytest.mark.parametrize("flags, key", [
    (["--set", "channels=16"], "channels"),
    (["--seed", "99"], "seed"),
    (["--set", "hp.phi_rho=0.5"], "hp.phi_rho"),
])
def test_train_resume_rejects_flag_that_contradicts_checkpoint(
        work, tmp_path, capsys, flags, key):
    out = tmp_path / "out"
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(out),
                     "--resume", str(work["run"] / "ckpt-last.dbfc")]
                    + FAST + flags)
    assert code == 2
    assert f"{key} = " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epochs", [0, 1])
def test_train_resume_with_nothing_left_to_train(work, tmp_path, capsys,
                                                 epochs):
    # The checkpoint has trained one epoch, so epochs <= 1 would train none.
    out = tmp_path / "out"
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(out),
                     "--set", f"epochs={epochs}", "--resume",
                     str(work["run"] / "ckpt-last.dbfc")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"epochs = {epochs}" in err and "trained 1 epochs" in err
    assert not out.exists()


def test_train_resume_geometry_mismatch(work, tmp_path, capsys):
    big = tmp_path / "big.dbfd"
    fd.dataset_save(fd.gen_dataset(fd.DOMAINS["A"], 4, image_size=(64, 64)),
                    big, num_classes=2)
    out = tmp_path / "out"
    code = cli.main(["train", "--data", str(big), "--out", str(out),
                     "--set", "epochs=2", "--resume",
                     str(work["run"] / "ckpt-last.dbfc")])
    assert code == 2
    assert "big.dbfd" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("moment", ["m", "v"])
def test_train_resume_rejects_misshapen_moment(work, tmp_path, capsys, moment):
    # A (1,) moment would broadcast over its parameter without a word.
    model, opt, epoch = pl.checkpoint_load(work["ckpt"])
    getattr(opt, moment)["seg.enc0a.w"] = np.zeros(1)
    path = tmp_path / "moment.dbfc"
    pl.checkpoint_save(model, path, opt=opt, epoch=epoch)
    out = tmp_path / "out"
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(out),
                     "--set", "epochs=2", "--resume", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{path}: " in err and f"'opt.{moment}.seg.enc0a.w'" in err
    assert not out.exists()


@pytest.mark.parametrize("run", ["", ".", "..", "a/b", "../escaped", "ABS"])
def test_train_run_must_name_one_directory_inside_out(work, tmp_path, capsys, run):
    # run=/elsewhere once wrote outside --out, and run= into --out itself.
    if run == "ABS":
        run = str(tmp_path / "elsewhere")
    out = tmp_path / "out"
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(out),
                     "--set", f"run={run}"] + FAST)
    assert code == 2
    assert f"run must name one directory inside --out, got {run!r}" in (
        capsys.readouterr().err)
    assert sorted(tmp_path.iterdir()) == []


def test_train_ver1_metrics_have_no_flow_kl(work, tmp_path):
    # ver1 computes no flow KL, so its run has no such column.
    out = tmp_path / "out"
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(out),
                     "--set", "run=v1", "--set", "nf_posterior=false",
                     "--set", "ncvi=false", "--set", "sde_girsanov=false"]
                    + FAST)
    assert code == 0
    header = _read_csv(out / "v1" / "metrics.csv")[0]
    assert header == ["epoch", "dice_val", "recon", "kl_y", "kl_z",
                      "kl_x", "kl_m", "loss"]


def test_train_numerical_failure_keeps_finished_epochs(work, tmp_path,
                                                        monkeypatch):
    # Every step of epoch 1 fails; epoch 0's row and checkpoint must survive.
    epochs_begun = []
    real_rngs, real_step = pl._epoch_rngs, pl.train_step

    def rngs(seed, epoch):
        epochs_begun.append(epoch)
        return real_rngs(seed, epoch)

    def step(*args):
        if epochs_begun[-1] == 1:
            raise NonFiniteError("injected")
        return real_step(*args)

    monkeypatch.setattr(pl, "_epoch_rngs", rngs)
    monkeypatch.setattr(pl, "train_step", step)
    out = tmp_path / "out"
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(out),
                     "--set", "run=r"] + FAST + ["--set", "epochs=2"])
    assert code == 4
    rows = _read_csv(out / "r" / "metrics.csv")
    assert [r[0] for r in rows[1:]] == ["0"]
    assert pl.checkpoint_load(out / "r" / "ckpt-last.dbfc")[2] == 1


# ModelConfig's floors: these values are rejected by name.
_REJECTED = ({(key, v) for key in ("epochs", "batch_size", "channels",
                                   "flow_hidden", "flow_kl_samples")
              for v in (0, -1)}
             | {("flow_layers", -1), ("seed", -1)})


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("key", ["epochs", "batch_size", "channels",
                                 "flow_layers", "flow_hidden",
                                 "flow_kl_samples", "sde_steps", "seed",
                                 "num_classes"])
def test_train_integer_key_at_zero_or_below(work, tmp_path, capsys, key,
                                            value):
    # A crash would escape main as an exception: the traceback of exit 1.
    code = cli.main(["train", "--data", str(work["a"]),
                     "--out", str(tmp_path / "out")]
                    + FAST + ["--set", f"{key}={value}"])
    assert code != 1
    if code == 2:
        err = capsys.readouterr().err
        assert key in err or work["a"].name in err
    if (key, value) in _REJECTED:
        assert code == 2


# The float keys at which training runs; every other point of the sweep below
# is rejected by name.
_FLOAT_ACCEPTED = {("weight_decay", "0"), ("lambda_bayes", "0"),
                   ("early_stop_dice", "0")}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("key", sorted(k for k, v in dict(cli._DEFAULTS).items()
                                       if isinstance(v, float)))
def test_train_float_key_out_of_range(work, tmp_path, capsys, key, value):
    code = cli.main(["train", "--data", str(work["a"]),
                     "--out", str(tmp_path / "out")]
                    + FAST + ["--set", f"{key}={value}"])
    if (key, value) in _FLOAT_ACCEPTED:
        assert code == 0
    else:
        assert code == 2
        assert key in capsys.readouterr().err


def test_train_geometry_conflict_is_config_error(work, tmp_path, capsys):
    code = cli.main(["train", "--data", str(work["a"]),
                     "--out", str(tmp_path / "out"),
                     "--set", "image_size=64x64"] + FAST[2:])
    assert code == 2
    assert "image_size" in capsys.readouterr().err


def test_train_val_geometry_mismatch(work, tmp_path, capsys):
    three = _three_class_file(tmp_path)
    code = cli.main(["train", "--data", str(work["a"]), "--val", str(three),
                     "--out", str(tmp_path / "out")] + FAST)
    assert code == 2
    assert "three.dbfd" in capsys.readouterr().err


@pytest.mark.parametrize("flags, fixed_by, setting", [
    (["--set", "num_classes=3"], "data", "num_classes = 3"),
    (["--set", "image_size=64x64"], "data", "image_size = 64x64"),
    (["--config"], "data", "image_size = 64x64"),
    (["--set", "channels=16", "--set", "epochs=2", "--resume"], "ckpt",
     "channels = 16"),
], ids=["dataset_classes", "dataset_size", "config_file_size", "checkpoint"])
def test_train_contradiction_names_the_file(work, tmp_path, capsys, flags,
                                            fixed_by, setting):
    # A dataset fixes image_size and num_classes; a checkpoint fixes every
    # key but epochs.  A --config file's setting is checked like a --set
    # one.  Either file's path heads the message.
    path = {"data": work["a"], "ckpt": work["run"] / "ckpt-last.dbfc"}[fixed_by]
    config = tmp_path / "run.cfg"
    config.write_text(f"{setting}\n")
    operand = {"--resume": [str(path)], "--config": [str(config)]}
    # FAST's own --set image_size would override the config file's.
    fast = FAST[2:] if flags[-1] == "--config" else FAST
    out = tmp_path / "out"
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(out)]
                    + fast + flags + operand.get(flags[-1], []))
    assert code == 2
    assert (f"error: {path}: {setting} but the file has "
            in capsys.readouterr().err)
    assert not out.exists()


# -- eval --------------------------------------------------------------------------


def _read_csv(path):
    with path.open() as f:
        return list(csv.reader(f))


def test_eval_with_source_and_targets(work, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = cli.main(["eval", "--ckpt", str(work["ckpt"]),
                     "--source", str(work["a"]), "--out", str(out),
                     str(work["c"]), str(work["d"])])
    assert code == 0
    rows = _read_csv(out)
    assert rows[0] == ["dataset", "dice"]
    names = [r[0] for r in rows[1:]]
    assert names == ["doma", "domc", "domd", "avg_targets"]
    target_mean = np.mean([float(rows[2][1]), float(rows[3][1])])
    assert abs(float(rows[4][1]) - target_mean) < 1e-9
    stdout = capsys.readouterr().out
    assert "avg_targets" in stdout


def test_eval_targets_only_row_count(work, tmp_path):
    out = tmp_path / "eval.csv"
    code = cli.main(["eval", "--ckpt", str(work["ckpt"]), "--out", str(out),
                     str(work["c"]), str(work["d"])])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 4  # header + 2 targets + average


def test_eval_requires_targets(work, tmp_path):
    code = cli.main(["eval", "--ckpt", str(work["ckpt"]),
                     "--out", str(tmp_path / "e.csv")])
    assert code == 2


def test_eval_class_count_mismatch(work, tmp_path, capsys):
    three = _three_class_file(tmp_path)
    code = cli.main(["eval", "--ckpt", str(work["ckpt"]),
                     "--out", str(tmp_path / "e.csv"), str(three)])
    assert code == 2
    assert "classes" in capsys.readouterr().err


def test_eval_corrupt_checkpoint_is_io_error(work, tmp_path):
    bad = tmp_path / "bad.dbfc"
    raw = bytearray(work["ckpt"].read_bytes())
    raw[25] ^= 0xFF
    bad.write_bytes(bytes(raw))
    code = cli.main(["eval", "--ckpt", str(bad),
                     "--out", str(tmp_path / "e.csv"), str(work["c"])])
    assert code == 3


def test_eval_names_the_corrupt_one_of_two_targets(work, tmp_path, capsys):
    bad = tmp_path / "flipped.dbfd"
    raw = bytearray(work["d"].read_bytes())
    raw[40] ^= 0x01
    bad.write_bytes(bytes(raw))
    code = cli.main(["eval", "--ckpt", str(work["ckpt"]),
                     "--out", str(tmp_path / "e.csv"), str(work["c"]), str(bad)])
    assert code == 3
    assert f"error: {bad}: checksum mismatch" in capsys.readouterr().err


def test_eval_writes_nothing_when_a_later_target_fails(work, tmp_path, capsys):
    # Each file is loaded only when its turn comes, so the good one is scored
    # before the bad one is read; neither a row nor the CSV may come out.
    bad = tmp_path / "truncated.dbfd"
    bad.write_bytes(work["d"].read_bytes()[:-9])
    out = tmp_path / "e.csv"
    code = cli.main(["eval", "--ckpt", str(work["ckpt"]), "--out", str(out),
                     "--source", str(work["a"]), str(work["c"]), str(bad)])
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_eval_exits_4_on_a_numerical_failure_in_a_worker(work, tmp_path, capsys,
                                                         monkeypatch):
    # With two CPUs a forked worker scores the second half of each file; its
    # NonFiniteError must reach main, and no worker may outlive the command.
    real_predict, parent = pl.predict, os.getpid()

    def predict(s, model):
        if os.getpid() != parent:
            raise NonFiniteError(f"injected in worker {os.getpid()}")
        return real_predict(s, model)

    monkeypatch.setattr(pl, "predict", predict)
    monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "e.csv"
    code = cli.main(["eval", "--ckpt", str(work["ckpt"]), "--out", str(out),
                     str(work["c"])])
    assert code == 4
    assert "numerical failure: injected in worker" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_train_exits_4_on_a_numerical_failure_in_a_worker(work, tmp_path, capsys,
                                                          monkeypatch):
    # With two CPUs a forked worker runs the second half of each batch; its
    # NonFiniteError, which names its phase, must reach main.
    real_gumbel, parent = pl.gumbel_softmax, os.getpid()

    def gumbel_softmax(*args):
        if os.getpid() != parent:
            raise NonFiniteError(f"injected in worker {os.getpid()}")
        return real_gumbel(*args)

    monkeypatch.setattr(pl, "gumbel_softmax", gumbel_softmax)
    monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: {0, 1})
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(tmp_path),
                     "--set", "run=r"] + FAST)
    assert code == 4
    assert ("numerical failure: [phase: prediction] injected in worker"
            in capsys.readouterr().err)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_train_runs_where_the_platform_lacks_affinity_or_fork(
        work, tmp_path, monkeypatch, missing):
    # macOS has no affinity call and Windows no fork; neither may change a
    # byte of the checkpoint.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, missing)
    code = cli.main(["train", "--data", str(work["a"]), "--out", str(tmp_path),
                     "--set", "run=r"] + FAST)
    assert code == 0
    assert (tmp_path / "r" / "ckpt-best.dbfc").read_bytes() == \
        work["ckpt"].read_bytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_eval_rejects_a_ver1_checkpoint_with_appearance_sections(
        work, tmp_path, capsys):
    # ver1 and ver3 checkpoints written while every variant built the
    # appearance encoder carry its parameters and their Adam moments.
    cfg = pl.config_for_version(
        pl.ModelConfig(image_size=(32, 32), channels=4), "ver1")
    model = pl.Model(cfg)
    model.appearance = pl.ResEncoder(1, cfg.channels, 1,
                                     np.random.default_rng(0))
    old = tmp_path / "old-ver1.dbfc"
    pl.checkpoint_save(model, old, opt=pl.Adam(model.named_params(), 1e-3),
                       epoch=1)
    code = cli.main(["eval", "--ckpt", str(old),
                     "--out", str(tmp_path / "e.csv"), str(work["c"])])
    assert code == 3
    err = capsys.readouterr().err
    assert str(old) in err and "unrecognized sections" in err
    assert "'appearance.blocks.0.0.b'" in err


@pytest.mark.parametrize("flags", [["--set", "not_a_key=1"],
                                   ["--config", "missing.cfg"],
                                   ["--seed", "3"]],
                         ids=["set", "config", "seed"])
def test_eval_rejects_options_it_never_reads(work, tmp_path, flags):
    out = tmp_path / "e.csv"
    code = cli.main(["eval", "--ckpt", str(work["ckpt"]), "--out", str(out),
                     str(work["c"])] + flags)
    assert code == 2
    assert not out.exists()


# -- ablate ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ablated(work, tmp_path_factory):
    """One ablate run at the FAST config, shared by the read-only tests."""
    out = tmp_path_factory.mktemp("ablate") / "ab"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["ablate", "--data", str(work["a"]),
                         "--targets", str(work["c"]), "--out", str(out)] + FAST)
    return {"code": code, "out": out, "stdout": buf.getvalue()}


def test_ablate_table_shape(ablated):
    assert ablated["code"] == 0
    out = ablated["out"]
    rows = _read_csv(out / "ablate.csv")
    assert rows[0] == ["version", "nf_posterior", "ncvi", "sde_girsanov",
                       "doma", "domc", "avg_targets"]
    assert [r[0] for r in rows[1:]] == ["ver1", "ver2", "ver3", "ver4", "ver5"]
    toggles = [(r[1] == "true", r[2] == "true", r[3] == "true")
               for r in rows[1:]]
    assert toggles == [pl.VERSION_TOGGLES[f"ver{i}"] for i in range(1, 6)]
    for r in rows[1:]:
        assert abs(float(r[6]) - float(r[5])) < 1e-9  # single target
        assert 0.0 <= float(r[4]) <= 1.0
    # The fits' epoch lines come first, then the table, then the difference.
    lines = ablated["stdout"].splitlines()
    assert lines[-1].startswith("ver5 - ver1 target average:")
    assert "not gated" in lines[-1]
    table = lines[-6:-1]
    assert [line.split()[0] for line in table] == [r[0] for r in rows[1:]]
    assert "".join(table).count("✓") == 9 and "".join(table).count("×") == 6
    assert (out / "config.echo").exists()
    for version in pl.VERSION_TOGGLES:
        assert (out / version / "ckpt-best.dbfc").exists()
    assert sorted(p.name for p in out.iterdir()) == \
        sorted(["ablate.csv", "config.echo", *pl.VERSION_TOGGLES])


def test_ablate_stops_at_a_failed_fit_with_its_code(work, tmp_path, capsys,
                                                    monkeypatch):
    # ver5 fits first; a NonFiniteError in a worker of its first step must
    # reach main as exit 4, start no other fit and leave no worker behind.
    real_gumbel, parent = pl.gumbel_softmax, os.getpid()

    def gumbel_softmax(*args):
        if os.getpid() != parent:
            raise NonFiniteError(f"injected in worker {os.getpid()}")
        return real_gumbel(*args)

    monkeypatch.setattr(pl, "gumbel_softmax", gumbel_softmax)
    monkeypatch.setattr(pl.os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "ab"
    code = cli.main(["ablate", "--data", str(work["a"]),
                     "--targets", str(work["c"]), "--out", str(out)] + FAST)
    assert code == 4
    err = capsys.readouterr().err
    assert "error: ablate ver5 failed" in err
    assert "numerical failure: [phase: prediction] injected in worker" in err
    assert not (out / "ablate.csv").exists()
    assert sorted(p.name for p in out.iterdir()) == ["config.echo", "ver5"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_ablate_runs_from_another_directory_with_relative_paths(
        work, ablated, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["ablate", "--data", os.path.relpath(work["a"]),
                     "--targets", os.path.relpath(work["c"]),
                     "--out", "ab"] + FAST)
    assert code == 0
    assert (tmp_path / "ab" / "ablate.csv").read_bytes() == \
        (ablated["out"] / "ablate.csv").read_bytes()


def test_ablate_requires_targets(work, tmp_path):
    code = cli.main(["ablate", "--data", str(work["a"]),
                     "--out", str(tmp_path / "ab")] + FAST)
    assert code == 2


def test_ablate_target_geometry_mismatch(work, tmp_path, capsys):
    three = _three_class_file(tmp_path)
    code = cli.main(["ablate", "--data", str(work["a"]),
                     "--targets", str(three),
                     "--out", str(tmp_path / "ab")] + FAST)
    assert code == 2
    assert "three.dbfd" in capsys.readouterr().err


# -- sample-posterior --------------------------------------------------------------


def test_sample_posterior_outputs(work, tmp_path, capsys):
    out = tmp_path / "post"
    code = cli.main(["sample-posterior", "--ckpt", str(work["ckpt"]),
                     "--data", str(work["a"]), "--index", "0",
                     "--m", "4", "--out", str(out)])
    assert code == 0
    pgms = sorted(p.name for p in out.glob("sample_*.pgm"))
    assert pgms == ["sample_00.pgm", "sample_01.pgm",
                    "sample_02.pgm", "sample_03.pgm"]
    assert (out / "entropy.pgm").exists()
    head = (out / "sample_00.pgm").read_bytes()[:20]
    assert head.startswith(b"P5\n32 32\n255\n")
    rows = _read_csv(out / "log_weights.csv")
    assert rows[0] == ["sample", "log_weight"]
    assert len(rows) == 5
    stdout = capsys.readouterr().out
    assert "mean exp(log_weight)" in stdout


def test_sample_posterior_entropy_zero_where_agree(work, tmp_path):
    out = tmp_path / "post"
    cli.main(["sample-posterior", "--ckpt", str(work["ckpt"]),
              "--data", str(work["a"]), "--m", "4", "--out", str(out),
              "--seed", "1"])
    stacks = []
    for i in range(4):
        raw = (out / f"sample_{i:02d}.pgm").read_bytes()
        body = raw.split(b"\n", 3)[3]
        stacks.append(np.frombuffer(body, dtype=np.uint8).reshape(32, 32))
    stack = np.stack(stacks)
    agree = (stack == stack[0]).all(axis=0)
    assert agree.any()
    raw = (out / "entropy.pgm").read_bytes()
    entropy = np.frombuffer(raw.split(b"\n", 3)[3], dtype=np.uint8)
    entropy = entropy.reshape(32, 32)
    assert np.all(entropy[agree] == 0)


def test_sample_posterior_deterministic(work, tmp_path):
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert cli.main(["sample-posterior", "--ckpt", str(work["ckpt"]),
                         "--data", str(work["a"]), "--m", "2",
                         "--out", str(out), "--seed", "5"]) == 0
        outs.append((out / "sample_00.pgm").read_bytes()
                    + (out / "log_weights.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sample_posterior_draws_equal_forward_on_the_loaded_model(
        work, tmp_path, monkeypatch):
    drawn = []

    def spy(image, model, mode, rng):
        out = pl.forward(image, model, mode, rng)
        drawn.append((model, out))
        return out

    monkeypatch.setattr(cli, "forward", spy)
    out = tmp_path / "post"
    assert cli.main(["sample-posterior", "--ckpt", str(work["ckpt"]),
                     "--data", str(work["a"]), "--index", "1", "--m", "3",
                     "--out", str(out), "--seed", "9"]) == 0
    model, _, _ = pl.checkpoint_load(work["ckpt"])
    image = fd.dataset_load(work["a"])[1].image
    rng = np.random.default_rng(9)
    rows = _read_csv(out / "log_weights.csv")[1:]
    assert len(drawn) == 3
    for i, (frozen, got) in enumerate(drawn):
        assert not any(p.requires_grad for p in frozen.params())
        assert got.y_hat._node is None
        want = pl.forward(image, model, "train", rng)
        assert want.y_hat.requires_grad
        np.testing.assert_array_equal(got.y_hat.data, want.y_hat.data)
        assert got.log_rn_weight == want.log_rn_weight
        expected = tmp_path / f"want_{i}.pgm"
        fd.pgm_write(want.y_hat.data[0].argmax(axis=0), expected)
        assert (out / f"sample_{i:02d}.pgm").read_bytes() == expected.read_bytes()
        assert rows[i] == [str(i), f"{want.log_rn_weight:.10g}"]


def test_sample_posterior_bad_index(work, tmp_path):
    code = cli.main(["sample-posterior", "--ckpt", str(work["ckpt"]),
                     "--data", str(work["a"]), "--index", "999",
                     "--out", str(tmp_path / "p")])
    assert code == 2


def test_sample_posterior_geometry_mismatch(work, tmp_path, capsys):
    three = _three_class_file(tmp_path)
    out = tmp_path / "p"
    code = cli.main(["sample-posterior", "--ckpt", str(work["ckpt"]),
                     "--data", str(three), "--out", str(out)])
    assert code == 2
    assert "three.dbfd" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--set", "bogus=1"],
                                   ["--config", "missing.cfg"]],
                         ids=["set", "config"])
def test_sample_posterior_rejects_options_it_never_reads(work, tmp_path, flags):
    out = tmp_path / "p"
    code = cli.main(["sample-posterior", "--ckpt", str(work["ckpt"]),
                     "--data", str(work["a"]), "--out", str(out)] + flags)
    assert code == 2
    assert not out.exists()


# -- inspect -----------------------------------------------------------------------


def test_inspect_dataset(work, capsys):
    assert cli.main(["inspect", str(work["a"])]) == 0
    out = capsys.readouterr().out
    assert "kind: dataset" in out
    assert "samples: 12" in out
    assert "checksum: ok" in out


def test_inspect_checkpoint(work, capsys):
    assert cli.main(["inspect", str(work["ckpt"])]) == 0
    out = capsys.readouterr().out
    assert "kind: checkpoint" in out
    assert "num_classes: 2" in out
    assert f"image_size: {SIZE}" in out


def test_inspect_unknown_file(tmp_path):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"hello world")
    assert cli.main(["inspect", str(junk)]) == 3
    assert cli.main(["inspect", str(tmp_path / "missing")]) == 3


def test_inspect_truncated_dataset(work, tmp_path):
    cut = tmp_path / "cut.dbfd"
    cut.write_bytes(work["a"].read_bytes()[:40])
    assert cli.main(["inspect", str(cut)]) == 3


def _sealed(body: bytes, path: Path) -> Path:
    """Write ``body`` to ``path`` behind a valid CRC32 trailer."""
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


def _inspect_and_eval_exit_3(work, tmp_path, capsys, *, ckpt=None, data=None):
    """Run ``inspect`` on the bad file and ``eval`` through it; assert that
    each exits 3 and return their stderr."""
    errs = []
    for argv in (["inspect", str(ckpt or data)],
                 ["eval", "--ckpt", str(ckpt or work["ckpt"]),
                  "--out", str(tmp_path / "e.csv"), str(data or work["c"])]):
        assert cli.main(argv) == 3
        errs.append(capsys.readouterr().err)
    return errs


def test_dataset_with_a_non_finite_image_exits_3(work, tmp_path, capsys):
    # Header 15 bytes, then per sample a 32x32 f64 image and a u8 mask.
    raw = bytearray(work["c"].read_bytes()[:-4])
    at = 15 + 32 * 32 * 9 + 8 * 37
    raw[at:at + 8] = struct.pack("<d", float("nan"))
    bad = _sealed(bytes(raw), tmp_path / "nan.dbfd")
    for err in _inspect_and_eval_exit_3(work, tmp_path, capsys, data=bad):
        assert f"error: {bad}: sample 1: image holds a non-finite value" in err


def test_dataset_declaring_no_samples_exits_3(work, tmp_path, capsys):
    raw = work["c"].read_bytes()
    empty = _sealed(raw[:6] + struct.pack("<IHHB", 0, 32, 32, 2),
                    tmp_path / "empty.dbfd")
    for err in _inspect_and_eval_exit_3(work, tmp_path, capsys, data=empty):
        assert f"error: {empty}: the dataset declares 0 samples" in err


@pytest.mark.parametrize("section", ["seg.enc0a.w", "opt.v.flow.layers.0.b2"])
def test_checkpoint_with_a_non_finite_section_exits_3(work, tmp_path, capsys,
                                                      section):
    raw = bytearray(work["ckpt"].read_bytes()[:-4])
    name = struct.pack("<H", len(section)) + section.encode()
    assert raw.count(name) == 1
    at = raw.index(name) + len(name)
    at += 1 + 4 * raw[at]                    # ndim byte, then the shape
    raw[at:at + 8] = struct.pack("<d", float("inf"))
    bad = _sealed(bytes(raw), tmp_path / "inf.dbfc")
    for err in _inspect_and_eval_exit_3(work, tmp_path, capsys, ckpt=bad):
        assert (f"error: {bad}: non-finite values in sections: ['{section}']"
                in err)


@pytest.mark.parametrize("key", ["tau", "hp.phi_rho", "augment", "hp.mu0"])
def test_inspect_rejects_config_block_of_another_build(work, tmp_path, capsys,
                                                       monkeypatch, key):
    # Save with the key dropped from the config block, or with a key of an
    # older build added: neither may load with a default filled in.
    model, _, _ = pl.checkpoint_load(work["ckpt"])
    real_items = pl.config_items

    def items(cfg):
        out = real_items(cfg)
        if key in out:
            del out[key]
        else:
            out[key] = {"augment": False, "hp.mu0": 0.0}[key]
        return out

    monkeypatch.setattr(pl, "config_items", items)
    path = tmp_path / "other.dbfc"
    _save_fresh(model, path)
    monkeypatch.undo()
    assert cli.main(["inspect", str(path)]) == 3
    assert repr(key) in capsys.readouterr().err


def test_checkpoint_config_block_is_the_echo_text(work):
    keys = pl.config_items(pl.ModelConfig()).keys()
    echo = (work["run"] / "config.echo").read_text().splitlines(keepends=True)
    model_lines = "".join(line for line in echo if line.split(" = ")[0] in keys)
    for name in ("ckpt-best.dbfc", "ckpt-last.dbfc"):
        path = work["run"] / name
        block = unseal(path.read_bytes(), CHECKPOINT_MAGIC, path).take_str()
        assert block == model_lines


def _with_config_block(raw: bytes, edit) -> bytes:
    """A checkpoint body (no CRC) whose config block is ``edit(block)``."""
    (length,) = struct.unpack_from("<H", raw, 6)
    block = edit(raw[8:8 + length].decode()).encode()
    return raw[:6] + struct.pack("<H", len(block)) + block + raw[8 + length:]


@pytest.mark.parametrize("edit, line", [
    # A second line for a key once loaded silently, the later value winning.
    (lambda b: b.replace("tau = 1.0\n", "tau = 1.0\ntau = 0.5\n"), "tau = 1.0"),
    (lambda b: b.replace("tau = 1.0\n", "tau = 1.0\ntau = 1.0\n"), "tau = 1.0"),
    (lambda b: b.replace("tau = 1.0\n", "tau = 1.00\n"), "tau = 1.00"),
    (lambda b: "tau = 1.0\n" + b.replace("tau = 1.0\n", ""), "tau = 1.0"),
], ids=["key_twice", "line_twice", "value_form", "out_of_order"])
def test_config_block_that_is_not_its_configs_text_exits_3(work, tmp_path, capsys,
                                                           edit, line):
    raw = work["ckpt"].read_bytes()[:-4]
    bad = _sealed(_with_config_block(raw, edit), tmp_path / "block.dbfc")
    for err in _inspect_and_eval_exit_3(work, tmp_path, capsys, ckpt=bad):
        assert f"error: {bad}: config block is not the text of the config" in err
        assert f"from line {line + chr(10)!r}" in err


@pytest.mark.parametrize("copies", [0, 2])
def test_checkpoint_without_one_epoch_section_exits_3(work, tmp_path, capsys,
                                                      copies):
    # The saver writes epoch once.  A file without it once loaded as epoch 0,
    # and one with two epoch sections as the later one.
    raw = work["ckpt"].read_bytes()[:-4]
    epoch = b"\x05\x00epoch\x01" + struct.pack("<Id", 1, 1.0)
    assert raw.endswith(epoch)
    at = 8 + struct.unpack_from("<H", raw, 6)[0]  # the section count
    (count,) = struct.unpack_from("<I", raw, at)
    body = (raw[:at] + struct.pack("<I", count - 1 + copies)
            + raw[at + 4:-len(epoch)] + epoch * copies)
    bad = _sealed(body, tmp_path / "epochs.dbfc")
    fault = ("missing sections: ['epoch']" if copies == 0 else
             f"{count + 1} sections, {count} distinct names")
    for err in _inspect_and_eval_exit_3(work, tmp_path, capsys, ckpt=bad):
        assert f"error: {bad}: {fault}" in err


def test_out_of_range_config_block_exits_3_naming_the_file(work, tmp_path, capsys):
    model, _, _ = pl.checkpoint_load(work["ckpt"])
    object.__setattr__(model.cfg, "tau", float("nan"))
    path = tmp_path / "nan_tau.dbfc"
    _save_fresh(model, path)
    assert cli.main(["inspect", str(path)]) == 3
    assert (f"error: {path}: config block: tau must be finite and positive, "
            "got nan") in capsys.readouterr().err
    assert cli.main(["eval", "--ckpt", str(path), "--out", str(tmp_path / "e.csv"),
                     str(work["c"])]) == 3
    assert str(path) in capsys.readouterr().err


def _no_memory(cfg):
    """Stands in for ``pl.Model`` of a config too large for any host, so no
    test depends on the host's overcommit policy."""
    raise MemoryError(f"Unable to allocate a model of {cfg.channels} channels")


def test_train_of_a_model_that_cannot_be_allocated_exits_2(work, tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(pl, "Model", _no_memory)
    code = cli.main(["train", "--data", str(work["a"]),
                     "--out", str(tmp_path / "out")]
                    + FAST + ["--set", "channels=10000000"])
    assert code == 2
    assert ("error: out of memory: Unable to allocate a model of 10000000 "
            "channels") in capsys.readouterr().err


def test_checkpoint_whose_model_cannot_be_allocated_exits_3(work, tmp_path, capsys,
                                                          monkeypatch):
    raw = work["ckpt"].read_bytes()[:-4]
    edit = lambda b: b.replace("channels = 4\n", "channels = 10000000\n")
    bad = _sealed(_with_config_block(raw, edit), tmp_path / "huge.dbfc")
    monkeypatch.setattr(pl, "Model", _no_memory)
    for err in _inspect_and_eval_exit_3(work, tmp_path, capsys, ckpt=bad):
        assert f"error: {bad}: config block: no memory for its model" in err


def test_undecodable_section_name_is_format_error(work, tmp_path, capsys):
    # Reseal the checkpoint with byte 0xff in the epoch section's name.
    raw = work["ckpt"].read_bytes()[:-4]
    assert raw.count(b"\x05\x00epoch") == 1
    raw = raw.replace(b"\x05\x00epoch", b"\x05\x00\xffpoch")
    bad = tmp_path / "bad_name.dbfc"
    bad.write_bytes(raw + struct.pack("<I", zlib.crc32(raw)))
    assert cli.main(["inspect", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "string at offset" in err and "is not UTF-8" in err


def test_corrupt_section_shape_is_format_error(work, tmp_path, capsys):
    # Reseal the checkpoint with its one-element epoch section claiming shape
    # (65536,) * 4: 2**64 elements, a count that wraps to 0 in int64.
    raw = work["ckpt"].read_bytes()[:-4]
    epoch = b"\x05\x00epoch\x01" + struct.pack("<I", 1)
    assert raw.count(epoch) == 1
    raw = raw.replace(epoch, b"\x05\x00epoch\x04" + struct.pack("<4I", *[65536] * 4))
    bad = tmp_path / "bad_shape.dbfc"
    bad.write_bytes(raw + struct.pack("<I", zlib.crc32(raw)))
    assert cli.main(["inspect", str(bad)]) == 3
    assert "'epoch'" in capsys.readouterr().err
    assert cli.main(["eval", "--ckpt", str(bad), "--out", str(tmp_path / "e.csv"),
                     str(work["c"])]) == 3
    assert "'epoch'" in capsys.readouterr().err


@pytest.mark.parametrize("header, message", [
    # numpy: "maximum supported dimension for an ndarray is currently 64"
    (b"\x41" + struct.pack("<65I", *[0] * 65), "65 dimensions, at most 4"),
    # numpy: "can only convert an array of size 1 to a Python scalar"
    (b"\x02" + struct.pack("<2I", 3, 0), "shape (3, 0) has a zero dimension"),
    # numpy: "array is too big; `arr.size * arr.dtype.itemsize` is larger ..."
    (b"\x03" + struct.pack("<3I", 0, 2**32 - 1, 2**32 - 1),
     "shape (0, 4294967295, 4294967295) has a zero dimension"),
], ids=["ndim_65", "zero_dimension", "oversized"])
def test_section_header_numpy_rejects_is_format_error(work, tmp_path, capsys,
                                                      header, message):
    # Reseal the checkpoint with its last section, epoch, replaced by a
    # header that claims no data: each one once reached numpy and exited 2.
    raw = work["ckpt"].read_bytes()[:-4]
    epoch = b"\x05\x00epoch\x01" + struct.pack("<Id", 1, 1.0)
    assert raw.endswith(epoch)
    bad = _sealed(raw[:-len(epoch)] + b"\x05\x00epoch" + header,
                  tmp_path / "bad_header.dbfc")
    assert cli.main(["inspect", str(bad)]) == 3
    assert f"error: {bad}: section 'epoch': {message}" in capsys.readouterr().err


@pytest.mark.parametrize("section, value", [
    ("epoch", -1.0), ("epoch", 0.5), ("opt.t", -3.0), ("opt.t", 0.5)])
def test_checkpoint_count_that_is_not_a_whole_number_exits_3(
        work, tmp_path, capsys, section, value):
    # A negative or fractional epoch or Adam step count once loaded
    # truncated, or failed later in numpy or in the first step.
    raw = work["ckpt"].read_bytes()[:-4]
    head = (struct.pack("<H", len(section)) + section.encode()
            + b"\x01" + struct.pack("<I", 1))
    assert raw.count(head) == 1
    at = raw.index(head) + len(head)
    bad = _sealed(raw[:at] + struct.pack("<d", value) + raw[at + 8:],
                  tmp_path / "count.dbfc")
    out = tmp_path / "out"
    for argv in (["inspect", str(bad)],
                 ["train", "--data", str(work["a"]), "--out", str(out),
                  "--set", "epochs=2", "--resume", str(bad)]):
        assert cli.main(argv) == 3
        assert (f"error: {bad}: sections ['{section}'] must each hold one "
                "whole number >= 0" in capsys.readouterr().err)
    assert not out.exists()


def _section_headers(raw: bytes) -> list[range]:
    """The byte offsets of each section's name, ndim and shape fields in a
    checkpoint's bytes."""
    at = 6                                   # magic and version
    at += 2 + struct.unpack_from("<H", raw, at)[0]   # config block
    (count,) = struct.unpack_from("<I", raw, at)
    at += 4
    out = []
    for _ in range(count):
        start = at
        at += 2 + struct.unpack_from("<H", raw, at)[0]
        ndim = raw[at]
        shape = struct.unpack_from(f"<{ndim}I", raw, at + 1)
        at += 1 + 4 * ndim
        out.append(range(start, at))
        at += 8 * int(np.prod(shape))
    return out


def test_section_header_byte_changes_exit_0_or_3(work, tmp_path, capsys):
    # A fixed-seed sample of single-byte changes to the section names, ndims
    # and shapes of a resealed checkpoint: each one loads or exits 3 naming
    # the file, never 2 and never with a traceback.  A third of the changes
    # set an ndim byte to 5..255; the rest set any header byte to 0, 255, or
    # one above or below its value.
    raw = work["ckpt"].read_bytes()[:-4]
    headers = _section_headers(raw)
    offsets = [i for r in headers for i in r]
    # Each header is a u16 name length, the name, the ndim byte, the shape.
    ndims = [r.start + 2 + struct.unpack_from("<H", raw, r.start)[0]
             for r in headers]
    rng = np.random.default_rng(21)
    changes = [(at, rng.integers(5, 256)) for at in rng.choice(ndims, 100)]
    for at in rng.choice(offsets, 200):
        b = int(raw[at])
        changes.append((at, rng.choice([0, 255, (b + 1) % 256, (b - 1) % 256])))
    bad = tmp_path / "changed.dbfc"
    codes = []
    for at, value in changes:
        body = bytearray(raw)
        body[at] = value
        _sealed(bytes(body), bad)
        codes.append(cli.main(["inspect", str(bad)]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 3), (at, value, err)
        assert codes[-1] == 0 or err.startswith(f"error: {bad}: "), err
    assert codes.count(3) > 250


def test_checkpoint_without_moments_exits_3(work, tmp_path, capsys):
    # An older layout held the config block, the parameters and epoch, with
    # no Adam state.  Resuming from it restarted Adam at step 0 without a word.
    model, _, _ = pl.checkpoint_load(work["ckpt"])
    sections = [(name, p.data) for name, p in model.named_params()]
    sections.append(("epoch", np.array([1.0])))
    out = Writer(CHECKPOINT_MAGIC)
    out.put_str(pl.config_text(pl.config_items(model.cfg)))
    out.put("<I", len(sections))
    for name, arr in sections:
        out.put_str(name)
        out.put(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
        out.put_bytes(np.ascontiguousarray(arr, dtype="<f8"))
    old = tmp_path / "no-moments.dbfc"
    old.write_bytes(out.seal())
    runs = tmp_path / "runs"
    for argv in (["train", "--data", str(work["a"]), "--resume", str(old),
                  "--set", "epochs=2", "--out", str(runs)],
                 ["eval", "--ckpt", str(old), "--out", str(tmp_path / "e.csv"),
                  str(work["c"])],
                 ["inspect", str(old)]):
        assert cli.main(argv) == 3, argv
        assert f"error: {old}: missing sections: ['opt.m." in capsys.readouterr().err
    assert not runs.exists()


def test_checkpoint_with_reversal_numbered_layers_exits_3(tmp_path, capsys):
    # A layout that counted a parameter-free reversal between MAF layers
    # named the second one flow.layers.2; this build reads it as
    # flow.layers.1.
    cfg = pl.ModelConfig(image_size=(32, 32), channels=2, flow_layers=2,
                         flow_hidden=4)
    path = tmp_path / "old.dbfc"
    _save_fresh(pl.Model(cfg), path)
    raw = path.read_bytes()[:-4]
    assert raw.count(b"flow.layers.1.") == 12  # 4 parameters, 8 moments
    raw = raw.replace(b"flow.layers.1.", b"flow.layers.2.")
    path.write_bytes(raw + struct.pack("<I", zlib.crc32(raw)))
    assert cli.main(["inspect", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"error: {path}: missing sections: " in err
    for name in ("w1", "b1", "w2", "b2"):
        assert f"'flow.layers.1.{name}'" in err


# -- top level ---------------------------------------------------------------------


def test_closed_stdout_exits_141_quietly(work):
    # The read end of the pipe is closed before the child prints anything.
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-m", "flowseg.cli", "inspect", str(work["a"])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert err == b""
    assert child.returncode == 141


@pytest.mark.parametrize("preset, want", [(None, "1 1"), ("3", "3 1")])
def test_the_cli_runs_one_blas_thread_unless_told_otherwise(preset, want):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import flowseg.cli, os; print(os.environ['OPENBLAS_NUM_THREADS'], "
            "os.environ['OMP_NUM_THREADS'])")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == want.split()


def test_usage_errors_exit_2():
    assert cli.main([]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["train"]) == 2  # missing required --data


def test_every_ablate_row_matches_standalone_train_and_eval(work, ablated,
                                                          tmp_path):
    # Each ablation line must be reproducible by a plain train + eval with
    # the same seed and toggles.
    keys = ("nf_posterior", "ncvi", "sde_girsanov")
    rows = _read_csv(ablated["out"] / "ablate.csv")[1:]
    for row in rows:
        version = row[0]
        toggles = [a for key, on in zip(keys, row[1:4])
                   for a in ("--set", f"{key}={on}")]
        out = tmp_path / "out"
        code = cli.main(["train", "--data", str(work["a"]), "--out", str(out),
                         "--set", f"run={version}"] + FAST + toggles)
        assert code == 0
        ecsv = tmp_path / f"{version}.csv"
        code = cli.main(["eval", "--ckpt", str(out / version / "ckpt-best.dbfc"),
                         "--source", str(work["a"]), "--out", str(ecsv),
                         str(work["c"])])
        assert code == 0
        eval_rows = {r[0]: r[1] for r in _read_csv(ecsv)[1:]}
        assert row[4:] == [eval_rows["doma"], eval_rows["domc"],
                           eval_rows["avg_targets"]], version
        # The whole run directory, not only the row, is the standalone run's.
        for name in ("ckpt-best.dbfc", "ckpt-last.dbfc", "metrics.csv",
                     "config.echo"):
            assert (ablated["out"] / version / name).read_bytes() == \
                (out / version / name).read_bytes(), (version, name)
