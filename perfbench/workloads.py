"""The three benchmark workloads and the checks on their outputs.

Each workload is built from the paper's own commands: set-up generates its
datasets with ``flowseg gen-data`` (and, for ``eval``, trains the checkpoint
it scores), and one round runs the measured command once.  The checks use
independent computations or properties the method must have, never stored
copies of earlier output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Floor on the eval source Dice (acceptance criterion 09's floor), and the
# least A->C drop that shows the domain shift (criterion 10).
DICE_FLOOR = 0.85
SHIFT_FLOOR = 0.05
# The CLI writes floats with 10 significant digits.
CSV_TOL = 1e-9


def set_dice(pred: np.ndarray, gt: np.ndarray, k: int) -> float:
    """2|P∩G| / (|P| + |G|) for class k; 1 when both sets are empty."""
    p = np.asarray(pred) == k
    g = np.asarray(gt) == k
    size = np.count_nonzero(p) + np.count_nonzero(g)
    return 1.0 if size == 0 else 2.0 * np.count_nonzero(p & g) / size


def mean_dice(labels, masks, num_classes: int) -> float:
    """Mean over images of the mean Dice over the foreground classes."""
    return float(np.mean([np.mean([set_dice(p, g, k)
                                   for k in range(1, num_classes)])
                          for p, g in zip(labels, masks)]))


def predicted_dice(ckpt: Path, samples) -> float:
    """Dice of a checkpoint's ``predict`` labels, scored by ``mean_dice``."""
    from flowseg.pipeline import checkpoint_load, predict

    model, _, _ = checkpoint_load(ckpt)
    labels = [predict(s.image, model)[0] for s in samples]
    return mean_dice(labels, [s.mask for s in samples], model.cfg.num_classes)


def load(path: Path):
    from flowseg.data import dataset_load
    return dataset_load(path)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _unit_interval(name: str, value: float) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{name} Dice {value} outside [0, 1]"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CSV_TOL


@dataclass(frozen=True)
class DatasetSpec:
    stem: str
    domain: str
    n: int
    # None keeps the domain's default seed.
    seed_offset: int | None


class Workload:
    """One set of inputs, derived from the workload seed."""

    name = ""
    datasets: tuple[DatasetSpec, ...] = ()
    # Images the measured command pushes through the model per round.
    images = 0
    setup_reps = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.model_seed = 1000 * seed

    def path(self, data: Path, stem: str) -> str:
        return str(data / f"{stem}.dbfd")

    def setup_commands(self, data: Path) -> list[list[str]]:
        return [["gen-data", "--domain", d.domain, "--n", str(d.n)]
                + ([] if d.seed_offset is None
                   else ["--set", f"seed={1000 * self.seed + d.seed_offset}"])
                + ["--out", self.path(data, d.stem)]
                for d in self.datasets]

    def command(self, data: Path, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, data: Path, out: Path, run_cli) -> list[str]:
        """Problems found in one round's outputs; empty when all hold."""
        raise NotImplementedError


class Train(Workload):
    """All components on (ver5), 200 domain-A images, one epoch."""

    name = "train"
    datasets = (DatasetSpec("a", "A", 200, 1),)
    n_val = 40  # the CLI's default 0.2 hold-out split
    epochs = 1
    images = (200 - n_val) * epochs

    def command(self, data, out):
        return ["train", "--data", self.path(data, "a"), "--out", str(out),
                "--seed", str(self.model_seed), "--set", f"epochs={self.epochs}",
                "--set", "early_stop_dice=0"]

    def check(self, data, out, run_cli):
        run = out / "run"
        rows = read_csv(run / "metrics.csv")
        problems = [f"metrics.csv: non-finite {k}={v} in epoch {r['epoch']}"
                    for r in rows for k, v in r.items()
                    if not math.isfinite(float(v))]
        if len(rows) != self.epochs:
            return problems + [f"metrics.csv has {len(rows)} rows, "
                               f"expected {self.epochs}"]
        best = max(float(r["dice_val"]) for r in rows)
        problems += _unit_interval("best dice_val", best)
        val = load(Path(self.path(data, "a")))[-self.n_val:]
        own = predicted_dice(run / "ckpt-best.dbfc", val)
        if not _close(own, best):
            problems.append(f"ckpt-best predict Dice {own!r} != dice_val {best!r}")
        for ckpt in ("ckpt-best", "ckpt-last"):
            res = run_cli(["inspect", str(run / f"{ckpt}.dbfc")],
                          out / f"inspect-{ckpt}.log")
            if res.code != 0:
                problems.append(f"inspect {ckpt} exited {res.code}")
        return problems


class Eval(Workload):
    """One fixed ver5 checkpoint scored on held-out A, B, C and D sets.

    The checkpoint is trained for one epoch on 120 domain-A images, with the
    program's default data and model seeds.  It does not depend on the
    workload seed, which reaches the held-out sets only, so every seed scores
    the same model, one that segments domain A well.
    """

    name = "eval"
    datasets = (DatasetSpec("a_train", "A", 120, None),
                DatasetSpec("a_held", "A", 48, 2),
                DatasetSpec("b", "B", 48, 3),
                DatasetSpec("c", "C", 48, 4),
                DatasetSpec("d", "D", 48, 5))
    scored = ("a_held", "b", "c", "d")
    images = 4 * 48
    # Set-up trains a checkpoint, so it runs once per run.
    setup_reps = 1

    def ckpt(self, data: Path) -> Path:
        return data / "ckpt" / "run" / "ckpt-best.dbfc"

    def setup_commands(self, data):
        return super().setup_commands(data) + [
            ["train", "--data", self.path(data, "a_train"),
             "--out", str(data / "ckpt"), "--set", "epochs=1"]]

    def command(self, data, out):
        return (["eval", "--ckpt", str(self.ckpt(data)),
                 "--source", self.path(data, "a_held")]
                + [self.path(data, s) for s in self.scored[1:]]
                + ["--out", str(out / "eval.csv")])

    def check(self, data, out, run_cli):
        rows = {r["dataset"]: float(r["dice"])
                for r in read_csv(out / "eval.csv")}
        expected = list(self.scored) + ["avg_targets"]
        if list(rows) != expected:
            return [f"eval.csv rows {list(rows)} != {expected}"]
        problems = [p for name, d in rows.items()
                    for p in _unit_interval(name, d)]
        targets = [rows[s] for s in self.scored[1:]]
        if not _close(rows["avg_targets"], float(np.mean(targets))):
            problems.append(f"avg_targets {rows['avg_targets']} != mean of "
                            f"targets {np.mean(targets)}")
        # Recompute one set's row from predict labels; the set rotates with
        # the seed so every set is covered across seeds.
        stem = self.scored[self.seed % len(self.scored)]
        own = predicted_dice(self.ckpt(data), load(Path(self.path(data, stem))))
        if not _close(own, rows[stem]):
            problems.append(f"{stem}: predict Dice {own!r} != eval {rows[stem]!r}")
        if rows["a_held"] < DICE_FLOOR:
            problems.append(f"source Dice {rows['a_held']:.4f} < {DICE_FLOOR}")
        drop = rows["a_held"] - rows["c"]
        if drop < SHIFT_FLOOR:
            problems.append(f"A->C drop {drop:.4f} < {SHIFT_FLOOR}")
        return problems


class Ablate(Workload):
    """The five-version sweep on a small domain-A source, domain-C target."""

    name = "ablate"
    datasets = (DatasetSpec("a", "A", 30, 1), DatasetSpec("c", "C", 16, 2))
    n_val = 6  # the CLI's default 0.2 hold-out split
    images = (30 - n_val) * 5  # training images stepped over five fits

    def command(self, data, out):
        return ["ablate", "--data", self.path(data, "a"),
                "--targets", self.path(data, "c"), "--out", str(out),
                "--seed", str(self.model_seed), "--set", "epochs=1"]

    def check(self, data, out, run_cli):
        from flowseg.pipeline import VERSION_TOGGLES

        rows = read_csv(out / "ablate.csv")
        versions = [r["version"] for r in rows]
        if versions != sorted(VERSION_TOGGLES):
            return [f"ablate.csv versions {versions}"]
        problems = []
        for r in rows:
            toggles = tuple(r[k] == "true"
                            for k in ("nf_posterior", "ncvi", "sde_girsanov"))
            if toggles != VERSION_TOGGLES[r["version"]]:
                problems.append(f"{r['version']}: toggles {toggles}")
            for name in ("a", "c", "avg_targets"):
                problems += _unit_interval(f"{r['version']} {name}",
                                           float(r[name]))
            if not _close(float(r["avg_targets"]), float(r["c"])):
                problems.append(f"{r['version']}: avg_targets {r['avg_targets']}"
                                f" != mean of targets {r['c']}")
        # ver1 must equal a standalone train with every component off plus
        # an eval of its checkpoint, with the same seed.
        alone = out / "ver1-standalone"
        res = run_cli(["train", "--data", self.path(data, "a"),
                       "--out", str(alone), "--seed", str(self.model_seed),
                       "--set", "epochs=1", "--set", "nf_posterior=false",
                       "--set", "ncvi=false", "--set", "sde_girsanov=false"],
                      out / "ver1-train.log")
        if res.code != 0:
            return problems + [f"standalone ver1 train exited {res.code}"]
        res = run_cli(["eval", "--ckpt", str(alone / "run" / "ckpt-best.dbfc"),
                       "--source", self.path(data, "a"), self.path(data, "c"),
                       "--out", str(alone / "eval.csv")],
                      out / "ver1-eval.log")
        if res.code != 0:
            return problems + [f"standalone ver1 eval exited {res.code}"]
        alone_rows = {r["dataset"]: r["dice"]
                      for r in read_csv(alone / "eval.csv")}
        for name in ("a", "c"):
            if alone_rows[name] != rows[0][name]:
                problems.append(f"ver1 {name} {rows[0][name]} != standalone "
                                f"train + eval {alone_rows[name]}")
        return problems


WORKLOADS = {w.name: w for w in (Train, Eval, Ablate)}
