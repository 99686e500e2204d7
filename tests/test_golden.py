"""Golden-run pins: five short fits whose outputs tier-1 checks bit for bit.

Each of ver1..ver5 is fit on 16 domain-A images at 32x32 (12 train, 4 val)
with ``channels=4``, ``batch_size=4``, 2 epochs and seed 7.  The pins are:

- the SHA-256 of ``ckpt-last.dbfc``;
- every history row, each value written with ``format_value``;
- the SHA-256 of ``posterior_mean`` on the 4 validation images;
- a run fit for 1 epoch and resumed to 2, whose ``ckpt-last.dbfc`` must hash
  to the unbroken run's pin.

``PYTHONPATH=src python tests/test_golden.py`` prints the ``PINS`` dict of
the current code, to paste over the one below when re-pinning.

Re-pin rule: a change that alters numerics on purpose re-pins in the same
change.  Its CHANGES.md entry says which pins moved and why, and gives the
largest relative parameter difference against the parent.  Never re-pin to
get past a change that nobody has explained.
"""

import functools
import hashlib
import pprint
import tempfile
from pathlib import Path

import numpy as np
import pytest

import flowseg.data as fd
import flowseg.pipeline as pl

VERSIONS = sorted(pl.VERSION_TOGGLES)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cfg(version: str, epochs: int = 2) -> pl.ModelConfig:
    base = pl.ModelConfig(image_size=(32, 32), channels=4, batch_size=4,
                          epochs=epochs, seed=7)
    return pl.config_for_version(base, version)


@functools.lru_cache(maxsize=None)
def _samples():
    samples = fd.gen_dataset(fd.DOMAINS["A"], 16, image_size=(32, 32))
    return samples[:12], samples[12:]


def _history_rows(history) -> list[str]:
    return [" ".join(f"{key}={pl.format_value(value)}"
                     for key, value in row.items()) for row in history]


def golden_run(version: str, out_dir) -> dict:
    """The pinned facts of one unbroken two-epoch fit."""
    train, val = _samples()
    model, history = pl.fit(train, val, _cfg(version), out_dir=out_dir)
    images, _ = pl.batch_tensors(val, model.cfg.num_classes)
    probs = np.ascontiguousarray(pl.posterior_mean(images, model).data, "<f8")
    return {"ckpt": _sha((out_dir / "ckpt-last.dbfc").read_bytes()),
            "history": _history_rows(history),
            "posterior_mean": _sha(probs.tobytes())}


def resumed_ckpt_sha(version: str, out_dir) -> str:
    """SHA-256 of ckpt-last.dbfc after 1 epoch and a resume to 2."""
    train, val = _samples()
    pl.fit(train, val, _cfg(version, epochs=1), out_dir=out_dir / "first")
    ckpt = pl.checkpoint_load(out_dir / "first" / "ckpt-last.dbfc")
    pl.fit(train, val, _cfg(version), out_dir=out_dir / "second", resume=ckpt)
    return _sha((out_dir / "second" / "ckpt-last.dbfc").read_bytes())


PINS = {
    "ver1": {
        "ckpt": "678ae35042b7c1793b74513ed0ca79ee862119b34732b739ab388d0b38d1e70e",
        "history": [
            ("epoch=0 dice_val=0.3066881731474003"
             " recon=1.742175985972846 kl_y=0.0 kl_z=3.4979097961945147"
             " kl_x=0.0 kl_m=0.0 loss=1.8275741743565013"),
            ("epoch=1 dice_val=0.264774961371708"
             " recon=1.7154308342366578 kl_y=0.0 kl_z=3.0593549314428565"
             " kl_x=0.0 kl_m=0.0 loss=1.7901221167425867"),
        ],
        "posterior_mean": "1e3f0b30100cbfec2a611d6a32f9bad40e3fbd50a5828d183354f9ab3f4cf606",
    },
    "ver2": {
        "ckpt": "9817a2aa3466f607014e494d3070572dc2985a3c07a36694ec5cd6ff44f9a8f7",
        "history": [
            ("epoch=0 dice_val=0.003289473684210526"
             " recon=1.659875543966078 kl_y=20455.689310387465"
             " kl_z=31.984379806223362 kl_x=24575.99975577954"
             " kl_m=4132.743935726734 loss=1202.7442842768753"),
            ("epoch=1 dice_val=0.0 recon=1.641530859779003"
             " kl_y=20457.650645408976 kl_z=31.98437980150615"
             " kl_x=24575.99975488786 kl_m=4104.384213009481"
             " loss=1202.0814476837004"),
        ],
        "posterior_mean": "8c57a9c739f95b65ff04b43cb6e93f7ec9a707e2d0acb7ceca7150de15ee9add",
    },
    "ver3": {
        "ckpt": "c36cfca9bddcdb1d8aea79ea7502cf19d23d54d0d832b21d140517b869071fdd",
        "history": [
            ("epoch=0 dice_val=0.3623569261603902"
             " recon=1.662245612249399 kl_y=0.0 kl_z=3.016578000895393"
             " kl_x=0.0 kl_m=0.0 loss=1.735892536099384"),
            ("epoch=1 dice_val=0.34241987462401796"
             " recon=1.6632559097514903 kl_y=0.0 kl_z=2.622985797761864"
             " kl_x=0.0 kl_m=0.0 loss=1.7272936489546604"),
        ],
        "posterior_mean": "d982c1de7fe0b0e96002d84b754314e60d5b758dccb56d8701a90a815235f31e",
    },
    "ver4": {
        "ckpt": "4ef8670a1bc0d982ca2df38335a6e43240f30af9079c8bfefb73ab6e1fa8fa2f",
        "history": [
            ("epoch=0 dice_val=0.06751595059500834"
             " recon=1.7276411278811035 kl_y=20460.374725140868"
             " kl_z=31.98437980620857 kl_x=24575.999755757293"
             " kl_m=4148.400111026752 flow_kl=3.480641019041932e-05"
             " loss=1203.3121513521794"),
            ("epoch=1 dice_val=0.045279593318809 recon=1.7102871733089804"
             " kl_y=20460.689024892254 kl_z=31.98437980267562"
             " kl_x=24575.999754791934 kl_m=4139.806670924649"
             " flow_kl=0.00025540765477100974 loss=1203.1147300484422"),
        ],
        "posterior_mean": "f1b6add6f6c330d247924d24ca311e87c2ef03d44811085843ed0aa4f446deab",
    },
    "ver5": {
        "ckpt": "3c91b7a833cb6f9f86a3fcd87720e955ff37288856ffb83e6318ff9414b22bdd",
        "history": [
            ("epoch=0 dice_val=0.0 recon=1.6379963755438058"
             " kl_y=20453.1951431139 kl_z=31.98437980554497"
             " kl_x=24575.9997557731 kl_m=4132.574799883702"
             " flow_kl=-1.0608468653242284e-05 loss=1202.656322212669"),
            ("epoch=1 dice_val=0.0 recon=1.6239019332581375"
             " kl_y=20462.410457552058 kl_z=31.984379801458406"
             " kl_x=24575.999754868633 kl_m=4103.918425277106"
             " flow_kl=0.0003465150534906018 loss=1202.2033048423975"),
        ],
        "posterior_mean": "2b00082be379014d7c949ddea6ce2c7f99cf4f435c87f13b90f5f14216b3a403",
    },
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cache = {}

    def get(version):
        if version not in cache:
            cache[version] = golden_run(
                version, tmp_path_factory.mktemp(f"golden-{version}"))
        return cache[version]
    return get


@pytest.mark.parametrize("version", VERSIONS)
def test_checkpoint_pin(runs, version):
    assert runs(version)["ckpt"] == PINS[version]["ckpt"]


@pytest.mark.parametrize("version", VERSIONS)
def test_history_pin(runs, version):
    assert runs(version)["history"] == PINS[version]["history"]


@pytest.mark.parametrize("version", VERSIONS)
def test_posterior_mean_pin(runs, version):
    assert runs(version)["posterior_mean"] == PINS[version]["posterior_mean"]


@pytest.mark.parametrize("version", VERSIONS)
def test_resume_hashes_to_the_unbroken_pin(tmp_path, version):
    assert resumed_ckpt_sha(version, tmp_path) == PINS[version]["ckpt"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint({version: golden_run(version, Path(tmp) / version)
                       for version in VERSIONS}, width=88, sort_dicts=False)
