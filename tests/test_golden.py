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
    probs = np.ascontiguousarray(
        np.stack([pl.posterior_mean(s.image, model).data for s in val]), "<f8")
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
        "ckpt": "da7f3735ba383233104919cf1bb79659363c1b1fae4ba7c8609164250ee0391e",
        "history": [
            ("epoch=0 dice_val=0.33955681904798474"
             " recon=1.7089225235442338 kl_y=0.0 kl_z=3.5499973682261436"
             " kl_x=0.0 kl_m=0.0 loss=1.7955923811669423"),
            ("epoch=1 dice_val=0.2956500136550971 recon=1.7454911251108403"
             " kl_y=0.0 kl_z=3.0695704809311337 kl_x=0.0 kl_m=0.0"
             " loss=1.820431810680448"),
        ],
        "posterior_mean": "30e88fb67191ba7c2769a3fc4b8c6ce5ed7e4ee7fa83ea5ba8105d2ad076274a",
    },
    "ver2": {
        "ckpt": "b64f4fe31c35276de8013b0294c6c0d0589b0ddb86b6272be77bfdcd43cdd557",
        "history": [
            ("epoch=0 dice_val=0.030442667851062255"
             " recon=1.6382017893584024 kl_y=20459.821067538796"
             " kl_z=31.984379805776012 kl_x=24575.999755768862"
             " kl_m=4133.407027062595 loss=1202.8396722526402"),
            ("epoch=1 dice_val=0.009393939393939394"
             " recon=1.6651314870516012 kl_y=20463.96417557234"
             " kl_z=31.98437980043792 kl_x=24575.99975482063"
             " kl_m=4106.577873009638 loss=1202.3127433816574"),
        ],
        "posterior_mean": "0eeb8611182312b6d01dc49f419e31c2e749fca72911334a41cb3778b3dfbdfa",
    },
    "ver3": {
        "ckpt": "823a10207c722761abe7c143eeca3ca8134d89610a12b600b34081a67cde57c9",
        "history": [
            ("epoch=0 dice_val=0.35484154291859116"
             " recon=1.6543803479766357 kl_y=0.0 kl_z=3.0776420018084694"
             " kl_x=0.0 kl_m=0.0 loss=1.7295180921614126"),
            ("epoch=1 dice_val=0.3360821360339443 recon=1.644017918849525"
             " kl_y=0.0 kl_z=2.5843221108105134 kl_x=0.0 kl_m=0.0"
             " loss=1.7071117203829846"),
        ],
        "posterior_mean": "72534f43f07ecf202fbbabeaccda8d5a316323faed9559bbab646b6a99134eb3",
    },
    "ver4": {
        "ckpt": "cafd2e64b57a496cabc01287d98b58c38037dd49ded742860ff0cbc1bada02bc",
        "history": [
            ("epoch=0 dice_val=0.14700767742777823"
             " recon=1.7537681266653067 kl_y=20460.694627649416"
             " kl_z=31.984379807149384 kl_x=24575.99975574474"
             " kl_m=4147.957388290833 flow_kl=-0.0002948578721405539"
             " loss=1203.3023133817399"),
            ("epoch=1 dice_val=0.080085288921322 recon=1.7240173718405167"
             " kl_y=20461.455119479884 kl_z=31.984379802539078"
             " kl_x=24575.99975477277 kl_m=4132.328036487564"
             " flow_kl=0.00046411840372103465 loss=1202.985450953979"),
        ],
        "posterior_mean": "2d13d56b9e459441aa779f868bb5f827d3998205e1ff68d9deba4777dd4390ad",
    },
    "ver5": {
        "ckpt": "61cdcb3b777a95a06fa51aeb2f1030cb34e9ac6fe89b0d8748fdcbe16709d4d6",
        "history": [
            ("epoch=0 dice_val=0.030442667851062255"
             " recon=1.6385450184837211 kl_y=20459.821067520563"
             " kl_z=31.984379805787075 kl_x=24575.999755768862"
             " kl_m=4133.407027062595 flow_kl=-0.0002948484110377794"
             " loss=1202.810530640217"),
            ("epoch=1 dice_val=0.009393939393939394"
             " recon=1.6662660518214694 kl_y=20463.96417565725"
             " kl_z=31.984379800421127 kl_x=24575.99975482063"
             " kl_m=4106.577873018326 flow_kl=0.0004640675440568994"
             " loss=1202.3602847031173"),
        ],
        "posterior_mean": "f92637094d2916aa45b5113bb4a13c5a9a307d4ef4e039b510db9cae7077e1e2",
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
