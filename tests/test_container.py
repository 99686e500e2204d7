"""Tests for the shared binary envelope: pinned bytes, atomic writes, reads."""

import re
import zlib

import numpy as np
import pytest

import flowseg.container as fc
import flowseg.data as fd
import flowseg.pipeline as pl


def _fixed_dataset():
    base = np.arange(64, dtype=float).reshape(8, 8)
    return [fd.Sample(image=(base % 11 - 5.0) / 4.0 + i,
                      mask=((base + i) % 3 == 0).astype(np.int64))
            for i in range(3)]


def _fixed_checkpoint():
    cfg = pl.ModelConfig(image_size=(8, 8), channels=2, flow_layers=1,
                         flow_hidden=4, flow_kl_samples=8, batch_size=2,
                         epochs=1)
    model = pl.Model(cfg)
    for i, (_, p) in enumerate(model.named_params()):
        p.assign((np.arange(p.data.size) % 7 - 3.0).reshape(p.data.shape) / 8.0 + i)
    opt = pl.Adam(model.named_params(), cfg.learning_rate, cfg.weight_decay)
    opt.t = 3
    for i, name in enumerate(sorted(opt.m)):
        opt.m[name] = np.full(opt.m[name].shape, i / 16.0)
        opt.v[name] = np.full(opt.v[name].shape, i / 32.0)
    return model, opt


# The sizes and CRC32 trailers of these two files pin both on-disk formats;
# any change to either shows up here.
def test_dataset_bytes_are_pinned(tmp_path):
    path = tmp_path / "fixed.dbfd"
    fd.dataset_save(_fixed_dataset(), path)
    raw = path.read_bytes()
    assert len(raw) == 1747
    assert raw[:6] == b"DBFD\x01\x00"
    assert zlib.crc32(raw[:-4]) == 0x74BC197E
    assert raw[-4:] == (0x74BC197E).to_bytes(4, "little")


def test_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "fixed.dbfc"
    model, opt = _fixed_checkpoint()
    pl.checkpoint_save(model, path, opt=opt, epoch=5)
    raw = path.read_bytes()
    assert len(raw) == 65104
    assert raw[:6] == b"DBFC\x01\x00"
    assert zlib.crc32(raw[:-4]) == 0x8175F123
    assert raw[-4:] == (0x8175F123).to_bytes(4, "little")


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
def test_failed_replace_keeps_old_file(tmp_path, monkeypatch, kind):
    model, opt = _fixed_checkpoint()
    if kind == "dataset":
        path = tmp_path / "d.dbfd"

        def save(shift):
            fd.dataset_save([fd.Sample(s.image + shift, s.mask)
                             for s in _fixed_dataset()], path)
    else:
        path = tmp_path / "c.dbfc"

        def save(epoch):
            pl.checkpoint_save(model, path, opt=opt, epoch=epoch)
    save(1)
    before = path.read_bytes()

    def broken_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(fc.os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk went away"):
        save(2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]

    monkeypatch.undo()
    save(2)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_sniff_names_kind_or_rejects(tmp_path):
    fd.dataset_save(_fixed_dataset(), tmp_path / "d.dbfd")
    model, opt = _fixed_checkpoint()
    pl.checkpoint_save(model, tmp_path / "c.dbfc", opt=opt, epoch=5)
    assert fc.sniff(tmp_path / "d.dbfd") == "dataset"
    assert fc.sniff(tmp_path / "c.dbfc") == "checkpoint"
    (tmp_path / "x").write_bytes(b"NO")
    with pytest.raises(fc.FormatError,
                       match=rf"^{re.escape(str(tmp_path / 'x'))}: unrecognized magic b'NO'; expected DBFD \(dataset\) or DBFC \(checkpoint\)"):
        fc.sniff(tmp_path / "x")


def test_unseal_check_order():
    out = fc.Writer(b"TEST")
    out.put("<I", 3)
    out.put_bytes(b"abc")
    raw = bytes(out.seal())

    def size(n):
        return n

    body = fc.unseal(raw, b"TEST", "t", "<I", size)
    assert body.take("<I") == (3,)
    assert bytes(body.take_bytes(3)) == b"abc" and body.remaining == 0
    with pytest.raises(fc.FormatError, match="^t: truncated body"):
        body.take_bytes(1)

    # Each corruption also breaks the CRC; the earlier check must win.
    with pytest.raises(fc.FormatError, match="^t: file too short"):
        fc.unseal(raw[:9], b"TEST", "t", "<I", size)
    with pytest.raises(fc.FormatError, match="^t: bad magic"):
        fc.unseal(b"NOPE" + raw[4:], b"TEST", "t", "<I", size)
    with pytest.raises(fc.FormatError, match="^t: unsupported version: expected 1, found 2"):
        fc.unseal(raw[:4] + b"\x02" + raw[5:], b"TEST", "t", "<I", size)
    with pytest.raises(fc.FormatError, match="^t: truncated or oversized file: expected 17 bytes, found 16"):
        fc.unseal(raw[:-5] + raw[-4:], b"TEST", "t", "<I", size)
    with pytest.raises(fc.FormatError, match="^t: checksum"):
        fc.unseal(raw[:10] + b"x" + raw[11:], b"TEST", "t", "<I", size)
    # A reader of the body names its file too.
    bad = fc.Writer(b"TEST")
    bad.put("<H", 1)
    bad.put_bytes(b"\xff")
    with pytest.raises(fc.FormatError, match="^t: string at offset 2 is not UTF-8"):
        fc.unseal(bytes(bad.seal()), b"TEST", "t").take_str()
