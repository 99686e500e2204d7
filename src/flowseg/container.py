"""The binary envelope shared by dataset (.dbfd) and checkpoint (.dbfc) files.

A file is a 4-byte magic, a little-endian u16 format version, a
format-specific body, and a little-endian CRC32 of everything before it.
This module owns that envelope: building and sealing a body, validating a
file and reading its body back with bounds checks, recognising a file by
its magic, and putting a file in place atomically.  The body layouts live
with their formats in ``data`` and ``pipeline``.
"""

import os
import struct
import zlib
from pathlib import Path
from typing import Callable


class FormatError(ValueError):
    """A binary file failed magic, version, length, or checksum validation;
    the message starts with the file's path, so a multi-file command names it."""

    def __init__(self, path, message: str):
        super().__init__(path, message)

    def __str__(self) -> str:
        return f"{self.args[0]}: {self.args[1]}"


DATASET_MAGIC = b"DBFD"
CHECKPOINT_MAGIC = b"DBFC"
VERSION = 1
_KINDS = {DATASET_MAGIC: "dataset", CHECKPOINT_MAGIC: "checkpoint"}

_PREFIX = struct.Struct("<4sH")  # magic, version
_CRC = struct.Struct("<I")


class Writer:
    """A body under construction behind its magic and version."""

    def __init__(self, magic: bytes):
        self.buf = bytearray(_PREFIX.pack(magic, VERSION))

    def put(self, fmt: str, *values) -> None:
        self.buf += struct.pack(fmt, *values)

    def put_bytes(self, data) -> None:
        """Append a C-contiguous buffer (bytes or array) byte for byte."""
        self.buf += memoryview(data).cast("B")

    def put_str(self, text: str) -> None:
        encoded = text.encode("utf-8")
        self.put("<H", len(encoded))
        self.buf += encoded

    def seal(self) -> bytearray:
        """Append the CRC32 of everything so far; the writer is then spent."""
        self.buf += _CRC.pack(zlib.crc32(self.buf))
        return self.buf


class Reader:
    """Sequential reads over a file's body that fail instead of running off its end."""

    def __init__(self, view: memoryview, path):
        self.view = view
        self.path = path
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.view) - self.pos

    def take_bytes(self, n: int) -> memoryview:
        if n > self.remaining:
            raise FormatError(
                self.path, f"truncated body: wanted {n} bytes at offset {self.pos}, "
                f"have {self.remaining}")
        out = self.view[self.pos:self.pos + n]
        self.pos += n
        return out

    def take(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take_bytes(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (length,) = self.take("<H")
        try:
            return str(self.take_bytes(length), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                self.path, f"string at offset {self.pos - length} is not UTF-8") from exc


def _check_prefix(raw, magic: bytes, path, min_size: int) -> None:
    if len(raw) < min_size:
        raise FormatError(path, f"file too short ({len(raw)} bytes)")
    found, version = _PREFIX.unpack_from(raw)
    if found != magic:
        raise FormatError(path, f"bad magic: expected {magic!r}, found {found!r}")
    if version != VERSION:
        raise FormatError(
            path, f"unsupported version: expected {VERSION}, found {version}")


def read_head(path: str | Path, magic: bytes, head: str) -> tuple:
    """The fixed leading body fields, validated up to the version only."""
    size = _PREFIX.size + struct.calcsize(head)
    with open(path, "rb") as f:
        raw = f.read(size)
    _check_prefix(raw, magic, path, size)
    return struct.unpack_from(head, raw, _PREFIX.size)


def unseal(raw: bytes, magic: bytes, path: str | Path, head: str = "<",
           payload_size: Callable[..., int] | None = None) -> Reader:
    """Validate a whole file and return a reader over its body.

    ``head`` is the format of the body's fixed leading fields; when
    ``payload_size`` is given it maps those fields to the exact number of
    body bytes that follow them.  Checks run in order: too short, magic,
    version, exact length, CRC.
    """
    view = memoryview(raw)
    fixed = _PREFIX.size + struct.calcsize(head) + _CRC.size
    _check_prefix(view, magic, path, fixed)
    if payload_size is not None:
        fields = struct.unpack_from(head, view, _PREFIX.size)
        expected = fixed + payload_size(*fields)
        if len(view) != expected:
            raise FormatError(
                path, f"truncated or oversized file: expected {expected} bytes, "
                f"found {len(view)}")
    (stored_crc,) = _CRC.unpack_from(view, len(view) - _CRC.size)
    actual_crc = zlib.crc32(view[:-_CRC.size])
    if stored_crc != actual_crc:
        raise FormatError(
            path, f"checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}")
    return Reader(view[_PREFIX.size:-_CRC.size], path)


def sniff(path: str | Path) -> str:
    """'dataset' or 'checkpoint', from the magic a file starts with."""
    with open(path, "rb") as f:
        magic = f.read(len(DATASET_MAGIC))
    if magic not in _KINDS:
        known = " or ".join(f"{m.decode()} ({kind})" for m, kind in _KINDS.items())
        raise FormatError(path, f"unrecognized magic {magic!r}; expected {known}")
    return _KINDS[magic]


def atomic_write(path: str | Path, data) -> None:
    """Replace ``path`` with ``data`` so that a reader sees old or new, never half.

    The bytes go to a temporary file in the same directory, reach the disk,
    and are renamed over the target; on any failure the temporary file is
    removed and the old file is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
