"""Binary per-frame feature container, and the reader of both binary formats.

Layout: magic "DOAF", version u16, then one or more records, one per
frame, of {frame_index u32, P u16, L u16, P*L float32 values}, all
little-endian.  The frame indices tie a store to the other files of its
features directory; the CLI checks that they agree.
"""

import math
import struct

import numpy as np

from .errors import BadMagic, ConfigError, TruncatedFile, VersionMismatch

_MAGIC = b"DOAF"
_VERSION = 1


def read_key_values(path):
    """Parse a 'key = value' text file ('#' starts a comment).

    Returns (key, value) pairs in file order; keys may repeat.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            entries.append((key.strip(), value.strip()))
    return entries


class Reader:
    """Little-endian fields of a binary file (.doaf, .doam), read in order.

    A read past the end raises TruncatedFile.
    """

    def __init__(self, path):
        with open(path, "rb") as fh:
            self.data = fh.read()
        self.path = path
        self.pos = 0

    def _advance(self, size):
        if self.pos + size > len(self.data):
            raise TruncatedFile(f"{self.path}: file ends before byte {self.pos + size}")
        start = self.pos
        self.pos += size
        return start

    def header(self, magic, version, what):
        """Check the magic bytes and the u16 format version after them."""
        if self.data[self._advance(len(magic)):self.pos] != magic:
            raise BadMagic(f"{self.path}: not a {what}")
        found = self.take("<H")
        if found != version:
            raise VersionMismatch(f"{self.path}: version {found}, expected {version}")

    def take(self, fmt):
        """The values of a struct format: one value bare, else a tuple (maybe empty)."""
        values = struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))
        return values[0] if len(values) == 1 else values

    def array(self, dtype, shape):
        """The next prod(shape) values of ``dtype`` as a float64 array."""
        dtype = np.dtype(dtype)
        count = math.prod(map(int, shape))
        values = np.frombuffer(self.data, dtype=dtype, count=count,
                               offset=self._advance(count * dtype.itemsize))
        return values.reshape(shape).astype(np.float64)

    def at_end(self):
        return self.pos == len(self.data)


def write_feature_store(path, frames):
    """Write (frame_index, values) pairs; ``values`` is a (P, L) array."""
    if not frames:
        raise ValueError("a feature store needs at least one record")
    parts = [_MAGIC, struct.pack("<H", _VERSION)]
    for frame_index, values in frames:
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValueError("feature values must be a (P, L) matrix")
        p, l = values.shape
        parts.append(struct.pack("<IHH", int(frame_index), p, l))
        parts.append(values.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_feature_store(path):
    """Read back all records as (frame_index, float64 (P, L) array) pairs."""
    reader = Reader(path)
    reader.header(_MAGIC, _VERSION, "feature store")
    frames = []
    while True:
        frame_index, p, l = reader.take("<IHH")
        frames.append((frame_index, reader.array("<f4", (p, l))))
        if reader.at_end():
            return frames
