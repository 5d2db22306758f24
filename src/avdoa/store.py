"""Binary per-frame feature container, the reader of both binary formats, the
text formats (key = value, JSON lines), and ``write_bytes``, the one writer of
every output file: a temp file beside it, then an atomic replace.

Layout: magic "DOAF", version u16, then one or more records, one per
frame, of {frame_index u32, P u16, L u16, P*L float32 values}, all
little-endian.  The frame indices tie a store to the other files of its
features directory; the CLI checks that they agree.
"""

import json
import math
import os
import struct

import numpy as np

from .errors import BadMagic, ConfigError, TruncatedFile, VersionMismatch

_MAGIC = b"DOAF"
_VERSION = 1


def write_bytes(path, chunks):
    """Write the bytes-like ``chunks``, in order, as the file ``path``.

    They go to a temp file in the same directory, which then replaces
    ``path``; on any failure the temp file is removed, so ``path`` keeps its
    old content or has all of the new.  No fsync.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")    # mode 0o666 & ~umask, as open(path, "wb") gives
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_text(path, lines):
    """Write each of ``lines`` as UTF-8 text followed by "\\n"."""
    write_bytes(path, (f"{line}\n".encode("utf-8") for line in lines))


def _text_lines(path):
    """Yield (line number, line) for each line of a UTF-8 text file.

    Each line is decoded on its own, so a byte that is not UTF-8 raises
    ConfigError naming the file and the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, raw in enumerate(data.splitlines(), start=1):   # \n, \r\n or \r
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: not UTF-8 text "
                              f"(byte {raw[exc.start]:#04x} at offset {exc.start})") from exc


def read_key_values(path):
    """Parse a 'key = value' text file ('#' starts a comment).

    Returns (key, value) pairs in file order; keys may repeat.
    """
    entries = []
    for lineno, raw in _text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        entries.append((key.strip(), value.strip()))
    return entries


def write_key_values(path, comment, entries):
    """Write '# comment', then a 'key = x y ...' line per (key, numbers), each in .17g."""
    write_text(path, [f"# {comment}", *(f"{key} = " + " ".join(f"{x:.17g}" for x in numbers)
                                         for key, numbers in entries)])


def read_jsonl(path):
    """Yield (line number, record) for each non-blank line of a JSON-lines file.

    A line that is not JSON, or not a JSON object, raises ConfigError
    naming the file and the line.
    """
    for lineno, line in _text_lines(path):
        line = line.rstrip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: column {exc.colno}: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise ConfigError(f"{path}:{lineno}: expected a JSON object")
        yield lineno, record


def write_jsonl(path, records):
    """Write each record, a JSON object, as one line of a JSON-lines file."""
    write_text(path, map(json.dumps, records))


# what each kind of JSON field accepts: an int is a number, a bool is neither
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          str: ((str,), "a string"), list: ((list,), "a list")}
_REQUIRED = object()


def _is(value, kind):
    types, _ = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        return False
    try:
        return kind is not float or math.isfinite(value)
    except OverflowError:       # an integer beyond the float range
        return False


def json_field(record, key, kind, where, default=_REQUIRED):
    """``record[key]``, which must be of ``kind`` (int, float, str or list).

    A float field takes any finite int or float.  A missing key gives
    ``default`` when one is passed; otherwise it, like a value of the wrong
    kind, raises ConfigError prefixed with ``where``.
    """
    if key not in record:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing key {key!r}")
        return default
    if not _is(record[key], kind):
        raise ConfigError(f"{where}: {key!r} must be {_KINDS[kind][1]}")
    return record[key]


def json_numbers(values, where, what, length=None):
    """``values`` as floats; it must be a list of ``length`` (any, if None) numbers."""
    if (not isinstance(values, list) or not all(_is(v, float) for v in values)
            or length not in (None, len(values))):
        count = "" if length is None else f"{length} "
        raise ConfigError(f"{where}: {what} must be a list of {count}numbers")
    return [float(v) for v in values]


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
        """Check the magic bytes and the u16 format version after them, which
        must be ``version``."""
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
        """The next prod(shape) values of ``dtype``: a read-only view of the file's bytes."""
        dtype = np.dtype(dtype)
        count = math.prod(map(int, shape))
        values = np.frombuffer(self.data, dtype=dtype, count=count,
                               offset=self._advance(count * dtype.itemsize))
        return values.reshape(shape)

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
    write_bytes(path, parts)


def read_feature_store(path):
    """Read back all records as (frame_index, read-only float32 (P, L) array) pairs."""
    reader = Reader(path)
    reader.header(_MAGIC, _VERSION, "feature store")
    frames = []
    while True:
        frame_index, p, l = reader.take("<IHH")
        frames.append((frame_index, reader.array("<f4", (p, l))))
        if reader.at_end():
            return frames
