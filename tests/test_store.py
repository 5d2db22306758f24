import os
import re

import numpy as np
import pytest

from avdoa import cli
from avdoa.errors import BadMagic, ConfigError, TruncatedFile, VersionMismatch
from avdoa.store import (json_field, json_numbers, read_feature_store, read_jsonl,
                         read_key_values, write_bytes, write_feature_store, write_key_values,
                         write_text)


class TestAtomicWriter:
    """write_bytes replaces the target with a whole new file or leaves it as it
    was, and leaves no temp file either way."""

    def test_chunks_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        write_bytes(path, iter([b"ab", np.arange(3, dtype="<u2"), memoryview(b"z")]))
        assert path.read_bytes() == b"ab\x00\x00\x01\x00\x02\x00z"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failing_chunks_leave_the_old_file_whole(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old content")

        def chunks():
            yield b"new"
            raise RuntimeError("no more")

        with pytest.raises(RuntimeError, match="no more"):
            write_bytes(path, chunks())
        assert path.read_bytes() == b"old content"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_directory_target_fails_with_no_temp_file(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(IsADirectoryError):
            write_bytes(tmp_path / "out", [b"x"])
        assert os.listdir(tmp_path) == ["out"] and os.listdir(tmp_path / "out") == []

    def test_directory_target_exits_4_in_the_cli(self, tmp_path, capsys):
        (tmp_path / "ds" / "array.txt").mkdir(parents=True)
        assert cli.main(["simulate", "--out", str(tmp_path / "ds"), "--frames", "1",
                         "--sample-rate", "8000", "--source-kind", "white"]) == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(tmp_path / "ds")) == ["array.txt"]

    def test_parent_that_is_a_file_raises_not_a_directory(self, tmp_path):
        (tmp_path / "file").write_bytes(b"")
        with pytest.raises(NotADirectoryError):
            write_bytes(tmp_path / "file" / "out.bin", [b"x"])
        assert os.listdir(tmp_path) == ["file"]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        write_bytes(tmp_path / "out.bin", [b"x"])
        assert os.stat(tmp_path / "out.bin").st_mode & 0o777 == 0o666 & ~umask

    def test_text_and_key_values(self, tmp_path):
        write_text(tmp_path / "t.txt", ["a,b", "ü"])
        assert (tmp_path / "t.txt").read_bytes() == "a,b\nü\n".encode("utf-8")
        write_key_values(tmp_path / "k.txt", "note", [("x", [0.1, 2]), ("n", np.array([3.0]))])
        assert (tmp_path / "k.txt").read_text() == "# note\nx = 0.10000000000000001 2\nn = 3\n"
        assert read_key_values(tmp_path / "k.txt") == [("x", "0.10000000000000001 2"),
                                                       ("n", "3")]


class TestFeatureStore:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = [(i, rng.standard_normal((6, 51)).astype(np.float32).astype(float))
                  for i in range(5)]
        path = tmp_path / "gcc.doaf"
        write_feature_store(path, frames)
        loaded = read_feature_store(path)
        assert len(loaded) == 5
        for (i0, v0), (i1, v1) in zip(frames, loaded):
            assert i0 == i1
            assert v1.shape == (6, 51)
            assert v1.dtype == np.float32 and not v1.flags.writeable
            assert np.array_equal(v0, v1)   # inputs were float32-exact

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "x.doaf"
        write_feature_store(path, [(3, np.zeros((2, 51)))])
        data = path.read_bytes()
        assert data[:4] == b"DOAF"
        assert int.from_bytes(data[4:6], "little") == 1
        assert int.from_bytes(data[6:10], "little") == 3     # frame index
        assert int.from_bytes(data[10:12], "little") == 2    # P
        assert int.from_bytes(data[12:14], "little") == 51   # L
        assert len(data) == 14 + 2 * 51 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.doaf"
        path.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            read_feature_store(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.doaf"
        path.write_bytes(b"DOAF" + (9).to_bytes(2, "little"))
        with pytest.raises(VersionMismatch):
            read_feature_store(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.doaf"
        write_feature_store(path, [(0, np.ones((2, 51)))])
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(TruncatedFile):
            read_feature_store(path)

    def test_every_truncation_is_typed(self, tmp_path):
        path = tmp_path / "t.doaf"
        write_feature_store(path, [(0, np.ones((2, 51)))])
        data = path.read_bytes()
        assert len(data) == 422
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(TruncatedFile):
                read_feature_store(path)

    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_feature_store(tmp_path / "e.doaf", [])

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = [(i, rng.standard_normal((6, 51))) for i in range(3)]
        a = tmp_path / "a.doaf"
        b = tmp_path / "b.doaf"
        write_feature_store(a, frames)
        write_feature_store(b, frames)
        assert a.read_bytes() == b.read_bytes()


class TestJsonLines:
    def test_records_and_line_numbers(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": [2.5]}\n')
        assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"b": [2.5]})]

    @pytest.mark.parametrize("text", ['{"a": 1,}', "[1, 2]", "3", "null"])
    def test_bad_line_names_file_and_line(self, tmp_path, text):
        path = tmp_path / "x.jsonl"
        path.write_text('{"a": 1}\n' + text + "\n")
        with pytest.raises(ConfigError, match="^" + re.escape(f"{path}:2: ")):
            list(read_jsonl(path))

    @pytest.mark.parametrize("read", [read_jsonl, read_key_values])
    def test_undecodable_line_names_file_and_line(self, tmp_path, read):
        # \r\n, \r and \n each end a line, as in a text-mode file
        path = tmp_path / "x.txt"
        path.write_bytes(b' \r\n\r\t\n{"a" = "\xe2\x82"}\n')
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{path}:4: not UTF-8 text (byte 0xe2 at offset 8)") + "$"):
            list(read(path))

    def test_field_kinds(self):
        record = {"i": 3, "f": 2.5, "b": True, "s": "x", "l": [1], "n": float("nan"),
                  "huge": 10**400}
        assert json_field(record, "i", int, "w") == 3
        assert json_field(record, "i", float, "w") == 3        # an int is a number
        assert json_field(record, "f", float, "w") == 2.5
        assert json_field(record, "s", str, "w") == "x"
        assert json_field(record, "missing", int, "w", 7) == 7
        for key, kind in (("f", int), ("b", int), ("b", float), ("n", float),
                          ("s", float), ("l", str), ("i", list), ("missing", int),
                          ("huge", float)):
            with pytest.raises(ConfigError, match="^w: "):
                json_field(record, key, kind, "w")

    def test_numbers(self):
        assert json_numbers([1, 2.5, -3, 0], "w", "box", 4) == [1.0, 2.5, -3.0, 0.0]
        assert json_numbers([], "w", "azimuths") == []
        for values in ([1, 2, 3], [1, 2, 3, True], [1, 2, 3, "4"], "1234", None,
                       [1, 2, 3, float("inf")]):
            with pytest.raises(ConfigError, match="^w: box must be a list of 4 numbers"):
                json_numbers(values, "w", "box", 4)
