import numpy as np
import pytest

from avdoa.errors import BadMagic, TruncatedFile, VersionMismatch
from avdoa.store import read_feature_store, write_feature_store


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
