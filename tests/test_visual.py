import numpy as np
import pytest

from avdoa import visual
from avdoa.errors import EmptyDataset
from avdoa.geom import BoundingBox


def frame(index, *boxes):
    return visual.DetectionFrame(index, tuple(BoundingBox(*b) for b in boxes))


def _box_multiset(frames):
    return sorted(
        tuple((b.u, b.v, b.w, b.h) for b in f.boxes) for f in frames
    )


class TestEncodeVisual:
    def test_centered_box_peaks_at_middle_bin(self):
        # 640x480, box (288,216,64,48): center (320,240) = image center
        feat = visual.encode_visual(frame(0, (288, 216, 64, 48)), 640, 480)
        assert feat.shape == (2, 51)
        assert np.argmax(feat[0]) == 25
        assert np.argmax(feat[1]) == 25
        assert feat[0, 25] == pytest.approx(1.0)
        assert feat[1, 25] == pytest.approx(1.0)

    def test_direct_evaluation_oracle(self):
        # every grid entry equals the Gaussian evaluated at the grid point
        boxes = [(100.5, 40.0, 33.0, 41.0), (402.0, 300.0, 61.5, 70.0)]
        feat = visual.encode_visual(frame(0, *boxes), 640, 480)
        grid_u = np.linspace(0, 640, 51)
        grid_v = np.linspace(0, 480, 51)
        for i in range(51):
            expect_u = max(
                np.exp(-((grid_u[i] - (u + w / 2)) ** 2) / (2 * w**2))
                for u, v, w, h in boxes
            )
            expect_v = max(
                np.exp(-((grid_v[i] - (v + h / 2)) ** 2) / (2 * h**2))
                for u, v, w, h in boxes
            )
            assert feat[0, i] == pytest.approx(expect_u, rel=1e-12)
            assert feat[1, i] == pytest.approx(expect_v, rel=1e-12)

    def test_no_detection_uniform(self):
        feat = visual.encode_visual(frame(0), 640, 480)
        assert np.all(feat == 1.0 / 51)

    def test_max_composition(self):
        b1 = (50, 60, 40, 50)
        b2 = (400, 300, 80, 90)
        merged = visual.encode_visual(frame(0, b1, b2), 640, 480)
        single_1 = visual.encode_visual(frame(0, b1), 640, 480)
        single_2 = visual.encode_visual(frame(0, b2), 640, 480)
        assert np.array_equal(merged, np.maximum(single_1, single_2))

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            boxes = [
                (rng.uniform(-50, 640), rng.uniform(-50, 480),
                 rng.uniform(1, 200), rng.uniform(1, 200))
                for _ in range(rng.integers(1, 4))
            ]
            feat = visual.encode_visual(frame(0, *boxes), 640, 480)
            assert np.all(feat > 0.0) and np.all(feat <= 1.0)

    def test_monotone_away_from_peak(self):
        feat = visual.encode_visual(frame(0, (300, 220, 40, 40)), 640, 480)
        peak = np.argmax(feat[0])
        assert np.all(np.diff(feat[0][peak:]) <= 1e-15)
        assert np.all(np.diff(feat[0][:peak + 1]) >= -1e-15)

    def test_translation_by_one_grid_step(self):
        # one grid spacing is 640/50 = 12.8 px horizontally
        base = (300.0, 220.0, 40.0, 40.0)
        shifted = (300.0 + 12.8, 220.0, 40.0, 40.0)
        f0 = visual.encode_visual(frame(0, base), 640, 480)
        f1 = visual.encode_visual(frame(0, shifted), 640, 480)
        assert np.argmax(f1[0]) == np.argmax(f0[0]) + 1

    def test_off_image_center_still_encoded(self):
        feat = visual.encode_visual(frame(0, (-120.0, 100.0, 100.0, 80.0)), 640, 480)
        assert feat[0, 0] > feat[0, -1]
        assert not np.allclose(feat[0], feat[0, -1])


class TestSwapDetections:
    def _frames(self, n, rng):
        out = []
        for i in range(n):
            boxes = tuple(
                BoundingBox(*rng.uniform(1, 100, size=4))
                for _ in range(int(rng.integers(0, 3)))
            )
            out.append(visual.DetectionFrame(i, boxes))
        return out

    def test_zero_fraction_is_identity(self):
        rng = np.random.default_rng(0)
        frames = self._frames(50, rng)
        swapped = visual.swap_detections(frames, 0.0, seed=1)
        assert all(a.boxes == b.boxes for a, b in zip(frames, swapped))

    def test_exact_count_and_multiset(self):
        rng = np.random.default_rng(1)
        frames = self._frames(1000, rng)
        swapped = visual.swap_detections(frames, 0.5, seed=2)
        moved = sum(1 for a, b in zip(frames, swapped) if a.boxes != b.boxes)
        # exactly 500 frames selected; pairs with identical content don't show
        assert moved <= 500
        assert _box_multiset(frames) == _box_multiset(swapped)

    def test_multiset_preserved_all_levels(self):
        rng = np.random.default_rng(2)
        frames = self._frames(101, rng)   # odd count exercises the leftover path
        for fdsp in (0.1, 0.3, 0.5, 0.7, 1.0):
            swapped = visual.swap_detections(frames, fdsp, seed=3)
            assert _box_multiset(frames) == _box_multiset(swapped)

    def test_same_seed_swaps_back(self):
        rng = np.random.default_rng(3)
        frames = self._frames(64, rng)
        once = visual.swap_detections(frames, 0.7, seed=9)
        twice = visual.swap_detections(once, 0.7, seed=9)
        assert all(a.boxes == b.boxes for a, b in zip(frames, twice))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        frames = self._frames(40, rng)
        a = visual.swap_detections(frames, 0.3, seed=5)
        b = visual.swap_detections(frames, 0.3, seed=5)
        assert all(x.boxes == y.boxes for x, y in zip(a, b))

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            visual.swap_detections([frame(0)], 1.5, seed=0)


class TestDetectionRate:
    def test_all_empty(self):
        frames = [frame(i) for i in range(10)]
        assert visual.detection_rate(frames) == 0.0

    def test_all_full(self):
        frames = [frame(i, (0, 0, 5, 5)) for i in range(10)]
        assert visual.detection_rate(frames) == 100.0

    def test_fraction(self):
        frames = [frame(i, (0, 0, 5, 5)) for i in range(113)]
        frames += [frame(113 + i) for i in range(887)]
        assert visual.detection_rate(frames) == pytest.approx(11.3)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            visual.detection_rate([])


class TestDetectionFiles:
    def test_round_trip(self, tmp_path):
        frames = [
            frame(0, (1.5, 2.5, 3.0, 4.0)),
            frame(1),
            frame(2, (10, 20, 30, 40), (50, 60, 7, 8)),
        ]
        path = tmp_path / "detections.jsonl"
        visual.save_detections(frames, path)
        loaded = visual.load_detections(path)
        assert len(loaded) == 3
        for a, b in zip(frames, loaded):
            assert a.frame_index == b.frame_index
            assert a.boxes == b.boxes
