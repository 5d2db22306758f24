import numpy as np
import pytest

from avdoa import geom
from avdoa.dataset import default_calibration
from avdoa.errors import BehindCamera, ConfigError, DegenerateGeometry


def identity_cal(**overrides):
    kwargs = dict(rotation=np.eye(3), translation=np.zeros(3),
                  f_u=500.0, f_v=500.0, c_u=320.0, c_v=240.0,
                  width=640, height=480)
    kwargs.update(overrides)
    return geom.CameraCalibration(**kwargs)


class TestWrap:
    def test_range(self):
        rng = np.random.default_rng(0)
        angles = rng.uniform(-1000, 1000, size=5000)
        wrapped = geom.wrap_degrees(angles)
        assert np.all(wrapped >= -180.0) and np.all(wrapped < 180.0)

    def test_boundary(self):
        assert geom.wrap_degrees(180.0) == -180.0
        assert geom.wrap_degrees(-180.0) == -180.0
        assert geom.wrap_degrees(359.0) == -1.0


class TestPerturbLocation:
    def test_zero_noise_is_identity(self):
        p = geom.perturb_location([1.0, 2.0, 3.0], (0.0, 0.0, 0.0), rng=0)
        assert np.array_equal(p, [1.0, 2.0, 3.0])

    def test_monte_carlo_mean(self):
        # sample mean of the added noise must vanish, per axis
        rng = np.random.default_rng(42)
        p = np.array([0.5, -1.0, 2.0])
        samples = np.stack([
            geom.perturb_location(p, (0.2, 0.2, 0.2), rng) for _ in range(100_000)
        ])
        assert np.all(np.abs(samples.mean(axis=0) - p) < 0.01)

    def test_seed_reproducible(self):
        a = geom.perturb_location([0, 0, 0], (0.2, 0.2, 0.2), rng=123)
        b = geom.perturb_location([0, 0, 0], (0.2, 0.2, 0.2), rng=123)
        assert np.array_equal(a, b)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            geom.perturb_location([0, 0, 0], (-0.1, 0, 0), rng=0)


class TestWorldToCamera:
    def test_identity(self):
        cal = identity_cal()
        assert np.allclose(geom.world_to_camera([1, 2, 3], cal), [1, 2, 3])

    def test_pure_translation(self):
        cal = identity_cal(translation=np.array([0.0, 0.0, -1.0]))
        assert np.allclose(geom.world_to_camera([0, 0, 1], cal), [0, 0, 0])

    def test_rotation_about_y(self):
        rot = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
        cal = identity_cal(rotation=rot)
        assert np.allclose(geom.world_to_camera([0, 0, 1], cal), [0, 0, -1])

    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            identity_cal(rotation=np.eye(3) * 2.0)


class TestProjectPoint:
    def test_optical_axis_hits_principal_point(self):
        cal = identity_cal()
        assert np.allclose(geom.project_point([0, 0, 2], cal), [320, 240])

    def test_pinhole_arithmetic(self):
        cal = identity_cal()
        assert np.allclose(geom.project_point([0.1, 0, 1], cal), [370, 240])

    def test_behind_camera(self):
        with pytest.raises(BehindCamera):
            geom.project_point([0, 0, -1], identity_cal())

    def test_principal_point_for_any_focal(self):
        for focal in (1.0, 50.0, 500.0, 5000.0):
            cal = identity_cal(f_u=focal, f_v=focal)
            for z in (0.1, 1.0, 10.0):
                assert np.allclose(geom.project_point([0, 0, z], cal), [320, 240])


class TestBoundingBox:
    @pytest.mark.parametrize("box,expected", [
        ((10, 20, 30, 40), (25, 40)),
        ((0, 0, 2, 2), (1, 1)),
        ((0, 0, 0.1, 0.1), (0.05, 0.05)),
    ])
    def test_center(self, box, expected):
        assert geom.BoundingBox(*box).center == pytest.approx(expected)


class TestSynthesizeBbox:
    def test_on_axis_box_size(self):
        # face 0.14 x 0.18 m at 2 m with f=500: w = 500*0.14/2, h = 500*0.18/2
        cal = default_calibration()
        box = geom.synthesize_bbox([2.0, 0.0, 0.0], cal)
        assert box.w == pytest.approx(35.0)
        assert box.h == pytest.approx(45.0)
        assert box.center == pytest.approx((320.0, 240.0))

    def test_behind_camera_not_visible(self):
        cal = default_calibration()
        assert geom.synthesize_bbox([-2.0, 0.0, 0.0], cal) is None

    def test_outside_image_not_visible(self):
        cal = default_calibration()
        # 60 degrees off axis is far outside the ~33 degree half FoV
        assert geom.synthesize_bbox([1.0, 1.7, 0.0], cal) is None

    def test_zero_noise_center_matches_projection(self):
        cal = default_calibration()
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = np.array([rng.uniform(1.0, 4.0), rng.uniform(-0.5, 0.5),
                          rng.uniform(-0.3, 0.3)])
            box = geom.synthesize_bbox(p, cal)
            if box is None:
                continue
            direct = geom.project_point(geom.world_to_camera(p, cal), cal)
            assert np.hypot(*(np.array(box.center) - direct)) < 0.5

    def test_noisy_center_mean(self):
        # bbox centers under noise must scatter around the zero-noise center
        # (on-axis pose: the projection nonlinearity is symmetric there)
        cal = default_calibration()
        p = [2.0, 0.0, 0.0]
        clean = geom.synthesize_bbox(p, cal)
        centers = []
        for seed in range(10_000):
            box = geom.synthesize_bbox(p, cal, variances=(0.2, 0.2, 0.2), rng=seed)
            if box is not None:
                centers.append(box.center)
        mean = np.mean(centers, axis=0)
        assert np.all(np.abs(mean - np.array(clean.center)) < 2.0)

    def test_width_scales_inverse_with_distance(self):
        cal = default_calibration()
        near = geom.synthesize_bbox([1.5, 0.0, 0.0], cal)
        far = geom.synthesize_bbox([3.0, 0.0, 0.0], cal)
        assert far.w == pytest.approx(near.w / 2, rel=0.01)
        assert far.h == pytest.approx(near.h / 2, rel=0.01)


class TestInView:
    # f = 128 and c = 128 on a 256 x 256 image, so a point with x/z (or
    # y/z) at -1 projects onto the left (top) edge and at +1 onto the right
    # (bottom) edge, exactly
    CAL = identity_cal(f_u=128.0, f_v=128.0, c_u=128.0, c_v=128.0, width=256, height=256)

    @pytest.mark.parametrize("point, visible", [
        ((0.0, 0.0, 2.0), True),          # on the optical axis
        ((0.0, 0.0, -2.0), False),        # behind the camera
        ((0.0, 0.0, 0.0), False),         # in the camera's plane
        ((-2.0, 0.0, 2.0), True),         # left edge: u = 0
        ((0.0, -2.0, 2.0), True),         # top edge: v = 0
        ((2.0, 0.0, 2.0), False),         # right edge: u = width
        ((0.0, 2.0, 2.0), False),         # bottom edge: v = height
        ((1.9, 1.9, 2.0), True),          # inside, near the bottom-right corner
        ((-2.1, 0.0, 2.0), False),        # just past the left edge
    ])
    def test_edges(self, point, visible):
        assert geom.in_view(point, self.CAL) is visible
        assert (geom.synthesize_bbox(point, self.CAL) is not None) is visible

    def test_agrees_with_synthesize_bbox(self):
        cal = default_calibration()
        rng = np.random.default_rng(3)
        points = np.column_stack([rng.uniform(-3, 3, 2000), rng.uniform(-3, 3, 2000),
                                  rng.uniform(-1, 1, 2000)])
        seen = [geom.in_view(p, cal) for p in points]
        assert seen == [geom.synthesize_bbox(p, cal) is not None for p in points]
        assert 100 < sum(seen) < 1900


class TestDoaFromPosition:
    def test_convention_anchors(self):
        array = geom.MicArray.square()
        assert geom.doa_from_position([1, 0, 0], array) == 0.0
        assert geom.doa_from_position([0, 1, 0], array) == 90.0
        assert geom.doa_from_position([-1, 0, 0], array) == -180.0

    def test_yaw_invariance(self):
        # rotating target and array yaw together leaves the azimuth unchanged
        rng = np.random.default_rng(11)
        for _ in range(300):
            az = rng.uniform(-180, 180)
            dist = rng.uniform(0.5, 5)
            delta = rng.uniform(-720, 720)
            base = geom.MicArray.square()
            rotated = geom.MicArray.square(yaw_deg=delta)
            theta = np.radians(az)
            p0 = [dist * np.cos(theta), dist * np.sin(theta), 0.3]
            theta2 = np.radians(az + delta)
            p1 = [dist * np.cos(theta2), dist * np.sin(theta2), 0.3]
            d0 = geom.doa_from_position(p0, base)
            d1 = geom.doa_from_position(p1, rotated)
            assert abs(geom.wrap_degrees(d0 - d1)) < 1e-9

    def test_output_always_in_range(self):
        rng = np.random.default_rng(3)
        array = geom.MicArray.square(yaw_deg=37.0)
        for _ in range(500):
            p = rng.uniform(-5, 5, size=3)
            if np.hypot(p[0], p[1]) <= 1e-6:
                continue
            az = geom.doa_from_position(p, array)
            assert -180.0 <= az < 180.0

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometry):
            geom.doa_from_position([0, 0, 1.0], geom.MicArray.square())


class TestMicArray:
    def test_rejects_single_mic(self):
        with pytest.raises(ValueError):
            geom.MicArray(positions=[[0, 0, 0]])

    def test_rejects_coincident(self):
        with pytest.raises(ValueError):
            geom.MicArray(positions=[[0, 0, 0], [0, 0, 0]])

    def test_pairs_lexicographic(self):
        array = geom.MicArray.square()
        assert array.pairs() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestGeometryFiles:
    def test_calibration_round_trip(self, tmp_path):
        cal = default_calibration()
        path = tmp_path / "camera.txt"
        geom.save_calibration(cal, path)
        loaded = geom.load_calibration(path)
        assert np.array_equal(loaded.rotation, cal.rotation)
        assert np.array_equal(loaded.translation, cal.translation)
        assert (loaded.f_u, loaded.f_v, loaded.c_u, loaded.c_v) == \
            (cal.f_u, cal.f_v, cal.c_u, cal.c_v)
        assert (loaded.width, loaded.height) == (cal.width, cal.height)

    def test_array_round_trip(self, tmp_path):
        array = geom.MicArray.square(yaw_deg=12.5, origin=np.array([0.1, 0.2, 0.3]))
        path = tmp_path / "array.txt"
        geom.save_array_geometry(array, path)
        loaded = geom.load_array_geometry(path)
        assert np.array_equal(loaded.positions, array.positions)
        assert loaded.yaw_deg == array.yaw_deg
        assert loaded.speed_of_sound == array.speed_of_sound

    def test_default_geometry_files_exact_text(self, tmp_path):
        geom.save_calibration(default_calibration(), tmp_path / "camera.txt")
        geom.save_array_geometry(geom.MicArray.square(), tmp_path / "array.txt")
        assert (tmp_path / "camera.txt").read_bytes() == (
            b"# pinhole camera calibration\n"
            b"rotation = 0 -1 0 0 0 -1 1 0 0\n"
            b"translation = 0 0 0\n"
            b"f_u = 500\nf_v = 500\nc_u = 320\nc_v = 240\n"
            b"width = 640\nheight = 480\n")
        mic = "0.050000000000000003"
        assert (tmp_path / "array.txt").read_bytes().decode("utf-8") == (
            "# microphone array geometry (meters)\n"
            "c = 343\norigin = 0 0 0\nyaw_deg = 0\n"
            f"mic = {mic} {mic} 0\nmic = -{mic} {mic} 0\n"
            f"mic = -{mic} -{mic} 0\nmic = {mic} -{mic} 0\n")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("this is not key value\n")
        with pytest.raises(ConfigError):
            geom.load_calibration(path)
