import numpy as np
import pytest

from avdoa import audio, dataset, evaluation, nn, visual
from avdoa.errors import CardinalityMismatch, EmptyDataset
from avdoa.store import read_jsonl, write_jsonl
from helpers import first_cheapest_matching, three_pass_decode_doa


class TestAngularError:
    @pytest.mark.parametrize("a,b,expected", [
        (0.0, 0.0, 0.0),
        (-179.0, 179.0, 2.0),
        (90.0, -90.0, 180.0),
        (10.0, 350.0, 20.0),   # inputs get wrapped first
    ])
    def test_examples(self, a, b, expected):
        assert evaluation.angular_error(a, b) == pytest.approx(expected)

    def test_metric_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, b, c = rng.uniform(-180, 180, size=3)
            ab = evaluation.angular_error(a, b)
            assert 0.0 <= ab <= 180.0
            assert ab == pytest.approx(evaluation.angular_error(b, a), abs=1e-9)
            assert evaluation.angular_error(a, a) == 0.0
            assert ab <= evaluation.angular_error(a, c) + evaluation.angular_error(c, b) + 1e-9


class TestDecodeDoa:
    def test_one_hot(self):
        scores = np.zeros(360)
        scores[220] = 1.0   # bin 220 is azimuth 40
        assert evaluation.decode_doa(scores, 1) == [40.0]

    def test_two_gaussians(self):
        target = nn.encode_target([-30.0, 60.0])
        decoded = evaluation.decode_doa(target, 2)
        assert sorted(decoded) == [-30.0, 60.0]

    def test_suppression_skips_nearby_bump(self):
        # main peak at 20, shoulder at 23 (within the 10 degree radius) and a
        # genuine second peak at 100: the shoulder must not be picked
        scores = np.zeros(360)
        grid = np.arange(360) - 180

        def bump(center, height, width):
            return height * np.exp(-((grid - center) ** 2) / width**2)

        scores = np.maximum(np.maximum(bump(20, 1.0, 3.0), bump(23, 0.6, 2.0)),
                            bump(100, 0.4, 3.0))
        decoded = evaluation.decode_doa(scores, 2)
        assert decoded == [20.0, 100.0]
        assert 23.0 not in decoded

    def test_suppression_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        grid = np.arange(360) - 180
        for _ in range(100):
            scores = np.zeros(360)
            for _ in range(4):
                c = rng.uniform(-180, 180)
                scores = np.maximum(
                    scores, rng.uniform(0.2, 1.0)
                    * np.exp(-np.minimum(np.abs(grid - c), 360 - np.abs(grid - c))**2
                             / rng.uniform(2, 6)**2))
            n = int(rng.integers(1, 4))
            decoded = evaluation.decode_doa(scores, n)
            # brute-force reference: greedy over local maxima by value
            is_peak = (scores >= np.roll(scores, 1)) & (scores >= np.roll(scores, -1))
            order = sorted(np.flatnonzero(is_peak), key=lambda i: (-scores[i], i))
            picked = []
            for i in order:
                if len(picked) == n:
                    break
                if all(min(abs(i - j), 360 - abs(i - j)) >= 10 for j in picked):
                    picked.append(i)
            if len(picked) == n:
                assert decoded == [float(i - 180) for i in picked]

    def test_circular_shift_equivariance(self):
        rng = np.random.default_rng(2)
        scores = rng.random(360)
        base = evaluation.decode_doa(scores, 3)
        for shift in (1, 45, 180, 271):
            moved = evaluation.decode_doa(np.roll(scores, shift), 3)
            expected = sorted(((b + 180 + shift) % 360) - 180 for b in base)
            assert sorted(moved) == pytest.approx(expected)

    def test_always_returns_n(self):
        # flat map: documented behavior, n picks still come back
        decoded = evaluation.decode_doa(np.ones(360), 4)
        assert len(decoded) == 4
        assert len(set(decoded)) == 4

    def test_matches_three_pass_reference(self):
        # random, tied, flat and encoded-target maps; every source count and
        # separations from none to half the circle, where fallback picks occur
        rng = np.random.default_rng(11)
        for trial in range(3000):
            n = int(rng.integers(1, 5))
            kind = trial % 4
            if kind == 0:
                scores = rng.random(360)
            elif kind == 1:
                scores = rng.integers(0, 4, size=360) / 3.0
            elif kind == 2:
                scores = np.full(360, rng.random())
            else:
                scores = nn.encode_target(list(rng.uniform(-180, 180, size=n)),
                                          sigma_deg=rng.uniform(1.0, 20.0))
            sep = float(rng.choice([0.0, 1.0, 10.0, 90.0, 180.0, rng.uniform(0, 180)]))
            assert evaluation.decode_doa(scores, n, sep) == \
                three_pass_decode_doa(scores, n, sep), (trial, n, sep)


class TestMatchSources:
    def test_crossed_assignment(self):
        # predictions near the other source: matching must uncross them
        gt = [10.0, 80.0]
        pred = [78.0, 12.0]
        matched = evaluation.match_sources(pred, gt)
        assert sorted(matched) == pytest.approx([2.0, 2.0])

    def test_exhaustive_oracle_n2(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            gt = list(rng.uniform(-180, 180, size=2))
            pred = list(rng.uniform(-180, 180, size=2))
            matched = evaluation.match_sources(pred, gt)
            direct = evaluation.angular_error(pred[0], gt[0]) + \
                evaluation.angular_error(pred[1], gt[1])
            crossed = evaluation.angular_error(pred[1], gt[0]) + \
                evaluation.angular_error(pred[0], gt[1])
            assert sum(matched) == pytest.approx(min(direct, crossed))

    def test_tied_costs_take_the_first_matching(self):
        # both predictions lie on one side of both truths, so both matchings
        # cost 146.802468; rounding made the crossed one look cheaper
        pred, gt = [-86.0, -63.0], [-6.869661, 4.672129]
        matched = evaluation.match_sources(pred, gt)
        assert matched == pytest.approx([79.130339, 67.672129], abs=1e-9)
        assert matched == first_cheapest_matching(pred, gt)

    def test_matches_the_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            for _ in range(300):
                # predictions on one side of every truth: all matchings tie
                tied = (rng.uniform(-100, -30, size=n), rng.uniform(-20, 20, size=n))
                free = (rng.uniform(-180, 180, size=n), rng.uniform(-180, 180, size=n))
                for pred, gt in (tied, free):
                    assert evaluation.match_sources(pred, gt) == \
                        pytest.approx(first_cheapest_matching(pred, gt), abs=1e-9)

    def test_cardinality_mismatch(self):
        with pytest.raises(CardinalityMismatch):
            evaluation.match_sources([1.0], [1.0, 2.0])


class TestMaeAcc:
    def test_perfect(self):
        result = evaluation.mae_acc([[10.0], [20.0, -40.0]], [[10.0], [20.0, -40.0]])
        assert result.mae == 0.0
        assert result.acc == 100.0
        assert result.frame_count == 2

    def test_allowance_boundary_inclusive(self):
        result = evaluation.mae_acc([[5.0]], [[0.0]])
        assert result.mae == 5.0
        assert result.acc == 100.0
        result = evaluation.mae_acc([[5.001]], [[0.0]])
        assert result.acc == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        gt = [list(rng.uniform(-180, 180, size=2)) for _ in range(50)]
        pred = [list(rng.uniform(-180, 180, size=2)) for _ in range(50)]
        base = evaluation.mae_acc(pred, gt)
        flipped = evaluation.mae_acc(
            [p[::-1] for p in pred], [g[::-1] for g in gt])
        assert base.mae == pytest.approx(flipped.mae)
        assert base.acc == pytest.approx(flipped.acc)

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            evaluation.mae_acc([], [])

    def test_results_file(self, tmp_path):
        result = evaluation.mae_acc([[10.0]], [[12.0]], frame_indices=[7])
        path = tmp_path / "results.jsonl"
        write_jsonl(path, result.records)
        [(_, record)] = read_jsonl(path)
        assert record["frame_index"] == 7
        assert record["gt"] == [12.0]
        assert record["pred"] == [10.0]
        assert record["matched_errors"] == [pytest.approx(2.0)]


class TestGridCsv:
    def test_layout(self, tmp_path):
        snrs = (-10.0, 20.0, None)
        fdsps = (0.0, 0.5)
        cells = {(s, f): (1.0 + i, 50.0) for i, (s, f) in
                 enumerate((s, f) for s in snrs for f in fdsps)}
        grid = evaluation.RobustnessGrid(snrs, fdsps, cells)
        path = tmp_path / "grid.csv"
        evaluation.write_grid_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "snr_db,fdsp_0pct,fdsp_50pct"
        assert lines[1].startswith("-10,")
        assert lines[3].startswith("clean,")
        assert len(lines) == 4


class TestRobustnessGrid:
    """The grid is one GCC stack per SNR level times one visual stack per
    FDSP level, corrupted the way ``extract_features`` corrupts them."""

    SNRS = (-10.0, 10.0, None)
    FDSPS = (0.0, 0.3, 0.7)

    @pytest.fixture(scope="class")
    def ds(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("grid") / "ds"
        config = dataset.ScenarioConfig(frames=12, source_counts={1: 0.5, 2: 0.5},
                                        visibility=0.5, source_kind="white", seed=4)
        dataset.simulate(config, out)
        return dataset.FrameDataset.load(out)

    @pytest.fixture(scope="class")
    def model(self):
        return nn.build_model("avc", hidden=(8, 8, 8), seed=1)

    def test_every_cell_is_the_model_on_extract_features(self, ds, model):
        grid = evaluation.robustness_grid(model, ds, self.SNRS, self.FDSPS, seed=5)
        truths = [f.azimuths for f in ds.frames]
        for snr in self.SNRS:
            for fdsp in self.FDSPS:
                gcc, vis = dataset.extract_features(ds, snr, fdsp, 5)
                posterior = model.forward(*dataset.feature_matrices(gcc, vis), train=False)
                result = evaluation.score(posterior, truths)["overall"]
                assert grid.cells[(snr, fdsp)] == (result.mae, result.acc)

    def test_one_gcc_pass_per_snr_and_one_visual_pass_per_fdsp(self, ds, model, monkeypatch):
        calls = {"gcc": 0, "visual": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(audio, "gcc_feature", counted("gcc", audio.gcc_feature))
        monkeypatch.setattr(visual, "encode_visual", counted("visual", visual.encode_visual))
        evaluation.robustness_grid(model, ds, self.SNRS, self.FDSPS, seed=5)
        assert calls["gcc"] == len(self.SNRS) * len(ds)
        assert calls["visual"] == len(self.FDSPS) * len(ds)
