"""The benchmark's workloads: avdoa CLI commands run in one process.

Every workload is a fixed list of ``avdoa`` commands (one *round*) run
through ``avdoa.cli.main``; a run repeats whole rounds on the same inputs.
Set-up builds the inputs a round needs with the same CLI.  After the
timed phase the outputs of the first round are checked against
``oracles`` (computations made apart from the program) and against
properties the method must have; later rounds must reproduce the first
round's files byte for byte.

Scenes: 1 or 2 speakers per frame (even odds), at least 20 degrees apart.
``simulate`` puts half the sources inside the camera's field of view, at
any azimuth.  ``train`` and ``grid`` keep every source in view (azimuth
within +-30 degrees, inside the default camera's +-32.6 degree half field
of view), so that a network trained on a few hundred frames localises
well enough for its MAE/ACC to be steady from seed to seed.  README.md
gives the measurements behind these choices.
"""

import contextlib
import csv
import hashlib
import io
import json

import numpy as np

import oracles
from oracles import require

SNR_LEVELS = ("-10", "0", "10", "20", "clean")
FDSP_LEVELS = (0.0, 0.1, 0.3, 0.5, 0.7)
MODELS = ("gcc_only", "avc", "avaw")
FEATURE_LENGTH = 51
HOLDOUT = 0.2                    # trailing share held out of training (CLI default)
GRID_HOLDOUT = 0.12              # grid scores only the last 12%, all unseen in training
EPOCHS = 10                      # the CLI default, stated for the frame count

# per-workload input sizes; "tiny" is only for the benchmark's smoke tests
SIZES = {
    "simulate": {"full": {"frames": 200}, "tiny": {"frames": 8}},
    "train": {"full": {"frames": 500, "widths": None},
              "tiny": {"frames": 30, "widths": "16,16,16"}},
    "grid": {"full": {"frames": 500, "widths": None},
             "tiny": {"frames": 30, "widths": "16,16,16"}},
}
MIXED_SCENE = ["--sources", "1:0.5,2:0.5", "--min-separation", "20"]
IN_VIEW_SCENE = MIXED_SCENE + ["--visibility", "1.0", "--azimuth-range=-30,30"]
BATCH = "128"


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_summary(path):
    with open(path, "r", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    return float(row["mae_overall"]), float(row["acc_overall"])


def _read_grid(path):
    """{(snr_label, fdsp): (mae, acc)} from robustness_grid.csv."""
    cells = {}
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            for key, value in row.items():
                if key == "snr_db":
                    continue
                mae, acc = value.split("/")
                fdsp = int(key.split("_")[1].rstrip("pct")) / 100.0
                cells[(row["snr_db"], fdsp)] = (float(mae), float(acc))
    return cells


def _box_sets(detections):
    return sorted(tuple((b.u, b.v, b.w, b.h) for b in d.boxes) for d in detections)


def _holdout_rows(n_frames, fraction=HOLDOUT):
    n_test = int(round(fraction * n_frames))
    return list(range(n_frames - n_test, n_frames))


def _check_results_file(results_path, summary_path):
    """Per-frame matches are cheapest matchings found by the benchmark's own
    brute force, and the written summary is their MAE/ACC."""
    records = _read_jsonl(results_path)
    errors = []
    for r in records:
        options = oracles.optimal_matchings(r["pred"], r["gt"])
        require(any(np.allclose(sorted(o), sorted(r["matched_errors"]), atol=1e-9)
                    for o in options),
                f"{results_path}: frame {r['frame_index']} is not a cheapest matching")
        errors += r["matched_errors"]
    mae, acc_lo, acc_hi = oracles.mae_acc([r["pred"] for r in records],
                                          [r["gt"] for r in records])
    acc = 100.0 * np.mean(np.array(errors) <= oracles.ACC_ALLOWANCE_DEG)
    written_mae, written_acc = _read_summary(summary_path)
    require(abs(mae - written_mae) <= 6e-5 and abs(acc - written_acc) <= 6e-3
            and acc_lo - 1e-9 <= acc <= acc_hi + 1e-9,
            f"{summary_path}: MAE/ACC {written_mae}/{written_acc}, recomputed {mae:.5f}/{acc:.3f}")
    return records, mae, acc


class Workload:
    """One workload: set-up inputs, the commands of a round and its checks."""

    name = ""

    def __init__(self, seed, size, cli):
        self.seed = seed
        self.size = SIZES[self.name][size]
        self.cli = cli            # callable(argv) that runs one avdoa command
        self.inputs = None

    def build(self, dest):
        """Make the inputs of a round under ``dest``; the last build is used."""
        self.inputs = dest

    def work_per_round(self):
        raise NotImplementedError

    def run_round(self, out):
        raise NotImplementedError

    def fingerprint(self, out):
        raise NotImplementedError

    def quality(self, out):
        """(acc_pct, mae_deg) of the round in ``out``."""
        raise NotImplementedError

    def check(self, out, avdoa):
        raise NotImplementedError

    def layer_values(self, tracer):
        """Per-round values that need the workload's own counts."""
        return {}

    def _widths(self):
        w = self.size["widths"]
        return [] if w is None else ["--widths", w]

    def _simulate_in_view(self, dest):
        self.cli(["simulate", "--out", f"{dest}/ds", "--frames", str(self.size["frames"]),
                  "--seed", str(self.seed), *IN_VIEW_SCENE])
        self.cli(["features", "--dataset", f"{dest}/ds", "--out", f"{dest}/feat"])


class Simulate(Workload):
    """simulate -> features -> baseline on a new scene."""

    name = "simulate"

    def work_per_round(self):
        return self.size["frames"]

    def run_round(self, out):
        self.cli(["simulate", "--out", f"{out}/ds", "--frames", str(self.size["frames"]),
                  "--seed", str(self.seed), "--visibility", "0.5", *MIXED_SCENE])
        self.cli(["features", "--dataset", f"{out}/ds", "--out", f"{out}/feat"])
        self.cli(["baseline", "--dataset", f"{out}/ds", "--out", f"{out}/srp"])

    def fingerprint(self, out):
        return _digest(f"{out}/ds/audio.wav", f"{out}/ds/manifest.jsonl",
                       f"{out}/ds/detections.jsonl", f"{out}/feat/gcc.doaf",
                       f"{out}/feat/visual.doaf", f"{out}/srp/baseline_summary.csv")

    def quality(self, out):
        mae, acc = _read_summary(f"{out}/srp/baseline_summary.csv")
        return acc, mae

    def check(self, out, avdoa):
        ds, feat = f"{out}/ds", f"{out}/feat"
        manifest = _read_jsonl(f"{ds}/manifest.jsonl")
        header, frames = manifest[0], manifest[1:]
        rate, wav = oracles.read_wav(f"{ds}/{header['audio_file']}")
        n = header["frame_samples"]
        fft_len = 1 << int(np.ceil(np.log2(n)))
        array = oracles.read_key_value_file(f"{ds}/array.txt")
        mics = np.array(array["mic"])
        origin, yaw, c = array["origin"][0], array["yaw_deg"][0][0], array["c"][0][0]
        pairs = [(l, p) for l in range(len(mics)) for p in range(l + 1, len(mics))]
        gcc = oracles.read_doaf(f"{feat}/gcc.doaf")
        vis = oracles.read_doaf(f"{feat}/visual.doaf")
        require(len(gcc) == len(frames) == len(vis), "feature stores miss frames")
        lags = (-(gcc[0].shape[1] // 2), gcc[0].shape[1] // 2)

        # GCC rows against the time-domain PHAT correlator, on sampled frames
        rng = np.random.default_rng([self.seed, 7])
        sampled = sorted(rng.choice(len(frames), size=min(4, len(frames)), replace=False))
        for k in sampled:
            rec = frames[k]
            seg = wav[:, rec["audio_offset"]:rec["audio_offset"] + n]
            for row, (l, p) in enumerate(pairs):
                ref = oracles.phat_correlation(seg[l], seg[p], lags, fft_len)
                err = np.max(np.abs(gcc[rec["frame_index"]][row] - ref))
                require(err < 1e-5, f"frame {k} pair {(l, p)}: GCC differs from the "
                                    f"PHAT correlator by {err:.2e}")

        # single-source clean frames: GCC peaks where the geometry puts them.
        # A convention or geometry fault moves nearly every peak; a few frames
        # with one to three stray pair peaks are a known rendering artefact
        # (see CHANGES.md), so each frame needs a majority of its pair peaks
        # within one sample and at most 5% of frames may have any stray peak.
        single = [rec for rec in frames if len(rec["active_sources"]) == 1]
        stray_frames = 0
        for rec in single:
            src = rec["active_sources"][0]
            az = oracles.azimuth_deg([src["x"], src["y"], src["z"]], origin, yaw)
            stray = []
            for row, (l, p) in enumerate(pairs):
                want = oracles.expected_peak_lag(mics[l], mics[p], az, c, rate)
                got = lags[0] + int(np.argmax(gcc[rec["frame_index"]][row]))
                if abs(got - want) > 1.0:
                    stray.append(f"pair {(l, p)} peak at {got}, geometry {want:.2f}")
            require(2 * len(stray) <= len(pairs),
                    f"frame {rec['frame_index']}: GCC peaks off the geometry: {stray}")
            stray_frames += bool(stray)
        require(stray_frames <= 0.05 * len(single),
                f"{stray_frames} of {len(single)} single-source frames have a GCC "
                "peak more than one sample off the geometry")

        # visual rows peak at the benchmark's own projection of visible sources
        cam = {k: v[0] for k, v in oracles.read_key_value_file(f"{ds}/camera.txt").items()}
        rot = np.array(cam["rotation"]).reshape(3, 3)
        width, height = cam["width"][0], cam["height"][0]
        flat = np.float32(1.0 / FEATURE_LENGTH)
        for rec in frames:
            rows = vis[rec["frame_index"]]
            centers = []
            for src in rec["active_sources"]:
                uv = oracles.pinhole_project([src["x"], src["y"], src["z"]], rot,
                                             cam["translation"], cam["f_u"][0], cam["f_v"][0],
                                             cam["c_u"][0], cam["c_v"][0])
                if uv is not None and 0 <= uv[0] < width and 0 <= uv[1] < height:
                    centers.append(uv)
            if not centers:
                require(np.all(rows == flat), f"frame {rec['frame_index']}: no source in "
                                              "view but the visual rows are not flat 1/51")
                continue
            for u, v in centers:
                iu = oracles.nearest_grid_index(u, width, FEATURE_LENGTH)
                iv = oracles.nearest_grid_index(v, height, FEATURE_LENGTH)
                require(rows[0][iu] > 0.9 and rows[1][iv] > 0.9,
                        f"frame {rec['frame_index']}: no visual peak at projected ({u:.1f}, {v:.1f})")
                if len(centers) == 1:
                    require(int(np.argmax(rows[0])) == iu and int(np.argmax(rows[1])) == iv,
                            f"frame {rec['frame_index']}: visual peak off the projection")

        # store round trip: what the reader returns is the float32 rounding of
        # the features the program computes for the frame
        store_gcc = dict(avdoa.store.read_feature_store(f"{feat}/gcc.doaf"))
        for k in sampled:
            rec = frames[k]
            seg = wav[:, rec["audio_offset"]:rec["audio_offset"] + n]
            values = avdoa.audio.gcc_feature(avdoa.audio.MultichannelAudio(seg, rate)).values
            expect = values.astype(np.float32)
            require(np.array_equal(store_gcc[rec["frame_index"]], expect.astype(np.float64))
                    and np.array_equal(gcc[rec["frame_index"]], expect),
                    f"frame {k}: GCC store round trip is not the float32 rounding")

        # the written summary agrees with the benchmark's own MAE/ACC
        _check_results_file(f"{out}/srp/baseline_results.jsonl",
                            f"{out}/srp/baseline_summary.csv")


class Train(Workload):
    """train then eval on the holdout, for each of gcc_only, avc and avaw."""

    name = "train"

    def build(self, dest):
        self._simulate_in_view(dest)
        self.inputs = dest

    def work_per_round(self):
        n_train = self.size["frames"] - len(_holdout_rows(self.size["frames"]))
        return n_train * EPOCHS * len(MODELS)

    def run_round(self, out):
        feat = f"{self.inputs}/feat"
        for model in MODELS:
            self.cli(["train", "--features", feat, "--model", model, "--seed", str(self.seed),
                      "--batch", BATCH, "--out", f"{out}/{model}.doam", *self._widths()])
            self.cli(["eval", "--checkpoint", f"{out}/{model}.doam", "--features", feat,
                      "--out", f"{out}/{model}-eval"])

    def fingerprint(self, out):
        return _digest(*[f"{out}/{m}.doam" for m in MODELS],
                       *[f"{out}/{m}-eval/summary.csv" for m in MODELS])

    def quality(self, out):
        mae, acc = _read_summary(f"{out}/avaw-eval/summary.csv")
        return acc, mae

    def check(self, out, avdoa):
        feat = f"{self.inputs}/feat"
        gcc = oracles.read_doaf(f"{feat}/gcc.doaf")
        vis = oracles.read_doaf(f"{feat}/visual.doaf")
        rows = _holdout_rows(len(gcc))
        order = sorted(gcc)
        gcc_x = np.stack([gcc[order[i]].reshape(-1) for i in rows]).astype(np.float64)
        vis_x = np.stack([vis[order[i]].reshape(-1) for i in rows]).astype(np.float64)
        for model in MODELS:
            path = f"{out}/{model}.doam"
            with open(f"{path}.losses.csv", "r", encoding="utf-8") as fh:
                losses = [float(r["loss"]) for r in csv.DictReader(fh)]
            require(len(losses) == EPOCHS and np.all(np.isfinite(losses)),
                    f"{model}: loss history not finite or incomplete")
            require(losses[-1] < losses[0], f"{model}: loss did not fall ({losses})")

            loaded = avdoa.nn.load_checkpoint(path)
            again = f"{out}/{model}.resaved.doam"
            avdoa.nn.save_checkpoint(loaded, again)
            require(_digest(path) == _digest(again), f"{model}: save/load/save changed bytes")
            reloaded = avdoa.nn.load_checkpoint(again)
            v = None if model == "gcc_only" else vis_x
            require(np.array_equal(loaded.forward(gcc_x, v), reloaded.forward(gcc_x, v)),
                    f"{model}: reloaded checkpoint gives other outputs")
            if model == "avaw":
                w = loaded.adaptive_weights(gcc_x, vis_x)
                require(np.all(w >= 0) and np.allclose(w.sum(axis=1), 1.0, atol=1e-12),
                        "avaw: fusion weights are not a probability vector")

            records, mae, acc = _check_results_file(f"{out}/{model}-eval/results.jsonl",
                                                    f"{out}/{model}-eval/summary.csv")
            require([r["frame_index"] for r in records] == [order[i] for i in rows],
                    f"{model}: eval did not score exactly the holdout frames")
            ref = avdoa.evaluation.mae_acc([r["pred"] for r in records],
                                           [r["gt"] for r in records])
            require(abs(ref.mae - mae) < 1e-9 and abs(ref.acc - acc) < 1e-9,
                    f"{model}: evaluation.mae_acc {ref.mae}/{ref.acc} vs {mae}/{acc}")


class Grid(Workload):
    """robustness (5 x 5 SNR x FDSP) then baseline at each SNR level, on the holdout."""

    name = "grid"

    def build(self, dest):
        self._simulate_in_view(dest)
        self.cli(["train", "--features", f"{dest}/feat", "--model", "avaw",
                  "--seed", str(self.seed), "--batch", BATCH,
                  "--out", f"{dest}/avaw.doam", *self._widths()])
        self.inputs = dest

    def _holdout(self):
        return len(_holdout_rows(self.size["frames"], GRID_HOLDOUT))

    def work_per_round(self):
        return self._holdout() * len(SNR_LEVELS) * len(FDSP_LEVELS)

    def run_round(self, out):
        ds = f"{self.inputs}/ds"
        self.cli(["robustness", "--checkpoint", f"{self.inputs}/avaw.doam", "--dataset", ds,
                  "--holdout", str(GRID_HOLDOUT), "--seed", str(self.seed),
                  "--out", f"{out}/grid"])
        for snr in SNR_LEVELS:
            noise = [] if snr == "clean" else ["--snr", snr]
            self.cli(["baseline", "--dataset", ds, "--holdout", str(GRID_HOLDOUT),
                      "--subset", "holdout", "--seed", str(self.seed), *noise,
                      "--out", f"{out}/srp{snr}"])

    def fingerprint(self, out):
        return _digest(f"{out}/grid/robustness_grid.csv",
                       *[f"{out}/srp{s}/baseline_summary.csv" for s in SNR_LEVELS])

    def quality(self, out):
        cells = _read_grid(f"{out}/grid/robustness_grid.csv")
        return (float(np.mean([acc for _, acc in cells.values()])),
                float(np.mean([mae for mae, _ in cells.values()])))

    def layer_values(self, tracer):
        per_cell = tracer.count_under("audio.gcc_feature", "evaluation.robustness_grid")
        return {rnd: {"evaluation.robustness_grid": {"gcc_per_cell": count / self.work_per_round()}}
                for rnd, count in per_cell.items()}

    def check(self, out, avdoa):
        cells = _read_grid(f"{out}/grid/robustness_grid.csv")
        want = {(s, f) for s in SNR_LEVELS for f in FDSP_LEVELS}
        require(set(cells) == want, f"grid cells {sorted(cells)} are not the 5 x 5 levels")
        require(all(np.isfinite(v).all() for v in cells.values()), "grid has non-finite cells")

        # the clean / 0% cell is the model on clean features, scored apart
        ds = avdoa.dataset.FrameDataset.load(f"{self.inputs}/ds")
        holdout = ds.subset(_holdout_rows(len(ds), GRID_HOLDOUT))
        model = avdoa.nn.load_checkpoint(f"{self.inputs}/avaw.doam")
        g, v = avdoa.dataset.extract_features(holdout)
        post = model.forward(g.reshape(len(g), -1), v.reshape(len(v), -1))
        truths = [f.azimuths for f in holdout.frames]
        preds = [avdoa.evaluation.decode_doa(post[i], len(t)) for i, t in enumerate(truths)]
        mae, acc_lo, acc_hi = oracles.mae_acc(preds, truths)
        cell_mae, cell_acc = cells[("clean", 0.0)]
        require(abs(mae - cell_mae) <= 6e-4 and acc_lo - 6e-3 <= cell_acc <= acc_hi + 6e-3,
                f"clean/0% cell {cell_mae}/{cell_acc}, model on clean features "
                f"{mae:.4f}/{acc_lo:.3f}..{acc_hi:.3f}")

        # corruptions: realised SNR and preserved detection multisets
        for snr in SNR_LEVELS[:-1]:
            noisy = avdoa.audio.add_noise_at_snr(holdout.audio, float(snr), seed=[self.seed, 5])
            got = oracles.realised_snr_db(holdout.audio.samples, noisy.samples)
            require(abs(got - float(snr)) < 1e-9, f"SNR {snr} dB realised as {got:.12f} dB")
        before = _box_sets(holdout.detections)
        for fdsp in FDSP_LEVELS:
            after = _box_sets(avdoa.visual.swap_detections(holdout.detections, fdsp,
                                                           seed=[self.seed, 6]))
            require(before == after, f"FDSP {fdsp}: swapping changed the detection multiset")

        # SRP-PHAT on the same frames: clean audio localises no worse than -10 dB
        _, acc_clean = _read_summary(f"{out}/srpclean/baseline_summary.csv")
        _, acc_noisy = _read_summary(f"{out}/srp-10/baseline_summary.csv")
        require(acc_clean >= acc_noisy, f"SRP-PHAT ACC clean {acc_clean} < -10 dB {acc_noisy}")
        for snr in SNR_LEVELS:
            _check_results_file(f"{out}/srp{snr}/baseline_results.jsonl",
                                f"{out}/srp{snr}/baseline_summary.csv")


WORKLOADS = {w.name: w for w in (Simulate, Train, Grid)}


def warm_up(dest, cli):
    """One tiny scene through every command: pays imports and first calls.

    The network has the paper's widths, so the first timed round does not
    also pay for first touching memory of that size.
    """
    cli(["simulate", "--out", f"{dest}/ds", "--frames", "4", "--seed", "1",
         "--sources", "1:0.5,2:0.5"])
    cli(["features", "--dataset", f"{dest}/ds", "--out", f"{dest}/feat"])
    cli(["train", "--features", f"{dest}/feat", "--model", "avaw", "--epochs", "1",
         "--holdout", "0.25", "--out", f"{dest}/m.doam"])
    cli(["eval", "--checkpoint", f"{dest}/m.doam", "--features", f"{dest}/feat",
         "--holdout", "0.25", "--out", f"{dest}/eval"])
    cli(["robustness", "--checkpoint", f"{dest}/m.doam", "--dataset", f"{dest}/ds",
         "--holdout", "0.25", "--snr-levels", "0,clean", "--fdsp-levels", "0,50",
         "--out", f"{dest}/grid"])
    cli(["baseline", "--dataset", f"{dest}/ds", "--out", f"{dest}/srp"])


def quiet_cli(avdoa):
    """A runner that keeps the CLI's progress lines off the benchmark's stdout.

    It looks ``avdoa.cli.main`` up on every call, so a traced ``main`` is used.
    """
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return avdoa.cli.main(argv)
    return run


def checked_cli(avdoa):
    """A runner for set-up, where any command that fails ends the run."""
    quiet = quiet_cli(avdoa)

    def run(argv):
        code = quiet(argv)
        if code != 0:
            raise RuntimeError(f"avdoa {' '.join(argv)} exited with {code}")
    return run
