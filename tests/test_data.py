"""Synthetic mixture generation, IDX digit loading, and training on
IDX files through the train-resnet kind."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from pfc import cli
from pfc.core import class_stats
from pfc.data import gen_gaussian_mixture, load_mnist_idx
from pfc.harness import ExperimentConfig, csv_column, read_csv, run
from pfc.metrics import pfc1, pfc3
from pfc.resnet import TrainConfig, train


def write_idx_images(path, images: np.ndarray, magic: int = 2051):
    count, rows, cols = images.shape
    payload = struct.pack(">iiii", magic, count, rows, cols) + images.astype(
        np.uint8
    ).tobytes()
    path.write_bytes(payload)


def write_idx_labels(path, labels: np.ndarray, magic: int = 2049):
    payload = struct.pack(">ii", magic, len(labels)) + labels.astype(
        np.uint8
    ).tobytes()
    path.write_bytes(payload)


def tiny_digit_pair(tmp_path, labels, side=3):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(len(labels), side, side), dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    write_idx_images(img_path, images)
    write_idx_labels(lbl_path, np.asarray(labels))
    return img_path, lbl_path, images


class TestGaussianMixture:
    def test_shapes_and_labels(self):
        fs = gen_gaussian_mixture(3, 5, 7, seed=0)
        assert fs.features.shape == (5, 21)
        assert (fs.num_classes, fs.per_class, fs.dim) == (3, 7, 5)
        np.testing.assert_array_equal(fs.labels(), np.repeat(np.arange(3), 7))

    def test_deterministic_under_seed(self):
        a = gen_gaussian_mixture(4, 6, 10, seed=42)
        b = gen_gaussian_mixture(4, 6, 10, seed=42)
        c = gen_gaussian_mixture(4, 6, 10, seed=43)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_sequence_seed_accepted(self):
        a = gen_gaussian_mixture(4, 6, 10, seed=[3, 11])
        b = gen_gaussian_mixture(4, 6, 10, seed=[3, 11])
        assert np.array_equal(a.features, b.features)

    def test_zero_mean_scale_is_chance_level(self):
        fs = gen_gaussian_mixture(4, 8, 1000, mean_scale=0.0, seed=1)
        assert pfc3(fs) == pytest.approx(0.25, abs=0.1)

    def test_zero_noise_collapses_to_means(self):
        fs = gen_gaussian_mixture(3, 6, 1, noise_scale=0.0, seed=2)
        assert pfc1(fs) == pytest.approx(0.0, abs=1e-30)
        assert pfc3(fs) == 1.0

    def test_means_on_scaled_sphere(self):
        fs = gen_gaussian_mixture(5, 9, 1, mean_scale=2.5, noise_scale=0.0, seed=3)
        norms = np.linalg.norm(fs.features, axis=0)
        np.testing.assert_allclose(norms, 2.5, rtol=1e-12)

    def test_sample_means_approach_true_means(self):
        k, d, n = 3, 10, 4000
        fs = gen_gaussian_mixture(k, d, n, mean_scale=1.0, seed=4)
        exact = gen_gaussian_mixture(k, d, 1, mean_scale=1.0, noise_scale=0.0, seed=4)
        stats = class_stats(fs)
        gap = np.linalg.norm(stats.class_means - exact.features, axis=0)
        assert np.all(gap < 3.0 * np.sqrt(d / n))

    def test_negative_scales_rejected(self):
        # each message names one parameter and its value; NaN fails too
        with pytest.raises(ValueError, match="^mean_scale must be >= 0, got -1.0$"):
            gen_gaussian_mixture(3, 5, 7, mean_scale=-1.0)
        with pytest.raises(ValueError, match="^noise_scale must be >= 0, got -1.0$"):
            gen_gaussian_mixture(3, 5, 7, noise_scale=-1.0)
        with pytest.raises(ValueError, match="^noise_scale must be >= 0, got nan$"):
            gen_gaussian_mixture(3, 5, 7, noise_scale=float("nan"))


class TestIdxLoading:
    def test_round_trip_balanced_subset(self, tmp_path):
        labels = [0, 1, 0, 1, 1, 0]
        img_path, lbl_path, images = tiny_digit_pair(tmp_path, labels)
        fs = load_mnist_idx(img_path, lbl_path, per_class=2)
        assert fs.features.shape == (9, 4)
        assert (fs.num_classes, fs.per_class) == (2, 2)
        np.testing.assert_array_equal(fs.labels(), [0, 0, 1, 1])
        # class 0 columns are the first two label-0 images, in file order.
        np.testing.assert_allclose(
            fs.features[:, 0], images[0].reshape(-1) / 255.0
        )
        np.testing.assert_allclose(
            fs.features[:, 1], images[2].reshape(-1) / 255.0
        )
        np.testing.assert_allclose(
            fs.features[:, 2], images[1].reshape(-1) / 255.0
        )

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        img_path, lbl_path, _ = tiny_digit_pair(tmp_path, [0, 1, 0, 1])
        fs = load_mnist_idx(img_path, lbl_path, per_class=2)
        assert fs.features.min() >= 0.0
        assert fs.features.max() <= 1.0

    def test_balanced_among_all_classes(self, tmp_path):
        labels = [2, 0, 1, 0, 2, 1, 1, 0, 2]
        img_path, lbl_path, _ = tiny_digit_pair(tmp_path, labels)
        fs = load_mnist_idx(img_path, lbl_path, per_class=3)
        assert fs.num_samples == 9
        counts = np.bincount(fs.labels())
        np.testing.assert_array_equal(counts, [3, 3, 3])

    def test_converts_only_the_picked_images(self, tmp_path):
        # the image file is mapped, not read, and only the picked images are
        # scaled, straight into the matrix the set adopts; converting the
        # whole file first peaked at 161.9 MB for this 6.27 MB result
        count, per_class = 20_000, 100
        labels = np.arange(count) % 10
        images = np.random.default_rng(1).integers(0, 256, (count, 28, 28), dtype=np.uint8)
        img_path, lbl_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(img_path, images)
        write_idx_labels(lbl_path, labels)
        tracemalloc.start()
        try:
            fs = load_mnist_idx(img_path, lbl_path, per_class)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * fs.features.nbytes
        picked = [i for k in range(10) for i in np.flatnonzero(labels == k)[:per_class]]
        expected = np.stack([images[i].reshape(-1).astype(np.float64) / 255.0 for i in picked],
                            axis=1)
        assert np.array_equal(fs.features, expected)

    def test_bad_image_magic(self, tmp_path):
        img_path, lbl_path, _ = tiny_digit_pair(tmp_path, [0, 1])
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x01" + img_path.read_bytes()[4:])
        with pytest.raises(ValueError, match="magic"):
            load_mnist_idx(bad, lbl_path, per_class=1)

    def test_bad_label_magic(self, tmp_path):
        img_path, lbl_path, _ = tiny_digit_pair(tmp_path, [0, 1])
        bad = tmp_path / "bad_labels.idx"
        write_idx_labels(bad, np.array([0, 1]), magic=1234)
        with pytest.raises(ValueError, match="magic"):
            load_mnist_idx(img_path, bad, per_class=1)

    def test_truncated_file(self, tmp_path):
        img_path, lbl_path, _ = tiny_digit_pair(tmp_path, [0, 1])
        clipped = tmp_path / "clipped.idx"
        clipped.write_bytes(img_path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="bytes"):
            load_mnist_idx(clipped, lbl_path, per_class=1)

    def test_count_mismatch(self, tmp_path):
        img_path, _, _ = tiny_digit_pair(tmp_path, [0, 1, 0, 1])
        lbl_path = tmp_path / "short_labels.idx"
        write_idx_labels(lbl_path, np.array([0, 1]))
        with pytest.raises(ValueError, match="count"):
            load_mnist_idx(img_path, lbl_path, per_class=1)

    def test_insufficient_class_samples(self, tmp_path):
        img_path, lbl_path, _ = tiny_digit_pair(tmp_path, [0, 0, 0, 1])
        with pytest.raises(ValueError, match="class 1"):
            load_mnist_idx(img_path, lbl_path, per_class=2)

    def test_labels_must_cover_range(self, tmp_path):
        img_path, lbl_path, _ = tiny_digit_pair(tmp_path, [0, 2, 0, 2])
        with pytest.raises(ValueError, match="0..K-1"):
            load_mnist_idx(img_path, lbl_path, per_class=1)

    def test_per_class_validated(self, tmp_path):
        img_path, lbl_path, _ = tiny_digit_pair(tmp_path, [0, 1])
        with pytest.raises(ValueError, match="per_class"):
            load_mnist_idx(img_path, lbl_path, per_class=0)


class TestIdxTraining:
    """train-resnet trains on an IDX pair when ``images`` and ``labels`` are set."""

    PARAMS = {
        "num_blocks": 2,
        "width": 8,
        "input_dim": 9,
        "num_classes": 3,
        "per_class": 4,
        "epochs": 4,
        "batch_size": 6,
        "lr_decay_epochs": [],
        "record_stride": 2,
        "grid_points": 11,
    }

    def files(self, tmp_path):
        img_path, lbl_path, _ = tiny_digit_pair(tmp_path, np.repeat(np.arange(3), 5))
        return {"images": str(img_path), "labels": str(lbl_path)}

    def test_run_writes_layers_report_curves_and_manifest(self, tmp_path):
        files = self.files(tmp_path)
        out = tmp_path / "run"
        manifest = run(ExperimentConfig(
            kind="train-resnet", params={**self.PARAMS, **files}, out_dir=out
        ))
        assert {
            "train_log.csv", "trace.csv", "report.csv", "curves.csv", "summary.json",
            "layers/layer_00.txt", "layers/layer_01.txt", "layers/layer_02.txt",
        } == set(manifest["artifacts"])
        assert (out / "manifest.json").is_file()
        assert {k: manifest["params"][k] for k in files} == files
        header, rows = read_csv(out / "report.csv")
        assert csv_column(header, rows, "layer") == [0, 1, 2]
        header, rows = read_csv(out / "curves.csv")
        assert len(rows) == 3 * self.PARAMS["grid_points"]

    def test_run_trains_on_the_files(self, tmp_path):
        files = self.files(tmp_path)
        out = tmp_path / "run"
        run(ExperimentConfig(
            kind="train-resnet", params={**self.PARAMS, **files}, out_dir=out
        ))
        p = self.PARAMS
        config = TrainConfig(
            num_blocks=p["num_blocks"], width=p["width"], input_dim=p["input_dim"],
            num_classes=p["num_classes"], per_class=p["per_class"],
            epochs=p["epochs"], batch_size=p["batch_size"], lr_decay_epochs=(),
            seed=1, record_stride=p["record_stride"],
        )
        trace = train(config, load_mnist_idx(files["images"], files["labels"], 4))
        header, rows = read_csv(out / "train_log.csv")
        assert csv_column(header, rows, "loss") == [float(v) for v in trace.losses]

    @pytest.mark.parametrize("name, value, held", [
        ("input_dim", 8, 9), ("num_classes", 4, 3),
    ])
    def test_shape_mismatch_names_the_parameter(self, tmp_path, capsys, name, value,
                                                held):
        files = self.files(tmp_path)
        out = tmp_path / "run"
        params = {**self.PARAMS, **files, name: value}
        args = ["train-resnet", "--out", str(out)]
        for key, val in params.items():
            args += ["--set", f"{key}={json.dumps(val)}"]
        assert cli.main(args) == 1
        assert f"{name}={value} does not match the IDX files, which hold {held}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("given, missing", [("images", "labels"), ("labels", "images")])
    def test_one_file_without_the_other_names_the_missing_one(self, tmp_path, capsys,
                                                              given, missing):
        files = self.files(tmp_path)
        out = tmp_path / "run"
        args = ["train-resnet", "--out", str(out), "--set", f"{given}={files[given]}"]
        assert cli.main(args) == 1
        assert f"set {missing} too" in capsys.readouterr().err
        assert not out.exists()
