import hashlib
import math

import numpy as np
import pytest

from lockern import diagnostics, experiments
from lockern.cli import _parse_config_file, main
from lockern.features import Spectrogram
from lockern.io import write_manifest, write_spectrogram_csv
from preprocess_oracle import preprocess_per_sample


def run(argv):
    return main(argv)


class TestKernelEval:
    def test_gaussian_profile_at_n1(self, capsys):
        gamma = 0.5
        code = run(
            ["kernel-eval", "--N", "1", "--q", "2", "--gamma", str(gamma),
             "--x-max", "4", "--steps", "8"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,phi"
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        assert len(rows) == 9  # endpoints inclusive
        assert rows[0][0] == 0.0
        assert rows[-1][0] == 4.0
        phi0 = rows[0][1]
        for x, phi in rows:
            assert phi / phi0 == pytest.approx(math.exp(-((gamma * x) ** 2) / 2.0), rel=1e-10)

    def test_writes_file(self, tmp_path):
        code = run(
            ["--out-dir", str(tmp_path), "kernel-eval", "--N", "4", "--q", "2",
             "--steps", "5", "--output", "kernel.csv"]
        )
        assert code == 0
        text = (tmp_path / "kernel.csv").read_text()
        assert text.splitlines()[0] == "x,phi"
        assert len(text.splitlines()) == 7

    @pytest.mark.parametrize(
        "argv",
        [
            ["--N", "2", "--q", "2", "--steps", "0"],
            ["--N", "0.5", "--q", "2"],
            ["--N", "2", "--q", "0"],
            ["--N", "2", "--q", "2", "--gamma", "-1"],
            ["--N", "2", "--q", "2", "--gamma", "nan"],
            ["--N", "2", "--q", "2", "--gamma", "inf"],
            ["--N", "nan", "--q", "2"],
            ["--N", "inf", "--q", "2"],
            ["--N", "1e200", "--q", "2"],
        ],
    )
    def test_bad_arguments_exit_2(self, argv, capsys):
        assert run(["kernel-eval"] + argv) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("bench", ["reduction", "clenshaw", "orthonormality", "localization"])
    def test_benchmark_passes(self, bench, capsys):
        assert run(["verify", "--benchmark", bench]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_all_runs_every_benchmark_in_order(self, capsys, monkeypatch):
        ran, real = [], diagnostics.run_benchmark
        monkeypatch.setattr(diagnostics, "run_benchmark", lambda name: ran.append(name) or real(name))
        assert run(["verify", "--benchmark", "all"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == len(out.splitlines()) > len(ran)
        assert ran == list(diagnostics.BENCHMARKS) == [
            "reduction", "clenshaw", "localization", "interpolation", "decay", "dominance",
            "orthonormality"]

    def test_every_bench_function_is_registered(self):
        defined = {name for name in vars(diagnostics) if name.startswith("_bench_")}
        registered = {fn.__name__ for fn in diagnostics._BENCHES.values()}
        assert defined == registered

    def test_all_exits_1_on_a_failing_check(self, capsys, monkeypatch):
        monkeypatch.setitem(diagnostics._BENCHES, "decay", lambda: [("far-field-decay", False, "x")])
        assert run(["verify", "--benchmark", "all"]) == 1
        out = capsys.readouterr().out
        assert "FAIL far-field-decay: x" in out
        assert "PASS psi-orthonormality" in out  # the benchmarks after it still run

    def test_threads_flag_removed(self, capsys):
        assert run(["--threads=2", "verify", "--benchmark", "reduction"]) == 2
        assert "unrecognized arguments: --threads=2" in capsys.readouterr().err

    def test_unknown_benchmark(self, capsys):
        assert run(["verify", "--benchmark", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestFeaturesCommand:
    def test_svd_outputs(self, tmp_path):
        code = run(
            ["--out-dir", str(tmp_path), "features", "--synthetic",
             "--r", "3", "--feature", "svd"]
        )
        assert code == 0
        files = sorted(tmp_path.glob("sample*.csv"))
        assert len(files) == 4 * 6 * 25
        first = files[0].read_text().splitlines()
        assert first[0].startswith("singular_values,")
        assert len(first) == 1 + 64  # header plus one row per frequency bin
        assert (tmp_path / "run-manifest.txt").exists()

    @pytest.mark.parametrize("preprocessing", ["binary", "unit"])
    def test_csv_bytes_match_per_sample_oracle(self, tmp_path, monkeypatch, preprocessing):
        argv = ["features", "--synthetic", "--preprocessing", preprocessing, "--r", "3"]
        assert run(["--out-dir", str(tmp_path / "batched")] + argv) == 0
        monkeypatch.setattr(experiments, "preprocess", preprocess_per_sample)
        assert run(["--out-dir", str(tmp_path / "oracle")] + argv) == 0
        batched = sorted((tmp_path / "batched").glob("sample*.csv"))
        assert len(batched) == 4 * 6 * 25
        for path in batched:
            assert path.read_bytes() == (tmp_path / "oracle" / path.name).read_bytes()

    def test_pca_input_bytes_pinned(self, tmp_path):
        # zero-padded flat vectors of spectrograms of unequal widths: the
        # digest of every output file's bytes, as computed at 567db93
        rng = np.random.default_rng(5)
        entries = []
        for i, cols in enumerate((3, 7, 5, 7, 4)):
            name = f"s{i}.csv"
            data = np.abs(rng.standard_normal((8, cols)) + 2.0 * (i % 2))
            write_spectrogram_csv(Spectrogram(data=data), tmp_path / name)
            entries.append((name, i % 2, "AB"[i % 2]))
        write_manifest(entries, tmp_path / "manifest.csv")
        out = tmp_path / "out"
        assert run(["--out-dir", str(out), "features", "--manifest",
                    str(tmp_path / "manifest.csv"), "--feature", "pca-input"]) == 0
        files = sorted(out.glob("sample*.csv"))
        assert [len(p.read_text().splitlines()) for p in files] == [1 + 8 * 7] * 5
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
        assert digest == "e9e2238838f80910ef027e92cf8c87acb93f553cc4b1215bc844f635695b3ce6"

    def test_requires_dataset_flag(self, capsys):
        assert run(["features"]) == 2
        assert "either --synthetic or --manifest" in capsys.readouterr().err


@pytest.fixture()
def knn_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# fast deterministic configuration\n"
        "classifier = knn\n"
        "knn_k = 1\n"
        "r = 6\n"
        "trials = 2\n"
    )
    return str(path)


class TestExperimentCommand:
    def test_deterministic_csv(self, tmp_path, knn_config, capsys):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code = run(
                ["--out-dir", str(out_dir), "--seed", "7", "experiment",
                 "--synthetic", "--per-cell", "3", "--config", knn_config]
            )
            assert code == 0
            outs.append((out_dir / "results_notiming.csv").read_bytes())
            assert (out_dir / "results.csv").exists()
            manifest = (out_dir / "run-manifest.txt").read_text()
            assert "seed=7" in manifest
        assert outs[0] == outs[1]
        assert "PCA KNN" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("classifier = knn\nbogus = 1\n")
        code = run(
            ["--out-dir", str(tmp_path), "experiment", "--synthetic",
             "--per-cell", "2", "--config", str(cfg)]
        )
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_every_config_key_parses_to_its_type(self, tmp_path):
        # the nine config fields but the seed, and the five kernel
        # parameters, over three valid configs: no one config takes them all
        configs = [
            {"preprocessing": "unit", "r": 7, "classifier": "knn", "knn_k": 3,
             "train_ratio": 0.5, "trials": 4},
            {"feature": "svd", "kernel_kind": "laplace_svd", "C": 2.0,
             "alpha": 0.25, "beta": 0.125},
            {"gamma": 0.5, "N": 6.0, "q": 9},  # the default localized kernel's
        ]
        assert sum(map(len, configs)) == len(set().union(*configs)) == 14
        for expected in configs:
            cfg = tmp_path / "all.cfg"
            cfg.write_text("".join(f"{k} = {v:g}\n" if isinstance(v, float) else f"{k} = {v}\n"
                                   for k, v in expected.items()))
            config = _parse_config_file(str(cfg), seed=11)
            got = {k: config.kernel_params[k] if k in config.kernel_params else getattr(config, k)
                   for k in expected}
            assert got == expected
            assert ({k: type(v) for k, v in got.items()}
                    == {k: type(v) for k, v in expected.items()})
            assert config.seed == 11

    def test_seed_config_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("classifier = knn\nseed = 3\n")
        code = run(
            ["--out-dir", str(tmp_path), "experiment", "--synthetic",
             "--per-cell", "2", "--config", str(cfg)]
        )
        assert code == 1
        assert "unknown config keys ['seed']" in capsys.readouterr().err

    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# PCA dimension\nclassifier = knn\nr = abc\n")
        code = run(
            ["--out-dir", str(tmp_path), "experiment", "--synthetic",
             "--per-cell", "2", "--config", str(cfg)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}:3: key 'r': invalid literal for int()" in err

    @pytest.mark.parametrize("text, message", [
        ("classifier = knn\ngamma = 0.5\nalpha = 0.1\n",
         "classifier knn uses no kernel, so kernel parameters 'gamma', 'alpha'"),
        ("feature = svd\nr = 3\nkernel_kind = grassmann\nN = 4\n",
         "kernel 'grassmann' does not read parameter 'N'"),
    ])
    def test_unread_kernel_params_exit_1(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(text)
        code = run(
            ["--out-dir", str(tmp_path), "experiment", "--synthetic",
             "--per-cell", "2", "--config", str(cfg)]
        )
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_svd_knn_exits_1_with_message(self, tmp_path, capsys):
        cfg = tmp_path / "svd_knn.cfg"
        cfg.write_text("feature = svd\nclassifier = knn\nr = 3\ntrials = 1\n")
        code = run(
            ["--out-dir", str(tmp_path), "experiment", "--synthetic",
             "--per-cell", "2", "--config", str(cfg)]
        )
        assert code == 1
        assert "error: classifier knn with feature svd" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["experiment", "sweep-dim", "sweep-frac", "holdout"])
    def test_refused_config_exits_1_without_output(self, tmp_path, capsys, command):
        # each is refused when the config is read: before the data set is
        # made and before --out-dir is created
        cases = [
            ("C = nan\n", "C must be positive and finite, got nan"),
            ("C = 0\n", "C must be positive and finite, got 0.0"),
            ("train_ratio = 1.5\n", "train_ratio 1.5 is outside (0, 1)"),
            ("feature = svd\nr = 3\n",
             "kernel 'localized' does not take feature svd; feature svd takes grassmann, "
             "laplace_svd, gaussian_svd"),
            ("kernel_kind = grassmann\n",
             "kernel 'grassmann' does not take feature pca; feature pca takes "
             "euclidean_rbf, localized"),
            ("classifier = knn\nknn_k = 0\n", "knn_k=0 is below 1"),
            ("preprocessing = log\n", "unknown preprocessing 'log'"),
            ("classifier = knn\ngamma = 0.5\n",
             "classifier knn uses no kernel, so kernel parameters 'gamma' would have no effect"),
            ("q = 0\n", "q must be a positive integer"),
            ("q = -3\n", "q must be a positive integer"),
            ("N = 0.5\n", "N must be >= 1 and finite, got 0.5"),
            ("gamma = nan\n", "kernel 'localized': gamma must be positive and finite, got nan"),
            ("kernel_kind = euclidean_rbf\ngamma = -1\n",
             "kernel 'euclidean_rbf': gamma must be positive and finite, got -1.0"),
            ("feature = svd\nr = 3\nkernel_kind = grassmann\ngamma = -3\n",
             "kernel 'grassmann': gamma must be positive and finite, got -3.0"),
        ]
        for k, (text, message) in enumerate(cases):
            cfg = tmp_path / f"refused{k}.cfg"
            cfg.write_text(text)
            out = tmp_path / f"out{k}"
            code = run(["--out-dir", str(out), command, "--synthetic", "--per-cell", "2",
                        "--config", str(cfg)])
            assert code == 1
            err = capsys.readouterr().err
            assert err == f"error: {message}\n"
            assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = run(
            ["--out-dir", str(tmp_path), "experiment", "--synthetic",
             "--config", str(tmp_path / "absent.cfg")]
        )
        assert code == 2

    def test_manifest_dataset(self, tmp_path):
        # two classes, two subjects, enough samples for a stratified split
        rng = np.random.default_rng(0)
        entries = []
        for i in range(12):
            label = i % 2
            data = np.abs(rng.standard_normal((16, 10)) + 3.0 * label)
            name = f"s{i}.csv"
            write_spectrogram_csv(Spectrogram(data=data), tmp_path / name)
            entries.append((name, label, "AB"[i % 2]))
        write_manifest(entries, tmp_path / "manifest.csv")
        cfg = tmp_path / "m.cfg"
        cfg.write_text("classifier = knn\nknn_k = 1\nr = 4\ntrials = 1\n")
        code = run(
            ["--out-dir", str(tmp_path / "out"), "experiment",
             "--manifest", str(tmp_path / "manifest.csv"), "--config", str(cfg)]
        )
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_malformed_spectrogram_exits_1(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("real,magnitude\n1.0,oops\n")
        write_manifest([("bad.csv", 0, "A")], tmp_path / "manifest.csv")
        code = run(
            ["experiment", "--manifest", str(tmp_path / "manifest.csv")]
        )
        assert code == 1
        assert "malformed" in capsys.readouterr().err

    def test_missing_manifest_exits_2(self, tmp_path):
        code = run(["experiment", "--manifest", str(tmp_path / "none.csv")])
        assert code == 2


class TestSweepCommands:
    def test_sweep_dim_outputs(self, tmp_path, knn_config):
        code = run(
            ["--out-dir", str(tmp_path), "sweep-dim", "--synthetic", "--per-cell", "2",
             "--config", knn_config, "--r-values", "2,4"]
        )
        assert code == 0
        assert (tmp_path / "sweep_r002.csv").exists()
        assert (tmp_path / "sweep_r004.csv").exists()
        header = (tmp_path / "sweep_r002.csv").read_text().splitlines()[0]
        assert header.startswith("r_swept,")

    def test_sweep_dim_skip_prints_cause(self, tmp_path, knn_config, capsys):
        code = run(
            ["--out-dir", str(tmp_path), "sweep-dim", "--synthetic", "--per-cell", "2",
             "--config", knn_config, "--r-values", "2,5000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "r=5000: skipped (r=5000 out of range for " in out
        assert not (tmp_path / "sweep_r5000.csv").exists()

    def test_sweep_dim_bad_values(self, tmp_path, capsys):
        code = run(
            ["--out-dir", str(tmp_path), "sweep-dim", "--synthetic",
             "--r-values", "2,x"]
        )
        assert code == 2

    def test_sweep_dim_r_below_one_refused_before_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["--out-dir", str(out), "sweep-dim", "--synthetic", "--per-cell", "3",
                    "--r-values=0,-2,2"])
        assert code == 2
        assert "feature dimension r=0 is below 1" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_frac_default_grid(self, tmp_path, knn_config):
        # file names hold the rounded percentage; two fractions that name
        # one file, and a fraction outside (0, 1], are usage errors, before
        # any file is written
        cases = [([], 0, (20, 40, 60, 80)),
                 (["--fractions", "0.29,0.57"], 0, (29, 57)),
                 (["--fractions", "0.5,0.501"], 2, ()),
                 (["--fractions=-0.5,1.5,0"], 2, ()),
                 (["--fractions", "0.5,nan"], 2, ())]
        for k, (fractions, exit_code, pcts) in enumerate(cases):
            out = tmp_path / str(k)
            code = run(
                ["--out-dir", str(out), "sweep-frac", "--synthetic", "--per-cell", "3",
                 "--config", knn_config] + fractions
            )
            assert code == exit_code
            assert code == 0 or not out.exists()
            written = sorted(p.name for p in out.glob("sweep_frac*.csv")) if out.exists() else []
            assert written == [f"sweep_frac{pct:03d}.csv" for pct in pcts]

    def test_holdout_outputs(self, tmp_path, knn_config):
        code = run(
            ["--out-dir", str(tmp_path), "holdout", "--synthetic", "--per-cell", "2",
             "--config", knn_config]
        )
        assert code == 0
        lines = (tmp_path / "holdout.csv").read_text().splitlines()
        assert len(lines) == 1 + 6  # header plus one row per subject
