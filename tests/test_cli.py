import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from repel2d import experiment
from repel2d.cli import _build_parser, build_config, main, read_config
from repel2d.datasets import ImageDataset, load_dataset, write_dataset_pgm
from repel2d.embed_1d import METHOD_NAMES_1D
from repel2d.embed_2d import METHOD_NAMES_2D
from repel2d.errors import ParameterError
from repel2d.experiment import CSV_HEADER, usable_cpus

from _oracles import parse_result_csv


def run_cli(*argv):
    return main(list(argv))


def bench_config(*argv):
    return build_config(_build_parser().parse_args(["bench", *argv]))


class TestConfigFile:
    def test_parse_and_override(self, tmp_path, synthetic_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# benchmark config\n"
            f"dataset = {synthetic_dir}\n"
            "methods = 2D-PCA, 2D-OLPP\n"
            "dims = 2,4\n"
            "train_per_class = 4\n"
            "realizations = 1\n"
            "seed = 7\n"
        )
        values = read_config(cfg)
        assert values["seed"] == "7"
        out = tmp_path / "out"
        # the flag overrides the file's method list
        code = run_cli(
            "bench", "--config", str(cfg), "--method", "2D-PCA", "--out", str(out)
        )
        assert code == 0
        rows = parse_result_csv(out / "results.csv")
        assert {r.method for r in rows} == {"2D-PCA"}
        assert {r.dimension for r in rows} == {2, 4}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tempo = fast\n")
        code = run_cli("bench", "--config", str(cfg))
        assert code == 1

    @pytest.mark.parametrize("command", ["fit", "eval", "bench"])
    def test_unknown_mode_in_config_file_is_a_usage_error(self, tmp_path, synthetic_dir, capsys, command):
        # a mode read from a file meets the config's own check, as a flag does
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {synthetic_dir}\nmode = sideways\n")
        out = tmp_path / "out"
        code = run_cli(command, "--config", str(cfg), "--method", "2D-PCA", "--dims", "2", "--train-per-class", "4",
                       "--realizations", "1", "--out", str(out))
        assert code == 1
        assert "mode must be one of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize(
        "key, text", [("seed", "abc"), ("beta", "x"), ("dims", "2,x"), ("pre_dims", "3"), ("dims", "1 0")]
    )
    def test_malformed_value_is_a_usage_error_naming_its_key(self, tmp_path, synthetic_dir, capsys, source, key, text):
        # a file value and a flag go through the same converter
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {synthetic_dir}\n" + (f"{key} = {text}\n" if source == "file" else ""))
        flag = ("--" + key.replace("_", "-"), text) if source == "flag" else ()
        out = tmp_path / "out"
        code = run_cli("bench", "--config", str(cfg), *flag, "--realizations", "1", "--out", str(out))
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"usage error: {key}: cannot read {text!r}")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize("key, flag, named", [("methods", "--method", "method"), ("dims", "--dims", "dimension")])
    def test_empty_list_is_a_usage_error(self, tmp_path, synthetic_dir, capsys, source, key, flag, named):
        # an empty list is not an unset one: no default stands in for it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {synthetic_dir}\n" + (f"{key} =\n" if source == "file" else ""))
        out = tmp_path / "out"
        code = run_cli("bench", "--config", str(cfg), *((flag, "") if source == "flag" else ()), "--out", str(out))
        assert code == 1
        assert f"{key} must name at least one {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_method_alias_yields_to_methods(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dataset = faces\nmethod = LPP\n")
        assert bench_config("--config", str(cfg))[0].methods == ("LPP",)
        cfg.write_text("dataset = faces\nmethod = LPP\nmethods = PCA, 2D-LPP\n")
        assert bench_config("--config", str(cfg))[0].methods == ("PCA", "2D-LPP")
        # in either order, and the two keys are not a repeated key
        cfg.write_text("dataset = faces\nmethods = PCA, 2D-LPP\nmethod = LPP\n")
        assert read_config(cfg) == {"dataset": "faces", "methods": "PCA, 2D-LPP", "method": "LPP"}
        assert bench_config("--config", str(cfg))[0].methods == ("PCA", "2D-LPP")

    @pytest.mark.parametrize("key, first, second", [("seed", "1", "2"), ("method", "LPP", "PCA")])
    def test_repeated_key_is_a_usage_error_naming_both_lines(self, tmp_path, synthetic_dir, capsys, key, first, second):
        # the last line would otherwise win without a word
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {synthetic_dir}\n{key} = {first}\n# again\n{key} = {second}\n")
        with pytest.raises(ParameterError, match=re.escape(f"{cfg}:4: config key '{key}' repeats line 2")):
            read_config(cfg)
        out = tmp_path / "out"
        assert run_cli("bench", "--config", str(cfg), "--realizations", "1", "--out", str(out)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: ") and f"'{key}' repeats line 2" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize("text", ["", "  "], ids=["empty", "blank"])
    def test_empty_dataset_path_is_a_usage_error(self, tmp_path, capsys, monkeypatch, source, text):
        # Path("") is the current directory: with class-like subdirectories
        # there, an empty path must not be loaded as a dataset
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {text}\n")
        argv = ("--config", str(cfg)) if source == "file" else ("--dataset", text)
        out = tmp_path / "out"
        assert run_cli("bench", *argv, "--dims", "2", "--realizations", "1", "--out", str(out)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("usage error: dataset: ")
        assert not out.exists()


class TestProtocolConfigs:
    # the protocol files under configs/: a typo in a key or a method name
    # fails here, not minutes into a sweep
    CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
    PROTOCOLS = {
        "orl.cfg": dict(
            methods=("2D-PCA", "2D-LDA", "2D-LPP", "2D-NPP", "2D-LDA-R", "2D-OLPP-R", "2D-ONPP-R"),
            dims=(2, 4, 6, 8, 10, 12, 14, 16, 18, 20),
            train_per_class=5,
            realizations=20,
            seed=0,
        ),
        "synthetic.cfg": dict(
            methods=("2D-PCA", "2D-LPP", "2D-OLPP", "2D-OLPP-R", "2D-ONPP-R", "2D-LDA", "2D-LDA-R"),
            dims=(2, 4, 6),
            train_per_class=10,
            realizations=20,
            seed=0,
        ),
    }

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda path: path.name)
    def test_config_builds_with_known_methods(self, path):
        assert "dataset" not in read_config(path)  # the command line names the tree
        cfg, _ = bench_config("--config", str(path), "--dataset", "faces")
        known = set(METHOD_NAMES_2D) | set(METHOD_NAMES_1D)
        assert [name for name in cfg.methods if name not in known] == []

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_config_holds_exactly_its_protocol(self, name):
        # every option the file leaves out keeps its default; the mode and
        # the worker count come from the command line
        cfg, _ = bench_config("--config", str(self.CONFIG_DIR / name), "--dataset", "faces")
        assert cfg == experiment.ExperimentConfig(dataset="faces", **self.PROTOCOLS[name])


class TestOneReaderPerOption:
    # a non-default text for every option, and the value it reads as
    NON_DEFAULT = {
        "dataset": ("faces/orl/", "faces/orl"),
        "methods": ("2D-LPP, LPP", ("2D-LPP", "LPP")),
        "mode": ("bi", "bilateral"),
        "dims": ("3,5", (3, 5)),
        "train_per_class": ("3", 3),
        "realizations": ("2", 2),
        "seed": ("9", 9),
        "knn": ("4", 4),
        "beta": ("0.5", 0.5),
        "bandwidth": ("2.5", 2.5),
        "pre_dims": ("6,5", (6, 5)),
        "max_iter": ("7", 7),
        "jobs": ("2", 2),
        "resize": ("20,16", (20, 16)),
        "out": ("run1", Path("run1")),
    }

    def test_unset_options_keep_the_config_defaults(self):
        cfg, out = bench_config("--dataset", "faces")
        assert cfg == experiment.ExperimentConfig(dataset="faces")
        assert out == Path("results")

    @pytest.mark.parametrize("name", [f.name for f in fields(experiment.ExperimentConfig)] + ["out"])
    def test_flag_and_config_key_read_alike(self, tmp_path, name):
        text, value = self.NON_DEFAULT[name]
        flag = "--method" if name == "methods" else "--" + name.replace("_", "-")
        base = () if name == "dataset" else ("--dataset", "faces")
        config_file = tmp_path / "run.cfg"
        config_file.write_text(f"{name} = {text}\n")

        def read(*argv):
            cfg, out = bench_config(*base, *argv)
            return {**asdict(cfg), "out": out}

        by_flag = read(flag, text)
        assert read("--config", str(config_file)) == by_flag
        default = {**asdict(experiment.ExperimentConfig()), "out": Path("results")}
        assert by_flag[name] == value != default[name]


class TestBenchAndSweep:
    def test_bench_writes_csv_and_metadata(self, tmp_path, synthetic_dir):
        out = tmp_path / "res"
        code = run_cli(
            "bench",
            "--dataset", str(synthetic_dir),
            "--method", "2D-PCA,2D-OLPP-R",
            "--dims", "2,4",
            "--train-per-class", "4",
            "--realizations", "2",
            "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        text = (out / "results.csv").read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == 1 + 4
        meta = json.loads((out / "results.meta.json").read_text())
        assert meta["config"]["realizations"] == 2
        assert not (out / "plotdata").exists()

    def test_pooled_bench_records_blas_threads(self, tmp_path, synthetic_dir):
        out = tmp_path / "res"
        code = run_cli(
            "bench",
            "--dataset", str(synthetic_dir),
            "--method", "2D-PCA,2D-LPP",
            "--mode", "bi",
            "--dims", "2,4",
            "--train-per-class", "4",
            "--realizations", "2",
            "--jobs", "2",
            "--out", str(out),
        )
        assert code == 0
        execution = json.loads((out / "results.meta.json").read_text())["execution"]
        assert execution["jobs"] == 2
        assert execution["usable_cpus"] == usable_cpus()
        # the counts are restored after the run, so "before" is today's count
        now = {name: get() for name, (get, _) in experiment._openblas_thread_controls().items()}
        limit = max(1, usable_cpus() // 2)
        assert execution["blas_threads"] == {
            name: {"before": n, "during": min(n, limit)} for name, n in now.items()
        }

    @pytest.mark.parametrize(("method", "jobs"), [("2D-PCA", "1"), ("2D-PCA", "2"), ("2D-NPP", "1")])
    def test_fit_eval_and_bench_share_one_blas_limit(self, tmp_path, synthetic_dir, monkeypatch, method, jobs):
        seen = []
        capped = experiment._blas_threads_capped

        def recording(limit):
            seen.append(limit)
            return capped(limit)

        monkeypatch.setattr(experiment, "_blas_threads_capped", recording)
        for command in ("fit", "eval", "bench"):
            code = run_cli(
                command,
                "--dataset", str(synthetic_dir),
                "--method", method,
                "--dims", "2",
                "--train-per-class", "4",
                "--realizations", "1",
                "--jobs", jobs,
                "--out", str(tmp_path / command),
            )
            assert code == 0
        expected = {"1": 1, "2": max(1, usable_cpus() // 2)}[jobs] if method == "2D-PCA" else None
        assert seen == [expected] * 3

    def test_sweep_also_writes_plotdata(self, tmp_path, synthetic_dir):
        out = tmp_path / "res"
        code = run_cli(
            "sweep",
            "--dataset", str(synthetic_dir),
            "--method", "2D-PCA",
            "--dims", "2,4",
            "--train-per-class", "4",
            "--realizations", "1",
            "--out", str(out),
        )
        assert code == 0
        series = out / "plotdata" / "2D-PCA_unilateral.dat"
        assert series.exists()
        assert len(series.read_text().splitlines()) == 2

    def test_determinism_modulo_timing(self, tmp_path, synthetic_dir):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code = run_cli(
                "sweep",
                "--dataset", str(synthetic_dir),
                "--method", "2D-OLPP-R,2D-PCA",
                "--dims", "2,4",
                "--train-per-class", "4",
                "--realizations", "3",
                "--seed", "11",
                "--out", str(out),
            )
            assert code == 0
            outs.append(out / "results.csv")

        def strip_timing(path):
            return "\n".join(",".join(line.split(",")[:5]) for line in path.read_text().splitlines())

        assert strip_timing(outs[0]) == strip_timing(outs[1])


class TestFitEval:
    def test_eval_prints_error(self, tmp_path, synthetic_dir, capsys):
        code = run_cli(
            "eval",
            "--dataset", str(synthetic_dir),
            "--method", "2D-PCA",
            "--dims", "2",
            "--train-per-class", "4",
            "--seed", "0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "error=" in out and "2D-PCA" in out

    def test_eval_labels_a_vector_method_as_bench_does(self, synthetic_dir, capsys):
        code = run_cli(
            "eval", "--dataset", str(synthetic_dir), "--method", "PCA", "--dims", "2", "--train-per-class", "4"
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("PCA vector d=2 ")

    @pytest.mark.parametrize(
        "commands, method, dims, message",
        [
            (("eval", "bench"), "LPP", "60", "LPP dimension 60 must be below the PCA pre-dimension 12"),
            (("fit", "eval", "bench"), "2D-OLPP", "9", "dimension 9 exceeds image side limit 8"),
        ],
        ids=["vector-predim", "image-side"],
    )
    def test_fit_and_eval_check_the_config_as_bench_does(
        self, tmp_path, synthetic_dir, capsys, commands, method, dims, message
    ):
        for command in commands:
            out = tmp_path / command
            code = run_cli(
                command, "--dataset", str(synthetic_dir), "--method", method, "--dims", dims,
                "--train-per-class", "4", "--realizations", "1", "--out", str(out),
            )
            assert code == 1
            assert capsys.readouterr().err == f"usage error: {message}\n"
            assert not out.exists()

    def test_fit_saves_projectors(self, tmp_path, synthetic_dir):
        out = tmp_path / "fit"
        code = run_cli(
            "fit",
            "--dataset", str(synthetic_dir),
            "--method", "2D-OLPP",
            "--mode", "bi",
            "--dims", "3",
            "--train-per-class", "4",
            "--out", str(out),
        )
        assert code == 0
        arrays = np.load(out / "projector.npz")
        assert arrays["row_basis"].shape == (8, 3)
        assert arrays["col_basis"].shape == (8, 3)
        meta = json.loads((out / "projector.json").read_text())
        assert meta["method"] == "2D-OLPP" and meta["dimension"] == 3


    def test_fit_honours_pre_dims_and_matches_eval(self, tmp_path, synthetic_dir, monkeypatch):
        from repel2d import recognize

        common = (
            "--dataset", str(synthetic_dir),
            "--method", "2D-OLPP-R",
            "--mode", "uni",
            "--dims", "3",
            "--pre-dims", "6,5",
            "--train-per-class", "4",
        )
        out = tmp_path / "fit"
        assert run_cli("fit", *common, "--out", str(out)) == 0
        saved = np.load(out / "projector.npz")
        assert saved["row_basis"].shape == (8, 6)
        assert saved["col_basis"].shape == (8, 3)

        scored = []
        project_tensor = recognize.project_tensor

        def spy(x, pair):
            scored.append(pair)
            return project_tensor(x, pair)

        monkeypatch.setattr(recognize, "project_tensor", spy)
        assert run_cli("eval", *common) == 0
        # one projector, for the gallery and then the queries
        assert len(scored) == 2 and scored[0] is scored[1]
        np.testing.assert_array_equal(saved["row_basis"], scored[0].row_basis)
        np.testing.assert_array_equal(saved["col_basis"], scored[0].col_basis)


    @pytest.mark.parametrize("method, extra", [("2D-LPP", ()), ("2D-OLPP-R", ("--pre-dims", "6,5"))])
    def test_fit_saves_the_projector_a_wider_sweep_trains(self, tmp_path, synthetic_dir, method, extra):
        # every subcommand trains the same projector: a bench cell at d = 3
        # comes out of one solve for d = 5 and must equal what fit saves
        common = ("--dataset", str(synthetic_dir), "--method", method, "--mode", "uni", "--train-per-class", "4", *extra)
        out = tmp_path / "fit"
        assert run_cli("fit", *common, "--dims", "3", "--out", str(out)) == 0
        saved = np.load(out / "projector.npz")
        cfg, _ = build_config(_build_parser().parse_args(["bench", *common, "--dims", "2,3,5"]))
        cell = experiment.fit_unit(cfg, load_dataset(cfg.dataset), method, 0).cells[1]
        assert cell.dim == 3 and cell.failure is None
        np.testing.assert_array_equal(saved["row_basis"], cell.projector.row_basis)
        np.testing.assert_array_equal(saved["col_basis"], cell.projector.col_basis)


    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--method", "2D-PCA,2D-LDA", "--dims", "2,4"), "--method"),
            (("--method", "2D-PCA", "--method", "2D-LDA", "--dims", "2"), "--method"),
            (("--method", "2D-PCA", "--dims", "2,4"), "--dims"),
            (("--method", "2D-PCA"), "one --dims value"),  # the default dims are five
        ],
    )
    def test_more_than_one_method_or_dimension_is_a_usage_error(
        self, tmp_path, synthetic_dir, capsys, command, flags, named
    ):
        out = tmp_path / "fit"
        code = run_cli(command, "--dataset", str(synthetic_dir), *flags, "--train-per-class", "4", "--out", str(out))
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_usage_error_unknown_method(self, synthetic_dir, capsys):
        assert run_cli("bench", "--dataset", str(synthetic_dir), "--method", "3D-PCA") == 1

    def test_usage_error_missing_dataset(self):
        assert run_cli("bench", "--method", "2D-PCA") == 1

    def test_usage_error_bad_flag(self):
        assert run_cli("bench", "--nonsense") == 1

    def test_data_error_missing_directory(self, tmp_path):
        assert run_cli("bench", "--dataset", str(tmp_path / "nowhere")) == 2

    @pytest.mark.parametrize("dims, expected", [("4,11", 0), ("4,12", 1)])
    def test_vector_dimension_below_pca_predim(self, tmp_path, synthetic_dir, capsys, dims, expected):
        # 4 classes x 4 training images: the automatic PCA pre-dimension is
        # 12, and a vector method's dimension must stay below it
        out = tmp_path / "res"
        code = run_cli(
            "bench",
            "--dataset", str(synthetic_dir),
            "--method", "OLPP",
            "--dims", dims,
            "--train-per-class", "4",
            "--realizations", "1",
            "--out", str(out),
        )
        assert code == expected
        if expected:
            assert "pre-dimension 12" in capsys.readouterr().err
            assert not (out / "results.csv").exists()
        else:
            assert "nan" not in (out / "results.csv").read_text()

    @pytest.mark.parametrize("pre_dims", ["100,100", "0,3"])
    def test_usage_error_pre_dims_outside_image(self, tmp_path, synthetic_dir, capsys, pre_dims):
        out = tmp_path / "res"
        code = run_cli(
            "bench",
            "--dataset", str(synthetic_dir),
            "--method", "2D-OLPP-R",
            "--dims", "2",
            "--train-per-class", "4",
            "--realizations", "1",
            "--pre-dims", pre_dims,
            "--out", str(out),
        )
        assert code == 1
        assert "pre-dimension" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("method, expected", [("2D-PCA", 0), ("GLRAM", 0), ("2D-OLPP", 1)])
    def test_pre_dims_limit_binds_only_pre_compressed_methods(self, tmp_path, synthetic_dir, capsys, method, expected):
        # GLRAM and 2D-PCA fit on the raw 8x8 images whatever --pre-dims says
        def bench(out, *extra):
            return run_cli(
                "bench",
                "--dataset", str(synthetic_dir),
                "--method", method,
                "--dims", "6",
                "--train-per-class", "4",
                "--realizations", "1",
                "--out", str(out),
                *extra,
            )

        out = tmp_path / "res"
        assert bench(out, "--pre-dims", "4,4") == expected
        if expected:
            assert "exceeds image side limit 4" in capsys.readouterr().err
            assert not (out / "results.csv").exists()
            return
        assert bench(tmp_path / "raw") == 0
        rows = parse_result_csv(out / "results.csv")
        raw = parse_result_csv(tmp_path / "raw" / "results.csv")
        assert [(r.mean_error, r.std_error) for r in rows] == [(r.mean_error, r.std_error) for r in raw]
        assert not np.isnan(rows[0].mean_error)

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_row_without_survivors_is_a_numerical_failure(self, tmp_path, synthetic_dir, capsys, command):
        # one training image per class makes every 2D-LDA fit abort, while
        # 2D-PCA still reports: every file is written, each 2D-LDA row is
        # named on stderr with its first failure, and the exit code is 3
        out = tmp_path / "res"
        code = run_cli(
            command,
            "--dataset", str(synthetic_dir),
            "--method", "2D-LDA,2D-PCA",
            "--dims", "2,3",
            "--train-per-class", "1",
            "--realizations", "2",
            "--out", str(out),
        )
        assert code == 3
        rows = parse_result_csv(out / "results.csv")
        assert [(r.method, r.dimension, np.isnan(r.mean_error)) for r in rows] == [
            ("2D-LDA", 2, True),
            ("2D-LDA", 3, True),
            ("2D-PCA", 2, False),
            ("2D-PCA", 3, False),
        ]
        assert (out / "results.meta.json").is_file()
        assert (out / "plotdata").is_dir() == (command == "sweep")
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line, d in zip(lines, (2, 3)):
            assert f"2D-LDA unilateral d={d}" in line and "DefinitenessError" in line

    def test_numerical_error_exit_code(self, synthetic_dir):
        # one training image per class makes every discriminant fit abort
        code = run_cli(
            "eval",
            "--dataset", str(synthetic_dir),
            "--method", "2D-LDA",
            "--dims", "2",
            "--train-per-class", "1",
        )
        assert code == 3


class TestCountValidation:
    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "flag", ["--realizations", "--jobs", "--max-iter", "--train-per-class", "--knn"]
    )
    def test_count_below_one_is_a_usage_error(self, tmp_path, synthetic_dir, capsys, flag, value):
        settings = {"--realizations": "1", "--train-per-class": "4", flag: value}
        argv = [tok for item in settings.items() for tok in item]
        out = tmp_path / "res"
        code = run_cli("bench", "--dataset", str(synthetic_dir), "--dims", "2", *argv, "--out", str(out))
        assert code == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_zero_in_config_file_is_not_replaced_by_default(self, tmp_path, synthetic_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {synthetic_dir}\ndims = 2\nrealizations = 1\njobs = 0\n")
        assert run_cli("bench", "--config", str(cfg), "--out", str(tmp_path / "res")) == 1


class TestScalarValidation:
    # a bad value fails when the config is built, in every command and
    # from a flag or a file alike: one usage-error line, no traceback
    @pytest.mark.parametrize("command", ["fit", "eval", "bench"])
    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize(
        "key, text, message",
        [
            ("seed", "-1", "seed must be >= 0"),
            ("beta", "nan", "beta must be finite"),
            ("beta", "inf", "beta must be finite"),
            ("bandwidth", "nan", "bandwidth must be finite and > 0"),
            ("bandwidth", "inf", "bandwidth must be finite and > 0"),
            ("bandwidth", "0", "bandwidth must be finite and > 0"),
            ("bandwidth", "-1", "bandwidth must be finite and > 0"),
        ],
        ids=["seed-negative", "beta-nan", "beta-inf", "bandwidth-nan", "bandwidth-inf", "bandwidth-zero",
             "bandwidth-negative"],
    )
    def test_bad_value_is_a_usage_error(self, tmp_path, synthetic_dir, capsys, command, source, key, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dataset = {synthetic_dir}\n" + (f"{key} = {text}\n" if source == "file" else ""))
        flag = ("--" + key, text) if source == "flag" else ()
        out = tmp_path / "out"
        code = run_cli(command, "--config", str(cfg), *flag, "--method", "2D-LPP-R", "--dims", "2",
                       "--train-per-class", "4", "--realizations", "1", "--out", str(out))
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"usage error: {message}, got {float(text) if key != 'seed' else int(text)}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "eval", "bench"])
    def test_train_count_at_class_size_is_a_usage_error(self, tmp_path, synthetic_dir, capsys, command):
        # every class has 12 images; bench once reported this as a
        # numerical failure after writing its outputs
        out = tmp_path / "res"
        code = run_cli(command, "--dataset", str(synthetic_dir), "--method", "2D-PCA", "--dims", "2",
                       "--train-per-class", "12", "--realizations", "1", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "usage error: class 'c0' has 12 images; need > 12\n"
        assert not (out / "results.csv").exists()


@pytest.fixture(scope="module")
def blank_column_dir(tmp_path_factory, synthetic_ds):
    """The synthetic set with its last image column zeroed, on disk: its
    column-side constraint matrices are singular."""
    images = synthetic_ds.images.copy()
    images[:, :, -1] = 0.0
    root = tmp_path_factory.mktemp("data") / "blank"
    write_dataset_pgm(ImageDataset("blank", images, synthetic_ds.labels, synthetic_ds.class_names), root)
    return root


@pytest.mark.parametrize("method, repaired", [("2D-LDA-R", True), ("2D-PCA", False)])
def test_fit_records_ridge_shift(tmp_path, blank_column_dir, method, repaired):
    out = tmp_path / "fit"
    code = run_cli(
        "fit",
        "--dataset", str(blank_column_dir),
        "--method", method,
        "--dims", "3",
        "--train-per-class", "8",
        "--out", str(out),
    )
    assert code == 0
    shift = json.loads((out / "projector.json").read_text())["ridge_shift"]
    assert shift > 0.0 if repaired else shift == 0.0
