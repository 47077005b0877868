import json
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from repel2d import experiment
from repel2d.cli import _build_parser, build_config, main, read_config
from repel2d.datasets import ImageDataset, load_dataset, synthetic_confusable, write_dataset_pgm
from repel2d.embed_1d import METHOD_NAMES_1D
from repel2d.embed_2d import METHOD_NAMES_2D
from repel2d.errors import ParameterError
from repel2d.experiment import CSV_HEADER, usable_cpus

from _oracles import parse_result_csv, write_pgm_fixture


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
        "repulsion.cfg": dict(
            methods=tuple(
                name
                for base in ("2D-OLPP", "2D-ONPP", "2D-LPP", "2D-NPP", "2D-LDA", "OLPP", "ONPP", "LDA")
                for name in (base, f"{base}-R")
            ),
            dims=(2, 4, 6),
            train_per_class=10,
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

    @pytest.mark.parametrize(
        "command, name, mode, failing",
        [
            ("sweep", "synthetic.cfg", "unilateral", {"2D-LDA-R"}),
            ("sweep", "synthetic.cfg", "bilateral", {"2D-LDA-R"}),
            ("bench", "orl.cfg", "unilateral", {"2D-LDA-R"}),
            ("bench", "repulsion.cfg", "unilateral", {"2D-LDA-R", "LDA-R"}),
        ],
        ids=["synthetic-uni", "synthetic-bi", "orl", "repulsion"],
    )
    def test_protocol_runs_at_one_small_cell(self, tmp_path, synthetic_dir, capsys, command, name, mode, failing):
        # at 4 training images per class every 2D-LDA-R cell fails (ROADMAP
        # item 2), and so does vector LDA-R's; every other method reports
        out = tmp_path / "res"
        code = run_cli(
            command,
            "--config", str(self.CONFIG_DIR / name),
            "--dataset", str(synthetic_dir),
            "--mode", mode,
            "--train-per-class", "4",
            "--realizations", "1",
            "--dims", "2",
            "--out", str(out),
        )
        assert code == 3
        methods = self.PROTOCOLS[name]["methods"]
        assert sorted(row.method for row in parse_result_csv(out / "results.csv")) == sorted(methods)
        if command == "sweep":
            assert sorted(p.name for p in (out / "plotdata").iterdir()) == sorted(f"{m}_{mode}.dat" for m in methods)
        named = {re.match(r"numerical failure: no realization of (\S+) ", line)[1]
                 for line in capsys.readouterr().err.splitlines()}
        assert named == failing


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
        assert "nan" not in text
        meta = json.loads((out / "results.meta.json").read_text())
        assert meta["config"]["realizations"] == 2
        # a serial run without a reconstruction-weight method takes one thread
        assert all(v["during"] == 1 for v in meta["execution"]["blas_threads"].values())
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
        text = (out / "results.csv").read_text()
        assert len(text.splitlines()) == 1 + 4
        assert "nan" not in text
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

    @pytest.mark.parametrize("mode", ["uni", "bi"])
    def test_pre_dims_bench_runs_every_coupling(self, tmp_path, synthetic_dir, mode):
        # 2D-LPP and 2D-OLPP-R fit after the 2D-PCA pre-compression, GLRAM
        # (with its own coupling) and 2D-PCA on the raw images
        out = tmp_path / "res"
        code = run_cli(
            "bench",
            "--dataset", str(synthetic_dir),
            "--method", "GLRAM,2D-PCA,2D-LPP,2D-OLPP-R",
            "--mode", mode,
            "--dims", "2,3",
            "--pre-dims", "6,6",
            "--train-per-class", "4",
            "--realizations", "2",
            "--out", str(out),
        )
        assert code == 0
        text = (out / "results.csv").read_text()
        assert len(text.splitlines()) == 1 + 8
        assert "nan" not in text

    def test_single_pass_bench_reports_every_dimension(self, tmp_path, synthetic_dir):
        # bilateral 2D-LDA-R at 8 training images per class: its row pencil
        # is built in one cell and reused by the later dimensions
        out = tmp_path / "res"
        code = run_cli(
            "bench",
            "--dataset", str(synthetic_dir),
            "--method", "2D-LDA-R",
            "--mode", "bi",
            "--dims", "1,2,3",
            "--train-per-class", "8",
            "--realizations", "3",
            "--out", str(out),
        )
        assert code == 0
        text = (out / "results.csv").read_text()
        assert len(text.splitlines()) == 1 + 3
        assert "nan" not in text

    def test_large_n_bench(self, tmp_path):
        # 150 training images per class of synthetic_confusable(300) build
        # every coupling at n = 600; the error values are not checked, as
        # another BLAS may round them differently
        root = tmp_path / "large"
        write_dataset_pgm(synthetic_confusable(300), root)
        out = tmp_path / "res"
        code = run_cli(
            "bench",
            "--dataset", str(root),
            "--method", "2D-OLPP-R,2D-ONPP-R,2D-LDA-R",
            "--dims", "2,4",
            "--train-per-class", "150",
            "--realizations", "1",
            "--out", str(out),
        )
        assert code == 0
        text = (out / "results.csv").read_text()
        assert len(text.splitlines()) == 1 + 6
        assert "nan" not in text

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


def write_fixture_tree(ds, root, **form):
    """``write_dataset_pgm``'s class-per-directory layout, in any PGM form
    that ``write_pgm_fixture`` writes."""
    for c, name in enumerate(ds.class_names):
        (root / name).mkdir(parents=True)
        for j, i in enumerate(np.flatnonzero(ds.labels == c)):
            write_pgm_fixture(root / name / f"img_{j:03d}.pgm", ds.images[i], **form)
    return root


def test_bench_reads_every_pgm_form(tmp_path, synthetic_ds):
    # the same 8-bit samples as ASCII and as binary files give the same
    # errors; 16-bit samples run too
    forms = {"p2": {"binary": False}, "p5": {}, "p5-16": {"maxval": 65535}}
    errors = {}
    for name, form in forms.items():
        out = tmp_path / f"res-{name}"
        code = run_cli(
            "bench",
            "--dataset", str(write_fixture_tree(synthetic_ds, tmp_path / name, **form)),
            "--method", "2D-PCA,2D-LPP,OLPP-R",
            "--dims", "2,4",
            "--train-per-class", "4",
            "--realizations", "2",
            "--out", str(out),
        )
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        assert "nan" not in "\n".join(lines)
        errors[name] = [",".join(line.split(",")[:5]) for line in lines]
    assert errors["p2"] == errors["p5"]


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
        assert meta["sides"] == "bilateral"

    @pytest.mark.parametrize(
        "mode, extra, sides, row_side",
        [("uni", (), "right_only", 8), ("bi", ("--pre-dims", "6,6"), "bilateral", 2)],
        ids=["unilateral", "bilateral-pre-dims"],
    )
    def test_fit_records_the_solved_sides(self, tmp_path, synthetic_dir, mode, extra, sides, row_side):
        # a pre-compressed fit saves its bases composed back to the 8x8 images
        out = tmp_path / "fit"
        code = run_cli(
            "fit",
            "--dataset", str(synthetic_dir),
            "--method", "2D-LPP",
            "--mode", mode,
            "--dims", "2",
            "--train-per-class", "4",
            *extra,
            "--out", str(out),
        )
        assert code == 0
        arrays = np.load(out / "projector.npz")
        assert arrays["row_basis"].shape == (8, row_side)
        assert arrays["col_basis"].shape == (8, 2)
        assert json.loads((out / "projector.json").read_text())["sides"] == sides

    def test_single_pass_fit_saves_both_objectives(self, tmp_path, synthetic_dir):
        # at 8 training images per class 2D-LDA-R's column solve passes at
        # d = 1, so its single pass also builds its deferred row pencil
        out = tmp_path / "fit"
        code = run_cli(
            "fit",
            "--dataset", str(synthetic_dir),
            "--method", "2D-LDA-R",
            "--mode", "bi",
            "--dims", "1",
            "--train-per-class", "8",
            "--out", str(out),
        )
        assert code == 0
        meta = json.loads((out / "projector.json").read_text())
        assert meta["sides"] == "bilateral"
        assert len(meta["objectives"]) == 2

    def test_fit_records_no_beta_for_a_method_without_repulsion(self, tmp_path, synthetic_dir):
        out = tmp_path / "fit"
        code = run_cli(
            "fit",
            "--dataset", str(synthetic_dir),
            "--method", "2D-PCA",
            "--beta", "0.3",
            "--dims", "2",
            "--train-per-class", "4",
            "--out", str(out),
        )
        assert code == 0
        assert json.loads((out / "projector.json").read_text())["beta"] == 0.0

    def test_eval_prints_the_error_of_the_bench_row(self, tmp_path, synthetic_dir, capsys):
        # unilateral 2D-LDA-R's ridge-repaired pencil sits at the edge of the
        # eigensolver's contract; bench takes each d from one solve for
        # d = 6, eval solves for d alone, and both print the same error
        common = ("--dataset", str(synthetic_dir), "--method", "2D-LDA-R", "--train-per-class", "8")
        out = tmp_path / "res"
        assert run_cli("bench", *common, "--dims", "1,2,3,6", "--realizations", "1", "--out", str(out)) == 0
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()]
        errors = {row[2]: row[3] for row in rows}
        capsys.readouterr()
        for d in ("1", "2", "3"):
            assert run_cli("eval", *common, "--dims", d) == 0
            assert capsys.readouterr().out.startswith(f"2D-LDA-R unilateral d={d} error={errors[d]} ")


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


    @pytest.mark.parametrize(
        "method, extra",
        [
            ("2D-LPP", ("--train-per-class", "4")),
            ("2D-OLPP-R", ("--train-per-class", "4", "--pre-dims", "6,5")),
            # a ridge-repaired pencil, whose residuals sit at the edge of the
            # eigensolver's contract
            ("2D-LDA-R", ("--train-per-class", "8")),
        ],
    )
    def test_fit_saves_the_projector_a_wider_sweep_trains(self, tmp_path, synthetic_dir, method, extra):
        # every subcommand trains the same projector: a bench cell at d = 3
        # comes out of one solve for d = 5 and must equal what fit saves
        common = ("--dataset", str(synthetic_dir), "--method", method, "--mode", "uni", *extra)
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

    def test_vector_row_without_survivors_is_a_numerical_failure(self, tmp_path, synthetic_dir, capsys):
        # vector LDA-R fails at this split while PCA reports; the failure
        # line names the row (not the exception class, which another BLAS
        # may round differently)
        code = run_cli(
            "bench",
            "--dataset", str(synthetic_dir),
            "--method", "LDA-R,PCA",
            "--dims", "2",
            "--train-per-class", "4",
            "--realizations", "2",
            "--out", str(tmp_path / "res"),
        )
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical failure: no realization of LDA-R vector d=2 survived: ")

    def test_one_class_tree_fails_only_the_discriminant(self, tmp_path, synthetic_ds, capsys):
        # one class leaves 2D-LDA no between-class scatter to maximize, while
        # 2D-PCA still reports
        one = synthetic_ds.labels == 0
        root = tmp_path / "one"
        write_dataset_pgm(
            ImageDataset("one-class", synthetic_ds.images[one], synthetic_ds.labels[one], synthetic_ds.class_names[:1]),
            root,
        )
        out = tmp_path / "res"
        code = run_cli(
            "bench",
            "--dataset", str(root),
            "--method", "2D-PCA,2D-LDA",
            "--dims", "2",
            "--train-per-class", "4",
            "--realizations", "1",
            "--out", str(out),
        )
        assert code == 3
        rows = parse_result_csv(out / "results.csv")
        assert sorted((r.method, r.mode, r.dimension, np.isnan(r.mean_error)) for r in rows) == [
            ("2D-LDA", "unilateral", 2, True),
            ("2D-PCA", "unilateral", 2, False),
        ]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert re.match(r"numerical failure: .* of 2D-LDA .*RankError", lines[0])

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

    @pytest.mark.parametrize("value", ["0,5", "-3,5", "5,0"])
    def test_resize_side_below_one_is_a_usage_error(self, tmp_path, capsys, value):
        # rejected when the config is built, before the (missing) tree is read
        out = tmp_path / "res"
        code = run_cli("bench", "--dataset", str(tmp_path / "nowhere"), f"--resize={value}", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: resize sides must be >= 1")
        assert not out.exists()

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


def test_console_script(tmp_path, synthetic_dir):
    # the installed [project.scripts] entry point (the module when the
    # package is not installed): its exit codes and stderr prefixes, and no
    # traceback on the way out
    script = shutil.which("repel2d")
    command = [script] if script else [sys.executable, "-m", "repel2d.cli"]

    def bench(out, *argv):
        common = ("--dataset", str(synthetic_dir), "--dims", "2", "--realizations", "1", "--out", str(out))
        result = subprocess.run([*command, "bench", *common, *argv], capture_output=True, text=True)
        assert "Traceback" not in result.stderr
        return result

    ok = bench(tmp_path / "ok", "--method", "2D-PCA", "--train-per-class", "4")
    assert ok.returncode == 0, ok.stderr
    rows = parse_result_csv(tmp_path / "ok" / "results.csv")
    assert [(r.method, r.dimension) for r in rows] == [("2D-PCA", 2)] and not np.isnan(rows[0].mean_error)
    usage = bench(tmp_path / "usage", "--method", "2D-PCA", "--train-per-class", "4", "--seed", "-1")
    assert usage.returncode == 1 and usage.stderr.startswith("usage error: ")
    assert not (tmp_path / "usage").exists()
    failure = bench(tmp_path / "failure", "--method", "2D-LDA", "--train-per-class", "1")
    assert failure.returncode == 3 and failure.stderr.startswith("numerical failure: ")
