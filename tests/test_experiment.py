import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repel2d import embed_1d, embed_2d, experiment, recognize, spectral
from repel2d.datasets import ImageDataset, matrix_dataset, split_dataset, synthetic_confusable, vector_dataset
from repel2d.embed_2d import MethodSpec, fit_method, method_matrices, unilateral_pencil
from repel2d.errors import DefinitenessError, NumericalQualityError, ParameterError, RankError
from repel2d.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    emit_csv,
    emit_plotdata,
    fit_unit,
    mode_label,
    run_cell,
    run_experiment,
    session,
    write_metadata,
)

from _oracles import fit_1d, fit_at, fit_unilateral, gen_sym_eig, parse_result_csv


def small_cfg(**overrides):
    base = dict(
        dataset="unused",
        methods=("2D-PCA",),
        mode="unilateral",
        dims=(2,),
        train_per_class=4,
        realizations=2,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_without_dimensions_rejected():
    # an explicit empty list is not replaced by the default dimensions
    with pytest.raises(ParameterError):
        small_cfg(dims=())


class TestRunExperiment:
    def test_separable_dataset_zero_error(self, separable_ds):
        cfg = small_cfg(methods=("2D-PCA",), dims=(2,), realizations=1)
        table = run_experiment(cfg, dataset=separable_ds)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.mean_error == 0.0
        assert row.mode == "unilateral" and row.dimension == 2

    def test_beta_zero_matches_base_cells(self, synthetic_ds):
        cfg_base = small_cfg(methods=("2D-OLPP", "2D-NPP"), dims=(2, 3), realizations=2)
        cfg_zero = small_cfg(methods=("2D-OLPP-R", "2D-NPP-R"), dims=(2, 3), realizations=2, beta=0.0)
        base = run_experiment(cfg_base, dataset=synthetic_ds)
        zero = run_experiment(cfg_zero, dataset=synthetic_ds)
        for b, z in zip(base.rows, zero.rows):
            assert z.method == b.method + "-R"
            assert z.mean_error == b.mean_error
            assert z.std_error == b.std_error

    def test_method_order_invariance(self, synthetic_ds):
        cfg_a = small_cfg(methods=("2D-PCA", "2D-OLPP"), dims=(2,), realizations=2)
        cfg_b = small_cfg(methods=("2D-OLPP", "2D-PCA"), dims=(2,), realizations=2)
        table_a = run_experiment(cfg_a, dataset=synthetic_ds)
        table_b = run_experiment(cfg_b, dataset=synthetic_ds)
        cells_a = {(r.method, r.dimension): (r.mean_error, r.std_error) for r in table_a.rows}
        cells_b = {(r.method, r.dimension): (r.mean_error, r.std_error) for r in table_b.rows}
        assert cells_a == cells_b

    def test_vector_methods_report_vector_mode(self, synthetic_ds):
        cfg = small_cfg(methods=("PCA",), dims=(3,), realizations=1)
        table = run_experiment(cfg, dataset=synthetic_ds)
        assert table.rows[0].mode == "vector"
        assert 0.0 <= table.rows[0].mean_error <= 1.0

    def test_failed_cells_are_marked_and_run_continues(self, synthetic_ds):
        # a single training image per class zeroes the within coupling, so
        # the discriminant fit aborts; the plain method still reports
        cfg = small_cfg(methods=("2D-LDA", "2D-PCA"), dims=(2,), realizations=2, train_per_class=1)
        table = run_experiment(cfg, dataset=synthetic_ds)
        lda_row = next(r for r in table.rows if r.method == "2D-LDA")
        pca_row = next(r for r in table.rows if r.method == "2D-PCA")
        assert math.isnan(lda_row.mean_error)
        assert not math.isnan(pca_row.mean_error)
        failures = table.metadata["per_cell"]["2D-LDA|unilateral|2"]["failures"]
        assert len(failures) == 2

    def test_bilateral_and_preprocessing(self, synthetic_ds):
        cfg = small_cfg(
            methods=("2D-OLPP",), mode="bilateral", dims=(2,), realizations=1, pre_dims=(6, 6)
        )
        table = run_experiment(cfg, dataset=synthetic_ds)
        assert 0.0 <= table.rows[0].mean_error <= 1.0

    @pytest.mark.parametrize("mode", ["unilateral", "bilateral"])
    def test_jobs_parallel_matches_serial(self, synthetic_ds, mode):
        # the serial run holds one BLAS thread, the pooled one runs under
        # the per-worker cap; a generalized (2D-LPP) and a ridge-repaired
        # (2D-LDA-R) method ride along with the orthonormal ones
        methods = ("2D-PCA", "2D-OLPP-R", "2D-LPP", "2D-LDA-R")
        cfg_serial = small_cfg(methods=methods, mode=mode, dims=(2, 4), realizations=2)
        cfg_par = small_cfg(methods=methods, mode=mode, dims=(2, 4), realizations=2, jobs=4)
        serial = run_experiment(cfg_serial, dataset=synthetic_ds)
        parallel = run_experiment(cfg_par, dataset=synthetic_ds)
        assert len(serial.rows) == len(parallel.rows) == len(methods) * 2
        for a, b in zip(serial.rows, parallel.rows):
            assert (a.method, a.dimension) == (b.method, b.dimension)
            np.testing.assert_array_equal([a.mean_error, a.std_error], [b.mean_error, b.std_error])
        for key, record in serial.metadata["per_cell"].items():
            other = parallel.metadata["per_cell"][key]
            assert (record["errors"], record["failures"]) == (other["errors"], other["failures"])

    def test_one_unit_is_one_task_at_any_jobs(self, synthetic_ds, monkeypatch):
        # a bilateral unit is one task too, and 2D-LDA-R's single pass rides
        # along with an alternating method
        seen = []
        run_cell = experiment.run_cell

        def recording(cfg, ds, method, realization):
            seen.append((method, realization, cfg.dims))
            return run_cell(cfg, ds, method, realization)

        monkeypatch.setattr(experiment, "run_cell", recording)
        methods = ("2D-OLPP-R", "2D-LDA-R")
        for mode in ("unilateral", "bilateral"):
            cfg = small_cfg(methods=methods, mode=mode, dims=(2, 3, 5), realizations=2)
            runs = []
            for jobs in (1, 2):
                seen.clear()
                runs.append(run_experiment(replace(cfg, jobs=jobs), dataset=synthetic_ds))
                assert sorted(seen) == [(m, r, (2, 3, 5)) for m in sorted(methods) for r in (0, 1)]
            serial, parallel = runs
            for a, b in zip(serial.rows, parallel.rows):
                assert (a.method, a.dimension) == (b.method, b.dimension)
                assert (a.mean_error, a.std_error) == (b.mean_error, b.std_error)
            for key, record in serial.metadata["per_cell"].items():
                other = parallel.metadata["per_cell"][key]
                assert (record["errors"], record["failures"]) == (other["errors"], other["failures"])

    def test_aggregates_match_per_cell_logs(self, synthetic_ds):
        cfg = small_cfg(methods=("2D-PCA",), dims=(2, 3), realizations=3)
        table = run_experiment(cfg, dataset=synthetic_ds)
        for row in table.rows:
            log = table.metadata["per_cell"][f"{row.method}|{row.mode}|{row.dimension}"]
            errs = np.asarray(log["errors"])
            assert row.mean_error == pytest.approx(float(errs.mean()))
            assert row.std_error == pytest.approx(float(errs.std()))
            assert 0.0 <= row.mean_error - 0.0 <= 1.0

    @pytest.mark.parametrize(
        "overrides, accepted, message",
        [
            # pre-dimensions lie in [1, image side]; the images are 8 x 8
            (dict(pre_dims=(100, 100)), dict(pre_dims=(8, 8)), "pre-dimension 100"),
            (dict(pre_dims=(0, 3)), dict(pre_dims=(1, 3)), "pre-dimension 0"),
            # 4 classes x 4 training images: the kNN graph has 16 vertices
            (dict(knn=16), dict(knn=15), "training-set size 16"),
            (dict(methods=("2D-OLPP-R", "2D-PCA", "2D-OLPP-R")), dict(methods=("2D-OLPP-R", "2D-PCA")), "named twice"),
            (dict(dims=(2, 3, 2)), dict(dims=(2, 3)), "dimension 2 is named twice"),
            # every class has 12 images: a split must keep one out
            (dict(train_per_class=12), dict(train_per_class=11), "class 'c0' has 12 images; need > 12"),
        ],
        ids=[
            "pre-dims-above-side",
            "pre-dims-zero",
            "knn-at-training-size",
            "method-twice",
            "dimension-twice",
            "train-count-at-class-size",
        ],
    )
    def test_config_error_caught_before_any_fit(self, synthetic_ds, monkeypatch, overrides, accepted, message):
        fitted = []
        run_cell = experiment.run_cell

        def recording(cfg, ds, method, realization):
            fitted.append(method)
            return run_cell(cfg, ds, method, realization)

        monkeypatch.setattr(experiment, "run_cell", recording)
        base = dict(methods=("2D-OLPP-R",), realizations=1)
        table = run_experiment(small_cfg(**{**base, **accepted}), dataset=synthetic_ds)
        assert not any(math.isnan(row.mean_error) for row in table.rows)
        fitted.clear()
        with pytest.raises(ParameterError, match=message):
            run_experiment(small_cfg(**{**base, **overrides}), dataset=synthetic_ds)
        assert fitted == []

    def test_bad_configs_rejected(self, synthetic_ds):
        with pytest.raises(ParameterError):
            run_experiment(small_cfg(methods=("nope",)), dataset=synthetic_ds)
        with pytest.raises(ParameterError):
            run_experiment(small_cfg(dims=(50,)), dataset=synthetic_ds)
        with pytest.raises(ParameterError):
            run_experiment(small_cfg(mode="diagonal"), dataset=synthetic_ds)

    @pytest.mark.parametrize("name, message", [("methods", "at least one method"), ("dims", "at least one dimension")])
    def test_empty_method_or_dimension_list_rejected(self, name, message):
        # an empty list fails when the config is built, never as a 0-row table
        with pytest.raises(ParameterError, match=message):
            experiment.ExperimentConfig(dataset="x", **{name: ()})

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("seed", -1, "seed must be >= 0"),
            ("beta", math.nan, "beta must be finite"),
            ("beta", math.inf, "beta must be finite"),
            ("beta", -math.inf, "beta must be finite"),
            ("bandwidth", math.nan, "bandwidth must be finite and > 0"),
            ("bandwidth", math.inf, "bandwidth must be finite and > 0"),
            ("bandwidth", 0.0, "bandwidth must be finite and > 0"),
            ("bandwidth", -1.0, "bandwidth must be finite and > 0"),
        ],
        ids=["seed-negative", "beta-nan", "beta-inf", "beta-minus-inf", "bandwidth-nan", "bandwidth-inf",
             "bandwidth-zero", "bandwidth-negative"],
    )
    def test_bad_seed_beta_or_bandwidth_rejected_when_built(self, name, value, message):
        with pytest.raises(ParameterError, match=message):
            small_cfg(**{name: value})

    def test_negative_finite_beta_accepted(self, synthetic_ds):
        # a negative repulsion strength turns repulsion into attraction; it
        # is a valid setting, not a malformed one
        cfg = small_cfg(methods=("2D-OLPP-R",), beta=-0.5, realizations=1)
        assert not math.isnan(run_experiment(cfg, dataset=synthetic_ds).rows[0].mean_error)


def independent_fit(cfg, ds, method, realization, d):
    """Fit one cell on its own, without any state shared across dimensions."""
    train_idx, _ = split_dataset(ds, cfg.train_per_class, cfg.seed, realization)
    if method in embed_2d.METHOD_NAMES_2D:
        train, labels = matrix_dataset(ds, train_idx)
        spec = method_matrices(method, train, labels, knn=cfg.knn, beta=cfg.beta, bandwidth=cfg.bandwidth)
        pair, _ = fit_unilateral(train, spec, "right", d)
        return pair
    return fit_1d(*vector_dataset(ds, train_idx), method, d, knn=cfg.knn, beta=cfg.beta, pca_predim="auto")[0]


def assert_same_projector(got, expected):
    if isinstance(expected, np.ndarray):
        np.testing.assert_array_equal(got, expected)
    else:
        np.testing.assert_array_equal(got.row_basis, expected.row_basis)
        np.testing.assert_array_equal(got.col_basis, expected.col_basis)
        assert (got.sides, got.constraints) == (expected.sides, expected.constraints)


@pytest.fixture(scope="module")
def blank_column_ds(synthetic_ds):
    """The synthetic set with its last image column zeroed: every column-side
    constraint matrix is then exactly singular, so generalized solves need
    the ridge repair."""
    images = synthetic_ds.images.copy()
    images[:, :, -1] = 0.0
    return ImageDataset("blank-column", images, synthetic_ds.labels, synthetic_ds.class_names)


class TestUnitReuse:
    @pytest.mark.parametrize(
        "method, which",
        [("2D-PCA", "top"), ("2D-OLPP-R", "bottom"), ("2D-LPP", "bottom"), ("OLPP-R", None)],
    )
    def test_shared_pencil_matches_independent_fits(self, synthetic_ds, method, which):
        cfg = small_cfg(methods=(method,), dims=(2, 3, 5), train_per_class=8)
        if which is not None:
            train, labels = matrix_dataset(synthetic_ds, split_dataset(synthetic_ds, 8, cfg.seed, 1)[0])
            assert method_matrices(method, train, labels).which == which
        unit = fit_unit(cfg, synthetic_ds, method, 1)
        assert [cell.dim for cell in unit.cells] == [2, 3, 5]
        for cell in unit.cells:
            assert cell.failure is None
            assert_same_projector(cell.projector, independent_fit(cfg, synthetic_ds, method, 1, cell.dim))

    def test_generalized_top_with_ridge_retry(self, blank_column_ds):
        cfg = small_cfg(methods=("2D-LDA-R",), dims=(1, 3, 6), train_per_class=8)
        train, labels = matrix_dataset(blank_column_ds, split_dataset(blank_column_ds, 8, cfg.seed, 0)[0])
        spec = method_matrices("2D-LDA-R", train, labels)
        assert spec.which == "top"
        pencil = unilateral_pencil(train, spec)
        with pytest.raises(DefinitenessError):  # so every solve below takes the ridge retry
            gen_sym_eig(pencil.lhs, pencil.rhs, 1, "top")
        unit = fit_unit(cfg, blank_column_ds, "2D-LDA-R", 0)
        for cell in unit.cells:
            assert cell.failure is None
            assert_same_projector(cell.projector, independent_fit(cfg, blank_column_ds, "2D-LDA-R", 0, cell.dim))

    def test_failing_solve_fails_only_its_cell(self, synthetic_ds, monkeypatch):
        cfg = small_cfg(methods=("2D-OLPP-R",), dims=(2, 3, 5), realizations=2)
        clean = run_experiment(cfg, dataset=synthetic_ds)
        solve = embed_2d.solve_unilateral

        def failing_at_3(x, spec, dims):
            fit = solve(x, spec, dims)

            def fit_or_fail(d):
                if d == 3:
                    raise NumericalQualityError("injected failure")
                return fit(d)

            return fit_or_fail

        monkeypatch.setattr(embed_2d, "solve_unilateral", failing_at_3)
        broken = run_experiment(cfg, dataset=synthetic_ds)
        for before, after in zip(clean.rows, broken.rows):
            log = broken.metadata["per_cell"][f"2D-OLPP-R|unilateral|{after.dimension}"]
            if after.dimension == 3:
                assert math.isnan(after.mean_error)
                assert [f["realization"] for f in log["failures"]] == [0, 1]
                assert all(f["reason"] == "NumericalQualityError: injected failure" for f in log["failures"])
            else:
                assert (after.mean_error, after.std_error) == (before.mean_error, before.std_error)
                assert log["failures"] == []

    def test_per_cell_names_the_realization_of_each_error(self, synthetic_ds, monkeypatch):
        # once realization 0 fails, the surviving error must still be
        # pairable with its split: per_cell lists realization 1 alone
        cfg = small_cfg(methods=("2D-OLPP-R",), dims=(2, 3), realizations=2)
        clean = run_experiment(cfg, dataset=synthetic_ds)
        run_cell = experiment.run_cell

        def failing_realization_0(cfg, ds, method, realization):
            cells = run_cell(cfg, ds, method, realization)
            if realization == 0:
                for cell in cells:
                    cell.failure = NumericalQualityError("injected failure")
            return cells

        monkeypatch.setattr(experiment, "run_cell", failing_realization_0)
        broken = run_experiment(cfg, dataset=synthetic_ds)
        for key, record in broken.metadata["per_cell"].items():
            before = clean.metadata["per_cell"][key]
            assert before["realizations"] == [0, 1]
            assert record["realizations"] == [1]
            assert record["errors"] == before["errors"][1:]
            assert len(record["seconds"]) == 1
            assert [f["realization"] for f in record["failures"]] == [0]

    def test_vector_dimension_beyond_predim_fails_only_its_cell(self, synthetic_ds):
        # 8 training images per class of 4 classes: the PCA pre-dimension is
        # 32 - 4 = 28.  A sweep asking for it is rejected before any fit; a
        # unit fitted directly still fails only the impossible cell
        cfg = small_cfg(methods=("OLPP-R",), dims=(2, 28), train_per_class=8)
        with pytest.raises(ParameterError, match="pre-dimension 28"):
            run_experiment(cfg, dataset=synthetic_ds)
        cells = fit_unit(cfg, synthetic_ds, "OLPP-R", 0).cells
        alone = fit_unit(replace(cfg, dims=(2,)), synthetic_ds, "OLPP-R", 0).cells
        np.testing.assert_array_equal(cells[0].projector, alone[0].projector)
        assert isinstance(cells[1].failure, ParameterError)


class TestVectorTrace:
    @pytest.mark.parametrize("method", embed_1d.METHOD_NAMES_1D)
    def test_every_fitted_vector_cell_has_a_one_step_trace(self, separable_ds, method):
        # every vector method fits every cell on this set
        cfg = small_cfg(methods=(method,), dims=(1, 2, 3), knn=3)
        unit = fit_unit(cfg, separable_ds, method, 0)
        assert all(cell.failure is None for cell in unit.cells)
        for cell in unit.cells:
            assert isinstance(cell.projector, np.ndarray) and cell.projector.shape == (36, cell.dim)
            assert cell.trace.iterations == 1 and cell.trace.converged
            assert len(cell.trace.objectives) == 1


class TestSolveBilateral:
    """A bilateral unit's ``fit(d)`` is ``fit_method`` at ``(d, d)``, bit for
    bit: bases, constraints and the whole trace (objectives, iterations,
    convergence, constraint defect and ridge shift), or the same failure."""

    @staticmethod
    def assert_matches_fit_method(data, method, dims=(1, 2, 3)):
        train, labels = matrix_dataset(data, split_dataset(data, 8, 0, 0)[0])
        spec = method_matrices(method, train, labels)
        fit = embed_2d.solve_bilateral(train, spec)
        fitted = {}
        for d in dims:
            try:
                want = embed_2d.fit_method(train, spec, d, d)
            except experiment._CELL_FAILURES as exc:
                with pytest.raises(type(exc)) as got:
                    fit(d)
                assert str(got.value) == str(exc)
                continue
            pair, trace = fit(d)
            assert_same_projector(pair, want[0])
            assert trace == want[1]
            fitted[d] = trace
        return fitted

    @pytest.mark.parametrize("method", embed_2d.METHOD_NAMES_2D)
    def test_each_dimension_matches_fit_method(self, synthetic_ds, method):
        assert self.assert_matches_fit_method(synthetic_ds, method)

    def test_ridge_repaired_single_pass(self, blank_column_ds):
        # 2D-LDA-R (beta = 0.2): both pencils take the ridge retry at d = 1
        fitted = self.assert_matches_fit_method(blank_column_ds, "2D-LDA-R")
        assert fitted[1].ridge_shift > 0.0
        assert fitted[1].iterations == 1 and len(fitted[1].objectives) == 2

    @pytest.mark.parametrize("data", ["synthetic_ds", "blank_column_ds"])
    def test_single_pass_is_two_one_sided_fits(self, request, data):
        # the column factor of a one-sided right fit and the row factor of a
        # one-sided left fit, each solved for d alone, column side first
        data = request.getfixturevalue(data)
        train, labels = matrix_dataset(data, split_dataset(data, 8, 0, 0)[0])
        spec = method_matrices("2D-LDA-R", train, labels)
        fit = embed_2d.solve_bilateral(train, spec)
        fitted = 0
        for d in (1, 2, 3):
            try:
                right, right_trace = fit_unilateral(train, spec, "right", d)
                left, left_trace = fit_unilateral(train, spec, "left", d)
            except experiment._CELL_FAILURES as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    fit(d)
                continue
            pair, trace = fit(d)
            np.testing.assert_array_equal(pair.row_basis, left)
            np.testing.assert_array_equal(pair.col_basis, right.col_basis)
            assert trace.objectives == right_trace.objectives + left_trace.objectives
            assert trace.ridge_shift == max(right_trace.ridge_shift, left_trace.ridge_shift)
            fitted += 1
        assert fitted

    @pytest.mark.parametrize("per_class, column_passes", [(4, False), (8, True)])
    def test_row_pencil_waits_for_a_column_solve(self, synthetic_ds, monkeypatch, per_class, column_passes):
        # the row pencil (one "pjl,qjl->pq" einsum per coupling) is
        # contracted the first time a column solve passes and reused for
        # every later dimension; a unit whose column solves all fail never
        # contracts it
        train, labels = matrix_dataset(synthetic_ds, split_dataset(synthetic_ds, per_class, 0, 0)[0])
        spec = method_matrices("2D-LDA-R", train, labels)
        dims = (1, 2, 3, 4)
        column = unilateral_pencil(train, spec)
        for d in dims:
            if column_passes:
                embed_2d.solve_pencil(column, (d,))(d)
            else:
                with pytest.raises(NumericalQualityError):
                    embed_2d.solve_pencil(column, (d,))(d)
        subscripts = []
        einsum = np.einsum

        def spy(subs, *operands, **kwargs):
            subscripts.append(subs)
            return einsum(subs, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        fit = embed_2d.solve_bilateral(train, spec)
        for d in dims:
            try:
                fit(d)
            except experiment._CELL_FAILURES:
                pass
        assert subscripts.count("ipl,iql->pq") == 2
        assert subscripts.count("pjl,qjl->pq") == (2 if column_passes else 0)


NESTED_DIMS = tuple(range(2, 11))


@pytest.fixture(scope="module")
def wide_ds():
    """Four classes of 12 x 12 images, ten each: wide enough for every
    dimension up to 10 in unilateral mode, and with 6 training images per
    class the vector methods' PCA pre-dimension is 20."""
    rng = np.random.default_rng(21)
    labels = np.repeat(np.arange(4), 10)
    images = rng.normal(size=(4, 12, 12))[labels] + 0.8 * rng.normal(size=(40, 12, 12))
    images = (images - images.min()) / (images.max() - images.min())
    return ImageDataset("wide", images, labels, ("a", "b", "c", "d"))


def assert_same_outcome(got, expected):
    """Two cells fitted the same projector, or failed with the same class."""
    if expected.failure is not None:
        assert type(got.failure) is type(expected.failure)
        return
    assert got.failure is None
    assert_same_projector(got.projector, expected.projector)
    assert got.trace.objectives == expected.trace.objectives
    assert got.trace.ridge_shift == expected.trace.ridge_shift
    assert got.trace.max_constraint_defect == expected.trace.max_constraint_defect


def bent_fifth_column(fix_signs):
    """``fix_signs`` with column 5 of every basis bent off its eigenvector,
    so that column breaks the residual bound; d = 2..4 never hold it."""

    def bent(vectors):
        v = fix_signs(vectors)
        if v.shape[1] >= 5:
            v[0, 4] += 1e-3
        return v

    return bent


def oracle_cell(cfg, ds, method, d):
    try:
        projector, trace = fit_at(cfg, ds, method, 0, d)
    except experiment._CELL_FAILURES as exc:
        return experiment.Cell(d, failure=exc)
    return experiment.Cell(d, projector, trace)


class TestNestedDimensions:
    @pytest.mark.parametrize("method", embed_2d.METHOD_NAMES_2D + embed_1d.METHOD_NAMES_1D)
    def test_one_solve_matches_a_solve_per_dimension(self, wide_ds, method):
        cfg = small_cfg(methods=(method,), dims=NESTED_DIMS, train_per_class=6, realizations=1)
        unit = fit_unit(cfg, wide_ds, method, 0)
        for cell in unit.cells:
            assert_same_outcome(cell, fit_unit(replace(cfg, dims=(cell.dim,)), wide_ds, method, 0).cells[0])
            assert_same_outcome(cell, oracle_cell(cfg, wide_ds, method, cell.dim))
        scored = run_cell(cfg, wide_ds, method, 0)
        for cell in scored:
            alone = run_cell(replace(cfg, dims=(cell.dim,)), wide_ds, method, 0)[0]
            assert type(cell.failure) is type(alone.failure)
            assert cell.error == alone.error or (math.isnan(cell.error) and math.isnan(alone.error))

    # an orthonormal, a generalized and a vector solve; the other vector
    # methods would fail every cell in their shared PCA pre-basis
    @pytest.mark.parametrize("method", ["2D-OLPP-R", "2D-LPP", "PCA"])
    def test_failing_column_fails_only_the_dimensions_holding_it(self, wide_ds, method, monkeypatch):
        # column 5 of every solved basis is bent off its eigenvector, so it
        # breaks the residual bound; d = 2..4 never hold it
        cfg = small_cfg(methods=(method,), dims=NESTED_DIMS, train_per_class=6, realizations=1)
        clean = run_cell(cfg, wide_ds, method, 0)
        monkeypatch.setattr(spectral, "fix_signs", bent_fifth_column(spectral.fix_signs))
        broken = run_cell(cfg, wide_ds, method, 0)
        for before, after in zip(clean, broken):
            if after.dim < 5:
                assert before.failure is None and after.failure is None
                assert after.error == before.error
            else:
                assert isinstance(after.failure, NumericalQualityError)
                assert "residual" in str(after.failure)
            alone = fit_unit(replace(cfg, dims=(after.dim,)), wide_ds, method, 0).cells[0]
            assert type(alone.failure) is type(after.failure)


class TestCouplingsReleased:
    # scoring holds no reference to the unit's (n, n) couplings, also when
    # a failed cell's traceback reaches the frames that built them

    @staticmethod
    def tracked_couplings(monkeypatch):
        """Weak references to every coupling ``method_matrices`` builds."""
        built = []
        method_matrices = embed_2d.method_matrices

        def kept_spec(*args, **kwargs):
            spec = method_matrices(*args, **kwargs)
            built.extend(weakref.ref(c) for c in (spec.min_coupling, spec.max_coupling) if c is not None)
            return spec

        monkeypatch.setattr(embed_2d, "method_matrices", kept_spec)
        return built

    @pytest.mark.parametrize("bent", [False, True])
    @pytest.mark.parametrize("mode", ["unilateral", "bilateral"])
    @pytest.mark.parametrize("method", ["2D-OLPP-R", "2D-LDA-R"])
    def test_before_scoring(self, wide_ds, monkeypatch, method, mode, bent):
        built = self.tracked_couplings(monkeypatch)
        classify_prefixes = recognize.classify_prefixes

        def checked_classify(*args):
            assert built and all(ref() is None for ref in built)
            return classify_prefixes(*args)

        monkeypatch.setattr(recognize, "classify_prefixes", checked_classify)
        if bent:
            monkeypatch.setattr(spectral, "fix_signs", bent_fifth_column(spectral.fix_signs))
        cfg = small_cfg(methods=(method,), mode=mode, dims=NESTED_DIMS, train_per_class=6, realizations=1)
        cells = run_cell(cfg, wide_ds, method, 0)
        assert any(cell.failure is None for cell in cells)
        if bent:
            assert any(cell.failure is not None for cell in cells)

    @pytest.mark.parametrize("mode", ["unilateral", "bilateral"])
    def test_after_a_failed_ridge_retry(self, wide_ds, monkeypatch, mode):
        # both solves of the ridge retry fail, so every cell's failure
        # chains the first one, each with its own traceback
        built = self.tracked_couplings(monkeypatch)

        def indefinite(*args):
            raise DefinitenessError("constraint not positive definite", -1.0)

        monkeypatch.setattr(spectral, "_gen_eig_prefixes", indefinite)
        cfg = small_cfg(methods=("2D-LDA-R",), mode=mode, dims=NESTED_DIMS, train_per_class=6, realizations=1)
        cells = run_cell(cfg, wide_ds, "2D-LDA-R", 0)
        assert all(isinstance(cell.failure.__cause__, DefinitenessError) for cell in cells)
        assert built and all(ref() is None for ref in built)


class TestRidgeShift:
    # 2D-LDA-R's unilateral solve and 2D-LDA's alternating fit both take the
    # ridge retry on this set; 2D-PCA has no constraint side to repair
    @pytest.mark.parametrize(
        "mode, method, repaired",
        [
            ("unilateral", "2D-LDA-R", True),
            ("bilateral", "2D-LDA", True),
            ("unilateral", "2D-PCA", False),
            ("bilateral", "2D-PCA", False),
        ],
    )
    def test_reported_per_cell(self, blank_column_ds, mode, method, repaired):
        cfg = small_cfg(methods=(method,), mode=mode, dims=(1, 3), train_per_class=8)
        for cell in fit_unit(cfg, blank_column_ds, method, 0).cells:
            assert cell.failure is None
            if repaired:
                assert cell.trace.ridge_shift > 0.0
            else:
                assert cell.trace.ridge_shift == 0.0


@pytest.fixture(scope="module")
def one_class_ds(synthetic_ds):
    """The synthetic set's class 0 alone: no between-class scatter."""
    keep = synthetic_ds.labels == 0
    return ImageDataset("one-class", synthetic_ds.images[keep], synthetic_ds.labels[keep], synthetic_ds.class_names[:1])


class TestSingleClass:
    # a discriminant method has nothing to maximize, on every route; the
    # others fit, and with one class every probe is classified correctly
    @pytest.mark.parametrize("mode", ["unilateral", "bilateral"])
    @pytest.mark.parametrize(
        "method, fits",
        [
            ("2D-PCA", True),
            ("2D-LPP", True),
            ("2D-OLPP-R", True),
            ("OLPP-R", True),
            ("2D-LDA", False),
            ("2D-LDA-R", False),
            ("LDA", False),
            ("LDA-R", False),
        ],
    )
    def test_every_route_fits_or_records_a_rank_error(self, one_class_ds, mode, method, fits):
        cfg = small_cfg(methods=(method,), mode=mode, dims=(2,), knn=2)
        (cell,) = run_cell(cfg, one_class_ds, method, 0)
        if fits:
            assert cell.failure is None
            assert cell.error == 0.0
        else:
            assert isinstance(cell.failure, RankError)

    def test_one_message_on_every_route(self, one_class_ds):
        messages = set()
        for mode in ("unilateral", "bilateral"):
            for method in ("2D-LDA", "2D-LDA-R", "LDA", "LDA-R"):
                cfg = small_cfg(methods=(method,), mode=mode, dims=(2,), knn=2)
                messages.add(str(run_cell(cfg, one_class_ds, method, 0)[0].failure))
        assert messages == {"maximized-side subproblem matrix is identically zero"}

    def test_unknown_which_fails_before_any_side_matrix(self, one_class_ds, monkeypatch):
        images = one_class_ds.images[:4]
        spec = MethodSpec("2D-NPP", np.eye(4), np.eye(4), "middle")

        def no_side_matrix(*args):
            raise AssertionError("a side matrix was built")

        monkeypatch.setattr(embed_2d, "_side_matrix", no_side_matrix)
        with pytest.raises(ParameterError, match="'middle'"):
            unilateral_pencil(images, spec)
        with pytest.raises(ParameterError, match="'middle'"):
            fit_method(images, spec, 2, 2)


@pytest.fixture
def controls():
    controls = experiment._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS library is loaded in this process")
    saved = {name: get() for name, (get, _) in controls.items()}
    yield controls
    for name, (_, set_) in controls.items():
        set_(saved[name])


class TestBlasThreadCap:
    @staticmethod
    def counts(controls):
        return {name: get() for name, (get, _) in controls.items()}

    @staticmethod
    def set_all(controls, n):
        for _, set_ in controls.values():
            set_(n)

    def test_lowers_inside_and_restores_after(self, controls):
        self.set_all(controls, 2)
        with experiment._blas_threads_capped(1) as threads:
            assert self.counts(controls) == dict.fromkeys(controls, 1)
            assert threads == dict.fromkeys(controls, {"before": 2, "during": 1})
        assert self.counts(controls) == dict.fromkeys(controls, 2)

    def test_restores_after_an_exception(self, controls):
        self.set_all(controls, 2)
        with pytest.raises(RuntimeError, match="inside"):
            with experiment._blas_threads_capped(1):
                assert self.counts(controls) == dict.fromkeys(controls, 1)
                raise RuntimeError("inside")
        assert self.counts(controls) == dict.fromkeys(controls, 2)

    def test_never_raises_a_lower_count(self, controls):
        self.set_all(controls, 1)
        with experiment._blas_threads_capped(2) as threads:
            assert self.counts(controls) == dict.fromkeys(controls, 1)
            assert threads == dict.fromkeys(controls, {"before": 1, "during": 1})
        assert self.counts(controls) == dict.fromkeys(controls, 1)

    def test_no_limit_leaves_counts_alone(self, controls):
        before = self.counts(controls)
        with experiment._blas_threads_capped(None) as threads:
            assert self.counts(controls) == before
        assert threads == {name: {"before": n, "during": n} for name, n in before.items()}

    def test_serial_run_takes_one_thread(self, controls, synthetic_ds):
        before = self.counts(controls)
        table = run_experiment(small_cfg(methods=("2D-PCA", "OLPP-R"), realizations=1), dataset=synthetic_ds)
        threads = table.metadata["execution"]["blas_threads"]
        assert threads == {name: {"before": n, "during": 1} for name, n in before.items()}
        assert self.counts(controls) == before

    @pytest.mark.parametrize("method", ["2D-NPP", "2D-ONPP-R", "ONPP-R"])
    def test_serial_reconstruction_weight_run_keeps_the_default(self, controls, synthetic_ds, method):
        # the bits of LLE weights depend on the thread count, so one such
        # method leaves the whole serial run uncapped
        before = self.counts(controls)
        table = run_experiment(small_cfg(methods=("2D-PCA", method), realizations=1), dataset=synthetic_ds)
        threads = table.metadata["execution"]["blas_threads"]
        assert threads == {name: {"before": n, "during": n} for name, n in before.items()}
        assert self.counts(controls) == before


class TestSession:
    def test_a_given_dataset_is_not_loaded(self, synthetic_ds, monkeypatch):
        def no_load(*args):
            raise AssertionError("session loaded a dataset it was given")

        monkeypatch.setattr(experiment, "load_dataset", no_load)
        with session(small_cfg(), synthetic_ds) as (ds, _):
            assert ds is synthetic_ds

    def test_invalid_config_raises_before_the_cap(self, synthetic_ds, monkeypatch):
        def no_cap(limit):
            raise AssertionError("OpenBLAS was capped before the config was checked")

        monkeypatch.setattr(experiment, "_blas_threads_capped", no_cap)
        with pytest.raises(ParameterError, match="exceeds image side limit"):
            with session(small_cfg(dims=(999,)), synthetic_ds):
                raise AssertionError("the block ran")

    def test_counts_restored_after_an_exception(self, controls, synthetic_ds):
        TestBlasThreadCap.set_all(controls, 2)
        with pytest.raises(RuntimeError, match="inside"):
            with session(small_cfg(), synthetic_ds) as (_, threads):
                assert TestBlasThreadCap.counts(controls) == dict.fromkeys(controls, 1)
                assert threads == dict.fromkeys(controls, {"before": 2, "during": 1})
                raise RuntimeError("inside")
        assert TestBlasThreadCap.counts(controls) == dict.fromkeys(controls, 2)

    def test_mode_label(self):
        cfg = small_cfg(methods=("2D-PCA", "PCA"), mode="bilateral")
        assert [mode_label(cfg, name) for name in cfg.methods] == ["bilateral", "vector"]


class TestEmit:
    def test_empty_table_header_only(self, tmp_path):
        path = emit_csv(ResultTable(), tmp_path / "out.csv")
        assert path.read_text() == CSV_HEADER + "\n"

    def test_one_row_golden_bytes(self, tmp_path):
        table = ResultTable(rows=[ResultRow("2D-PCA", "unilateral", 4, 0.05, 0.01, 0.123456789)])
        path = emit_csv(table, tmp_path / "out.csv")
        golden = CSV_HEADER + "\n2D-PCA,unilateral,4,0.05,0.01,0.123457\n"
        assert path.read_bytes() == golden.encode("ascii")

    def test_round_trip(self, tmp_path):
        table = ResultTable(
            rows=[
                ResultRow("2D-PCA", "unilateral", 2, 0.125, 0.0625, 0.25),
                ResultRow("2D-OLPP-R", "bilateral", 10, 1.0 / 3.0, 0.1, 0.5),
            ]
        )
        path = emit_csv(table, tmp_path / "out.csv")
        rows = parse_result_csv(path)
        assert rows[0] == ResultRow("2D-PCA", "unilateral", 2, 0.125, 0.0625, 0.25)
        # six significant digits survive
        assert rows[1].mean_error == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_plotdata_series(self, tmp_path):
        table = ResultTable(
            rows=[
                ResultRow("2D-PCA", "unilateral", 4, 0.25, 0.0, 0.1),
                ResultRow("2D-PCA", "unilateral", 2, 0.5, 0.0, 0.1),
            ]
        )
        files = emit_plotdata(table, tmp_path)
        assert len(files) == 1
        assert files[0].name == "2D-PCA_unilateral.dat"
        assert files[0].read_text() == "2 0.5\n4 0.25\n"

    def test_metadata_sidecar(self, tmp_path, synthetic_ds):
        cfg = small_cfg(methods=("2D-PCA",), dims=(2,), realizations=1)
        table = run_experiment(cfg, dataset=synthetic_ds)
        path = write_metadata(table, tmp_path / "meta.json")
        import json

        meta = json.loads(path.read_text())
        assert meta["config"]["seed"] == 0
        assert meta["artifact_version"]


class TestRepulsionClaim:
    # The paper's claim, pinned where it holds and where it does not: the
    # wins, ties and losses (error below, equal to or above the base's) of
    # a -R method against its base on the same splits of
    # synthetic_confusable(24, seed=0), 10 training images per class,
    # unilateral, split seed 0, each cell scored alone through run_cell.  A
    # change to beta, to a coupling or to the scoring that moves a count
    # must change it here, in the open.
    MEASURED = (
        "commit 482f406 with this class added, by `PYTHONPATH=src python -m pytest "
        "tests/test_experiment.py -k TestRepulsionClaim` at OPENBLAS_NUM_THREADS=1 and 2 (same counts)"
    )

    @pytest.fixture(scope="class")
    def confusable_ds(self):
        return synthetic_confusable(24, seed=0)

    @pytest.mark.parametrize(
        "repelled, base, d, realizations, wins_ties_losses",
        [
            ("2D-NPP-R", "2D-NPP", 2, 10, (10, 0, 0)),
            ("2D-LPP-R", "2D-LPP", 2, 20, (12, 3, 5)),
            ("2D-ONPP-R", "2D-ONPP", 6, 20, (0, 6, 14)),
            ("ONPP-R", "ONPP", 2, 20, (0, 0, 20)),
        ],
    )
    def test_paired_outcome(self, confusable_ds, repelled, base, d, realizations, wins_ties_losses):
        cfg = small_cfg(methods=(repelled, base), dims=(d,), train_per_class=10, realizations=realizations)

        def error(method, realization):
            (cell,) = run_cell(cfg, confusable_ds, method, realization)
            assert cell.failure is None
            return cell.error

        gains = [np.sign(error(base, r) - error(repelled, r)) for r in range(realizations)]
        got = (gains.count(1), gains.count(0), gains.count(-1))
        assert got == wins_ties_losses, f"{repelled} vs {base} at d={d}: measured {wins_ties_losses} at {self.MEASURED}"
