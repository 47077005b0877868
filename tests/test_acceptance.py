"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Criterion 10 is gated on the REPEL2D_ORL_DIR
environment variable pointing at a class-per-subdirectory PGM tree of the
40-subject face dataset (10 images per subject, 112x92).
"""

import os
import time

import numpy as np
import pytest

from _oracles import classify_batch, fit_1d, fit_unilateral, gen_sym_eig, pencil_eigenvalues_3x3, subspace_angle, sym_eig
from repel2d import embed_2d, graphs, recognize
from repel2d.cli import main as cli_main
from repel2d.datasets import (
    load_dataset,
    matrix_dataset,
    split_dataset,
    synthetic_confusable,
)
from repel2d.embed_2d import (
    MethodSpec,
    centering_matrix,
    fit_method,
    lda_weight_matrix,
    method_matrices,
)
from _oracles import (
    Tensor3,
    as_tensor,
    contracted_product_33,
    frobenius_norm,
    mode_product,
    tensor_trace,
)


def report(number: int, label: str, violations: list, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if not violations and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s"
    assert not violations, f"criterion {number}: {violations[:5]}"


def test_criterion_1_tensor_trace_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    violations = []
    for trial in range(200):
        dims = tuple(rng.integers(1, 7, size=3))
        a = Tensor3(rng.normal(size=dims) * rng.uniform(0.1, 10.0))
        norm2 = frobenius_norm(a) ** 2
        via_trace = tensor_trace(contracted_product_33(a, a))
        if abs(norm2 - via_trace) > 1e-10 * max(norm2, 1e-300):
            violations.append((trial, dims, norm2, via_trace))
    report(1, "tensor-trace identity on 200 random tensors", violations, started, 5.0)


def _closed_form_couplings(points, labels, t, knn, beta):
    """Independent reassembly of every method's coupling matrices."""
    n = len(labels)
    sq = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            sq[i, j] = float(np.sum((points[i] - points[j]) ** 2))
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)

    w_gauss = np.where(same, np.exp(-sq / t), 0.0)
    degree = np.diag(w_gauss.sum(axis=1))
    lap = degree - w_gauss

    w_lle = np.zeros((n, n))
    for i in range(n):
        nbrs = np.nonzero(same[i])[0]
        diffs = points[i] - points[nbrs]
        gram = diffs @ diffs.T
        sol = np.linalg.solve(gram, np.ones(len(nbrs)))
        w_lle[i, nbrs] = sol / sol.sum()
    h = (np.eye(n) - w_lle).T @ (np.eye(n) - w_lle)

    w_lda = np.zeros((n, n))
    for value in np.unique(labels):
        members = np.nonzero(labels == value)[0]
        w_lda[np.ix_(members, members)] = 1.0 / members.size
    s = np.eye(n) - w_lda
    j = np.eye(n) - np.full((n, n), 1.0 / n)

    # repulsion Laplacian: union-symmetrized kNN minus label edges
    d2 = sq.copy()
    np.fill_diagonal(d2, np.inf)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, np.argsort(d2[i], kind="stable")[:knn]] = True
    adj |= adj.T
    rep_adj = adj & ~same
    w_rep = np.where(rep_adj, np.exp(-sq / t), 0.0)
    lap_rep = np.diag(w_rep.sum(axis=1)) - w_rep

    eye = np.eye(n)
    return {
        "GLRAM": (None, eye),
        "2D-PCA": (None, j),
        "2D-OLPP": (lap, None),
        "2D-LPP": (lap, degree),
        "2D-ONPP": (h, None),
        "2D-NPP": (h, eye),
        "2D-LDA": (s, j - s),
        "2D-OLPP-R": (lap - beta * lap_rep, None),
        "2D-LPP-R": (lap - beta * lap_rep, degree),
        "2D-ONPP-R": (h - beta * lap_rep, None),
        "2D-NPP-R": (h - beta * lap_rep, eye),
        "2D-LDA-R": (s - beta * lap_rep, j - s),
    }


def test_criterion_2_method_matrix_fidelity():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    violations = []
    for trial in range(4):
        classes = int(rng.integers(2, 5))
        per_class = int(rng.integers(3, 7))
        n = classes * per_class
        assert n <= 30
        labels = np.repeat(np.arange(classes), per_class)
        rng.shuffle(labels)
        # feature count above n keeps the local Gram systems nonsingular
        points = rng.normal(size=(n, 34))
        t = float(rng.uniform(20.0, 80.0))
        beta = float(rng.uniform(0.2, 1.0))
        knn = int(rng.integers(2, 6))
        slices = [points[k].reshape(17, 2, order="F") for k in range(n)]
        ds = np.stack(slices), labels
        expected = _closed_form_couplings(points, labels, t, knn, beta)
        for name, (want_min, want_max) in expected.items():
            spec = method_matrices(name, *ds, knn=knn, beta=beta, bandwidth=t)
            for got, want, side in (
                (spec.min_coupling, want_min, "min"),
                (spec.max_coupling, want_max, "max"),
            ):
                if (got is None) != (want is None):
                    violations.append((trial, name, side, "presence"))
                elif got is not None and np.max(np.abs(got - want)) > 1e-12:
                    violations.append((trial, name, side, float(np.max(np.abs(got - want)))))
        # structural facts about the within-class coupling
        _, s = lda_weight_matrix(labels)
        if np.max(np.abs(s @ s - s)) > 1e-12:
            violations.append((trial, "S idempotent"))
        if int(np.sum(np.linalg.eigvalsh(s) > 1e-10)) != n - classes:
            violations.append((trial, "rank(S)"))
        # zero repulsion strength must reproduce the base rows exactly
        for name in ("2D-OLPP-R", "2D-LPP-R", "2D-ONPP-R", "2D-NPP-R", "2D-LDA-R"):
            zero = method_matrices(name, *ds, knn=knn, beta=0.0, bandwidth=t)
            base = method_matrices(name[:-2], *ds, knn=knn, bandwidth=t)
            if np.max(np.abs(zero.min_coupling - base.min_coupling)) > 0.0:
                violations.append((trial, name, "beta=0 min"))
            if (zero.max_coupling is None) != (base.max_coupling is None):
                violations.append((trial, name, "beta=0 presence"))
            elif zero.max_coupling is not None and np.max(
                np.abs(zero.max_coupling - base.max_coupling)
            ) > 0.0:
                violations.append((trial, name, "beta=0 max"))
    report(2, "coupling-matrix fidelity against closed forms", violations, started, 10.0)


def test_criterion_3_alternating_monotone_orthonormal():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    violations = []
    for trial in range(20):
        m1 = int(rng.integers(2, 13))
        m2 = int(rng.integers(2, 13))
        n = int(rng.integers(4, 26))
        d1 = int(rng.integers(1, m1 + 1))
        d2 = int(rng.integers(1, m2 + 1))
        arr = rng.normal(size=(m1, m2, n))
        coupling = rng.normal(size=(n, n))
        coupling = 0.5 * (coupling + coupling.T)
        spec = MethodSpec("2D-OLPP", coupling, None, "bottom")
        _, trace = fit_method(np.moveaxis(arr, 2, 0), spec, d1, d2, max_iter=5, tol=0.0)
        objs = trace.objectives
        for i in range(len(objs) - 1):
            slack = 1e-10 * max(1.0, abs(objs[i]))
            if objs[i + 1] > objs[i] + slack:
                violations.append((trial, i, objs[i], objs[i + 1]))
        if trace.max_constraint_defect > 1e-10:
            violations.append((trial, "orth", trace.max_constraint_defect))
    report(3, "alternating minimization monotone, factors orthonormal", violations, started, 30.0)


def test_criterion_4_vector_shaped_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    violations = []
    pairs = (("2D-OLPP", "OLPP"), ("2D-LPP", "LPP"), ("2D-ONPP", "ONPP"), ("2D-NPP", "NPP"))
    for trial in range(5):
        classes = int(rng.integers(2, 4))
        per_class = int(rng.integers(4, 7))
        n = classes * per_class
        # fewer features than samples keeps the Gram-side constraints
        # definite; more features than same-class neighbors keeps the
        # reconstruction residuals (and objectives) away from zero
        m = int(rng.integers(per_class, min(n - 1, 11)))
        labels = np.repeat(np.arange(classes), per_class)
        centers = rng.normal(scale=2.0, size=(classes, m))
        x = centers[labels].T + rng.normal(scale=0.6, size=(m, n))
        d = int(rng.integers(1, 4))
        ds2 = np.moveaxis(x[:, None, :], 2, 0), labels
        vds = x, labels
        for name2, name1 in pairs:
            spec = method_matrices(name2, *ds2)
            row_basis, trace = fit_unilateral(ds2[0], spec, "left", d)
            basis_1d, _ = fit_1d(*vds, name1, d, bandwidth=spec.bandwidth)
            a = x @ spec.min_coupling @ x.T
            a = 0.5 * (a + a.T)
            objective_1d = float(np.trace(basis_1d.T @ a @ basis_1d))
            objective_2d = trace.objectives[-1]
            # near-null objectives sit at the float64 noise floor of the two
            # evaluation orders, hence the small norm-scaled absolute term
            tolerance = 1e-8 * abs(objective_1d) + 1e-12 * np.linalg.norm(a)
            if abs(objective_2d - objective_1d) > tolerance:
                violations.append((trial, name2, "objective", objective_2d, objective_1d))
            if name2 in ("2D-OLPP", "2D-ONPP"):
                spectrum = np.linalg.eigvalsh(a)
            else:
                b = x @ spec.max_coupling @ x.T
                import scipy.linalg

                spectrum = scipy.linalg.eigh(a, 0.5 * (b + b.T), eigvals_only=True)
            if spectrum[d] - spectrum[d - 1] > 1e-8:
                angle = subspace_angle(row_basis, basis_1d)
                if angle > 1e-6:
                    violations.append((trial, name2, "angle", angle))
    report(4, "vector-shaped fits match 1D counterparts", violations, started, 30.0)


def test_criterion_5_centering_equals_uniform_reconstruction():
    started = time.perf_counter()
    violations = []
    for n in (3, 8, 17):
        w = np.full((n, n), 1.0 / n)
        middle = graphs._into_penalty(w)
        gap = float(np.max(np.abs(middle - centering_matrix(n))))
        if gap > 1e-12:
            violations.append((n, gap))
    report(5, "uniform-weight reconstruction matrix equals the centering matrix", violations, started, 1.0)


def test_criterion_6_glram_identity_and_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    violations = []
    for trial in range(5):
        m1, m2, n = (int(v) for v in rng.integers(4, 9, size=3))
        d1 = int(rng.integers(1, m1))
        d2 = int(rng.integers(1, m2))
        x = np.moveaxis(rng.normal(size=(m1, m2, n)), 2, 0)
        spec = MethodSpec("GLRAM", None, np.eye(n), "top")
        pair, _ = fit_method(x, spec, d1, d2)
        u, v = pair.row_basis, pair.col_basis
        direct = sum(
            np.linalg.norm(x[k] - u @ u.T @ x[k] @ v @ v.T) ** 2
            for k in range(n)
        )
        y = mode_product(mode_product(as_tensor(x), u.T, 1), v.T, 2)
        via_norms = frobenius_norm(as_tensor(x)) ** 2 - frobenius_norm(y) ** 2
        if abs(direct - via_norms) > 1e-8 * max(direct, 1e-12):
            violations.append((trial, "identity", direct, via_norms))

        u0 = np.linalg.qr(rng.normal(size=(m1, d1)))[0]
        v0 = np.linalg.qr(rng.normal(size=(m2, d2)))[0]
        cores = rng.normal(size=(d1, d2, n))
        exact = np.stack([u0 @ cores[:, :, k] @ v0.T for k in range(n)])
        pair2, trace2 = fit_method(exact, spec, d1, d2, max_iter=3)
        y2 = mode_product(mode_product(as_tensor(exact), pair2.row_basis.T, 1), pair2.col_basis.T, 2)
        residual = frobenius_norm(as_tensor(exact)) ** 2 - frobenius_norm(y2) ** 2
        if residual > 1e-8 * frobenius_norm(as_tensor(exact)) ** 2 or trace2.iterations > 3:
            violations.append((trial, "recovery", residual, trace2.iterations))
    report(6, "low-rank reconstruction identity and exact recovery", violations, started, 20.0)


def test_criterion_7_repulsion_beats_attraction_on_confusable_classes():
    started = time.perf_counter()
    ds = synthetic_confusable(24, seed=0)
    errors = {"2D-LPP": [], "2D-OLPP-R": []}
    for r in range(20):
        train_idx, test_idx = split_dataset(ds, 10, 0, r)
        train, train_labels = matrix_dataset(ds, train_idx)
        test, test_labels = matrix_dataset(ds, test_idx)
        for name in errors:
            spec = method_matrices(name, train, train_labels, knn=6, beta=0.5)
            pair, _ = fit_method(train, spec, 4, 4)
            gallery = recognize.project_tensor(train, pair)
            predictions = classify_batch(
                recognize.project_tensor(test, pair), gallery, train_labels
            )
            errors[name].append(recognize.error_rate(predictions, test_labels))
    lpp = np.asarray(errors["2D-LPP"])
    olppr = np.asarray(errors["2D-OLPP-R"])
    wins = int(np.sum(olppr < lpp))
    violations = []
    if olppr.mean() > lpp.mean():
        violations.append(("means", olppr.mean(), lpp.mean()))
    if wins < 14:
        violations.append(("wins", wins))
    print(
        f"  repulsion mean error {olppr.mean():.4f} vs attraction-only {lpp.mean():.4f}, "
        f"strictly better in {wins}/20 realizations"
    )
    report(7, "repulsion lowers confusable-class error", violations, started, 120.0)


def test_criterion_8_eigensolver_contracts():
    started = time.perf_counter()
    rng = np.random.default_rng(108)
    violations = []
    for trial in range(100):
        order = int(rng.integers(2, 41))
        m = rng.normal(size=(order, order)) * rng.uniform(0.1, 10.0)
        m = 0.5 * (m + m.T)
        d = int(rng.integers(1, order + 1))
        values, vectors = sym_eig(m, d, "bottom" if trial % 2 else "top")
        resid = np.linalg.norm(m @ vectors - vectors * values, axis=0).max()
        if resid > 1e-8 * np.linalg.norm(m):
            violations.append((trial, "sym", resid))
    for trial in range(100):
        order = int(rng.integers(2, 41))
        m = rng.normal(size=(order, order))
        m = 0.5 * (m + m.T)
        half = rng.normal(size=(order, order))
        nmat = half @ half.T + order * np.eye(order)
        d = int(rng.integers(1, order + 1))
        values, vectors = gen_sym_eig(m, nmat, d, "bottom")
        resid = np.linalg.norm(m @ vectors - (nmat @ vectors) * values, axis=0).max()
        if resid > 1e-8 * (np.linalg.norm(m) + np.linalg.norm(nmat)):
            violations.append((trial, "gen", resid))
    for trial in range(50):
        m = rng.normal(size=(3, 3))
        m = 0.5 * (m + m.T)
        half = rng.normal(size=(3, 3))
        nmat = half @ half.T + 3 * np.eye(3)
        got, _ = gen_sym_eig(m, nmat, 3, "bottom")
        want = pencil_eigenvalues_3x3(m, nmat)
        if np.max(np.abs(got - want)) > 1e-8 * max(1.0, np.max(np.abs(want))):
            violations.append((trial, "cubic", got, want))
    report(8, "eigensolver residual/orthogonality contracts and cubic oracle", violations, started, 10.0)


def test_criterion_9_sweep_determinism(tmp_path, synthetic_dir):
    started = time.perf_counter()
    stripped = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(
            [
                "sweep",
                "--dataset", str(synthetic_dir),
                "--method", "2D-PCA,2D-OLPP-R",
                "--dims", "2,4",
                "--train-per-class", "4",
                "--realizations", "3",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "results.csv").read_bytes().decode("ascii").splitlines()
        stripped.append("\n".join(",".join(line.split(",")[:5]) for line in lines))
    violations = [] if stripped[0] == stripped[1] else [("csv mismatch",)]
    report(9, "repeated sweeps byte-identical modulo timing", violations, started, 60.0)


ORL_ENV = "REPEL2D_ORL_DIR"


@pytest.mark.skipif(ORL_ENV not in os.environ, reason=f"{ORL_ENV} not set")
def test_criterion_10_orl_regression():
    started = time.perf_counter()
    ds = load_dataset(os.environ[ORL_ENV])
    targets = {
        ("2D-PCA", 10, 0.0): 0.0510,
        ("2D-OLPP-R", 18, 0.5): 0.0320,
    }
    violations = []
    for (name, dim, beta), expected in targets.items():
        cell_errors = []
        for r in range(20):
            train_idx, test_idx = split_dataset(ds, 5, 0, r)
            train, train_labels = matrix_dataset(ds, train_idx)
            test, test_labels = matrix_dataset(ds, test_idx)
            spec = method_matrices(name, train, train_labels, knn=6, beta=beta or None)
            pair, _ = fit_unilateral(train, spec, "right", dim)
            gallery = recognize.project_tensor(train, pair)
            predictions = classify_batch(
                recognize.project_tensor(test, pair), gallery, train_labels
            )
            cell_errors.append(recognize.error_rate(predictions, test_labels))
        mean = float(np.mean(cell_errors))
        print(f"  {name} unilateral d={dim}: mean error {mean:.4f} (target {expected:.4f} +/- 0.02)")
        if abs(mean - expected) > 0.020:
            violations.append((name, dim, mean, expected))
    report(10, "face-dataset regression", violations, started, 900.0)
