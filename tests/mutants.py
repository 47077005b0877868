#!/usr/bin/env python3
"""Mutation check of the tier-1 suite: apply one plausible bug at a time
to a temporary copy of ``src/`` and run the suite against that copy.

    python3 tests/mutants.py            # every entry
    python3 tests/mutants.py NAME ...   # the named entries only
    python3 tests/mutants.py --list

Each entry names a module of ``src/repel2d``, the exact text it replaces
(which must occur there exactly once), the replacement and the contract
that the replacement breaks.  A mutant is caught when ``pytest -x`` over
``tests/`` fails with it applied, and missed when the suite passes.  An
entry marked open is known to be missed; its note says why no test pins
it.  The exit code is 1 when a mutant that is not open is missed, or an
entry no longer matches its module.

Each entry costs one tier-1 run, about 20 s, so the script stays out of
CI.  pytest does not collect it: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    old: str
    new: str
    contract: str
    open: str = ""  # why no test pins it, for a mutant known to be missed


MUTANTS = (
    Mutant(
        "residual-tol",
        "spectral.py",
        "RESIDUAL_TOL = 1e-8",
        "RESIDUAL_TOL = 1e-7",
        "an eigenpair's residual stays within 1e-8 of the pencil's norm",
    ),
    Mutant(
        "orth-tol",
        "spectral.py",
        "ORTH_TOL = 1e-10",
        "ORTH_TOL = 1e-8",
        "a standard solve's basis is orthonormal to 1e-10",
    ),
    Mutant(
        "definiteness-floor",
        "spectral.py",
        "DEFINITENESS_FLOOR = 1e-10",
        "DEFINITENESS_FLOOR = 1e-9",
        "a constraint is definite, and solved unshifted, above lambda_min / rho = 1e-10",
    ),
    Mutant(
        "converged-strict",
        "embed_2d.py",
        "return abs(new - old) <= tol * max(1.0, abs(old))",
        "return abs(new - old) < tol * max(1.0, abs(old))",
        "an alternation stops at a relative change of exactly tol",
    ),
    Mutant(
        "converged-half-step",
        "embed_2d.py",
        "objectives[-2 if len(objectives) == 2 else -3]",
        "objectives[-2]",
        "after the first, each full step is compared with the previous full step",
    ),
    Mutant(
        "alternation-count",
        "embed_2d.py",
        "for it in range(1, max_iter + 1):",
        "for it in range(1, max_iter):",
        "an unconverged alternation runs max_iter iterations",
    ),
    Mutant(
        "gram-lift-rank",
        "embed_2d.py",
        "max(values[0], 0.0) * 1e-12",
        "max(values[0], 0.0) * 1e-6",
        "the PCA Gram lift keeps every direction above 1e-12 of the largest variance",
    ),
    Mutant(
        "gram-lift-count",
        "embed_2d.py",
        "max(values[0], 0.0) * 1e-12) < d:",
        "max(values[0], 0.0) * 1e-12) < d - 1:",
        "the PCA Gram lift refuses more components than the data's rank",
    ),
    Mutant(
        "gram-lift-in-place",
        "embed_2d.py",
        "basis /= np.sqrt(values)",
        "basis = basis / np.sqrt(values)",
        "the PCA Gram lift scales its (m, d) basis in place",
    ),
    Mutant(
        "sign-fix-in-place",
        "spectral.py",
        "    for col in range(vectors.shape[1]):",
        "    vectors = vectors.copy()\n    for col in range(vectors.shape[1]):",
        "the sign fix flips the array it is given",
    ),
    Mutant(
        "lle-ridge",
        "graphs.py",
        "LLE_RIDGE = 1e-6",
        "LLE_RIDGE = 1e-5",
        "a singular LLE system is solved with the ridge 1e-6 * tr(G) / k",
    ),
    Mutant(
        "lle-forced-ridge",
        "graphs.py",
        "if abs(total) < 1e-300:",
        "if abs(total) < 1e-3:",
        "an LLE row is ridged again only when its plain weights sum to zero",
    ),
    Mutant(
        "vector-one-copy",
        "datasets.py",
        "samples = np.empty((m2, m1, idx.size))",
        'samples = np.empty((m2, m1, idx.size), order="F")',
        "a vector data matrix is built in one copy",
    ),
    Mutant(
        "vector-layout",
        "datasets.py",
        "return samples.reshape(m1 * m2, idx.size), ds.labels[idx]",
        "return np.asfortranarray(samples.reshape(m1 * m2, idx.size)), ds.labels[idx]",
        "a vector data matrix is C-contiguous: products with it round by its layout",
    ),
    Mutant(
        "vector-flatten-order",
        "datasets.py",
        "samples[:, :, j] = ds.images[i].T",
        "samples[:, :, j] = ds.images[i]",
        "a vector data column is its image flattened column-major",
    ),
    Mutant(
        "train-released",
        "experiment.py",
        "unit.train = train = None",
        "unit.train = None",
        "a unit's training samples are released before its query samples are built",
    ),
    Mutant(
        "lle-plain-residual",
        "graphs.py",
        "resid <= 1e-8 * max(1.0, np.linalg.norm(rhs))",
        "resid <= 1e-4 * max(1.0, np.linalg.norm(rhs))",
        "a plain LLE solve is accepted only at a residual of 1e-8",
        open="between 1e-8 and 1e-4 lie only the rounding residuals of near-singular solves, "
        "whose size depends on the BLAS, so no portable input tells the two bounds apart",
    ),
)


def matches(mutant: Mutant, src: Path = ROOT / "src") -> bool:
    """Whether the text ``mutant`` replaces occurs exactly once in its
    module under ``src``."""
    return (src / "repel2d" / mutant.module).read_text(encoding="utf-8").count(mutant.old) == 1


def run_suite(mutant: Mutant) -> bool | None:
    """Whether tier-1 fails with ``mutant`` applied; ``None`` when it does
    not match its module (see :func:`matches`)."""
    with tempfile.TemporaryDirectory(prefix="repel2d-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if not matches(mutant, src):
            return None
        path = src / "repel2d" / mutant.module
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), inherited])))
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", str(ROOT / "tests")]
        result = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return result.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the entries and exit")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    selected = [known[name] for name in args.names] if args.names else list(MUTANTS)
    if args.list:
        for mutant in selected:
            print(f"{mutant.name}: {mutant.module}: {mutant.contract}" + (" [open]" if mutant.open else ""))
        return 0

    counts = {"caught": 0, "missed": 0, "open": 0, "stale": 0}
    for mutant in selected:
        caught = run_suite(mutant)
        if caught is None:
            verdict = "stale"
        elif caught:
            verdict = "caught"
        else:
            verdict = "open" if mutant.open else "missed"
        counts[verdict] += 1
        note = f" ({mutant.open})" if verdict == "open" else ""
        print(f"{verdict:6} {mutant.name}: {mutant.contract}{note}", flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["missed"] or counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
