#!/usr/bin/env python3
"""Reproduce the face-dataset protocol: 20 random splits, unilateral and
bilateral sweeps, all methods.

Expects a class-per-subdirectory PGM tree (e.g. the 40-subject set with 10
images of 112x92 per subject), via --dataset or the REPEL2D_ORL_DIR
environment variable.  The two headline cells (unilateral 2D-PCA at d=10,
unilateral 2D-OLPP-R at d=18) are printed against their reference error
rates of 5.10% and 3.20%.  The sweeps run one worker per usable CPU.
The BLAS thread count follows the worker count, so results do not depend
on it except in the 2D-NPP and 2D-ONPP-R rows: those use LLE weights,
whose bits depend on the thread count.
"""

import argparse
import os
import sys
from pathlib import Path

from repel2d.experiment import (
    ExperimentConfig,
    emit_csv,
    emit_plotdata,
    run_experiment,
    usable_cpus,
    write_metadata,
)

METHODS = ("2D-PCA", "2D-LDA", "2D-LPP", "2D-NPP", "2D-LDA-R", "2D-OLPP-R", "2D-ONPP-R")
REFERENCE = {("2D-PCA", 10): 0.0510, ("2D-OLPP-R", 18): 0.0320}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", type=Path, default=os.environ.get("REPEL2D_ORL_DIR"))
    parser.add_argument("--out", type=Path, default=Path("results/orl"))
    parser.add_argument("--train-per-class", type=int, default=5)
    parser.add_argument("--realizations", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dims", type=str, default="2,4,6,8,10,12,14,16,18,20")
    parser.add_argument("--modes", type=str, default="unilateral", help="comma list: unilateral,bilateral")
    args = parser.parse_args()
    if args.dataset is None:
        print("no dataset: pass --dataset or set REPEL2D_ORL_DIR", file=sys.stderr)
        return 1

    dims = tuple(int(tok) for tok in args.dims.split(","))
    for mode in args.modes.split(","):
        cfg = ExperimentConfig(
            dataset=str(args.dataset),
            methods=METHODS,
            mode=mode,
            dims=dims,
            train_per_class=args.train_per_class,
            realizations=args.realizations,
            seed=args.seed,
            jobs=usable_cpus(),
        )
        table = run_experiment(cfg)
        out = args.out / mode
        emit_csv(table, out / "results.csv")
        write_metadata(table, out / "results.meta.json")
        emit_plotdata(table, out / "plotdata")
        print(f"[{mode}] best per method:")
        by_method = {}
        for row in table.rows:
            cur = by_method.get(row.method)
            if cur is None or row.mean_error < cur.mean_error:
                by_method[row.method] = row
        for name, row in by_method.items():
            note = ""
            ref = REFERENCE.get((name, row.dimension))
            if mode == "unilateral" and ref is not None:
                note = f"  (reference {ref:.4f})"
            print(f"  {name:<10} d={row.dimension:<3} error {row.mean_error:.4f}{note}")
        for (name, dim), ref in REFERENCE.items():
            row = next((r for r in table.rows if r.method == name and r.dimension == dim), None)
            if mode == "unilateral" and row is not None:
                print(f"  cell {name} d={dim}: {row.mean_error:.4f} vs reference {ref:.4f}")
    print(f"results under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
