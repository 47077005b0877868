#!/usr/bin/env python3
"""Benchmark the matrix methods on the synthetic confusable-classes data.

Materializes the generator output as a PGM tree, sweeps a handful of
methods over dimensions in both projection modes, and writes CSV +
plot-series files under --out.  Exercises the same code path as
``repel2d sweep``, with one worker per usable CPU.
"""

import argparse
import tempfile
from pathlib import Path

from repel2d.datasets import synthetic_confusable, write_dataset_pgm
from repel2d.experiment import (
    ExperimentConfig,
    emit_csv,
    emit_plotdata,
    run_experiment,
    usable_cpus,
    write_metadata,
)

METHODS = ("2D-PCA", "2D-LPP", "2D-OLPP", "2D-OLPP-R", "2D-ONPP-R", "2D-LDA", "2D-LDA-R")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/synthetic"))
    parser.add_argument("--per-class", type=int, default=24)
    parser.add_argument("--train-per-class", type=int, default=10)
    parser.add_argument("--realizations", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dims", type=str, default="2,4,6")
    args = parser.parse_args()

    dims = tuple(int(tok) for tok in args.dims.split(","))
    ds = synthetic_confusable(args.per_class, seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = write_dataset_pgm(ds, Path(tmp) / "synth")
        for mode in ("unilateral", "bilateral"):
            cfg = ExperimentConfig(
                dataset=str(root),
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
            print(f"[{mode}]")
            for row in table.rows:
                print(
                    f"  {row.method:<10} d={row.dimension:<3} "
                    f"error {row.mean_error:.4f} +/- {row.std_error:.4f}"
                )
    print(f"results under {args.out}")


if __name__ == "__main__":
    main()
