"""Command-line interface.

Subcommands: ``fit`` (train one projector and save it), ``eval`` (score
one method/dimension on a single split), ``bench`` (full protocol, CSV
output), ``sweep`` (bench plus per-method plot series).  Flags override a
flat ``key = value`` config file.  Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical failure (for ``bench`` and ``sweep``: a result
row that no realization survived, reported on stderr once every output
file is written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import embed_2d, experiment
from .errors import (
    ContractError,
    DataError,
    DefinitenessError,
    NumericalQualityError,
    ParameterError,
    RankError,
    ShapeError,
)

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERICAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _int_list(text: str) -> tuple[int, ...]:
    # int() strips each token, so a token with inner whitespace ("1 0") fails
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _pair(text: str) -> tuple[int, int]:
    pair = _int_list(text)
    if len(pair) != 2:
        raise ValueError("expected exactly two integers")
    return pair


def _dataset_path(text: str) -> str:
    if not text.strip():  # Path("") would be the current directory
        raise ValueError("a dataset path is required")
    return str(Path(text))


_MODE_ALIASES = {"uni": "unilateral", "bi": "bilateral"}

# Every run option: its config key and the one converter that reads its text
# from a flag or the config file alike.  An unset option keeps
# ExperimentConfig's default; ``out``, not a field there, defaults to results.
_OPTIONS = {
    "dataset": _dataset_path,
    "methods": lambda text: tuple(tok.strip() for tok in text.split(",") if tok.strip()),
    "mode": lambda text: _MODE_ALIASES.get(text, text),
    "dims": _int_list,
    "train_per_class": int,
    "realizations": int,
    "seed": int,
    "beta": float,
    "knn": int,
    "bandwidth": float,
    "pre_dims": _pair,
    "max_iter": int,
    "jobs": int,
    "resize": _pair,
    "out": Path,
}
_HELP = {"pre_dims": "p1,p2 for 2D-PCA pre-compression", "resize": "h,w box-average resize at load"}


def read_config(path) -> dict:
    """Parse a flat ``key = value`` config file (# starts a comment; each key once)."""
    values: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS and key != "method":
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ParameterError(f"{path}:{lineno}: config key {key!r} repeats line {seen[key]}")
        values[key], seen[key] = value, lineno
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="repel2d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("fit", "fit one method and save the projector pair"),
        ("eval", "score one method at one dimension on a single split"),
        ("bench", "run the full protocol and write results.csv"),
        ("sweep", "bench plus per-method plot series files"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", type=Path, default=None)
        for key in _OPTIONS:
            if key == "methods":
                p.add_argument("--method", dest=key, metavar="METHOD", action="append", help="repeatable; commas allowed")
            else:
                p.add_argument("--" + key.replace("_", "-"), help=_HELP.get(key))
    return parser


def build_config(args: argparse.Namespace) -> tuple[experiment.ExperimentConfig, Path]:
    """Merge the config file and flags (flags win); an option neither sets
    keeps ExperimentConfig's default."""
    texts = read_config(args.config) if args.config else {}
    if "method" in texts:  # the alias yields to ``methods``
        texts.setdefault("methods", texts.pop("method"))
    for key in _OPTIONS:
        flag = getattr(args, key)
        if flag is not None:  # only an absent flag is unset: "" and 0 are read
            texts[key] = ",".join(flag) if key == "methods" else flag
    values = {}
    for key, text in texts.items():
        try:
            values[key] = _OPTIONS[key](text)
        except ValueError as exc:
            raise ParameterError(f"{key}: cannot read {text!r} ({exc})") from exc
    if "dataset" not in values:
        raise ParameterError("a dataset path is required (--dataset or config)")
    out = values.pop("out", Path("results"))
    return experiment.ExperimentConfig(**values), out


def _or_raise(cell: experiment.Cell) -> experiment.Cell:
    if cell.failure is not None:
        raise cell.failure
    return cell


def _one_cell(cfg: experiment.ExperimentConfig, command: str) -> tuple[str, int]:
    """The one method and the one dimension that ``fit`` and ``eval`` run;
    more of either is a usage error, not silently dropped."""
    if len(cfg.methods) != 1:
        raise ParameterError(f"{command} runs one method; --method names {len(cfg.methods)}: {', '.join(cfg.methods)}")
    if len(cfg.dims) != 1:
        dims = ",".join(map(str, cfg.dims))
        raise ParameterError(f"{command} runs one dimension; pass one --dims value (got {dims})")
    return cfg.methods[0], cfg.dims[0]


def _cmd_fit(cfg: experiment.ExperimentConfig, out: Path) -> int:
    method, d = _one_cell(cfg, "fit")
    if method in embed_2d.METHODS and not embed_2d.METHODS[method].matrix:
        raise ParameterError(f"fit saves matrix-method projectors; got {method!r}")
    with experiment.session(cfg) as (ds, _):
        unit = experiment.fit_unit(cfg, ds, method, 0)
    cell = _or_raise(unit.cells[0])
    pair, trace = cell.projector, cell.trace
    out.mkdir(parents=True, exist_ok=True)
    np.savez(out / "projector.npz", row_basis=pair.row_basis, col_basis=pair.col_basis)
    (out / "projector.json").write_text(
        json.dumps(
            {
                "method": method,
                "mode": cfg.mode,
                "dimension": d,
                "sides": pair.sides,
                "constraints": list(pair.constraints),
                "iterations": trace.iterations,
                "converged": trace.converged,
                "objectives": trace.objectives,
                "ridge_shift": trace.ridge_shift,
                "bandwidth": unit.spec.bandwidth,
                "beta": unit.spec.beta,
            },
            indent=2,
        )
        + "\n",
        encoding="ascii",
    )
    print(f"saved projector for {method} (d={d}, {cfg.mode}) to {out}")
    return 0


def _cmd_eval(cfg: experiment.ExperimentConfig, out: Path) -> int:
    method, _ = _one_cell(cfg, "eval")
    with experiment.session(cfg) as (ds, _):
        cell = _or_raise(experiment.run_cell(cfg, ds, method, 0)[0])
    print(f"{method} {experiment.mode_label(cfg, method)} d={cell.dim} error={cell.error:.6g} fit_seconds={cell.seconds:.6g}")
    return 0


def _cmd_bench(cfg: experiment.ExperimentConfig, out: Path, plots: bool) -> int:
    table = experiment.run_experiment(cfg)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = experiment.emit_csv(table, out / "results.csv")
    experiment.write_metadata(table, out / "results.meta.json")
    if plots:
        experiment.emit_plotdata(table, out / "plotdata")
    print(f"wrote {csv_path}")
    failed = False
    for row in table.rows:
        record = table.record(row)
        if not record["errors"]:
            failed = True
            where = f"{row.method} {row.mode} d={row.dimension}"
            reason = record["failures"][0]["reason"]
            print(f"numerical failure: no realization of {where} survived: {reason}", file=sys.stderr)
    return NUMERICAL_EXIT if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg, out = build_config(args)
        if args.command == "fit":
            return _cmd_fit(cfg, out)
        if args.command == "eval":
            return _cmd_eval(cfg, out)
        if args.command == "bench":
            return _cmd_bench(cfg, out, plots=False)
        return _cmd_bench(cfg, out, plots=True)
    except (ParameterError,) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DataError, ShapeError, ContractError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (DefinitenessError, RankError, NumericalQualityError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
