#!/usr/bin/env python3
"""Record the reference error-column hash of each (workload, seed) in
``references.json``.

    python3 perfbench/make_references.py --seeds 0-31 [--workload orl-uni ...]

Seeds run from 0 to ``run.SEEDS - 1``; ``run.py`` maps any ``--seed`` into
that range.  Runs one sweep per pair on the current checkout.  An entry that is already
stored and differs is reported and left unchanged (exit code 1): error
values must not move, so a differing hash is a finding, not an update.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    sys.path[:0] = [str(run.ROOT / "src")]
    from workloads import WORKLOADS, setup

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-31 or 0,5,7")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    if not all(0 <= seed < run.SEEDS for seed in args.seeds):
        parser.error(f"seeds must lie in 0-{run.SEEDS - 1}")

    stored = json.loads(run.REFERENCES.read_text(encoding="ascii")) if run.REFERENCES.is_file() else {}
    conflicts = 0
    run.WORK.mkdir(exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        for seed in args.seeds:
            work = Path(tempfile.mkdtemp(dir=run.WORK))
            try:
                ds, cfg = setup(WORKLOADS[name], seed, work)
                _, result = run.run_sweep(cfg, ds, work / "out")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result["problems"]:
                print(f"{name} seed {seed}: {result['problems']}", file=sys.stderr)
                conflicts += 1
                continue
            digest = result["hash"]
            old = stored.setdefault(name, {}).setdefault(str(seed), digest)
            if old != digest:
                print(f"{name} seed {seed}: hash {digest} differs from stored {old}", file=sys.stderr)
                conflicts += 1
            print(f"{name} seed {seed}: {digest}", flush=True)
            ordered = {w: dict(sorted(v.items(), key=lambda kv: int(kv[0]))) for w, v in sorted(stored.items())}
            run.REFERENCES.write_text(json.dumps(ordered, indent=1) + "\n", encoding="ascii")
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
