"""Seeded workloads of the sweep benchmark.

Each workload is a generator that writes a class-per-directory PGM tree
from a seed, plus the sweep configuration run on it.  The program under
test only ever sees the PGM files, which it reads with ``load_dataset``.

Why these three:

* ``orl-uni``: the paper's headline protocol on ORL-shaped data (40
  classes x 10 images of 112x92 on disk, loaded at 56x46, 5 train per
  class).  Subproblem assembly in ``embed_2d`` takes about 60% of the
  traced sweep and ``recognize`` about 20%; ten dimensions per (method,
  realization) is what lets fit reuse across dimensions show.
* ``orl-bi``: the same data in bilateral mode with two worker threads.
  ``embed_2d`` assembly takes about 75% of the worker time and the
  alternating image-order eigensolves (``spectral``) about 9%, more than
  on the other workloads; the ``experiment`` thread pool is active and
  reuse across dimensions is bypassed.
* ``confusable-large-n``: tiny 8x8 images with n=600 training samples.
  ``graphs`` (LLE weights, kNN) takes about 85% of the traced sweep, and
  assembly and eigensolves stay under 4% each, so it is the bypass
  workload for ``embed_2d`` and ``spectral`` changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

ORL_SHAPE = (112, 92)
ORL_CLASSES = 40
ORL_PER_CLASS = 10
# Loaded at half resolution (``--resize 56,46``), as ORL commonly is; at
# 112x92 one orl-uni sweep takes about 40 s on two cores, too long to repeat
# within one benchmark run.
ORL_RESIZE = (56, 46)


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "orl" or "confusable"
    config: dict  # ExperimentConfig fields besides dataset and seed


ORL_2D_METHODS = ("2D-PCA", "2D-OLPP-R", "2D-LPP", "2D-LDA", "2D-LDA-R")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "orl-uni",
            "orl",
            dict(
                methods=ORL_2D_METHODS + ("OLPP-R",),
                mode="unilateral",
                dims=tuple(range(2, 21, 2)),
                train_per_class=5,
                realizations=1,
                jobs=1,
                resize=ORL_RESIZE,
            ),
        ),
        Workload(
            "orl-bi",
            "orl",
            dict(
                methods=ORL_2D_METHODS,
                mode="bilateral",
                dims=(4, 10, 16),
                train_per_class=5,
                realizations=1,
                jobs=2,
                resize=ORL_RESIZE,
            ),
        ),
        Workload(
            "confusable-large-n",
            "confusable",
            dict(
                methods=("2D-OLPP-R", "2D-ONPP-R", "2D-LDA-R", "OLPP-R", "ONPP-R", "LDA-R"),
                mode="unilateral",
                dims=(2, 4, 6),
                train_per_class=150,
                realizations=1,
                jobs=1,
            ),
        ),
    )
}


def _smooth_field(rng: np.random.Generator, shape, sigma: float) -> np.ndarray:
    """Unit-variance Gaussian random field with correlation length ``sigma`` pixels."""
    field = ndimage.gaussian_filter(rng.normal(size=shape), sigma, mode="reflect")
    return field / field.std()


def _shifted(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Translate by whole pixels, repeating the border instead of wrapping."""
    h, w = img.shape
    padded = np.pad(img, 2, mode="edge")
    return padded[2 - dy : 2 - dy + h, 2 - dx : 2 - dx + w]


def orl_like(seed: int, classes: int = ORL_CLASSES, per_class: int = ORL_PER_CLASS, shape=ORL_SHAPE):
    """ORL-shaped image stack: ``(classes * per_class, h, w)`` values in [0, 1]
    and one label per image.

    Each class has its own smooth template around a common mean face.  Each
    image adds shared nuisance variation (lighting ramps and smooth fields
    with per-image weights), a few class-specific smooth modes (pose and
    expression), pixel noise and a shift of up to two pixels per axis.
    """
    rng = np.random.default_rng(seed)
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    ramps = [(yy - h / 2) / h * 2, (xx - w / 2) / w * 2]
    nuisance = np.stack(ramps + [_smooth_field(rng, shape, 12.0) for _ in range(4)])
    mean_face = _smooth_field(rng, shape, 10.0)
    images, labels = [], []
    for c in range(classes):
        template = mean_face + 0.8 * _smooth_field(rng, shape, 6.0)
        modes = np.stack([_smooth_field(rng, shape, 8.0) for _ in range(3)])
        for _ in range(per_class):
            img = template.copy()
            img += np.tensordot(rng.normal(scale=0.5, size=len(nuisance)), nuisance, axes=1)
            img += np.tensordot(rng.normal(scale=0.4, size=len(modes)), modes, axes=1)
            img += 0.3 * rng.normal(size=shape)
            dy, dx = rng.integers(-2, 3, size=2)
            images.append(_shifted(img, int(dy), int(dx)))
            labels.append(c)
    stack = np.clip(0.5 + 0.15 * np.asarray(images), 0.0, 1.0)
    return stack, np.asarray(labels)


def confusable(seed: int, per_class: int = 300):
    """``synthetic_confusable`` from the package: 4 classes of 8x8 images."""
    from repel2d.datasets import synthetic_confusable

    ds = synthetic_confusable(per_class, seed=seed)
    return ds.images, ds.labels


def write_pgm_tree(images: np.ndarray, labels: np.ndarray, root: Path) -> Path:
    """Write 8-bit binary PGM files, one directory per class (``c00``, ...)."""
    root.mkdir(parents=True, exist_ok=True)
    quantized = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    h, w = images.shape[1:]
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    counts: dict[int, int] = {}
    for img, label in zip(quantized, labels):
        k = counts.get(int(label), 0)
        counts[int(label)] = k + 1
        cdir = root / f"c{int(label):02d}"
        cdir.mkdir(exist_ok=True)
        (cdir / f"{k:03d}.pgm").write_bytes(header + img.tobytes())
    return root


def generate(workload: Workload, seed: int, root: Path, tiny: bool = False) -> Path:
    """Write the workload's PGM tree for ``seed`` under ``root``.

    ``tiny`` shrinks the data for the self-tests; it is never timed.
    """
    if workload.data == "orl":
        if tiny:
            images, labels = orl_like(seed, classes=4, per_class=8, shape=(24, 20))
        else:
            images, labels = orl_like(seed)
    else:
        images, labels = confusable(seed, per_class=20 if tiny else 300)
    return write_pgm_tree(images, labels, root)


def tiny_config(workload: Workload) -> dict:
    """The workload's sweep on the tiny data: same methods and mode, small dims."""
    cfg = dict(workload.config)
    cfg["dims"] = (2, 4)
    cfg["train_per_class"] = 4 if workload.data == "orl" else 10
    if "resize" in cfg:
        cfg["resize"] = (12, 10)
    return cfg


def load(workload: Workload, seed: int, data_dir: Path, tiny: bool = False):
    """Load a generated PGM tree; returns the dataset and the sweep's ``ExperimentConfig``."""
    from repel2d.datasets import load_dataset
    from repel2d.experiment import ExperimentConfig

    fields = tiny_config(workload) if tiny else dict(workload.config)
    ds = load_dataset(data_dir, fields.get("resize"))
    return ds, ExperimentConfig(dataset=str(data_dir), seed=seed, **fields)


def setup(workload: Workload, seed: int, root: Path, tiny: bool = False):
    """Generate the workload's PGM tree under ``root`` and load it."""
    return load(workload, seed, generate(workload, seed, root / "data", tiny), tiny)
