"""Image dataset ingestion, train/test splitting, and synthetic data.

A dataset directory holds one subdirectory per class, each containing PGM
images.  Directory and file traversal is lexicographic, so loading is
deterministic.  Splits come from a counter-based Philox generator seeded
by the pair (master seed, realization index), which makes every
realization reproducible independently of evaluation order.  A split
reaches the methods as plain arrays: an image stack or a column-sample
matrix, with its label array.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError
from .pgm import block_resize, read_pgm, write_pgm

__all__ = [
    "ImageDataset",
    "load_dataset",
    "check_train_count",
    "split_dataset",
    "matrix_dataset",
    "vector_dataset",
    "synthetic_confusable",
    "write_dataset_pgm",
]

PGM_SUFFIXES = (".pgm", ".pnm")


@dataclass(frozen=True)
class ImageDataset:
    """Stack of equally sized grayscale images with integer class labels.

    ``class_names[labels[k]]`` is the class directory of image ``k``.
    """

    name: str
    images: np.ndarray  # (n, m1, m2), values in [0, 1]
    labels: np.ndarray  # (n,), ints in [0, len(class_names))
    class_names: tuple[str, ...]

    def __post_init__(self):
        imgs = np.asarray(self.images, dtype=np.float64)
        lab = np.asarray(self.labels, dtype=np.int64)
        if imgs.ndim != 3 or imgs.shape[0] == 0:
            raise DataError(f"dataset {self.name!r} needs a non-empty (n, m1, m2) image stack")
        if lab.shape != (imgs.shape[0],):
            raise DataError("need one label per image")
        if not np.array_equal(lab, self.labels):
            raise DataError("labels must be whole numbers")
        if np.any((lab < 0) | (lab >= len(self.class_names))):
            raise DataError(f"labels must lie in [0, {len(self.class_names)}), one per class name")
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple[int, int]:
        return self.images.shape[1:]

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=len(self.class_names))


def load_dataset(root, resize: tuple[int, int] | None = None) -> ImageDataset:
    """Load a class-per-subdirectory tree of PGM images.

    Images are scaled to [0, 1]; with ``resize`` every image is box
    averaged to the given (height, width).  Mixed image sizes without
    ``resize`` are an error, as is any file with a PGM suffix that fails
    to decode.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise DataError(f"dataset root {root} contains no class subdirectories")
    images: list[np.ndarray] = []
    labels: list[int] = []
    for idx, cdir in enumerate(class_dirs):
        files = sorted(p for p in cdir.iterdir() if p.is_file() and p.suffix.lower() in PGM_SUFFIXES)
        if not files:
            raise DataError(f"class directory {cdir} contains no PGM images")
        for f in files:
            img = read_pgm(f)
            if resize is not None:
                img = block_resize(img, resize)
            images.append(img)
            labels.append(idx)
    shapes = {img.shape for img in images}
    if len(shapes) > 1:
        raise DataError(f"images have inconsistent shapes {sorted(shapes)}; pass a resize target")
    return ImageDataset(
        name=root.name,
        images=np.stack(images, axis=0),
        labels=np.asarray(labels),
        class_names=tuple(d.name for d in class_dirs),
    )


def _split_rng(master_seed: int, realization: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(master_seed), int(realization)])))


def check_train_count(ds: ImageDataset, n_train: int):
    """Raise :class:`ParameterError` unless ``n_train`` is at least 1 and
    every class of ``ds`` keeps an image out of a split of ``n_train``."""
    if n_train < 1:
        raise ParameterError(f"n_train must be >= 1, got {n_train}")
    sizes = ds.class_sizes()
    if np.any(sizes <= n_train):
        short = int(np.argmin(sizes))
        raise ParameterError(
            f"class {ds.class_names[short]!r} has {sizes[short]} images; need > {n_train}"
        )


def split_dataset(
    ds: ImageDataset, n_train: int, master_seed: int, realization: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_train`` training images per class, uniformly at random
    (see :func:`check_train_count`).

    Returns sorted, disjoint, exhaustive train and test index arrays.
    The draw depends only on (master_seed, realization).
    """
    check_train_count(ds, n_train)
    rng = _split_rng(master_seed, realization)
    train: list[np.ndarray] = []
    for c in range(len(ds.class_names)):
        members = np.nonzero(ds.labels == c)[0]
        train.append(members[rng.permutation(members.size)[:n_train]])
    train_idx = np.sort(np.concatenate(train))
    mask = np.zeros(ds.n, dtype=bool)
    mask[train_idx] = True
    return train_idx, np.nonzero(~mask)[0]


def matrix_dataset(ds: ImageDataset, indices) -> tuple[np.ndarray, np.ndarray]:
    """The images of a dataset at ``indices`` as matrix data: their
    ``(n, m1, m2)`` image stack and their labels."""
    idx = np.asarray(indices)
    return ds.images[idx], ds.labels[idx]


def vector_dataset(ds: ImageDataset, indices) -> tuple[np.ndarray, np.ndarray]:
    """The images of a dataset at ``indices`` as vector data for the 1D
    methods: an ``(m1 * m2, n)`` matrix holding each image flattened
    column-major in one column, and the labels.

    The matrix is C-contiguous and is the only copy made: it is filled
    image by image, because a fancy index (or ``np.take``) into its
    transposed view would hold a second full-size array.
    """
    idx = np.asarray(indices)
    m1, m2 = ds.image_shape
    samples = np.empty((m2, m1, idx.size))
    for j, i in enumerate(idx):
        samples[:, :, j] = ds.images[i].T
    return samples.reshape(m1 * m2, idx.size), ds.labels[idx]


def synthetic_confusable(n_per_class: int = 24, seed: int = 0) -> ImageDataset:
    """Four classes of 8x8 matrix data where two classes are deliberately
    confusable through shared additive structure.

    Classes ``c0`` and ``c1`` put a strong per-sample random combination
    of common basis matrices in rows 0-3 and only a weak class pattern in
    rows 4-5, so in the input space their members are near neighbors of
    the *other* class as often as their own.  The remaining rows are
    near-silent, which gives attraction-only objectives plenty of
    low-variance directions to prefer over the discriminative one.
    Classes ``c2`` and ``c3`` carry strong distinct templates and are
    easy.  Pixel values are affinely squashed into [0, 1] so the data
    round-trips through PGM files.
    """
    rng = np.random.default_rng(seed)
    m = 8
    shared_basis = rng.normal(size=(3, 4, m))
    patterns = rng.normal(size=(2, 2, m))
    easy_templates = rng.normal(size=(2, 4, m))
    images = []
    labels = []
    for c in range(4):
        for _ in range(n_per_class):
            img = 0.03 * rng.normal(size=(m, m))
            if c < 2:
                img[0:4] += np.tensordot(rng.normal(size=3) * 2.0, shared_basis, axes=1)
                img[4:6] += 0.6 * patterns[c] + 0.4 * rng.normal(size=(2, m))
            else:
                img[0:4] += 2.0 * easy_templates[c - 2] + 0.4 * rng.normal(size=(4, m))
            images.append(img)
            labels.append(c)
    stack = np.asarray(images)
    lo, hi = stack.min(), stack.max()
    stack = (stack - lo) / (hi - lo) if hi > lo else stack * 0.0
    return ImageDataset(
        name=f"synthetic_confusable_{seed}",
        images=stack,
        labels=np.asarray(labels),
        class_names=("c0", "c1", "c2", "c3"),
    )


def write_dataset_pgm(ds: ImageDataset, root):
    """Materialize a dataset as a class-per-subdirectory tree of 8-bit
    binary PGM files."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for c, cname in enumerate(ds.class_names):
        cdir = root / cname
        cdir.mkdir(exist_ok=True)
        members = np.nonzero(ds.labels == c)[0]
        for j, i in enumerate(members):
            write_pgm(cdir / f"img_{j:03d}.pgm", ds.images[i])
    return root
