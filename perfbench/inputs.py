"""Seeded input generator for the benchmark.

Uses numpy only and never imports concgraph, so a change to the program
cannot change the benchmark's inputs.  Every file's data comes from
``default_rng((seed, tag, index))``.  A raw-unit file has each column
multiplied by a scale drawn log-uniformly over 1e-3..1e3 and shifted by an
offset, which leaves every partial correlation unchanged.
"""

from __future__ import annotations

import numpy as np

RAW_SCALE_DECADES = 3.0


def chain_precision(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-diagonal precision with a chain (i, i+1) and long-range edges
    (i, i + dim // 4) every fourth variable.  Unless dim // 4 is a multiple
    of 4, no row gets two long-range edges, so every row is strictly
    diagonally dominant (at most 0.35 + 0.35 + 0.2 off the diagonal) and
    the matrix is positive definite."""
    k = np.eye(dim)
    for i in range(dim - 1):
        k[i, i + 1] = k[i + 1, i] = -rng.uniform(0.15, 0.35)
    hop = max(2, dim // 4)
    for i in range(0, dim - hop, 4):
        k[i, i + hop] = k[i + hop, i] = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.2)
    return k


def gaussian_sample(precision: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from N(0, precision^-1): x = z L^-T with precision = L L^T."""
    chol = np.linalg.cholesky(precision)
    z = rng.standard_normal((n, precision.shape[0]))
    return np.linalg.solve(chol, z.T).T


def to_raw_units(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    dim = values.shape[1]
    scale = 10.0 ** rng.uniform(-RAW_SCALE_DECADES, RAW_SCALE_DECADES, size=dim)
    offset = scale * rng.uniform(-50.0, 50.0, size=dim)
    return values * scale + offset


def dataset(seed: int, tag: int, index: int, dim: int, n: int, raw: bool) -> np.ndarray:
    """The index-th dataset of a family, in raw units if asked."""
    rng = np.random.default_rng((seed, tag, index))
    values = gaussian_sample(chain_precision(dim, rng), n, rng)
    if raw:
        values = to_raw_units(values, rng)
    return values


def distinct_sizes(seed: int, tag: int, count: int, lo: int, hi: int) -> list[int]:
    """count distinct sample sizes from [lo, hi], in seeded order."""
    rng = np.random.default_rng((seed, tag))
    return [int(v) for v in rng.choice(np.arange(lo, hi + 1), size=count, replace=False)]


def write_csv(path, values: np.ndarray) -> None:
    """Header x1..xN, then one row per observation; repr keeps every bit."""
    names = ",".join(f"x{k + 1}" for k in range(values.shape[1]))
    lines = [names]
    lines.extend(",".join(map(repr, row)) for row in values.tolist())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
