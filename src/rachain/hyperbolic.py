"""Poincare-ball geometry: Mobius addition, distances, projection into the ball.

All points live in the open ball { x : c * ||x||^2 < 1 } for curvature
parameter c > 0. The kernels operate on plain float64 arrays (vectors on the
last axis, broadcasting over leading axes).

Mobius addition and the distance are functions of inner products alone
(Ganea et al., "Hyperbolic Neural Networks", 2018): x (+) y = (a x + b y)
/ den with scalars a, b, den in <x,y>, ||x||^2 and ||y||^2
(`mobius_scalars`), and

    ||(-x) (+) y||^2 = (||x||^2 - 2<x,y> + ||y||^2)
                       / (1 - 2c<x,y> + c^2 ||x||^2 ||y||^2),

so `gram_distance` gives `distance_raw` from those three numbers. Points a
filter score needs are folds of vocabulary rows, so it works from their
Gram matrix (see `filter`). The difference ||x||^2 - 2<x,y> + ||y||^2
loses about eps * (||x||^2 + ||y||^2) to rounding where x and y nearly
coincide, so a distance below about 1e-8 is resolved only to that; equal
inputs give 0 exactly.
"""

from __future__ import annotations

import numpy as np

BALL_MARGIN = 1e-5


def mobius_add_raw(x: np.ndarray, y: np.ndarray, c: float = 1.0) -> np.ndarray:
    """Mobius addition x (+) y on the c-ball.

        x (+) y = ((1 + 2c<x,y> + c|y|^2) x + (1 - c|x|^2) y)
                  / (1 + 2c<x,y> + c^2 |x|^2 |y|^2)
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xy = (x * y).sum(axis=-1, keepdims=True)
    xx = (x * x).sum(axis=-1, keepdims=True)
    yy = (y * y).sum(axis=-1, keepdims=True)
    a, b, den = mobius_scalars(xx, xy, yy, c)
    return (a * x + b * y) / den


def mobius_scalars(xx, xy, yy, c: float = 1.0):
    """(a, b, den) of x (+) y = (a x + b y) / den, from ||x||^2, <x,y> and ||y||^2."""
    cross = 1.0 + 2.0 * c * xy
    return cross + c * yy, 1.0 - c * xx, cross + (c * c) * xx * yy


def distance_raw(x: np.ndarray, y: np.ndarray, c: float = 1.0) -> np.ndarray:
    """Geodesic distance (2/sqrt(c)) * arctanh(sqrt(c) * ||(-x) (+) y||)."""
    diff = mobius_add_raw(-np.asarray(x, dtype=np.float64), y, c)
    return _distance_of_norm(np.linalg.norm(diff, axis=-1), c)


def gram_distance(xx, xy, yy, c: float = 1.0):
    """`distance_raw(x, y, c)` from ||x||^2, <x,y> and ||y||^2 (see the module
    docstring for its rounding where x and y nearly coincide)."""
    sq = (xx - 2.0 * xy + yy) / (1.0 - 2.0 * c * xy + (c * c) * xx * yy)
    return _distance_of_norm(np.sqrt(np.maximum(sq, 0.0)), c)


def _distance_of_norm(norm, c: float):
    """(2/sqrt(c)) * arctanh(sqrt(c) * norm), norm being ||(-x) (+) y||."""
    sc = np.sqrt(c)
    # points kept off the boundary by BALL_MARGIN; clamp only guards rounding
    arg = np.minimum(sc * norm, 1.0 - 1e-15)
    return (2.0 / sc) * np.arctanh(arg)


def project_rows(x: np.ndarray, c: float = 1.0, margin: float = BALL_MARGIN) -> np.ndarray:
    """Radially rescale any row with ||row|| >= (1 - margin)/sqrt(c) back inside."""
    x = np.asarray(x, dtype=np.float64)
    max_norm = (1.0 - margin) / np.sqrt(c)
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    scale = np.where(n > max_norm, max_norm / np.where(n > 0.0, n, 1.0), 1.0)
    return x * scale


def random_ball_rows(
    rng: np.random.Generator, n: int, dim: int, curvature: float = 1.0, radius: float = 0.1
) -> np.ndarray:
    """n points sampled uniformly from the sub-ball of the given euclidean radius."""
    if radius >= 1.0 / np.sqrt(curvature):
        raise ValueError("radius must keep points strictly inside the ball")
    direction = rng.standard_normal((n, dim))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    r = radius * rng.random((n, 1)) ** (1.0 / dim)
    return direction * r
