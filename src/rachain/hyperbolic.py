"""Poincare-ball geometry: Mobius addition, distances, origin log map.

All points live in the open ball { x : c * ||x||^2 < 1 } for curvature
parameter c > 0. Raw kernels operate on plain float64 arrays (vectors on the
last axis, broadcasting over leading axes); thin wrappers validate and carry
curvature via PoincareVector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BALL_MARGIN = 1e-5


def mobius_add_raw(x: np.ndarray, y: np.ndarray, c: float = 1.0) -> np.ndarray:
    """Mobius addition x (+) y on the c-ball.

        x (+) y = ((1 + 2c<x,y> + c|y|^2) x + (1 - c|x|^2) y)
                  / (1 + 2c<x,y> + c^2 |x|^2 |y|^2)
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xy = np.sum(x * y, axis=-1, keepdims=True)
    xx = np.sum(x * x, axis=-1, keepdims=True)
    yy = np.sum(y * y, axis=-1, keepdims=True)
    num = (1.0 + 2.0 * c * xy + c * yy) * x + (1.0 - c * xx) * y
    den = 1.0 + 2.0 * c * xy + (c * c) * xx * yy
    return num / den


def distance_raw(x: np.ndarray, y: np.ndarray, c: float = 1.0) -> np.ndarray:
    """Geodesic distance (2/sqrt(c)) * arctanh(sqrt(c) * ||(-x) (+) y||)."""
    sc = np.sqrt(c)
    diff = mobius_add_raw(-np.asarray(x, dtype=np.float64), y, c)
    arg = sc * np.linalg.norm(diff, axis=-1)
    # points kept off the boundary by BALL_MARGIN; clamp only guards rounding
    arg = np.minimum(arg, 1.0 - 1e-15)
    return (2.0 / sc) * np.arctanh(arg)


def distance_arcosh_raw(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unit-ball (c = 1) distance in arcosh form.

        d(x, y) = arcosh(1 + 2 ||x - y||^2 / ((1 - ||x||^2)(1 - ||y||^2)))

    Evaluated as log1p(t + sqrt(t (t + 2))) with t the fraction term, which is
    exact near t = 0 where arcosh(1 + t) loses precision.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dd = np.sum((x - y) ** 2, axis=-1)
    ax = 1.0 - np.sum(x * x, axis=-1)
    ay = 1.0 - np.sum(y * y, axis=-1)
    t = 2.0 * dd / (ax * ay)
    return np.log1p(t + np.sqrt(t * (t + 2.0)))


def log_map_origin_raw(x: np.ndarray, c: float = 1.0) -> np.ndarray:
    """Tangent-space coordinates at the origin: arctanh(sqrt(c)|x|) x / (sqrt(c)|x|).

    Exact zeros for the origin itself.
    """
    x = np.asarray(x, dtype=np.float64)
    sc = np.sqrt(c)
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    safe = np.where(n > 0.0, n, 1.0)
    scale = np.arctanh(np.minimum(sc * n, 1.0 - 1e-15)) / (sc * safe)
    return np.where(n > 0.0, scale * x, 0.0)


def project_rows(x: np.ndarray, c: float = 1.0, margin: float = BALL_MARGIN) -> np.ndarray:
    """Radially rescale any row with ||row|| >= (1 - margin)/sqrt(c) back inside."""
    x = np.asarray(x, dtype=np.float64)
    max_norm = (1.0 - margin) / np.sqrt(c)
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    scale = np.where(n > max_norm, max_norm / np.where(n > 0.0, n, 1.0), 1.0)
    return x * scale


@dataclass(frozen=True, eq=False)
class PoincareVector:
    """A validated point of the open c-ball."""

    coords: np.ndarray
    curvature: float = 1.0

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1:
            raise ValueError(f"expected a single vector, got shape {coords.shape}")
        if self.curvature <= 0.0:
            raise ValueError(f"curvature must be positive, got {self.curvature}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        if self.curvature * float(coords @ coords) >= 1.0:
            raise ValueError(
                f"point with squared norm {float(coords @ coords):.6g} lies outside "
                f"the open ball of curvature {self.curvature}"
            )
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def _check_pair(a: PoincareVector, b: PoincareVector) -> None:
    if a.curvature != b.curvature:
        raise ValueError(f"curvature mismatch: {a.curvature} vs {b.curvature}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def mobius_add(a: PoincareVector, b: PoincareVector) -> PoincareVector:
    _check_pair(a, b)
    out = mobius_add_raw(a.coords, b.coords, a.curvature)
    return PoincareVector(out, a.curvature)


def distance(a: PoincareVector, b: PoincareVector) -> float:
    _check_pair(a, b)
    return float(distance_raw(a.coords, b.coords, a.curvature))


def distance_arcosh(a: PoincareVector, b: PoincareVector) -> float:
    """c = 1 arcosh form; agrees with distance() on the unit ball."""
    _check_pair(a, b)
    if a.curvature != 1.0:
        raise ValueError("arcosh form is defined for curvature 1")
    return float(distance_arcosh_raw(a.coords, b.coords))


def project_to_ball(
    coords: np.ndarray, curvature: float = 1.0, margin: float = BALL_MARGIN
) -> PoincareVector:
    return PoincareVector(project_rows(coords, curvature, margin), curvature)


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
