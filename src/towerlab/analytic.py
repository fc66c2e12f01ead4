"""Closed-form minimal graph on a square, used as the reference oracle.

On a square of side s centered at c, with the positive boundary edges the
pair parallel to the x axis, the doubly periodic minimal graph is

    u(q) = (s/pi) * log( cos(pi*(q_x - c_x)/s) / cos(pi*(q_y - c_y)/s) )

which tends to +inf on the horizontal edge pair and -inf on the vertical
pair.  Values and gradients are exact up to rounding; the test suite
verifies once, with high-precision differentiation, that the formula
satisfies the minimal surface equation to 1e-10 before the solver tests
lean on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class OutsideSquare(ValueError):
    """Query point outside the open square of definition."""


@dataclass(frozen=True)
class ScherkSquare:
    """Square domain of the closed-form graph.

    ``rotated`` flips the marking orientation: the positive edge pair
    becomes the vertical one and the graph changes sign.
    """

    center: tuple = (0.5, 0.5)
    side: float = 1.0
    rotated: bool = False


def _local(sq, q):
    q = np.asarray(q, dtype=float)
    rel = (q - np.asarray(sq.center, dtype=float)) / sq.side
    inside = np.max(np.abs(rel), axis=-1) < 0.5
    if not np.all(inside):
        pts = q.reshape(-1, 2)[~np.atleast_1d(inside).ravel()]
        raise OutsideSquare(f"point {tuple(map(float, pts[0]))} outside open square")
    return rel


def scherk_value(sq, q):
    """Graph height at q; q may be a single point or an (N, 2) array."""
    rel = _local(sq, q)
    x = rel[..., 0]
    y = rel[..., 1]
    val = (sq.side / math.pi) * (np.log(np.cos(math.pi * x)) - np.log(np.cos(math.pi * y)))
    if sq.rotated:
        val = -val
    if val.ndim == 0:
        return float(val)
    return val


def scherk_gradient(sq, q):
    """Graph gradient at q; shape matches the input points."""
    rel = _local(sq, q)
    x = rel[..., 0]
    y = rel[..., 1]
    gx = -np.tan(math.pi * x)
    gy = np.tan(math.pi * y)
    g = np.stack([gx, gy], axis=-1)
    if sq.rotated:
        g = -g
    return g
