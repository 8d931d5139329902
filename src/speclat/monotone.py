"""Strictly increasing scalar bijections used as the scalar part of
canonical order isomorphisms.

Two closed-form variants are supported: piecewise-linear maps with affine
tails (closed under inversion and composition, and dense enough to carry
any recovered scalar action at grid resolution) and exact power maps
t -> sign(t) |t|^p (closed under inversion and composition as well).
"""

from __future__ import annotations

import numpy as np

from .errors import NotMonotoneError

_KNOT_MERGE = 1e-14


class MonotoneBijection:
    """A strictly increasing bijection of the real line.

    Use the constructors :meth:`piecewise_linear`, :meth:`power` or
    :meth:`identity` rather than ``__init__``.
    """

    def __init__(self, kind, knots=None, values=None, left_slope=None, right_slope=None, exponent=None):
        self.kind = kind
        if kind == "pl":
            self.knots = np.asarray(knots, dtype=float).ravel()
            self.values = np.asarray(values, dtype=float).ravel()
            if len(self.knots) == 0 or len(self.knots) != len(self.values):
                raise NotMonotoneError("knots and values must be nonempty and equal-length")
            if np.any(np.diff(self.knots) <= 0) or np.any(np.diff(self.values) <= 0):
                raise NotMonotoneError("knots and values must be strictly increasing")
            self.left_slope = float(left_slope)
            self.right_slope = float(right_slope)
            if not (self.left_slope > 0 and self.right_slope > 0):
                raise NotMonotoneError("tail slopes must be strictly positive")
            self.exponent = None
        elif kind == "power":
            self.exponent = float(exponent)
            if not self.exponent > 0:
                raise NotMonotoneError("power exponent must be strictly positive")
            self.knots = self.values = None
            self.left_slope = self.right_slope = None
        else:
            raise NotMonotoneError(f"unknown kind {kind!r}")

    @classmethod
    def piecewise_linear(cls, knots, values, left_slope=None, right_slope=None):
        """PL bijection through (knots, values) with affine tails.

        Tail slopes default to the slopes of the outermost segments (or 1.0
        for a single knot).
        """
        knots = np.asarray(knots, dtype=float).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if left_slope is None:
            left_slope = (
                (values[1] - values[0]) / (knots[1] - knots[0])
                if len(knots) > 1 and knots[1] > knots[0]
                else 1.0
            )
        if right_slope is None:
            right_slope = (
                (values[-1] - values[-2]) / (knots[-1] - knots[-2])
                if len(knots) > 1 and knots[-1] > knots[-2]
                else 1.0
            )
        return cls("pl", knots=knots, values=values, left_slope=left_slope, right_slope=right_slope)

    @classmethod
    def power(cls, exponent):
        """t -> sign(t) |t|^exponent; exact inverse is the 1/exponent power."""
        return cls("power", exponent=exponent)

    @classmethod
    def identity(cls):
        return cls.power(1.0)

    def __call__(self, t):
        """f at a scalar (returned as a float) or elementwise on an array.

        A piecewise-linear map interpolates between its knots and runs
        along its affine tails outside them. When every entry lies within
        the knots, the tail passes are skipped: inside the knots they
        return the interpolated values unchanged.
        """
        scalar = np.isscalar(t)
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            y = np.sign(t) * np.abs(t) ** self.exponent
        else:
            knots, values = self.knots, self.values
            # asarray: a 0-d input stays a 0-d array, as the tail passes return it
            y = np.asarray(np.interp(t, knots, values))
            # the tails change nothing when every input lies within the
            # knots; min and max propagate NaN, which fails both comparisons,
            # so a NaN entry still sends the other entries through the tails
            if t.ndim == 0:
                inside = knots[0] <= float(t) <= knots[-1]
            else:
                inside = t.size == 0 or (t.min() >= knots[0] and t.max() <= knots[-1])
            if not inside:
                y = np.where(t < knots[0], values[0] + self.left_slope * (t - knots[0]), y)
                y = np.where(t > knots[-1], values[-1] + self.right_slope * (t - knots[-1]), y)
        return float(y) if scalar else y

    def inverse(self) -> "MonotoneBijection":
        if self.kind == "power":
            return MonotoneBijection.power(1.0 / self.exponent)
        return MonotoneBijection(
            "pl",
            knots=self.values,
            values=self.knots,
            left_slope=1.0 / self.left_slope,
            right_slope=1.0 / self.right_slope,
        )

    def compose(self, inner: "MonotoneBijection") -> "MonotoneBijection":
        """self after inner; both operands must share one closed-form kind."""
        if self.kind == "power" and inner.kind == "power":
            return MonotoneBijection.power(self.exponent * inner.exponent)
        if self.kind == "pl" and inner.kind == "pl":
            pulled = inner.inverse()(self.knots)
            knots = np.sort(np.concatenate([inner.knots, pulled]))
            keep = np.concatenate([[True], np.diff(knots) > _KNOT_MERGE])
            knots = knots[keep]
            return MonotoneBijection(
                "pl",
                knots=knots,
                values=self(inner(knots)),
                left_slope=self.left_slope * inner.left_slope,
                right_slope=self.right_slope * inner.right_slope,
            )
        raise NotMonotoneError("can only compose bijections of matching kind")

    def __repr__(self) -> str:
        if self.kind == "power":
            return f"MonotoneBijection.power({self.exponent:g})"
        return f"MonotoneBijection.piecewise_linear(<{len(self.knots)} knots>)"
